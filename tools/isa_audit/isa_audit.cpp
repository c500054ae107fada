/// \file isa_audit.cpp
/// See isa_audit.hpp for the contract this enforces.

#include "isa_audit/isa_audit.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <istream>
#include <sstream>

#include "util/json.hpp"
#include "util/require.hpp"

namespace slipflow::tools {

namespace {

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool is_ident(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())))
    s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())))
    s.remove_suffix(1);
  return s;
}

/// Legacy/ignorable prefixes objdump prints as separate tokens before
/// the mnemonic.
bool is_insn_prefix(std::string_view tok) {
  static constexpr std::string_view kPrefixes[] = {
      "lock", "rep",   "repz",     "repe",   "repnz",    "repne", "bnd",
      "notrack", "data16", "addr32", "xacquire", "xrelease", "cs",  "ds",
      "es", "fs", "gs", "ss"};
  for (const auto p : kPrefixes)
    if (tok == p) return true;
  return false;
}

/// Mnemonics that begin with 'v' but are pre-AVX system instructions,
/// not VEX-encoded vector ops.
bool is_non_vector_v_mnemonic(std::string_view m) {
  static constexpr std::string_view kSystem[] = {
      "verr", "verw", "vmcall", "vmclear", "vmfunc", "vmlaunch",
      "vmload", "vmmcall", "vmptrld", "vmptrst", "vmread", "vmresume",
      "vmrun", "vmsave", "vmwrite", "vmxoff", "vmxon"};
  for (const auto s : kSystem)
    if (m == s) return true;
  return false;
}

/// EVEX-only mnemonic families: encodable only under AVX-512 even when
/// the printed operands are xmm0..15 (so register inspection alone
/// would misclassify them as plain AVX).
bool is_evex_only_mnemonic(std::string_view m) {
  static constexpr std::string_view kEvexPrefixes[] = {
      "vpternlog", "vpermt2",   "vpermi2",  "vrndscale", "vscalef",
      "vgetexp",   "vgetmant",  "vfixupimm", "vrange",   "vreduce",
      "vpcompress", "vpexpand", "vcompress", "vexpand",  "vblendm",
      "vpblendm",  "vptestm",   "vptestnm", "vpsra",     "vcvtusi",
      "vcvtuqq",   "vcvtudq",   "vcvtqq",   "vcvttpd2udq",
      "vcvttpd2uqq", "vcvttps2udq", "vcvttps2uqq", "vpmovm2", "vpmov",
      "vpbroadcastm", "vplzcnt", "vpconflict", "vpmullq", "vpminuq",
      "vpminsq",   "vpmaxuq",   "vpmaxsq",  "vpabsq",    "vprol",
      "vpror",     "valign",    "vdbpsadbw", "vpmadd52", "vshuff32",
      "vshuff64",  "vshufi32",  "vshufi64", "vextractf32", "vextractf64",
      "vextracti32", "vextracti64", "vinsertf32", "vinsertf64",
      "vinserti32", "vinserti64", "vbroadcastf32", "vbroadcastf64",
      "vbroadcasti32", "vbroadcasti64"};
  // vpsra{q} is EVEX-only only in its q form; be precise for the
  // families where the legacy form exists.
  if (starts_with(m, "vpsra") && !starts_with(m, "vpsraq")) return false;
  if (starts_with(m, "vpmov") &&
      (starts_with(m, "vpmovmsk") || starts_with(m, "vpmovsx") ||
       starts_with(m, "vpmovzx")))
    return false;  // VEX forms exist
  for (const auto p : kEvexPrefixes)
    if (starts_with(m, p)) return true;
  // Opmask register moves/logic (kmovw, kandb, korw, ...): AVX-512 only.
  if (m.size() >= 2 && m[0] == 'k' &&
      (starts_with(m, "kmov") || starts_with(m, "kand") ||
       starts_with(m, "kor") || starts_with(m, "kxor") ||
       starts_with(m, "kxnor") || starts_with(m, "knot") ||
       starts_with(m, "ktest") || starts_with(m, "kshift") ||
       starts_with(m, "kadd") || starts_with(m, "kunpck")))
    return true;
  return false;
}

/// True if the operand string uses an AVX-512-only register: any %zmm,
/// an opmask %k0..%k7, or %xmm16..%xmm31 / %ymm16..%ymm31 (EVEX
/// extended encodings).
bool operands_use_avx512_regs(std::string_view ops) {
  for (std::size_t i = 0; i + 1 < ops.size(); ++i) {
    if (ops[i] != '%') continue;
    const std::string_view rest = ops.substr(i + 1);
    if (starts_with(rest, "zmm")) return true;
    if (rest.size() >= 2 && rest[0] == 'k' &&
        std::isdigit(static_cast<unsigned char>(rest[1])) &&
        (rest.size() == 2 || !is_ident(rest[2])))
      return true;
    if (starts_with(rest, "xmm") || starts_with(rest, "ymm")) {
      std::size_t j = 3;
      unsigned idx = 0;
      bool any = false;
      while (j < rest.size() &&
             std::isdigit(static_cast<unsigned char>(rest[j]))) {
        idx = idx * 10 + static_cast<unsigned>(rest[j] - '0');
        ++j;
        any = true;
      }
      if (any && idx >= 16) return true;
    }
  }
  return false;
}

bool operands_use_vector_regs(std::string_view ops, std::string_view which) {
  std::size_t pos = 0;
  while ((pos = ops.find(which, pos)) != std::string_view::npos) {
    if (pos > 0 && ops[pos - 1] == '%') return true;
    ++pos;
  }
  return false;
}

}  // namespace

const char* isa_level_name(IsaLevel level) {
  switch (level) {
    case IsaLevel::baseline: return "baseline";
    case IsaLevel::avx2: return "avx2";
    case IsaLevel::avx512: return "avx512";
  }
  return "?";
}

std::optional<IsaLevel> parse_isa_level(std::string_view name) {
  if (name == "baseline") return IsaLevel::baseline;
  if (name == "avx2") return IsaLevel::avx2;
  if (name == "avx512") return IsaLevel::avx512;
  return std::nullopt;
}

InsnClass classify_instruction(std::string_view mnemonic,
                               std::string_view operands) {
  InsnClass c;
  if (mnemonic.empty()) return c;

  c.fma = starts_with(mnemonic, "vfmadd") || starts_with(mnemonic, "vfmsub") ||
          starts_with(mnemonic, "vfnmadd") || starts_with(mnemonic, "vfnmsub");

  if (operands_use_avx512_regs(operands) || is_evex_only_mnemonic(mnemonic)) {
    c.level = IsaLevel::avx512;
    return c;
  }
  const bool v_vector =
      mnemonic[0] == 'v' && !is_non_vector_v_mnemonic(mnemonic);
  if (v_vector || (mnemonic[0] != 'v' &&
                   operands_use_vector_regs(operands, "ymm"))) {
    // Any VEX encoding (ymm use, or a v-prefixed xmm op) faults on a
    // pre-AVX machine, so it all lands in one policy class.
    c.level = IsaLevel::avx2;
    return c;
  }
  c.level = IsaLevel::baseline;
  return c;
}

std::optional<ListingInsn> parse_listing_line(std::string_view line) {
  // Instruction lines look like (with --no-show-raw-insn):
  //   "  1a2b:\tvaddpd %ymm0,%ymm1,%ymm2"
  // or, with the raw-bytes column:
  //   "  1a2b:\t62 f1 f5 48 58 d0 \tvaddpd %zmm0,%zmm1,%zmm2"
  const std::string_view trimmed = trim(line);
  if (trimmed.empty()) return std::nullopt;

  // Address field: hex digits followed by ':'.
  std::size_t i = 0;
  while (i < trimmed.size() &&
         std::isxdigit(static_cast<unsigned char>(trimmed[i])))
    ++i;
  if (i == 0 || i >= trimmed.size() || trimmed[i] != ':') return std::nullopt;
  const std::string_view addr = trimmed.substr(0, i);
  std::string_view rest = trimmed.substr(i + 1);

  // With the raw-bytes column present, the instruction text is the last
  // tab-separated field; continuation lines carry bytes only.
  const std::size_t last_tab = rest.rfind('\t');
  if (last_tab != std::string_view::npos) rest = rest.substr(last_tab + 1);
  rest = trim(rest);
  if (rest.empty()) return std::nullopt;

  // Pure hex-byte field (raw mode continuation) — not an instruction.
  const bool all_hex = std::all_of(rest.begin(), rest.end(), [](char ch) {
    return std::isxdigit(static_cast<unsigned char>(ch)) != 0 || ch == ' ';
  });
  if (all_hex) return std::nullopt;
  if (rest == "..." || starts_with(rest, "(bad)") || rest[0] == '.')
    return std::nullopt;

  // Split off prefixes, then the mnemonic.
  ListingInsn insn;
  insn.address = std::string(addr);
  std::string_view cur = rest;
  for (;;) {
    const std::size_t sp = cur.find_first_of(" \t");
    const std::string_view tok =
        sp == std::string_view::npos ? cur : cur.substr(0, sp);
    if (is_insn_prefix(tok) && sp != std::string_view::npos) {
      cur = trim(cur.substr(sp + 1));
      continue;
    }
    insn.mnemonic = std::string(tok);
    insn.operands =
        sp == std::string_view::npos ? std::string() : std::string(trim(cur.substr(sp + 1)));
    break;
  }
  // Comment trailer objdump appends ("# 12 <sym>", "<sym+0x8>").
  const std::size_t hash = insn.operands.find(" #");
  if (hash != std::string::npos) insn.operands.resize(hash);
  return insn;
}

bool glob_match(std::string_view pattern, std::string_view text) {
  // Iterative greedy match with backtracking over '*'.
  std::size_t p = 0, t = 0;
  std::size_t star = std::string_view::npos, mark = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == text[t] || pattern[p] == '?')) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      mark = t;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

const TuRule& IsaPolicy::rule_for(std::string_view tu) const {
  for (const TuRule& r : rules)
    if (glob_match(r.pattern, tu)) return r;
  return fallback;
}

IsaPolicy IsaPolicy::parse(std::istream& in) {
  IsaPolicy policy;
  bool have_default = false;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::string_view s = trim(line);
    if (s.empty() || s[0] == '#') continue;
    std::istringstream fields{std::string(s)};
    std::string kind;
    fields >> kind;
    TuRule rule;
    rule.line = lineno;
    if (kind == "tu") {
      fields >> rule.pattern;
      SLIPFLOW_REQUIRE_MSG(!rule.pattern.empty(),
                           "isa policy line " << lineno << ": missing glob");
    } else {
      SLIPFLOW_REQUIRE_MSG(kind == "default", "isa policy line "
                                                  << lineno
                                                  << ": expected 'tu' or "
                                                     "'default', got '"
                                                  << kind << "'");
      rule.pattern = "<default>";
    }
    bool have_max = false, have_fma = false;
    std::string attr;
    while (fields >> attr) {
      const std::size_t eq = attr.find('=');
      SLIPFLOW_REQUIRE_MSG(eq != std::string::npos,
                           "isa policy line " << lineno << ": bad attribute '"
                                              << attr << "'");
      const std::string key = attr.substr(0, eq);
      const std::string val = attr.substr(eq + 1);
      if (key == "max") {
        const auto lvl = parse_isa_level(val);
        SLIPFLOW_REQUIRE_MSG(lvl.has_value(), "isa policy line "
                                                  << lineno
                                                  << ": unknown level '" << val
                                                  << "'");
        rule.max_level = *lvl;
        have_max = true;
      } else if (key == "fma") {
        SLIPFLOW_REQUIRE_MSG(val == "allow" || val == "forbid",
                             "isa policy line " << lineno << ": fma must be "
                                                   "allow|forbid, got '"
                                                << val << "'");
        rule.allow_fma = val == "allow";
        have_fma = true;
      } else {
        SLIPFLOW_REQUIRE_MSG(false, "isa policy line "
                                        << lineno << ": unknown key '" << key
                                        << "'");
      }
    }
    SLIPFLOW_REQUIRE_MSG(have_max && have_fma,
                         "isa policy line " << lineno
                                            << ": need both max= and fma=");
    if (kind == "default") {
      SLIPFLOW_REQUIRE_MSG(!have_default,
                           "isa policy line " << lineno
                                              << ": duplicate default");
      policy.fallback = rule;
      have_default = true;
    } else {
      policy.rules.push_back(std::move(rule));
    }
  }
  SLIPFLOW_REQUIRE_MSG(have_default, "isa policy: missing 'default' line");
  return policy;
}

IsaPolicy IsaPolicy::parse_file(const std::string& path) {
  std::ifstream in(path);
  SLIPFLOW_REQUIRE_MSG(in.good(), "cannot open isa policy '" << path << "'");
  return parse(in);
}

TuAudit audit_listing(std::string_view tu, std::istream& listing,
                      const IsaPolicy& policy, AuditMode mode) {
  const TuRule& rule = policy.rule_for(tu);
  TuAudit audit;
  audit.tu = std::string(tu);
  audit.rule_pattern = rule.pattern;

  std::string line;
  while (std::getline(listing, line)) {
    const auto insn = parse_listing_line(line);
    if (!insn) continue;
    ++audit.instructions;
    const InsnClass c = classify_instruction(insn->mnemonic, insn->operands);
    ++audit.level_counts[static_cast<std::size_t>(c.level)];
    if (c.fma) ++audit.fma_count;

    // One violation record per instruction; the reason lists every
    // policy rule the instruction breaks.
    std::string reason;
    if (c.fma && !rule.allow_fma) {
      reason = "FMA forbidden in this TU (-ffp-contract=off contract)";
    }
    if (mode == AuditMode::strict && c.level > rule.max_level) {
      if (!reason.empty()) reason += "; ";
      reason += std::string(isa_level_name(c.level)) +
                " instruction exceeds TU ceiling " +
                isa_level_name(rule.max_level);
    }
    if (!reason.empty()) {
      ++audit.violation_count;
      if (audit.violations.size() < kMaxViolationDetail) {
        audit.violations.push_back(
            {insn->address, insn->mnemonic, std::move(reason)});
      } else {
        audit.truncated = true;
      }
    }
  }
  return audit;
}

namespace {

/// The object file one compile_commands.json entry writes, or "".
std::string compile_output(const util::JsonValue& entry) {
  if (const util::JsonValue* out = entry.find("output"))
    return out->as_string();
  std::vector<std::string> args;
  if (const util::JsonValue* a = entry.find("arguments")) {
    for (const util::JsonValue& v : a->as_array())
      args.push_back(v.as_string());
  } else if (const util::JsonValue* c = entry.find("command")) {
    std::istringstream in(c->as_string());
    for (std::string tok; in >> std::quoted(tok);) args.push_back(tok);
  }
  for (std::size_t i = 0; i + 1 < args.size(); ++i)
    if (args[i] == "-o") return args[i + 1];
  return {};
}

/// "lbm/CMakeFiles/slipflow_lbm.dir/kernels_tile_avx2.cpp.o"
///   -> "lbm/kernels_tile_avx2.cpp.o"
std::string tu_id(const std::filesystem::path& rel_to_src) {
  std::string id;
  for (const auto& comp : rel_to_src) {
    const std::string s = comp.string();
    if (s == "CMakeFiles" || (s.size() > 4 && s.ends_with(".dir"))) continue;
    if (!id.empty()) id += '/';
    id += s;
  }
  return id;
}

}  // namespace

BuildObjects build_graph_objects(const std::string& build_dir) {
  namespace fs = std::filesystem;
  const fs::path db_path = fs::path(build_dir) / "compile_commands.json";
  std::ifstream db(db_path);
  SLIPFLOW_REQUIRE_MSG(db.good(), "no " << db_path.string()
                                        << " (is --build-dir a configured "
                                           "build?)");
  std::ostringstream text;
  text << db.rdbuf();
  const fs::path src = fs::weakly_canonical(fs::path(build_dir) / "src");

  const util::JsonValue commands = util::json_parse(text.str());
  BuildObjects found;
  for (const util::JsonValue& entry : commands.as_array()) {
    const std::string out = compile_output(entry);
    if (out.empty()) continue;
    const fs::path obj = fs::weakly_canonical(
        fs::path(entry.string_or("directory", build_dir)) / out);
    const fs::path rel = obj.lexically_relative(src);
    if (rel.empty() || *rel.begin() == "..") continue;
    if (!fs::is_regular_file(obj)) {
      ++found.unbuilt;
      continue;
    }
    found.objects.push_back(BuildObject{obj.string(), tu_id(rel)});
  }
  std::sort(found.objects.begin(), found.objects.end(),
            [](const BuildObject& a, const BuildObject& b) {
              return a.path < b.path;
            });
  return found;
}

std::string audit_report_json(const std::vector<TuAudit>& audits,
                              AuditMode mode, std::string_view policy_path) {
  using util::json_number;
  using util::json_string;
  std::string out;
  std::size_t total_insns = 0, total_violations = 0;
  for (const TuAudit& a : audits) {
    total_insns += a.instructions;
    total_violations += a.violation_count;
  }
  out += "{\n";
  out += "  \"mode\": " +
         json_string(mode == AuditMode::strict ? "strict" : "contract-only") +
         ",\n";
  out += "  \"policy\": " + json_string(policy_path) + ",\n";
  out += "  \"objects\": " +
         json_number(static_cast<long long>(audits.size())) + ",\n";
  out += "  \"instructions\": " +
         json_number(static_cast<long long>(total_insns)) + ",\n";
  out += "  \"violation_count\": " +
         json_number(static_cast<long long>(total_violations)) + ",\n";
  out += "  \"tus\": [\n";
  for (std::size_t i = 0; i < audits.size(); ++i) {
    const TuAudit& a = audits[i];
    out += "    {\"tu\": " + json_string(a.tu) +
           ", \"rule\": " + json_string(a.rule_pattern) +
           ", \"instructions\": " +
           json_number(static_cast<long long>(a.instructions)) +
           ", \"baseline\": " +
           json_number(static_cast<long long>(a.level_counts[0])) +
           ", \"avx2\": " +
           json_number(static_cast<long long>(a.level_counts[1])) +
           ", \"avx512\": " +
           json_number(static_cast<long long>(a.level_counts[2])) +
           ", \"fma\": " + json_number(static_cast<long long>(a.fma_count)) +
           ", \"violation_count\": " +
           json_number(static_cast<long long>(a.violation_count)) +
           ", \"violations\": [";
    for (std::size_t v = 0; v < a.violations.size(); ++v) {
      if (v) out += ", ";
      out += "{\"address\": " + json_string(a.violations[v].address) +
             ", \"mnemonic\": " + json_string(a.violations[v].mnemonic) +
             ", \"reason\": " + json_string(a.violations[v].reason) + "}";
    }
    out += "]}";
    out += i + 1 < audits.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace slipflow::tools
