/// \file main.cpp
/// CLI for the ISA/FMA binary audit.
///
///   isa_audit --build-dir=build [--policy=tools/isa_policy.conf]
///             [--mode=strict|contract-only] [--objdump=objdump]
///             [--json=report.json] [--quiet]
///   isa_audit --listing=fixture.txt --tu=lbm/kernels_plan.cpp.o
///             --policy=... [--mode=...]
///
/// Build-dir mode takes the object files of the current build graph
/// under <build>/src from <build>/compile_commands.json (a stale object
/// of a deleted TU is not audited), derives the TU id (object path with
/// the CMakeFiles/<target>.dir infix removed, e.g.
/// "lbm/kernels_tile_avx2.cpp.o"), disassembles it with objdump and
/// audits each instruction against the policy manifest.
/// Listing mode audits one pre-captured listing — the fixture path the
/// tests and the CI "the audit must be able to fail" step use.
///
/// Exit status: 0 clean, 1 policy violations found, 2 usage/run error.

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "isa_audit/isa_audit.hpp"
#include "util/options.hpp"
#include "util/require.hpp"

using namespace slipflow;
using namespace slipflow::tools;

namespace {

/// Run `objdump -d --no-show-raw-insn <obj>` and capture stdout.
std::string disassemble(const std::string& objdump, const std::string& path) {
  const std::string cmd =
      objdump + " -d --no-show-raw-insn '" + path + "' 2>/dev/null";
  std::unique_ptr<FILE, int (*)(FILE*)> pipe(::popen(cmd.c_str(), "r"),
                                             ::pclose);
  SLIPFLOW_REQUIRE_MSG(pipe != nullptr, "popen failed for " << cmd);
  std::string out;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe.get())) > 0)
    out.append(buf, n);
  return out;
}

int fail_usage(const char* msg) {
  std::fprintf(stderr, "isa_audit: %s\n", msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Options opts = util::Options::parse(argc, argv);
  const std::string build_dir = opts.get("build-dir", std::string());
  const std::string listing_path = opts.get("listing", std::string());
  const std::string tu_name = opts.get("tu", std::string());
  const std::string policy_path =
      opts.get("policy", std::string("tools/isa_policy.conf"));
  const std::string mode_name = opts.get("mode", std::string("strict"));
  const std::string objdump = opts.get("objdump", std::string("objdump"));
  const std::string json_path = opts.get("json", std::string());
  const bool quiet = opts.get("quiet", false);
  for (const std::string& k : opts.unused_keys())
    return fail_usage(("unknown option --" + k).c_str());

  AuditMode mode;
  if (mode_name == "strict") {
    mode = AuditMode::strict;
  } else if (mode_name == "contract-only") {
    mode = AuditMode::contract_only;
  } else {
    return fail_usage("--mode must be strict or contract-only");
  }

  try {
    const IsaPolicy policy = IsaPolicy::parse_file(policy_path);
    std::vector<TuAudit> audits;

    if (!listing_path.empty()) {
      if (tu_name.empty())
        return fail_usage("--listing requires --tu=<tu-id>");
      std::ifstream in(listing_path);
      SLIPFLOW_REQUIRE_MSG(in.good(),
                           "cannot open listing '" << listing_path << "'");
      audits.push_back(audit_listing(tu_name, in, policy, mode));
    } else {
      if (build_dir.empty())
        return fail_usage("need --build-dir=<dir> or --listing=<file>");
      const BuildObjects graph = build_graph_objects(build_dir);
      SLIPFLOW_REQUIRE_MSG(!graph.objects.empty(),
                           "no built object files of the build graph under "
                               << build_dir << "/src — build first");
      if (graph.unbuilt > 0)
        std::fprintf(stderr,
                     "isa_audit: %zu object(s) of the build graph not built "
                     "yet; auditing the %zu that are\n",
                     graph.unbuilt, graph.objects.size());
      for (const BuildObject& obj : graph.objects) {
        std::istringstream listing(disassemble(objdump, obj.path));
        audits.push_back(audit_listing(obj.tu, listing, policy, mode));
      }
    }

    std::size_t violations = 0, insns = 0;
    for (const TuAudit& a : audits) {
      violations += a.violation_count;
      insns += a.instructions;
      if (!quiet) {
        std::printf("%-44s %8zu insns  base=%zu avx2=%zu avx512=%zu fma=%zu"
                    "  [rule %s]%s\n",
                    a.tu.c_str(), a.instructions, a.level_counts[0],
                    a.level_counts[1], a.level_counts[2], a.fma_count,
                    a.rule_pattern.c_str(),
                    a.violation_count ? "  VIOLATIONS" : "");
      }
      for (const IsaViolation& v : a.violations)
        std::fprintf(stderr, "isa_audit: %s: %s at 0x%s: %s\n", a.tu.c_str(),
                     v.mnemonic.c_str(), v.address.c_str(), v.reason.c_str());
      if (a.truncated)
        std::fprintf(stderr, "isa_audit: %s: ... %zu violations total\n",
                     a.tu.c_str(), a.violation_count);
    }

    if (!json_path.empty()) {
      std::ofstream out(json_path);
      SLIPFLOW_REQUIRE_MSG(out.good(),
                           "cannot write json '" << json_path << "'");
      out << audit_report_json(audits, mode, policy_path);
    }

    std::printf("isa_audit [%s]: %zu objects, %zu instructions, "
                "%zu violation(s)\n",
                mode == AuditMode::strict ? "strict" : "contract-only",
                audits.size(), insns, violations);
    return violations == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "isa_audit: %s\n", e.what());
    return 2;
  }
}
