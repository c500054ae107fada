// Tests for the ISA/FMA binary audit (tools/isa_audit): instruction
// classification, the policy manifest, and the audit pass itself, driven
// by synthetic objdump listings with planted violations — proof that
// each rule can actually fire, so a green run on the real objects means
// something.

#include <gtest/gtest.h>

#include <sstream>

#include "isa_audit/isa_audit.hpp"
#include "util/require.hpp"

using namespace slipflow;
using namespace slipflow::tools;

namespace {

IsaPolicy kernel_policy() {
  std::istringstream conf(R"(# test policy
default max=baseline fma=allow
tu lbm/kernels_tile_avx512.cpp.o  max=avx512 fma=forbid
tu lbm/kernels_tile_avx2.cpp.o    max=avx2   fma=forbid
tu lbm/*     max=baseline fma=forbid
tu sim/*     max=baseline fma=forbid
tu balance/* max=baseline fma=forbid
)");
  return IsaPolicy::parse(conf);
}

TuAudit audit_text(const std::string& tu, const std::string& listing,
                   AuditMode mode = AuditMode::strict) {
  const IsaPolicy policy = kernel_policy();
  std::istringstream in(listing);
  return audit_listing(tu, in, policy, mode);
}

}  // namespace

// ---------------------------------------------------------------------------
// instruction classification

TEST(Classify, BaselineScalarAndSse) {
  for (const auto& [m, ops] :
       {std::pair<const char*, const char*>{"mov", "%rax,%rbx"},
        {"lea", "0x8(%rsp),%rdi"},
        {"addsd", "%xmm0,%xmm1"},
        {"mulpd", "%xmm2,%xmm3"},
        {"movdqu", "(%rdi),%xmm0"},
        {"endbr64", ""},
        {"cpuid", ""},
        {"xgetbv", ""},
        {"nopw", "0x0(%rax,%rax,1)"}}) {
    const InsnClass c = classify_instruction(m, ops);
    EXPECT_EQ(c.level, IsaLevel::baseline) << m;
    EXPECT_FALSE(c.fma) << m;
  }
}

TEST(Classify, VexEncodedIsAvxClass) {
  EXPECT_EQ(classify_instruction("vaddpd", "%ymm0,%ymm1,%ymm2").level,
            IsaLevel::avx2);
  // VEX-128: v-prefix with xmm registers still faults on pre-AVX CPUs
  EXPECT_EQ(classify_instruction("vmulsd", "%xmm0,%xmm1,%xmm2").level,
            IsaLevel::avx2);
  EXPECT_EQ(classify_instruction("vzeroupper", "").level, IsaLevel::avx2);
  // ymm use without v-prefix (hypothetical) still counts as AVX class
  EXPECT_EQ(classify_instruction("movapd", "%ymm0,%ymm1").level,
            IsaLevel::avx2);
}

TEST(Classify, Avx512ByRegisterAndMnemonic) {
  EXPECT_EQ(classify_instruction("vaddpd", "%zmm0,%zmm1,%zmm2").level,
            IsaLevel::avx512);
  // opmask registers
  EXPECT_EQ(classify_instruction("vmovupd", "%zmm0,(%rdi){%k1}").level,
            IsaLevel::avx512);
  EXPECT_EQ(classify_instruction("kmovw", "%eax,%k1").level, IsaLevel::avx512);
  // EVEX extended register file: xmm16+ exists only under AVX-512
  EXPECT_EQ(classify_instruction("vmulpd", "%xmm17,%xmm18,%xmm19").level,
            IsaLevel::avx512);
  EXPECT_EQ(classify_instruction("vaddsd", "%ymm21,%ymm22,%ymm23").level,
            IsaLevel::avx512);
  // EVEX-only mnemonic with low registers
  EXPECT_EQ(classify_instruction("vpternlogd", "$0xf8,%xmm0,%xmm1,%xmm2").level,
            IsaLevel::avx512);
  // ...but xmm0..15 on a VEX mnemonic stays AVX class
  EXPECT_EQ(classify_instruction("vmulpd", "%xmm15,%xmm1,%xmm2").level,
            IsaLevel::avx2);
}

TEST(Classify, FmaFlagAcrossWidths) {
  for (const auto& [m, ops] :
       {std::pair<const char*, const char*>{"vfmadd231pd", "%ymm0,%ymm1,%ymm2"},
        {"vfmadd132sd", "%xmm0,%xmm1,%xmm2"},
        {"vfnmadd213ps", "%ymm3,%ymm4,%ymm5"},
        {"vfmsub231pd", "%zmm0,%zmm1,%zmm2"}}) {
    const InsnClass c = classify_instruction(m, ops);
    EXPECT_TRUE(c.fma) << m;
    EXPECT_GE(c.level, IsaLevel::avx2) << m;
  }
  EXPECT_EQ(classify_instruction("vfmsub231pd", "%zmm0,%zmm1,%zmm2").level,
            IsaLevel::avx512);
  EXPECT_FALSE(classify_instruction("vaddpd", "%ymm0,%ymm1,%ymm2").fma);
}

TEST(Classify, SystemVMnemonicsAreNotVector) {
  EXPECT_EQ(classify_instruction("verr", "%ax").level, IsaLevel::baseline);
  EXPECT_EQ(classify_instruction("vmcall", "").level, IsaLevel::baseline);
}

// ---------------------------------------------------------------------------
// listing parsing

TEST(ListingParse, PlainAndRawByteForms) {
  auto insn = parse_listing_line("    1a2b:\tvaddpd %ymm0,%ymm1,%ymm2");
  ASSERT_TRUE(insn.has_value());
  EXPECT_EQ(insn->address, "1a2b");
  EXPECT_EQ(insn->mnemonic, "vaddpd");
  EXPECT_EQ(insn->operands, "%ymm0,%ymm1,%ymm2");

  // with the raw-bytes column
  insn = parse_listing_line(
      "  4005d0:\t62 f1 f5 48 58 d0    \tvaddpd %zmm0,%zmm1,%zmm2");
  ASSERT_TRUE(insn.has_value());
  EXPECT_EQ(insn->mnemonic, "vaddpd");

  // raw-mode continuation line: bytes only, not an instruction
  EXPECT_FALSE(parse_listing_line("  4005d6:\t62 f1 f5 48").has_value());
}

TEST(ListingParse, SkipsNonInstructionLines) {
  EXPECT_FALSE(parse_listing_line("").has_value());
  EXPECT_FALSE(parse_listing_line("Disassembly of section .text:").has_value());
  EXPECT_FALSE(
      parse_listing_line("0000000000001140 <_ZN8slipflow3fooEv>:").has_value());
  EXPECT_FALSE(parse_listing_line("\t...").has_value());
  EXPECT_FALSE(parse_listing_line("  1a2c:\t(bad)").has_value());
}

TEST(ListingParse, StripsPrefixesAndCommentTrailers) {
  auto insn =
      parse_listing_line("  12:\tlock cmpxchg %rcx,0x10(%rdi)");
  ASSERT_TRUE(insn.has_value());
  EXPECT_EQ(insn->mnemonic, "cmpxchg");

  insn = parse_listing_line("  18:\tcallq  1140 <foo> # 1140 <foo>");
  ASSERT_TRUE(insn.has_value());
  EXPECT_EQ(insn->mnemonic, "callq");
}

// ---------------------------------------------------------------------------
// policy manifest

TEST(Policy, FirstMatchWinsAndFallback) {
  const IsaPolicy p = kernel_policy();
  EXPECT_EQ(p.rule_for("lbm/kernels_tile_avx512.cpp.o").max_level,
            IsaLevel::avx512);
  EXPECT_EQ(p.rule_for("lbm/kernels_tile_avx2.cpp.o").max_level,
            IsaLevel::avx2);
  // generic lbm rule: baseline, fma forbidden
  const TuRule& lbm = p.rule_for("lbm/kernels_plan.cpp.o");
  EXPECT_EQ(lbm.max_level, IsaLevel::baseline);
  EXPECT_FALSE(lbm.allow_fma);
  // outside the contract targets: fallback
  const TuRule& other = p.rule_for("transport/shm_comm.cpp.o");
  EXPECT_EQ(other.max_level, IsaLevel::baseline);
  EXPECT_TRUE(other.allow_fma);
}

TEST(Policy, RejectsMalformedManifests) {
  const auto parse = [](const char* text) {
    std::istringstream in(text);
    return IsaPolicy::parse(in);
  };
  EXPECT_THROW(parse("tu lbm/* max=baseline fma=forbid\n"), contract_error)
      << "missing default line must be rejected";
  EXPECT_THROW(parse("default max=mmx fma=allow\n"), contract_error);
  EXPECT_THROW(parse("default max=baseline fma=maybe\n"), contract_error);
  EXPECT_THROW(parse("default max=baseline\n"), contract_error);
  EXPECT_THROW(parse("frob lbm/* max=baseline fma=allow\n"), contract_error);
  EXPECT_NO_THROW(parse("# comment\n\ndefault max=avx512 fma=allow\n"));
}

TEST(Policy, GlobMatch) {
  EXPECT_TRUE(glob_match("lbm/*", "lbm/kernels.cpp.o"));
  EXPECT_TRUE(glob_match("*avx512*", "lbm/kernels_tile_avx512.cpp.o"));
  EXPECT_FALSE(glob_match("lbm/*", "sim/worker.cpp.o"));
  EXPECT_TRUE(glob_match("a?c", "abc"));
  EXPECT_FALSE(glob_match("a?c", "ac"));
  EXPECT_TRUE(glob_match("*", ""));
}

// ---------------------------------------------------------------------------
// the audit itself — planted violations must fire

namespace {
const char* kFmaListing =
    "kernels_plan.cpp.o:     file format elf64-x86-64\n"
    "\n"
    "Disassembly of section .text:\n"
    "\n"
    "0000000000000000 <_ZN8slipflow3lbm6kernelEv>:\n"
    "   0:\tendbr64\n"
    "   4:\tmovsd  (%rdi),%xmm0\n"
    "   8:\tvfmadd231pd %ymm1,%ymm2,%ymm0\n"
    "   d:\tretq\n";
}  // namespace

TEST(Audit, PlantedFmaInKernelTuFails) {
  const TuAudit a = audit_text("lbm/kernels_plan.cpp.o", kFmaListing);
  EXPECT_EQ(a.instructions, 4u);
  EXPECT_EQ(a.fma_count, 1u);
  ASSERT_EQ(a.violation_count, 1u)  // one record, both rules in the reason
      << "planted vfmadd231pd must be caught";
  EXPECT_EQ(a.violations[0].mnemonic, "vfmadd231pd");
  EXPECT_NE(a.violations[0].reason.find("FMA"), std::string::npos);
  EXPECT_NE(a.violations[0].reason.find("exceeds TU ceiling"),
            std::string::npos)
      << "the reason must also name the ISA-ceiling breach";
}

TEST(Audit, FmaRuleSurvivesContractOnlyMode) {
  // --mode=contract-only (the -march=native build): ISA ceilings are
  // waived but the FMA contract still holds in kernel TUs.
  const TuAudit a =
      audit_text("lbm/kernels_plan.cpp.o", kFmaListing, AuditMode::contract_only);
  EXPECT_EQ(a.violation_count, 1u);
  EXPECT_NE(a.violations[0].reason.find("FMA"), std::string::npos);
}

TEST(Audit, FmaAllowedOutsideContractTargets) {
  const TuAudit strict = audit_text("transport/shm_comm.cpp.o", kFmaListing);
  // fallback allows FMA but still caps ISA at baseline in strict mode
  EXPECT_EQ(strict.violation_count, 1u);
  EXPECT_NE(strict.violations[0].reason.find("exceeds TU ceiling"),
            std::string::npos);
  const TuAudit native = audit_text("transport/shm_comm.cpp.o", kFmaListing,
                                    AuditMode::contract_only);
  EXPECT_EQ(native.violation_count, 0u);
}

TEST(Audit, Avx512LeakIntoFallbackTuFails) {
  // The COMDAT hazard: an AVX-512 instruction appearing in the autovec
  // fallback TU would fault on baseline hardware before dispatch runs.
  const std::string listing =
      "   0:\tvaddpd %zmm0,%zmm1,%zmm2\n"
      "   6:\tretq\n";
  const TuAudit a = audit_text("lbm/kernels_tile_autovec.cpp.o", listing);
  ASSERT_EQ(a.violation_count, 1u);
  EXPECT_NE(a.violations[0].reason.find("avx512"), std::string::npos);
  // the same instruction is legal in its own TU
  EXPECT_EQ(audit_text("lbm/kernels_tile_avx512.cpp.o", listing)
                .violation_count,
            0u);
  // and an AVX2 instruction is legal in both intrinsic TUs
  const std::string avx2 = "   0:\tvaddpd %ymm0,%ymm1,%ymm2\n";
  EXPECT_EQ(audit_text("lbm/kernels_tile_avx2.cpp.o", avx2).violation_count,
            0u);
  EXPECT_EQ(audit_text("lbm/kernels_tile_avx512.cpp.o", avx2).violation_count,
            0u);
}

TEST(Audit, CleanBaselineListingPasses) {
  const std::string listing =
      "   0:\tendbr64\n"
      "   4:\tmovsd  (%rdi),%xmm0\n"
      "   8:\taddsd  %xmm1,%xmm0\n"
      "   c:\tmulpd  %xmm2,%xmm0\n"
      "  10:\tretq\n";
  const TuAudit a = audit_text("lbm/kernels.cpp.o", listing);
  EXPECT_EQ(a.instructions, 5u);
  EXPECT_EQ(a.violation_count, 0u);
  EXPECT_EQ(a.level_counts[static_cast<int>(IsaLevel::baseline)], 5u);
}

TEST(Audit, ViolationDetailIsCappedButCounted) {
  std::string listing;
  for (int i = 0; i < 50; ++i)
    listing += "   0:\tvfmadd231pd %ymm1,%ymm2,%ymm0\n";
  const TuAudit a = audit_text("lbm/kernels_plan.cpp.o", listing);
  EXPECT_EQ(a.violation_count, 50u);
  EXPECT_EQ(a.violations.size(), kMaxViolationDetail);
  EXPECT_TRUE(a.truncated);
}

TEST(Audit, JsonReportCarriesCountsAndViolations) {
  const TuAudit bad = audit_text("lbm/kernels_plan.cpp.o", kFmaListing);
  const TuAudit good =
      audit_text("lbm/kernels.cpp.o", "   0:\taddsd %xmm1,%xmm0\n");
  const std::string json =
      audit_report_json({bad, good}, AuditMode::strict, "tools/isa_policy.conf");
  EXPECT_NE(json.find("\"mode\": \"strict\""), std::string::npos);
  EXPECT_NE(json.find("\"violation_count\": 1"), std::string::npos);
  EXPECT_NE(json.find("vfmadd231pd"), std::string::npos);
  EXPECT_NE(json.find("lbm/kernels.cpp.o"), std::string::npos);
  // deterministic output: same inputs, same bytes
  EXPECT_EQ(json, audit_report_json({bad, good}, AuditMode::strict,
                                    "tools/isa_policy.conf"));
}
