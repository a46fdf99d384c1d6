// SIMD-vs-scalar parity for the runtime-dispatched distance kernels.
//
// Every kernel table the host supports (plus forced-scalar) is checked
// against a double-precision reference over awkward dimensions (1..17 covers
// every 4/8/16-wide tail, 64/96 the aligned fast paths, 2560 the paper's
// embedding width), with deliberately misaligned base pointers. Comparisons
// use a ULP-style tolerance scaled by the accumulated L1 magnitude, since
// FMA and different summation orders legitimately perturb the low bits.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/cpuid.hpp"
#include "common/rng.hpp"
#include "dist/distance.hpp"
#include "dist/kernels.hpp"

namespace vdb {
namespace {

using dist::KernelIsa;
using dist::KernelTable;

const std::vector<std::size_t>& TestDims() {
  static const std::vector<std::size_t> dims = [] {
    std::vector<std::size_t> d;
    for (std::size_t n = 1; n <= 17; ++n) d.push_back(n);
    d.push_back(64);
    d.push_back(96);
    d.push_back(2560);
    return d;
  }();
  return dims;
}

double RefDot(const float* a, const float* b, std::size_t n) {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return sum;
}

double RefL2(const float* a, const float* b, std::size_t n) {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    sum += d * d;
  }
  return sum;
}

double L1Dot(const float* a, const float* b, std::size_t n) {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += std::fabs(static_cast<double>(a[i]) * static_cast<double>(b[i]));
  }
  return sum;
}

/// Tolerance of `ulps` float-ULPs at the magnitude of the accumulated terms:
/// reassociated summation of n terms differs from the serial reference by at
/// most O(n)·eps·sum|terms|; we allow 8·(sqrt(n)+8) ULPs of that magnitude,
/// far above what pairwise SIMD reduction actually produces but still tight
/// enough to catch any real kernel bug (wrong lane, dropped tail, bad mask).
float ToleranceFor(std::size_t n, double magnitude) {
  const double ulps = 8.0 * (std::sqrt(static_cast<double>(n)) + 8.0);
  return static_cast<float>(ulps * std::numeric_limits<float>::epsilon() *
                            std::max(1.0, magnitude));
}

/// Test vectors stored with a deliberate misalignment of `misalign` floats
/// from the allocation base, so SIMD loads are never 32/64-byte aligned.
struct UnalignedVec {
  std::vector<float> storage;
  float* data = nullptr;

  UnalignedVec(std::size_t n, std::size_t misalign, Rng& rng) {
    storage.resize(n + misalign);
    data = storage.data() + misalign;
    for (std::size_t i = 0; i < n; ++i) data[i] = rng.NextFloat() * 2.f - 1.f;
  }
};

class KernelParityTest : public ::testing::TestWithParam<KernelIsa> {
 protected:
  void SetUp() override {
    table_ = dist::KernelsFor(GetParam());
    ASSERT_NE(table_, nullptr) << "SupportedIsas() listed an unusable ISA";
  }
  const KernelTable* table_ = nullptr;
};

TEST_P(KernelParityTest, DotMatchesReferenceOverDimsAndAlignments) {
  Rng rng(42);
  for (const std::size_t n : TestDims()) {
    for (std::size_t misalign : {0u, 1u, 3u}) {
      UnalignedVec a(n, misalign, rng);
      UnalignedVec b(n, misalign == 0 ? 2u : 0u, rng);
      const double ref = RefDot(a.data, b.data, n);
      const float tol = ToleranceFor(n, L1Dot(a.data, b.data, n));
      EXPECT_NEAR(table_->dot(a.data, b.data, n), ref, tol)
          << table_->name << " dim=" << n << " misalign=" << misalign;
    }
  }
}

TEST_P(KernelParityTest, L2MatchesReferenceOverDimsAndAlignments) {
  Rng rng(43);
  for (const std::size_t n : TestDims()) {
    for (std::size_t misalign : {0u, 1u, 3u}) {
      UnalignedVec a(n, misalign, rng);
      UnalignedVec b(n, misalign == 0 ? 1u : 0u, rng);
      const double ref = RefL2(a.data, b.data, n);
      // L2 terms are squares; ref itself is the L1 magnitude.
      const float tol = ToleranceFor(n, ref);
      EXPECT_NEAR(table_->l2sq(a.data, b.data, n), ref, tol)
          << table_->name << " dim=" << n << " misalign=" << misalign;
    }
  }
}

TEST_P(KernelParityTest, RowKernelsMatchReferencePerRow) {
  Rng rng(44);
  // Counts around the 4/8-row block widths, including non-multiples.
  for (const std::size_t count : {1u, 3u, 4u, 5u, 7u, 8u, 9u, 31u}) {
    for (const std::size_t n : {5u, 16u, 96u, 2560u}) {
      UnalignedVec query(n, 1, rng);
      std::vector<UnalignedVec> rows;
      std::vector<const float*> ptrs;
      rows.reserve(count);
      for (std::size_t r = 0; r < count; ++r) {
        rows.emplace_back(n, r % 4, rng);
        ptrs.push_back(rows.back().data);
      }
      std::vector<float> dots(count), l2s(count);
      table_->dot_rows(query.data, ptrs.data(), count, n, dots.data());
      table_->l2_rows(query.data, ptrs.data(), count, n, l2s.data());
      for (std::size_t r = 0; r < count; ++r) {
        const double dref = RefDot(query.data, ptrs[r], n);
        const double lref = RefL2(query.data, ptrs[r], n);
        EXPECT_NEAR(dots[r], dref, ToleranceFor(n, L1Dot(query.data, ptrs[r], n)))
            << table_->name << " dot row " << r << "/" << count << " dim=" << n;
        EXPECT_NEAR(l2s[r], lref, ToleranceFor(n, lref))
            << table_->name << " l2 row " << r << "/" << count << " dim=" << n;
      }
    }
  }
}

TEST_P(KernelParityTest, DotU8MatchesReference) {
  Rng rng(45);
  for (const std::size_t n : TestDims()) {
    UnalignedVec q(n, 1, rng);
    std::vector<std::uint8_t> codes(n + 1);
    for (auto& c : codes) c = static_cast<std::uint8_t>(rng.NextU64(256));
    const std::uint8_t* code_ptr = codes.data() + 1;  // misaligned codes too
    double ref = 0.0, l1 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double term = static_cast<double>(q.data[i]) * code_ptr[i];
      ref += term;
      l1 += std::fabs(term);
    }
    EXPECT_NEAR(table_->dot_u8(q.data, code_ptr, n), ref, ToleranceFor(n, l1))
        << table_->name << " dim=" << n;
  }
}

TEST_P(KernelParityTest, DotU8BlockedMatchesReference) {
  Rng rng(46);
  for (const std::size_t n : TestDims()) {
    // One transposed block: n dims x kSqBlockRows rows, dimension-major.
    std::vector<std::uint8_t> block(n * dist::kSqBlockRows);
    for (auto& c : block) c = static_cast<std::uint8_t>(rng.NextU64(256));
    UnalignedVec q(n, 1, rng);
    float out[dist::kSqBlockRows];
    table_->dot_u8_blocked(q.data, block.data(), n, out);
    for (std::size_t r = 0; r < dist::kSqBlockRows; ++r) {
      double ref = 0.0, l1 = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double term = static_cast<double>(q.data[i]) *
                            block[i * dist::kSqBlockRows + r];
        ref += term;
        l1 += std::fabs(term);
      }
      EXPECT_NEAR(out[r], ref, ToleranceFor(n, l1))
          << table_->name << " row " << r << " dim=" << n;
    }
  }
}

TEST_P(KernelParityTest, DotU8QBlockedMatchesIntegerReferenceExactly) {
  Rng rng(47);
  for (const std::size_t n : TestDims()) {
    std::vector<std::uint8_t> block(n * dist::kSqBlockRows);
    for (auto& c : block) c = static_cast<std::uint8_t>(rng.NextU64(256));
    std::vector<std::int8_t> q(n);
    for (auto& v : q) v = static_cast<std::int8_t>(rng.NextU64(256));
    std::int32_t out[dist::kSqBlockRows];
    table_->dot_u8q_blocked(q.data(), block.data(), n, out);
    for (std::size_t r = 0; r < dist::kSqBlockRows; ++r) {
      std::int32_t ref = 0;
      for (std::size_t i = 0; i < n; ++i) {
        ref += static_cast<std::int32_t>(q[i]) *
               static_cast<std::int32_t>(block[i * dist::kSqBlockRows + r]);
      }
      // Integer arithmetic is exact — every ISA (including the vpdpbusd
      // path) must be bit-equal to the reference, not merely close.
      EXPECT_EQ(out[r], ref) << table_->name << " row " << r << " dim=" << n;
    }
  }
}

// The multi-query kernels promise more than closeness: each (query, row)
// output is bit-equal to the single-query row kernel over the same rows, so
// the batch scan ranks exactly as a per-query scan would. Query counts
// straddle the 2- and 4-query tiles, row counts the 4/8-row passes and their
// leftover rows, dims the 8/16-lane tails.
TEST_P(KernelParityTest, MultiQueryRowKernelsBitEqualSingleQuery) {
  Rng rng(48);
  for (const std::size_t n : {1u, 13u, 100u, 2560u}) {
    std::vector<UnalignedVec> queries;
    std::vector<const float*> query_ptrs;
    for (std::size_t q = 0; q < 32; ++q) {
      queries.emplace_back(n, q % 3, rng);
      query_ptrs.push_back(queries.back().data);
    }
    std::vector<UnalignedVec> rows;
    std::vector<const float*> row_ptrs;
    for (std::size_t r = 0; r < 257; ++r) {
      rows.emplace_back(n, r % 4, rng);
      row_ptrs.push_back(rows.back().data);
    }
    for (const std::size_t nq : {1u, 3u, 4u, 5u, 32u}) {
      for (const std::size_t count : {1u, 7u, 8u, 9u, 256u, 257u}) {
        std::vector<float> dots(nq * count), l2s(nq * count);
        table_->dot_rows_multi(query_ptrs.data(), nq, row_ptrs.data(), count, n,
                               dots.data());
        table_->l2_rows_multi(query_ptrs.data(), nq, row_ptrs.data(), count, n,
                              l2s.data());
        std::vector<float> want_dot(count), want_l2(count);
        for (std::size_t q = 0; q < nq; ++q) {
          table_->dot_rows(query_ptrs[q], row_ptrs.data(), count, n, want_dot.data());
          table_->l2_rows(query_ptrs[q], row_ptrs.data(), count, n, want_l2.data());
          for (std::size_t r = 0; r < count; ++r) {
            ASSERT_EQ(dots[q * count + r], want_dot[r])
                << table_->name << " dot q=" << q << "/" << nq << " row " << r
                << "/" << count << " dim=" << n;
            ASSERT_EQ(l2s[q * count + r], want_l2[r])
                << table_->name << " l2 q=" << q << "/" << nq << " row " << r
                << "/" << count << " dim=" << n;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    HostIsas, KernelParityTest, ::testing::ValuesIn(dist::SupportedIsas()),
    [](const ::testing::TestParamInfo<KernelIsa>& info) {
      return std::string(dist::KernelIsaName(info.param));
    });

/// Restores the active table on scope exit so forced-ISA tests cannot leak
/// into the rest of the process.
struct ActiveKernelGuard {
  KernelIsa saved;
  ActiveKernelGuard() : saved(dist::ActiveKernels().isa) {}
  ~ActiveKernelGuard() { dist::ForceKernelIsa(saved); }
};

TEST(KernelDispatchTest, ForcedScalarMatchesActiveThroughPublicApi) {
  ActiveKernelGuard guard;
  Rng rng(7);
  const std::size_t dim = 2560;
  UnalignedVec a(dim, 1, rng);
  UnalignedVec b(dim, 2, rng);
  const VectorView av(a.data, dim), bv(b.data, dim);

  dist::ForceKernelIsa(KernelIsa::kScalar);
  EXPECT_EQ(ActiveKernelName(), "scalar");
  const Scalar scalar_dot = DotProduct(av, bv);
  const Scalar scalar_l2 = L2SquaredDistance(av, bv);

  dist::ForceKernelIsa(dist::BestSupportedIsa());
  const float tol = ToleranceFor(dim, L1Dot(a.data, b.data, dim));
  EXPECT_NEAR(DotProduct(av, bv), scalar_dot, tol);
  EXPECT_NEAR(L2SquaredDistance(av, bv), scalar_l2,
              ToleranceFor(dim, static_cast<double>(scalar_l2)));
}

TEST(KernelDispatchTest, ScoreBatchParityAcrossIsas) {
  ActiveKernelGuard guard;
  Rng rng(8);
  const std::size_t dim = 96, count = 70;  // spans a 64-row block boundary
  std::vector<float> base(count * dim);
  for (auto& x : base) x = rng.NextFloat() * 2.f - 1.f;
  Vector query(dim);
  for (auto& x : query) x = rng.NextFloat() * 2.f - 1.f;

  dist::ForceKernelIsa(KernelIsa::kScalar);
  std::vector<float> want(count);
  for (const Metric metric : {Metric::kL2, Metric::kInnerProduct, Metric::kCosine}) {
    ScoreBatch(metric, query, base.data(), dim, count, want.data());
    for (const KernelIsa isa : dist::SupportedIsas()) {
      dist::ForceKernelIsa(isa);
      std::vector<float> got(count);
      ScoreBatch(metric, query, base.data(), dim, count, got.data());
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_NEAR(got[i], want[i], 1e-3f)
            << MetricName(metric) << " isa=" << dist::KernelIsaName(isa)
            << " row " << i;
      }
      dist::ForceKernelIsa(KernelIsa::kScalar);
    }
  }
}

TEST(KernelDispatchTest, ResolveKernelChoiceHonorsSupportedRequests) {
  std::string note;
  EXPECT_EQ(dist::ResolveKernelChoice("auto", &note), dist::BestSupportedIsa());
  EXPECT_TRUE(note.empty());
  EXPECT_EQ(dist::ResolveKernelChoice("", &note), dist::BestSupportedIsa());
  EXPECT_TRUE(note.empty());
  EXPECT_EQ(dist::ResolveKernelChoice("scalar", &note), KernelIsa::kScalar);
  EXPECT_TRUE(note.empty());
  for (const KernelIsa isa : dist::SupportedIsas()) {
    EXPECT_EQ(dist::ResolveKernelChoice(std::string(dist::KernelIsaName(isa)), &note), isa);
    EXPECT_TRUE(note.empty()) << note;
  }
}

TEST(KernelDispatchTest, ResolveKernelChoiceFallsBackWithNote) {
  std::string note;
  const KernelIsa got = dist::ResolveKernelChoice("sse9", &note);
  EXPECT_EQ(got, dist::BestSupportedIsa());
  EXPECT_FALSE(note.empty());

  // An ISA the binary knows but this host may lack must clamp, not crash.
  note.clear();
  const KernelIsa v512 = dist::ResolveKernelChoice("avx512", &note);
  if (dist::KernelsFor(KernelIsa::kAvx512) == nullptr) {
    EXPECT_EQ(v512, dist::BestSupportedIsa());
    EXPECT_FALSE(note.empty());
  } else {
    EXPECT_EQ(v512, KernelIsa::kAvx512);
    EXPECT_TRUE(note.empty()) << note;
  }
}

TEST(KernelDispatchTest, ParseKernelIsaRoundTrip) {
  for (const KernelIsa isa :
       {KernelIsa::kScalar, KernelIsa::kAvx2, KernelIsa::kAvx512}) {
    const auto parsed = dist::ParseKernelIsa(std::string(dist::KernelIsaName(isa)));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, isa);
  }
  EXPECT_FALSE(dist::ParseKernelIsa("auto").ok());  // resolved, not parsed
  EXPECT_FALSE(dist::ParseKernelIsa("neon").ok());
}

TEST(KernelDispatchTest, ForceUnsupportedIsaClampsToBest) {
  ActiveKernelGuard guard;
  // Forcing any ISA must land on a usable table; on hosts lacking AVX-512
  // this exercises the clamp path, on others it is a straight install.
  const KernelIsa got = dist::ForceKernelIsa(KernelIsa::kAvx512);
  EXPECT_NE(dist::KernelsFor(got), nullptr);
  if (dist::KernelsFor(KernelIsa::kAvx512) == nullptr) {
    EXPECT_EQ(got, dist::BestSupportedIsa());
  } else {
    EXPECT_EQ(got, KernelIsa::kAvx512);
  }
}

TEST(KernelDispatchTest, SupportedIsasStartsWithScalar) {
  const auto isas = dist::SupportedIsas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.front(), KernelIsa::kScalar);
  // Every listed ISA resolves to a table whose name round-trips.
  for (const KernelIsa isa : isas) {
    const KernelTable* table = dist::KernelsFor(isa);
    ASSERT_NE(table, nullptr);
    EXPECT_EQ(table->name, dist::KernelIsaName(isa));
    EXPECT_GE(table->block_rows, 1u);
  }
}

TEST(ZeroNormTest, ScorePathsAgreeOnDenormalNormVectors) {
  // A vector whose norm underflows kNormEpsilon must behave as zero in BOTH
  // the raw cosine path (Score/ScoreBatch return 0) and the normalized-ingest
  // path (NormalizeInPlace leaves it unchanged) — the pre-unification code
  // disagreed (<= 0.f vs <= 1e-30f) for denormal norms.
  Vector tiny(8, 1e-34f);  // norm ~ 2.8e-34 < 1e-30
  Vector unit(8, 0.f);
  unit[0] = 1.f;

  EXPECT_TRUE(IsZeroNorm(Norm(tiny)));
  EXPECT_FLOAT_EQ(Score(Metric::kCosine, tiny, unit), 0.f);
  EXPECT_FLOAT_EQ(Score(Metric::kCosine, unit, tiny), 0.f);

  std::vector<float> batch_score(1);
  ScoreBatch(Metric::kCosine, unit, tiny.data(), 8, 1, batch_score.data());
  EXPECT_FLOAT_EQ(batch_score[0], 0.f);

  Vector copy = tiny;
  NormalizeInPlace(copy);
  EXPECT_EQ(copy, tiny);  // untouched, not blown up to a unit vector

  // And a norm just above the epsilon normalizes and scores as non-zero.
  Vector small(8, 1e-14f);
  EXPECT_FALSE(IsZeroNorm(Norm(small)));
  EXPECT_NEAR(Score(Metric::kCosine, small, small), 1.0f, 1e-5f);
  NormalizeInPlace(small);
  EXPECT_NEAR(Norm(small), 1.0f, 1e-5f);
}

}  // namespace
}  // namespace vdb
