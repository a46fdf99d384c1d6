#include "dist/kernels.hpp"

// AVX2+FMA kernels: 8-wide FMA, 4 rows per multi-row pass. This TU is the
// only one compiled with -mavx2 -mfma (see src/CMakeLists.txt); it must not
// be entered unless CPUID reports avx2+fma, which the dispatcher guarantees.

#if defined(VDB_DIST_BUILD_AVX2)

#include <immintrin.h>

namespace vdb::dist {
namespace {

inline float Hsum256(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 sum = _mm_add_ps(lo, hi);
  sum = _mm_add_ps(sum, _mm_movehl_ps(sum, sum));
  sum = _mm_add_ss(sum, _mm_movehdup_ps(sum));
  return _mm_cvtss_f32(sum);
}

float DotAvx2(const Scalar* a, const Scalar* b, std::size_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8), _mm256_loadu_ps(b + i + 8), acc1);
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc0);
  }
  float sum = Hsum256(_mm256_add_ps(acc0, acc1));
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

float L2Avx2(const Scalar* a, const Scalar* b, std::size_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 d0 = _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    const __m256 d1 = _mm256_sub_ps(_mm256_loadu_ps(a + i + 8), _mm256_loadu_ps(b + i + 8));
    acc0 = _mm256_fmadd_ps(d0, d0, acc0);
    acc1 = _mm256_fmadd_ps(d1, d1, acc1);
  }
  for (; i + 8 <= n; i += 8) {
    const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc0 = _mm256_fmadd_ps(d, d, acc0);
  }
  float sum = Hsum256(_mm256_add_ps(acc0, acc1));
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

// Four rows per pass: each query register load is amortized over four FMAs,
// and the next block's rows are prefetched while this block computes.
void DotRowsAvx2(const Scalar* q, const Scalar* const* rows,
                 std::size_t count, std::size_t n, Scalar* out) {
  std::size_t r = 0;
  for (; r + 4 <= count; r += 4) {
    if (r + 8 <= count) {
      _mm_prefetch(reinterpret_cast<const char*>(rows[r + 4]), _MM_HINT_T0);
      _mm_prefetch(reinterpret_cast<const char*>(rows[r + 5]), _MM_HINT_T0);
      _mm_prefetch(reinterpret_cast<const char*>(rows[r + 6]), _MM_HINT_T0);
      _mm_prefetch(reinterpret_cast<const char*>(rows[r + 7]), _MM_HINT_T0);
    }
    const Scalar* r0 = rows[r];
    const Scalar* r1 = rows[r + 1];
    const Scalar* r2 = rows[r + 2];
    const Scalar* r3 = rows[r + 3];
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    __m256 acc2 = _mm256_setzero_ps();
    __m256 acc3 = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      const __m256 qv = _mm256_loadu_ps(q + i);
      acc0 = _mm256_fmadd_ps(qv, _mm256_loadu_ps(r0 + i), acc0);
      acc1 = _mm256_fmadd_ps(qv, _mm256_loadu_ps(r1 + i), acc1);
      acc2 = _mm256_fmadd_ps(qv, _mm256_loadu_ps(r2 + i), acc2);
      acc3 = _mm256_fmadd_ps(qv, _mm256_loadu_ps(r3 + i), acc3);
    }
    float s0 = Hsum256(acc0);
    float s1 = Hsum256(acc1);
    float s2 = Hsum256(acc2);
    float s3 = Hsum256(acc3);
    for (; i < n; ++i) {
      const float qi = q[i];
      s0 += qi * r0[i];
      s1 += qi * r1[i];
      s2 += qi * r2[i];
      s3 += qi * r3[i];
    }
    out[r] = s0;
    out[r + 1] = s1;
    out[r + 2] = s2;
    out[r + 3] = s3;
  }
  for (; r < count; ++r) out[r] = DotAvx2(q, rows[r], n);
}

void L2RowsAvx2(const Scalar* q, const Scalar* const* rows,
                std::size_t count, std::size_t n, Scalar* out) {
  std::size_t r = 0;
  for (; r + 4 <= count; r += 4) {
    if (r + 8 <= count) {
      _mm_prefetch(reinterpret_cast<const char*>(rows[r + 4]), _MM_HINT_T0);
      _mm_prefetch(reinterpret_cast<const char*>(rows[r + 5]), _MM_HINT_T0);
      _mm_prefetch(reinterpret_cast<const char*>(rows[r + 6]), _MM_HINT_T0);
      _mm_prefetch(reinterpret_cast<const char*>(rows[r + 7]), _MM_HINT_T0);
    }
    const Scalar* r0 = rows[r];
    const Scalar* r1 = rows[r + 1];
    const Scalar* r2 = rows[r + 2];
    const Scalar* r3 = rows[r + 3];
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    __m256 acc2 = _mm256_setzero_ps();
    __m256 acc3 = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      const __m256 qv = _mm256_loadu_ps(q + i);
      const __m256 d0 = _mm256_sub_ps(qv, _mm256_loadu_ps(r0 + i));
      const __m256 d1 = _mm256_sub_ps(qv, _mm256_loadu_ps(r1 + i));
      const __m256 d2 = _mm256_sub_ps(qv, _mm256_loadu_ps(r2 + i));
      const __m256 d3 = _mm256_sub_ps(qv, _mm256_loadu_ps(r3 + i));
      acc0 = _mm256_fmadd_ps(d0, d0, acc0);
      acc1 = _mm256_fmadd_ps(d1, d1, acc1);
      acc2 = _mm256_fmadd_ps(d2, d2, acc2);
      acc3 = _mm256_fmadd_ps(d3, d3, acc3);
    }
    float s0 = Hsum256(acc0);
    float s1 = Hsum256(acc1);
    float s2 = Hsum256(acc2);
    float s3 = Hsum256(acc3);
    for (; i < n; ++i) {
      const float qi = q[i];
      const float d0 = qi - r0[i];
      const float d1 = qi - r1[i];
      const float d2 = qi - r2[i];
      const float d3 = qi - r3[i];
      s0 += d0 * d0;
      s1 += d1 * d1;
      s2 += d2 * d2;
      s3 += d3 * d3;
    }
    out[r] = s0;
    out[r + 1] = s1;
    out[r + 2] = s2;
    out[r + 3] = s3;
  }
  for (; r < count; ++r) out[r] = L2Avx2(q, rows[r], n);
}

// Multi-query row kernels. Step supplies dot_rows' / l2_rows' per-lane
// accumulate, scalar tail term and single-row kernel, so each (query, row)
// pair below repeats exactly the arithmetic its single-query kernel does.
struct DotStep {
  static __m256 Acc(__m256 qv, __m256 rv, __m256 acc) {
    return _mm256_fmadd_ps(qv, rv, acc);
  }
  static float Tail(float s, float qi, float ri) { return s + qi * ri; }
  static float Single(const Scalar* q, const Scalar* row, std::size_t n) {
    return DotAvx2(q, row, n);
  }
};

struct L2Step {
  static __m256 Acc(__m256 qv, __m256 rv, __m256 acc) {
    const __m256 d = _mm256_sub_ps(qv, rv);
    return _mm256_fmadd_ps(d, d, acc);
  }
  static float Tail(float s, float qi, float ri) {
    const float d = qi - ri;
    return s + d * d;
  }
  static float Single(const Scalar* q, const Scalar* row, std::size_t n) {
    return L2Avx2(q, row, n);
  }
};

// NQ queries x 4 rows: 4*NQ accumulators + 4 row registers + 1 query register
// (13 of 16 ymm at NQ = 2). Writes out[q * stride + j].
template <class Step, std::size_t NQ>
void TileAvx2(const Scalar* const* qs, const Scalar* const* rs, std::size_t n,
              Scalar* out, std::size_t stride) {
  __m256 acc[NQ][4];
  for (auto& per_query : acc) {
    for (auto& a : per_query) a = _mm256_setzero_ps();
  }
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 rv[4];
    for (std::size_t j = 0; j < 4; ++j) rv[j] = _mm256_loadu_ps(rs[j] + i);
    for (std::size_t q = 0; q < NQ; ++q) {
      const __m256 qv = _mm256_loadu_ps(qs[q] + i);
      for (std::size_t j = 0; j < 4; ++j) acc[q][j] = Step::Acc(qv, rv[j], acc[q][j]);
    }
  }
  for (std::size_t q = 0; q < NQ; ++q) {
    for (std::size_t j = 0; j < 4; ++j) {
      float s = Hsum256(acc[q][j]);
      for (std::size_t t = i; t < n; ++t) s = Step::Tail(s, qs[q][t], rs[j][t]);
      out[q * stride + j] = s;
    }
  }
}

// Rows dot_rows scores in 4-row passes are tiled 2 queries x 4 rows, row
// group outer so the four rows stay in L1 while the batch streams past them;
// its leftover rows go through the single-row kernel as there.
template <class Step>
void RowsMultiAvx2(const Scalar* const* queries, std::size_t nq,
                   const Scalar* const* rows, std::size_t count, std::size_t n,
                   Scalar* out) {
  const std::size_t full = count - count % 4;
  for (std::size_t r = 0; r < full; r += 4) {
    std::size_t q = 0;
    for (; q + 2 <= nq; q += 2) {
      TileAvx2<Step, 2>(queries + q, rows + r, n, out + q * count + r, count);
    }
    if (q < nq) TileAvx2<Step, 1>(queries + q, rows + r, n, out + q * count + r, count);
  }
  for (std::size_t r = full; r < count; ++r) {
    for (std::size_t q = 0; q < nq; ++q) {
      out[q * count + r] = Step::Single(queries[q], rows[r], n);
    }
  }
}

void DotRowsMultiAvx2(const Scalar* const* queries, std::size_t nq,
                      const Scalar* const* rows, std::size_t count,
                      std::size_t n, Scalar* out) {
  RowsMultiAvx2<DotStep>(queries, nq, rows, count, n, out);
}

void L2RowsMultiAvx2(const Scalar* const* queries, std::size_t nq,
                     const Scalar* const* rows, std::size_t count,
                     std::size_t n, Scalar* out) {
  RowsMultiAvx2<L2Step>(queries, nq, rows, count, n, out);
}

float DotU8Avx2(const float* q, const std::uint8_t* codes, std::size_t n) {
  __m256 acc = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i bytes =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(codes + i));
    const __m256 vals = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(bytes));
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(q + i), vals, acc);
  }
  float sum = Hsum256(acc);
  for (; i < n; ++i) sum += q[i] * static_cast<float>(codes[i]);
  return sum;
}

// One transposed code block = 64 rows. Eight ymm accumulators hold all 64
// partial sums; per dimension the kernel broadcasts q[i] once, streams one
// 64-byte code line, and issues eight widen+FMA pairs — no horizontal
// reduction until the block is done, and the q broadcast is amortized over
// 64 rows instead of re-loading q per row.
void DotU8BlockedAvx2(const float* q, const std::uint8_t* block,
                      std::size_t n, float* out) {
  __m256 acc[8];
  for (auto& a : acc) a = _mm256_setzero_ps();
  for (std::size_t i = 0; i < n; ++i) {
    const __m256 qv = _mm256_set1_ps(q[i]);
    const std::uint8_t* col = block + i * kSqBlockRows;
    _mm_prefetch(reinterpret_cast<const char*>(col + kSqBlockRows), _MM_HINT_T0);
    for (std::size_t j = 0; j < 8; ++j) {
      const __m128i bytes =
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(col + j * 8));
      const __m256 vals = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(bytes));
      acc[j] = _mm256_fmadd_ps(qv, vals, acc[j]);
    }
  }
  for (std::size_t j = 0; j < 8; ++j) _mm256_storeu_ps(out + j * 8, acc[j]);
}

// Plain integer loop — GCC auto-vectorizes it with the AVX2 integer ops this
// TU is built with. Exact integer math, so it stays bit-equal to scalar; the
// genuinely fast integer path (vpdpbusd) lives in the avx512 table.
void DotU8QBlockedAvx2(const std::int8_t* q, const std::uint8_t* block,
                       std::size_t n, std::int32_t* out) {
  for (std::size_t r = 0; r < kSqBlockRows; ++r) out[r] = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t qi = q[i];
    const std::uint8_t* col = block + i * kSqBlockRows;
    for (std::size_t r = 0; r < kSqBlockRows; ++r) {
      out[r] += qi * static_cast<std::int32_t>(col[r]);
    }
  }
}

constexpr KernelTable kAvx2Table = {
    KernelIsa::kAvx2, "avx2", 4,
    DotAvx2, L2Avx2, DotRowsAvx2, L2RowsAvx2,
    DotRowsMultiAvx2, L2RowsMultiAvx2, DotU8Avx2,
    DotU8BlockedAvx2, DotU8QBlockedAvx2,
};

}  // namespace

const KernelTable* Avx2Kernels() { return &kAvx2Table; }

}  // namespace vdb::dist

#else  // !VDB_DIST_BUILD_AVX2

namespace vdb::dist {
const KernelTable* Avx2Kernels() { return nullptr; }
}  // namespace vdb::dist

#endif
