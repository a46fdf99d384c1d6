#include "dist/kernels.hpp"

// AVX-512F kernels: 16-wide FMA, 8 rows per multi-row pass, masked tails (no
// scalar remainder loop in the row kernels). Only this TU is compiled with
// -mavx512f; the dispatcher enters it only when CPUID reports avx512f.

#if defined(VDB_DIST_BUILD_AVX512)

#include <immintrin.h>

#include <cstring>

#include "common/cpuid.hpp"

namespace vdb::dist {
namespace {

inline __mmask16 TailMask(std::size_t remaining) {
  return static_cast<__mmask16>((1u << remaining) - 1u);
}

float DotAvx512(const Scalar* a, const Scalar* b, std::size_t n) {
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i), acc0);
    acc1 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i + 16), _mm512_loadu_ps(b + i + 16), acc1);
  }
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i), acc0);
  }
  if (i < n) {
    const __mmask16 mask = TailMask(n - i);
    const __m512 av = _mm512_maskz_loadu_ps(mask, a + i);
    const __m512 bv = _mm512_maskz_loadu_ps(mask, b + i);
    acc0 = _mm512_fmadd_ps(av, bv, acc0);
  }
  return _mm512_reduce_add_ps(_mm512_add_ps(acc0, acc1));
}

float L2Avx512(const Scalar* a, const Scalar* b, std::size_t n) {
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m512 d0 = _mm512_sub_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i));
    const __m512 d1 = _mm512_sub_ps(_mm512_loadu_ps(a + i + 16), _mm512_loadu_ps(b + i + 16));
    acc0 = _mm512_fmadd_ps(d0, d0, acc0);
    acc1 = _mm512_fmadd_ps(d1, d1, acc1);
  }
  for (; i + 16 <= n; i += 16) {
    const __m512 d = _mm512_sub_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i));
    acc0 = _mm512_fmadd_ps(d, d, acc0);
  }
  if (i < n) {
    const __mmask16 mask = TailMask(n - i);
    // Masked-off lanes are zero in both loads, so their difference is zero
    // and contributes nothing to the accumulator.
    const __m512 d = _mm512_sub_ps(_mm512_maskz_loadu_ps(mask, a + i),
                                   _mm512_maskz_loadu_ps(mask, b + i));
    acc0 = _mm512_fmadd_ps(d, d, acc0);
  }
  return _mm512_reduce_add_ps(_mm512_add_ps(acc0, acc1));
}

// Eight rows per pass: one query load feeds eight FMAs (zmm pressure: 8
// accumulators + 1 query + 1 row temp, well under 32 registers).
void DotRowsAvx512(const Scalar* q, const Scalar* const* rows,
                   std::size_t count, std::size_t n, Scalar* out) {
  std::size_t r = 0;
  for (; r + 8 <= count; r += 8) {
    if (r + 16 <= count) {
      for (std::size_t p = 0; p < 8; ++p) {
        _mm_prefetch(reinterpret_cast<const char*>(rows[r + 8 + p]), _MM_HINT_T0);
      }
    }
    __m512 acc[8];
    for (auto& a : acc) a = _mm512_setzero_ps();
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
      const __m512 qv = _mm512_loadu_ps(q + i);
      for (std::size_t j = 0; j < 8; ++j) {
        acc[j] = _mm512_fmadd_ps(qv, _mm512_loadu_ps(rows[r + j] + i), acc[j]);
      }
    }
    if (i < n) {
      const __mmask16 mask = TailMask(n - i);
      const __m512 qv = _mm512_maskz_loadu_ps(mask, q + i);
      for (std::size_t j = 0; j < 8; ++j) {
        acc[j] = _mm512_fmadd_ps(qv, _mm512_maskz_loadu_ps(mask, rows[r + j] + i), acc[j]);
      }
    }
    for (std::size_t j = 0; j < 8; ++j) out[r + j] = _mm512_reduce_add_ps(acc[j]);
  }
  for (; r < count; ++r) out[r] = DotAvx512(q, rows[r], n);
}

void L2RowsAvx512(const Scalar* q, const Scalar* const* rows,
                  std::size_t count, std::size_t n, Scalar* out) {
  std::size_t r = 0;
  for (; r + 8 <= count; r += 8) {
    if (r + 16 <= count) {
      for (std::size_t p = 0; p < 8; ++p) {
        _mm_prefetch(reinterpret_cast<const char*>(rows[r + 8 + p]), _MM_HINT_T0);
      }
    }
    __m512 acc[8];
    for (auto& a : acc) a = _mm512_setzero_ps();
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
      const __m512 qv = _mm512_loadu_ps(q + i);
      for (std::size_t j = 0; j < 8; ++j) {
        const __m512 d = _mm512_sub_ps(qv, _mm512_loadu_ps(rows[r + j] + i));
        acc[j] = _mm512_fmadd_ps(d, d, acc[j]);
      }
    }
    if (i < n) {
      const __mmask16 mask = TailMask(n - i);
      const __m512 qv = _mm512_maskz_loadu_ps(mask, q + i);
      for (std::size_t j = 0; j < 8; ++j) {
        const __m512 d = _mm512_sub_ps(qv, _mm512_maskz_loadu_ps(mask, rows[r + j] + i));
        acc[j] = _mm512_fmadd_ps(d, d, acc[j]);
      }
    }
    for (std::size_t j = 0; j < 8; ++j) out[r + j] = _mm512_reduce_add_ps(acc[j]);
  }
  for (; r < count; ++r) out[r] = L2Avx512(q, rows[r], n);
}

// Multi-query row kernels; Step supplies dot_rows' / l2_rows' per-lane
// accumulate and single-row kernel (see the AVX2 TU).
struct DotStep {
  static __m512 Acc(__m512 qv, __m512 rv, __m512 acc) {
    return _mm512_fmadd_ps(qv, rv, acc);
  }
  static float Single(const Scalar* q, const Scalar* row, std::size_t n) {
    return DotAvx512(q, row, n);
  }
};

struct L2Step {
  static __m512 Acc(__m512 qv, __m512 rv, __m512 acc) {
    const __m512 d = _mm512_sub_ps(qv, rv);
    return _mm512_fmadd_ps(d, d, acc);
  }
  static float Single(const Scalar* q, const Scalar* row, std::size_t n) {
    return L2Avx512(q, row, n);
  }
};

// NQ queries x 4 rows: up to 16 accumulators + 4 row registers + 1 query
// register (21 of 32 zmm). One accumulator per pair, 16-wide steps and one
// masked tail step, as in the 8-row pass of dot_rows / l2_rows.
template <class Step, std::size_t NQ>
void TileAvx512(const Scalar* const* qs, const Scalar* const* rs, std::size_t n,
                Scalar* out, std::size_t stride) {
  __m512 acc[NQ][4];
  for (auto& per_query : acc) {
    for (auto& a : per_query) a = _mm512_setzero_ps();
  }
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m512 rv[4];
    for (std::size_t j = 0; j < 4; ++j) rv[j] = _mm512_loadu_ps(rs[j] + i);
    for (std::size_t q = 0; q < NQ; ++q) {
      const __m512 qv = _mm512_loadu_ps(qs[q] + i);
      for (std::size_t j = 0; j < 4; ++j) acc[q][j] = Step::Acc(qv, rv[j], acc[q][j]);
    }
  }
  if (i < n) {
    const __mmask16 mask = TailMask(n - i);
    __m512 rv[4];
    for (std::size_t j = 0; j < 4; ++j) rv[j] = _mm512_maskz_loadu_ps(mask, rs[j] + i);
    for (std::size_t q = 0; q < NQ; ++q) {
      const __m512 qv = _mm512_maskz_loadu_ps(mask, qs[q] + i);
      for (std::size_t j = 0; j < 4; ++j) acc[q][j] = Step::Acc(qv, rv[j], acc[q][j]);
    }
  }
  for (std::size_t q = 0; q < NQ; ++q) {
    for (std::size_t j = 0; j < 4; ++j) {
      out[q * stride + j] = _mm512_reduce_add_ps(acc[q][j]);
    }
  }
}

// Rows dot_rows scores in 8-row passes are tiled 4 queries x 4 rows, row
// group outer so the four rows stay in L1 while the batch streams past them;
// its leftover rows (count % 8) go through the single-row kernel as there.
template <class Step>
void RowsMultiAvx512(const Scalar* const* queries, std::size_t nq,
                     const Scalar* const* rows, std::size_t count,
                     std::size_t n, Scalar* out) {
  const std::size_t full = count - count % 8;
  for (std::size_t r = 0; r < full; r += 4) {
    std::size_t q = 0;
    for (; q + 4 <= nq; q += 4) {
      TileAvx512<Step, 4>(queries + q, rows + r, n, out + q * count + r, count);
    }
    Scalar* tile_out = out + q * count + r;
    switch (nq - q) {
      case 3: TileAvx512<Step, 3>(queries + q, rows + r, n, tile_out, count); break;
      case 2: TileAvx512<Step, 2>(queries + q, rows + r, n, tile_out, count); break;
      case 1: TileAvx512<Step, 1>(queries + q, rows + r, n, tile_out, count); break;
      default: break;
    }
  }
  for (std::size_t r = full; r < count; ++r) {
    for (std::size_t q = 0; q < nq; ++q) {
      out[q * count + r] = Step::Single(queries[q], rows[r], n);
    }
  }
}

void DotRowsMultiAvx512(const Scalar* const* queries, std::size_t nq,
                        const Scalar* const* rows, std::size_t count,
                        std::size_t n, Scalar* out) {
  RowsMultiAvx512<DotStep>(queries, nq, rows, count, n, out);
}

void L2RowsMultiAvx512(const Scalar* const* queries, std::size_t nq,
                       const Scalar* const* rows, std::size_t count,
                       std::size_t n, Scalar* out) {
  RowsMultiAvx512<L2Step>(queries, nq, rows, count, n, out);
}

float DotU8Avx512(const float* q, const std::uint8_t* codes, std::size_t n) {
  __m512 acc = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i bytes =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes + i));
    const __m512 vals = _mm512_cvtepi32_ps(_mm512_cvtepu8_epi32(bytes));
    acc = _mm512_fmadd_ps(_mm512_loadu_ps(q + i), vals, acc);
  }
  float sum = _mm512_reduce_add_ps(acc);
  for (; i < n; ++i) sum += q[i] * static_cast<float>(codes[i]);
  return sum;
}

// 64-row transposed block in four zmm accumulators; per dimension one q
// broadcast feeds four widen+FMA pairs over a single 64-byte code line.
void DotU8BlockedAvx512(const float* q, const std::uint8_t* block,
                        std::size_t n, float* out) {
  __m512 acc[4];
  for (auto& a : acc) a = _mm512_setzero_ps();
  for (std::size_t i = 0; i < n; ++i) {
    const __m512 qv = _mm512_set1_ps(q[i]);
    const std::uint8_t* col = block + i * kSqBlockRows;
    _mm_prefetch(reinterpret_cast<const char*>(col + kSqBlockRows), _MM_HINT_T0);
    for (std::size_t j = 0; j < 4; ++j) {
      const __m128i bytes =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(col + j * 16));
      const __m512 vals = _mm512_cvtepi32_ps(_mm512_cvtepu8_epi32(bytes));
      acc[j] = _mm512_fmadd_ps(qv, vals, acc[j]);
    }
  }
  for (std::size_t j = 0; j < 4; ++j) _mm512_storeu_ps(out + j * 16, acc[j]);
}

void DotU8QBlockedRef(const std::int8_t* q, const std::uint8_t* block,
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

#if defined(__GNUC__) || defined(__clang__)
#pragma GCC push_options
#pragma GCC target("avx512f,avx512bw,avx512vnni")
// vpdpbusd fast path: each instruction fuses 64 u8 x i8 products into 16 i32
// accumulators, but it sums groups of four ADJACENT bytes — in the transposed
// block those are four different rows of the same dimension. So the kernel
// processes four dimensions per step and interleaves their code lines on the
// fly (punpck bytes then words) into per-row [d0,d1,d2,d3] groups; one
// broadcast of the matching four query bytes then scores 64 rows x 4 dims in
// four vpdpbusd. The unpacks shuffle rows into a fixed permutation of the
// accumulator lanes (within each 128-bit lane), undone once per block when
// the sums are stored.
void DotU8QBlockedVnni(const std::int8_t* q, const std::uint8_t* block,
                       std::size_t n, std::int32_t* out) {
  __m512i acc[4];
  for (auto& a : acc) a = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const auto* cols = block + i * kSqBlockRows;
    const __m512i c0 = _mm512_loadu_si512(cols);
    const __m512i c1 = _mm512_loadu_si512(cols + kSqBlockRows);
    const __m512i c2 = _mm512_loadu_si512(cols + 2 * kSqBlockRows);
    const __m512i c3 = _mm512_loadu_si512(cols + 3 * kSqBlockRows);
    const __m512i t0 = _mm512_unpacklo_epi8(c0, c1);
    const __m512i t1 = _mm512_unpackhi_epi8(c0, c1);
    const __m512i t2 = _mm512_unpacklo_epi8(c2, c3);
    const __m512i t3 = _mm512_unpackhi_epi8(c2, c3);
    std::int32_t qword;
    std::memcpy(&qword, q + i, sizeof(qword));
    const __m512i qv = _mm512_set1_epi32(qword);
    acc[0] = _mm512_dpbusd_epi32(acc[0], _mm512_unpacklo_epi16(t0, t2), qv);
    acc[1] = _mm512_dpbusd_epi32(acc[1], _mm512_unpackhi_epi16(t0, t2), qv);
    acc[2] = _mm512_dpbusd_epi32(acc[2], _mm512_unpacklo_epi16(t1, t3), qv);
    acc[3] = _mm512_dpbusd_epi32(acc[3], _mm512_unpackhi_epi16(t1, t3), qv);
  }
  // acc[k] lane m holds row 16*(m/4) + 4*k + m%4 (the unpack permutation).
  alignas(64) std::int32_t lanes[4][16];
  for (std::size_t k = 0; k < 4; ++k) {
    _mm512_store_si512(lanes[k], acc[k]);
  }
  for (std::size_t k = 0; k < 4; ++k) {
    for (std::size_t m = 0; m < 16; ++m) {
      out[16 * (m / 4) + 4 * k + (m % 4)] = lanes[k][m];
    }
  }
  for (; i < n; ++i) {  // tail dimensions (n not a multiple of 4)
    const std::int32_t qi = q[i];
    const std::uint8_t* col = block + i * kSqBlockRows;
    for (std::size_t r = 0; r < kSqBlockRows; ++r) {
      out[r] += qi * static_cast<std::int32_t>(col[r]);
    }
  }
}
#pragma GCC pop_options

void DotU8QBlockedAvx512(const std::int8_t* q, const std::uint8_t* block,
                         std::size_t n, std::int32_t* out) {
  // The table is selected on avx512f alone; vnni/bw get their own check so
  // plain-AVX512F hosts still resolve this entry (to the reference loop).
  static const bool vnni =
      HostCpuFeatures().avx512bw && HostCpuFeatures().avx512vnni;
  if (vnni) {
    DotU8QBlockedVnni(q, block, n, out);
    return;
  }
  DotU8QBlockedRef(q, block, n, out);
}
#else
void DotU8QBlockedAvx512(const std::int8_t* q, const std::uint8_t* block,
                         std::size_t n, std::int32_t* out) {
  DotU8QBlockedRef(q, block, n, out);
}
#endif

constexpr KernelTable kAvx512Table = {
    KernelIsa::kAvx512, "avx512", 8,
    DotAvx512, L2Avx512, DotRowsAvx512, L2RowsAvx512,
    DotRowsMultiAvx512, L2RowsMultiAvx512, DotU8Avx512,
    DotU8BlockedAvx512, DotU8QBlockedAvx512,
};

}  // namespace

const KernelTable* Avx512Kernels() { return &kAvx512Table; }

}  // namespace vdb::dist

#else  // !VDB_DIST_BUILD_AVX512

namespace vdb::dist {
const KernelTable* Avx512Kernels() { return nullptr; }
}  // namespace vdb::dist

#endif
