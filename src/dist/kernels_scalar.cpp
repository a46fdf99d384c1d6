#include "dist/kernels.hpp"

// Scalar reference kernels — the pre-dispatch 4-way unrolled loops, kept
// bit-identical so VDB_KERNEL=scalar reproduces historical scores exactly.
// Also the parity oracle for the SIMD tables and the only table on non-x86.

namespace vdb::dist {
namespace {

Scalar DotScalar(const Scalar* a, const Scalar* b, std::size_t n) {
  float acc0 = 0.f, acc1 = 0.f, acc2 = 0.f, acc3 = 0.f;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += a[i] * b[i];
    acc1 += a[i + 1] * b[i + 1];
    acc2 += a[i + 2] * b[i + 2];
    acc3 += a[i + 3] * b[i + 3];
  }
  for (; i < n; ++i) acc0 += a[i] * b[i];
  return (acc0 + acc1) + (acc2 + acc3);
}

Scalar L2Scalar(const Scalar* a, const Scalar* b, std::size_t n) {
  float acc0 = 0.f, acc1 = 0.f, acc2 = 0.f, acc3 = 0.f;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float d0 = a[i] - b[i];
    const float d1 = a[i + 1] - b[i + 1];
    const float d2 = a[i + 2] - b[i + 2];
    const float d3 = a[i + 3] - b[i + 3];
    acc0 += d0 * d0;
    acc1 += d1 * d1;
    acc2 += d2 * d2;
    acc3 += d3 * d3;
  }
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    acc0 += d * d;
  }
  return (acc0 + acc1) + (acc2 + acc3);
}

void DotRowsScalar(const Scalar* q, const Scalar* const* rows,
                   std::size_t count, std::size_t n, Scalar* out) {
  for (std::size_t r = 0; r < count; ++r) out[r] = DotScalar(q, rows[r], n);
}

void L2RowsScalar(const Scalar* q, const Scalar* const* rows,
                  std::size_t count, std::size_t n, Scalar* out) {
  for (std::size_t r = 0; r < count; ++r) out[r] = L2Scalar(q, rows[r], n);
}

// Row-outer order keeps each row cache-resident while every query of the
// batch scores it; the per-pair loop is dot_rows' own, so results match it.
void DotRowsMultiScalar(const Scalar* const* queries, std::size_t nq,
                        const Scalar* const* rows, std::size_t count,
                        std::size_t n, Scalar* out) {
  for (std::size_t r = 0; r < count; ++r) {
    for (std::size_t q = 0; q < nq; ++q) {
      out[q * count + r] = DotScalar(queries[q], rows[r], n);
    }
  }
}

void L2RowsMultiScalar(const Scalar* const* queries, std::size_t nq,
                       const Scalar* const* rows, std::size_t count,
                       std::size_t n, Scalar* out) {
  for (std::size_t r = 0; r < count; ++r) {
    for (std::size_t q = 0; q < nq; ++q) {
      out[q * count + r] = L2Scalar(queries[q], rows[r], n);
    }
  }
}

float DotU8Scalar(const float* q, const std::uint8_t* codes, std::size_t n) {
  float acc0 = 0.f, acc1 = 0.f, acc2 = 0.f, acc3 = 0.f;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += q[i] * codes[i];
    acc1 += q[i + 1] * codes[i + 1];
    acc2 += q[i + 2] * codes[i + 2];
    acc3 += q[i + 3] * codes[i + 3];
  }
  for (; i < n; ++i) acc0 += q[i] * codes[i];
  return (acc0 + acc1) + (acc2 + acc3);
}

void DotU8BlockedScalar(const float* q, const std::uint8_t* block,
                        std::size_t n, float* out) {
  for (std::size_t r = 0; r < kSqBlockRows; ++r) out[r] = 0.f;
  for (std::size_t i = 0; i < n; ++i) {
    const float qi = q[i];
    const std::uint8_t* col = block + i * kSqBlockRows;
    for (std::size_t r = 0; r < kSqBlockRows; ++r) {
      out[r] += qi * static_cast<float>(col[r]);
    }
  }
}

void DotU8QBlockedScalar(const std::int8_t* q, const std::uint8_t* block,
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

constexpr KernelTable kScalarTable = {
    KernelIsa::kScalar, "scalar", 1,
    DotScalar, L2Scalar, DotRowsScalar, L2RowsScalar,
    DotRowsMultiScalar, L2RowsMultiScalar, DotU8Scalar,
    DotU8BlockedScalar, DotU8QBlockedScalar,
};

}  // namespace

const KernelTable& ScalarKernels() { return kScalarTable; }

}  // namespace vdb::dist
