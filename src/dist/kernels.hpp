#pragma once

/// \file kernels.hpp
/// Runtime-dispatched SIMD kernel tables behind the public distance API.
///
/// Layout: one KernelTable per ISA, each defined in its own translation unit
/// compiled with per-file ISA flags (`-mavx2 -mfma`, `-mavx512f`) so the rest
/// of the binary stays portable to baseline x86-64 (and non-x86 entirely).
/// The dispatcher picks a table once at startup from CPUID, overridable with
/// `VDB_KERNEL=scalar|avx2|avx512|auto`; every vdb::DotProduct /
/// L2SquaredDistance / ScoreBatch call routes through the active table.
///
/// The multi-row entry points (`dot_rows` / `l2_rows`) are the throughput
/// kernels: they score one query against `count` rows addressed by pointer,
/// processing `block_rows` rows per inner pass so the query streams through
/// registers once per block instead of once per row. Contiguous scans (flat,
/// SQ, ADC tables, k-means) pass pointers into a row-major block; HNSW passes
/// gathered neighbour rows. Their multi-query forms (`dot_rows_multi` /
/// `l2_rows_multi`) score a whole query batch against the same rows, one
/// register tile of queries x rows per pass (the exact batch scan).

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"

namespace vdb::dist {

enum class KernelIsa : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Rows per transposed SQ8 code block (the PDX-style layout): a block stores
/// kSqBlockRows rows dimension-major (`block[d * kSqBlockRows + r]`), so the
/// scan loop streams one 64-byte cache line of codes per dimension instead of
/// strided row-major reads. 64 rows x 4-byte accumulators also fills exactly
/// eight ymm (or four zmm) registers.
inline constexpr std::size_t kSqBlockRows = 64;

std::string_view KernelIsaName(KernelIsa isa);

/// Parses "scalar" / "avx2" / "avx512". ("auto" is resolved by
/// ResolveKernelChoice, not here, because it is not a concrete table.)
Result<KernelIsa> ParseKernelIsa(const std::string& name);

/// Raw kernel function table for one ISA. All pointers are non-null.
struct KernelTable {
  KernelIsa isa;
  const char* name;
  /// Rows per inner pass of the multi-row kernels (1 scalar, 4 AVX2, 8
  /// AVX-512); also the sweet-spot granularity for callers batching work.
  std::size_t block_rows;

  /// sum_i a[i]*b[i]
  Scalar (*dot)(const Scalar* a, const Scalar* b, std::size_t n);
  /// sum_i (a[i]-b[i])^2
  Scalar (*l2sq)(const Scalar* a, const Scalar* b, std::size_t n);
  /// out[r] = dot(q, rows[r]) for r in [0, count)
  void (*dot_rows)(const Scalar* q, const Scalar* const* rows,
                   std::size_t count, std::size_t n, Scalar* out);
  /// out[r] = l2sq(q, rows[r]) for r in [0, count)
  void (*l2_rows)(const Scalar* q, const Scalar* const* rows,
                  std::size_t count, std::size_t n, Scalar* out);
  /// Multi-query form of dot_rows: out[q * count + r] = dot(queries[q],
  /// rows[r]) for q in [0, nq), r in [0, count). Each (query, row) pair keeps
  /// its own accumulator with dot_rows' lane order, reduction and tail rows,
  /// so every output is bit-equal to dot_rows(queries[q], rows, count, n,
  /// out + q * count). A pass scores a register tile of queries x rows, so
  /// each row streams through registers once per tile instead of once per
  /// query — the batch scan's kernel.
  void (*dot_rows_multi)(const Scalar* const* queries, std::size_t nq,
                         const Scalar* const* rows, std::size_t count,
                         std::size_t n, Scalar* out);
  /// Multi-query form of l2_rows, bit-equal to it per query (see above).
  void (*l2_rows_multi)(const Scalar* const* queries, std::size_t nq,
                        const Scalar* const* rows, std::size_t count,
                        std::size_t n, Scalar* out);
  /// sum_i q[i]*codes[i] with u8 codes widened to float (SQ8 scans).
  float (*dot_u8)(const float* q, const std::uint8_t* codes, std::size_t n);
  /// Transposed-block variant: `block` holds kSqBlockRows rows of n codes in
  /// dimension-major order (`block[i * kSqBlockRows + r]`); writes
  /// out[r] = sum_i q[i] * block[i * kSqBlockRows + r] for every row of the
  /// block. Flat/IVF compressed scans stream whole blocks through this.
  void (*dot_u8_blocked)(const float* q, const std::uint8_t* block,
                         std::size_t n, float* out);
  /// Integer coarse variant of dot_u8_blocked for rerank-backed scans: the
  /// query arrives pre-quantized to i8 (see Sq8Ranges::QuantizeAdjusted) and
  /// the block is scored with pure integer MACs, writing raw sums
  /// out[r] = sum_i q[i] * block[i * kSqBlockRows + r]. Exact integer
  /// arithmetic — every ISA's result is bit-equal, so parity tests compare
  /// with ==. On AVX512BW+VNNI hosts this is the vpdpbusd fast path (4x less
  /// memory traffic than the float scan with no widen-to-float port
  /// pressure); elsewhere it is a correct reference loop that callers should
  /// not prefer over the float kernel (see dist::FastU8QBlockedActive).
  void (*dot_u8q_blocked)(const std::int8_t* q, const std::uint8_t* block,
                          std::size_t n, std::int32_t* out);
};

/// Always available; bit-identical to the pre-dispatch scalar kernels.
const KernelTable& ScalarKernels();
/// nullptr when this binary was built without the ISA TU (non-x86 target or
/// a compiler lacking the flag) — *not* a statement about the host CPU.
const KernelTable* Avx2Kernels();
const KernelTable* Avx512Kernels();

/// Table for a specific ISA, or nullptr when the binary lacks the TU or the
/// host CPU lacks the feature. Scalar always resolves.
const KernelTable* KernelsFor(KernelIsa isa);

/// Best ISA both this binary and the host CPU support.
KernelIsa BestSupportedIsa();

/// Every ISA KernelsFor() would resolve on this host, scalar first.
std::vector<KernelIsa> SupportedIsas();

/// Resolves a VDB_KERNEL override value ("scalar", "avx2", "avx512", "auto",
/// "") to the ISA the dispatcher will use. Pure — no env read — so tests can
/// cover every combination. Unknown values and ISAs the host or binary lack
/// fall back to BestSupportedIsa(); when that happens (or the value is
/// unknown) `note` receives a one-line explanation for the startup log.
KernelIsa ResolveKernelChoice(const std::string& requested, std::string* note);

/// The table every public distance call routes through. Selected on first
/// use from VDB_KERNEL (default "auto"); cached for the process lifetime
/// until ForceKernelIsa() swaps it.
const KernelTable& ActiveKernels();

/// Forces the active table (bench sweeps, parity tests, dispatch-leg CI).
/// Unsupported requests clamp to BestSupportedIsa(); returns the ISA actually
/// installed. Safe to call concurrently with scoring (atomic pointer swap),
/// though in-flight batches finish on the previous table.
KernelIsa ForceKernelIsa(KernelIsa isa);

}  // namespace vdb::dist
