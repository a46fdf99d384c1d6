#include "dist/kernels.hpp"

#include <atomic>
#include <mutex>

#include "common/cpuid.hpp"
#include "common/logging.hpp"

namespace vdb::dist {

namespace {

std::atomic<const KernelTable*> g_active{nullptr};

const KernelTable* TableForHost(KernelIsa isa) {
  const CpuFeatures& cpu = HostCpuFeatures();
  switch (isa) {
    case KernelIsa::kScalar:
      return &ScalarKernels();
    case KernelIsa::kAvx2:
      return (cpu.avx2 && cpu.fma) ? Avx2Kernels() : nullptr;
    case KernelIsa::kAvx512:
      return cpu.avx512f ? Avx512Kernels() : nullptr;
  }
  return nullptr;
}

const KernelTable& SelectStartupTable() {
  std::string note;
  const KernelIsa isa =
      ResolveKernelChoice(GetEnvOr("VDB_KERNEL", "auto"), &note);
  if (!note.empty()) {
    VDB_WARN << "dist kernel dispatch: " << note;
  }
  const KernelTable* table = KernelsFor(isa);
  VDB_INFO << "dist kernels: " << table->name
           << " (cpu: " << CpuFeatureString() << ")";
  return *table;
}

}  // namespace

std::string_view KernelIsaName(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kScalar: return "scalar";
    case KernelIsa::kAvx2: return "avx2";
    case KernelIsa::kAvx512: return "avx512";
  }
  return "?";
}

Result<KernelIsa> ParseKernelIsa(const std::string& name) {
  if (name == "scalar") return KernelIsa::kScalar;
  if (name == "avx2") return KernelIsa::kAvx2;
  if (name == "avx512") return KernelIsa::kAvx512;
  return Status::InvalidArgument("unknown kernel ISA '" + name + "'");
}

const KernelTable* KernelsFor(KernelIsa isa) { return TableForHost(isa); }

KernelIsa BestSupportedIsa() {
  if (TableForHost(KernelIsa::kAvx512) != nullptr) return KernelIsa::kAvx512;
  if (TableForHost(KernelIsa::kAvx2) != nullptr) return KernelIsa::kAvx2;
  return KernelIsa::kScalar;
}

std::vector<KernelIsa> SupportedIsas() {
  std::vector<KernelIsa> isas{KernelIsa::kScalar};
  if (TableForHost(KernelIsa::kAvx2) != nullptr) isas.push_back(KernelIsa::kAvx2);
  if (TableForHost(KernelIsa::kAvx512) != nullptr) isas.push_back(KernelIsa::kAvx512);
  return isas;
}

KernelIsa ResolveKernelChoice(const std::string& requested, std::string* note) {
  if (note != nullptr) note->clear();
  if (requested.empty() || requested == "auto") return BestSupportedIsa();
  const auto parsed = ParseKernelIsa(requested);
  if (!parsed.ok()) {
    const KernelIsa best = BestSupportedIsa();
    if (note != nullptr) {
      *note = "VDB_KERNEL='" + requested + "' is not scalar|avx2|avx512|auto; using " +
              std::string(KernelIsaName(best));
    }
    return best;
  }
  if (TableForHost(*parsed) == nullptr) {
    const KernelIsa best = BestSupportedIsa();
    if (note != nullptr) {
      *note = "VDB_KERNEL=" + requested +
              " not supported by this host/binary; falling back to " +
              std::string(KernelIsaName(best));
    }
    return best;
  }
  return *parsed;
}

const KernelTable& ActiveKernels() {
  const KernelTable* table = g_active.load(std::memory_order_acquire);
  if (table != nullptr) return *table;
  static std::once_flag once;
  std::call_once(once, [] {
    // ForceKernelIsa may have raced ahead of us; keep its choice.
    const KernelTable* expected = nullptr;
    const KernelTable* startup = &SelectStartupTable();
    g_active.compare_exchange_strong(expected, startup,
                                     std::memory_order_acq_rel);
  });
  return *g_active.load(std::memory_order_acquire);
}

KernelIsa ForceKernelIsa(KernelIsa isa) {
  const KernelTable* table = TableForHost(isa);
  if (table == nullptr) {
    VDB_WARN << "dist kernel dispatch: forced ISA " << KernelIsaName(isa)
             << " unavailable; clamping to " << KernelIsaName(BestSupportedIsa());
    table = TableForHost(BestSupportedIsa());
  }
  g_active.store(table, std::memory_order_release);
  return table->isa;
}

}  // namespace vdb::dist
