#pragma once

/// \file obs.hpp
/// Process-wide observability: a registry of named counters, gauges, and
/// latency histograms plus hierarchical trace spans
/// (`VDB_SPAN("router.fanout")`) that record per-stage timings through the
/// full request path — client batch conversion → router fan-out/merge →
/// worker dispatch → index search/insert → WAL append/segment flush. The
/// paper's tables decompose end-to-end numbers into exactly these stages
/// (sections 3.2–3.4); `StageBreakdown()` renders that decomposition for
/// every bench binary.
///
/// On top of the flat aggregates, spans opened while a trace is active
/// (obs::TraceScope) form a tree: each SpanTimer allocates a span id, parents
/// itself under the thread's innermost open span, and records a structured
/// SpanEvent (ids, worker/node/shard attribution, start, duration) into the
/// registry's bounded per-trace table. TraceCollector (obs/trace_collector.hpp)
/// assembles those events into timelines — Chrome trace-event JSON and ASCII
/// gantts — and the SlowQueryLog keeps the top-N slowest complete trees.
///
/// Naming convention: spans are `<stage>.<operation>` where stage is one of
/// `client`, `router`, `worker`, `index`, `storage` (plus `rpc` for transport
/// internals); histograms record microseconds. Counters and gauges use the
/// same dot-separated scheme (`rpc.handled`, `router.inflight`).
///
/// Compile-out: building with -DVDB_OBS_DISABLED removes the registry and
/// every span/counter/gauge macro body — only inline no-op stubs remain, so
/// instrumented hot paths cost nothing. The top-level CMakeLists has
/// configure-time guards (cmake/obs_disabled_*_check.cpp) that fail if
/// registry, collector, or flight-recorder symbols ever leak into disabled
/// builds.

#include <cstdint>
#include <string>

#include "common/trace.hpp"

#ifndef VDB_OBS_DISABLED

#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/stopwatch.hpp"
#include "metrics/histogram.hpp"

namespace vdb::obs {

inline constexpr bool kEnabled = true;

/// One span sample attributed to a trace (flat view; see
/// MetricsRegistry::TakeTrace). Kept for callers that only need durations —
/// the structured form is SpanEvent below.
struct StageSample {
  std::string span;
  double seconds = 0.0;
};

/// One completed span in a trace tree. `start_seconds` is seconds since the
/// process obs epoch (NowSeconds()) for engine spans, or virtual sim seconds
/// for events recorded through RecordSpanEventAt — consistent within a trace,
/// which is all timeline rendering needs.
struct SpanEvent {
  std::string name;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  // 0 = direct child of the trace root
  std::uint32_t worker = kNoWorker;
  std::uint32_t node = kNoNode;
  std::uint64_t shard = kNoShard;
  std::uint64_t thread_id = 0;  // hashed std::thread::id (engine spans only)
  std::uint32_t pid = 0;        // recording OS process (0 = unattributed/sim)
  double start_seconds = 0.0;
  double duration_seconds = 0.0;
};

/// Optional per-span attribution for the two-argument VDB_SPAN form. Wrap
/// brace-init with commas in parens so the preprocessor keeps it one arg:
/// `VDB_SPAN("worker.upsert", (obs::SpanAttrs{.shard = shard_id}))`.
/// Fields left at their sentinel inherit the thread's TraceContext values.
struct SpanAttrs {
  std::uint32_t worker = kNoWorker;
  std::uint32_t node = kNoNode;
  std::uint64_t shard = kNoShard;
};

/// Monotonic named counter. References returned by the registry stay valid
/// for the process lifetime (Reset() zeroes values, it never erases entries).
class Counter {
 public:
  void Add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  std::atomic<std::uint64_t> value_{0};
};

/// Up/down instantaneous level with high-water marks — queue depths,
/// in-flight request counts, leased bytes. Same lifetime contract as Counter.
///
/// Two maxima with distinct semantics (periodic scrapers need both):
///  * Max() — lifetime high-water: the largest value ever observed. Never
///    reset by reads; only Reset() (bench phase boundaries) zeroes it.
///  * WindowMax() / SnapshotAndResetWindow() — per-interval high-water: the
///    largest value observed since the previous SnapshotAndResetWindow()
///    call. A scraper that calls SnapshotAndResetWindow() every interval
///    gets a well-defined per-interval max (the window restarts at the
///    *current* value, so a level that stays high keeps reporting high —
///    resetting to zero would fake a dip between scrapes). Reading
///    WindowMax() alone never resets anything, so an unrelated reader
///    (/metrics, Render) cannot steal a scraper's window.
class Gauge {
 public:
  void Add(std::int64_t delta) {
    const std::int64_t now =
        value_.fetch_add(delta, std::memory_order_relaxed) + delta;
    RaiseMax(now);
  }
  void Set(std::int64_t v) {
    value_.store(v, std::memory_order_relaxed);
    RaiseMax(v);
  }
  std::int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  std::int64_t Max() const { return max_.load(std::memory_order_relaxed); }
  std::int64_t WindowMax() const {
    return window_max_.load(std::memory_order_relaxed);
  }

  /// Returns the max observed since the last call and restarts the window at
  /// the current value (see the class comment for why not zero).
  std::int64_t SnapshotAndResetWindow() {
    const std::int64_t current = value_.load(std::memory_order_relaxed);
    const std::int64_t window =
        window_max_.exchange(current, std::memory_order_relaxed);
    return std::max(window, current);
  }

 private:
  void RaiseMax(std::int64_t observed) {
    std::int64_t cur = max_.load(std::memory_order_relaxed);
    while (observed > cur &&
           !max_.compare_exchange_weak(cur, observed,
                                       std::memory_order_relaxed)) {
    }
    cur = window_max_.load(std::memory_order_relaxed);
    while (observed > cur &&
           !window_max_.compare_exchange_weak(cur, observed,
                                             std::memory_order_relaxed)) {
    }
  }
  friend class MetricsRegistry;
  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> max_{0};
  std::atomic<std::int64_t> window_max_{0};
};

/// RAII +1/-1 on a gauge; the VDB_GAUGE_SCOPE_INC macro caches the lookup.
class GaugeScope {
 public:
  explicit GaugeScope(Gauge& gauge) : gauge_(gauge) { gauge_.Add(1); }
  ~GaugeScope() { gauge_.Add(-1); }
  GaugeScope(const GaugeScope&) = delete;
  GaugeScope& operator=(const GaugeScope&) = delete;

 private:
  Gauge& gauge_;
};

/// A named span call-site: latency histogram (microseconds) + derived stats.
/// Thread-safe; one mutex per site keeps unrelated spans uncontended.
class SpanSite {
 public:
  explicit SpanSite(std::string name) : name_(std::move(name)) {}

  /// Records one duration-only sample. When the calling thread carries a
  /// non-zero trace id, a SpanEvent is synthesized under the innermost open
  /// span (start back-dated by `seconds`) and attributed to that trace.
  void Record(double seconds);

  /// Records a fully-formed event (SpanTimer's path): histogram insert plus,
  /// when event.trace_id != 0, the per-trace table and the flight recorder.
  void RecordEvent(SpanEvent&& event);

  /// Histogram-only insert (no trace attribution); the untraced fast path.
  void RecordDuration(double seconds);

  const std::string& Name() const { return name_; }
  std::uint64_t Count() const;
  double TotalSeconds() const;
  LatencyHistogram Snapshot() const;

 private:
  friend class MetricsRegistry;
  std::string name_;
  mutable std::mutex mutex_;
  LatencyHistogram hist_;  // microseconds
};

/// Process-wide singleton holding every counter, gauge, and span site.
/// Entries are never erased, so returned references are stable and call-sites
/// may cache them in function-local statics (VDB_SPAN does).
class MetricsRegistry {
 public:
  /// Live-trace table bound. When a new trace arrives at the bound, the
  /// least-recently-touched entry is evicted (its events are discarded and
  /// `obs.trace.dropped` is bumped) so abandoned traces — ones never
  /// TakeTrace'd — can't pin the table and starve new traces forever.
  static constexpr std::size_t kMaxTraces = 256;
  static constexpr std::size_t kMaxSamplesPerTrace = 4096;

  static MetricsRegistry& Instance();

  SpanSite& SpanSiteFor(const std::string& name);
  Counter& CounterFor(const std::string& name);
  Gauge& GaugeFor(const std::string& name);

  /// Appends a completed span event to its trace's entry (bounded per the
  /// kMaxTraces/kMaxSamplesPerTrace contract above). No-op for trace id 0.
  void RecordTraceEvent(SpanEvent&& event);

  /// Removes and returns every span event attributed to `trace_id`, in
  /// recording order. Returns empty if the trace is unknown (never started,
  /// already taken, or evicted).
  std::vector<SpanEvent> TakeTraceEvents(std::uint64_t trace_id);

  /// Drains every retained trace (TracePull with an empty id list — the
  /// scraper wants whatever this process has). Events of one trace stay in
  /// recording order; traces are concatenated in unspecified order.
  std::vector<SpanEvent> TakeAllTraceEvents();

  /// Flat duration view of TakeTraceEvents (span name + seconds).
  std::vector<StageSample> TakeTrace(std::uint64_t trace_id);

  // Bulk read-out for the snapshot capture (obs/snapshot.hpp). Copies under
  // the registry mutex; safe to call while writer threads record.
  std::vector<std::pair<std::string, std::uint64_t>> CounterValues() const;
  struct GaugeValues {
    std::int64_t value = 0;
    std::int64_t max = 0;
    std::int64_t window_max = 0;
  };
  /// `reset_windows` runs SnapshotAndResetWindow on every gauge (the periodic
  /// scraper path); false leaves the windows for whoever owns them.
  std::vector<std::pair<std::string, GaugeValues>> GaugeSamples(
      bool reset_windows);
  std::vector<std::pair<std::string, LatencyHistogram>> SpanHistograms() const;

  /// Human-readable dump of every counter, gauge, and span summary.
  std::string Render() const;
  /// Same data as JSON ({"counters": {...}, "gauges": {...}, "spans": {...}}).
  std::string RenderJson() const;
  /// The paper's per-stage decomposition: spans grouped into the
  /// client / router / worker / index / storage stages.
  std::string RenderStageBreakdown() const;

  /// Zeroes every counter/gauge/histogram and drops pending traces.
  /// References handed out earlier remain valid. Benches/tests call this
  /// between phases.
  void Reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<SpanSite>> spans_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;

  struct TraceEntry {
    std::vector<SpanEvent> events;
    std::uint64_t touch = 0;  // LRU tick, bumped on every append
  };
  std::mutex trace_mutex_;
  std::unordered_map<std::uint64_t, TraceEntry> traces_;
  std::uint64_t trace_tick_ = 0;
};

/// RAII span timer; prefer the VDB_SPAN macro, which caches the site lookup.
/// Traced path: allocates a span id, installs itself as the thread's
/// innermost span (so nested spans and cross-hop handlers parent correctly),
/// and records a structured SpanEvent on destruction. Untraced path: one
/// histogram insert, nothing else.
class SpanTimer {
 public:
  explicit SpanTimer(SpanSite& site, SpanAttrs attrs = {});
  ~SpanTimer();
  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

 private:
  SpanSite& site_;
  SpanAttrs attrs_;
  std::uint64_t span_id_ = 0;
  std::uint64_t parent_id_ = 0;
  const char* prev_span_name_ = nullptr;
  double start_seconds_ = 0.0;
  bool traced_ = false;
  Stopwatch watch_;
};

/// Seconds since the process obs epoch (first call); steady-clock based.
/// SpanEvent.start_seconds for engine spans is expressed on this axis.
double NowSeconds();

/// Wall-clock (system_clock) time of the process obs epoch, as Unix seconds.
/// Each process's NowSeconds axis is private (its own steady-clock epoch);
/// shipping this next to pulled span events lets a scraper rebase events from
/// many processes onto one shared time axis: shift each process's events by
/// (its epoch_unix - min epoch_unix across processes).
double EpochUnixSeconds();

/// Cached getpid() of this process — stamped into SpanEvent.pid so
/// cross-process trace assembly can attribute spans to real OS processes.
std::uint32_t ProcessId();

/// Records a span sample of `seconds` ending now, without a timer (a traced
/// thread also gets a SpanEvent parented under its current context) — used
/// by the simulator, whose stage durations are virtual seconds computed from
/// the cost model, and by the worker's batch path, where each query of a
/// slice is in service for the whole slice.
void RecordStageSeconds(const std::string& span, double seconds);

/// Explicit-time span event for callers that can't use thread-local context
/// (the discrete-event simulator: one OS thread interleaves every virtual
/// actor). Records into the aggregate histogram and, when parent.trace_id is
/// non-zero, appends a SpanEvent with `start_seconds`/`duration_seconds` on
/// the caller's (virtual) time axis. Returns the new span id (0 if
/// untraced) so callers can parent nested events under it. Pass a non-zero
/// `span_id` (from NewSpanId()) to use a pre-allocated id instead — needed
/// when children finish (and must name their parent) before the parent's
/// duration is known, as in the sim's fan-out reduce.
std::uint64_t RecordSpanEventAt(const std::string& span,
                                const TraceToken& parent, double start_seconds,
                                double duration_seconds,
                                std::uint32_t worker = kNoWorker,
                                std::uint32_t node = kNoNode,
                                std::uint64_t shard = kNoShard,
                                std::uint64_t span_id = 0);

/// Convenience counter bump (uncached lookup; hot paths use VDB_COUNTER_ADD).
void AddCounter(const std::string& name, std::uint64_t n = 1);

/// Instance().RenderStageBreakdown(), callable identically in disabled builds.
std::string StageBreakdown();

}  // namespace vdb::obs

#define VDB_OBS_CONCAT_INNER(a, b) a##b
#define VDB_OBS_CONCAT(a, b) VDB_OBS_CONCAT_INNER(a, b)

#define VDB_SPAN_NAMED(name)                                                   \
  static ::vdb::obs::SpanSite& VDB_OBS_CONCAT(vdb_obs_site_, __LINE__) =       \
      ::vdb::obs::MetricsRegistry::Instance().SpanSiteFor(name);               \
  ::vdb::obs::SpanTimer VDB_OBS_CONCAT(vdb_obs_timer_, __LINE__)(              \
      VDB_OBS_CONCAT(vdb_obs_site_, __LINE__))

#define VDB_SPAN_WITH_ATTRS(name, attrs)                                       \
  static ::vdb::obs::SpanSite& VDB_OBS_CONCAT(vdb_obs_site_, __LINE__) =       \
      ::vdb::obs::MetricsRegistry::Instance().SpanSiteFor(name);               \
  ::vdb::obs::SpanTimer VDB_OBS_CONCAT(vdb_obs_timer_, __LINE__)(              \
      VDB_OBS_CONCAT(vdb_obs_site_, __LINE__), attrs)

#define VDB_SPAN_SELECT(_1, _2, chosen, ...) chosen

/// Times the enclosing scope into span `name`. The registry lookup happens
/// once per call-site (function-local static); per call the cost is two
/// steady_clock reads plus one mutex-guarded histogram insert (plus a
/// SpanEvent append when the thread is traced). Optional second argument
/// attaches per-span attribution:
///   VDB_SPAN("worker.search_local");
///   VDB_SPAN("worker.upsert", (::vdb::obs::SpanAttrs{.shard = shard_id}));
#define VDB_SPAN(...)                                                          \
  VDB_SPAN_SELECT(__VA_ARGS__, VDB_SPAN_WITH_ATTRS, VDB_SPAN_NAMED)            \
  (__VA_ARGS__)

/// Bumps counter `name` by `n` with a cached site lookup.
#define VDB_COUNTER_ADD(name, n)                                               \
  do {                                                                         \
    static ::vdb::obs::Counter& vdb_obs_counter =                              \
        ::vdb::obs::MetricsRegistry::Instance().CounterFor(name);              \
    vdb_obs_counter.Add(n);                                                    \
  } while (0)

/// Adjusts gauge `name` by signed `delta` with a cached lookup.
#define VDB_GAUGE_ADD(name, delta)                                             \
  do {                                                                         \
    static ::vdb::obs::Gauge& vdb_obs_gauge =                                  \
        ::vdb::obs::MetricsRegistry::Instance().GaugeFor(name);                \
    vdb_obs_gauge.Add(delta);                                                  \
  } while (0)

/// Sets gauge `name` to `value` with a cached lookup.
#define VDB_GAUGE_SET(name, value)                                             \
  do {                                                                         \
    static ::vdb::obs::Gauge& vdb_obs_gauge =                                  \
        ::vdb::obs::MetricsRegistry::Instance().GaugeFor(name);                \
    vdb_obs_gauge.Set(value);                                                  \
  } while (0)

/// Holds gauge `name` one higher for the enclosing scope (in-flight counts).
#define VDB_GAUGE_SCOPE_INC(name)                                              \
  static ::vdb::obs::Gauge& VDB_OBS_CONCAT(vdb_obs_gauge_, __LINE__) =         \
      ::vdb::obs::MetricsRegistry::Instance().GaugeFor(name);                  \
  ::vdb::obs::GaugeScope VDB_OBS_CONCAT(vdb_obs_gscope_, __LINE__)(            \
      VDB_OBS_CONCAT(vdb_obs_gauge_, __LINE__))

#else  // VDB_OBS_DISABLED

namespace vdb::obs {

inline constexpr bool kEnabled = false;

// Only the surface engine/bench code touches survives; the registry, span
// sites, gauges, and per-trace table are compiled out entirely (enforced by
// the configure-time guards in CMakeLists.txt).
inline void RecordStageSeconds(const std::string&, double) {}
inline std::uint64_t RecordSpanEventAt(const std::string&, const TraceToken&,
                                       double, double,
                                       std::uint32_t = kNoWorker,
                                       std::uint32_t = kNoNode,
                                       std::uint64_t = kNoShard,
                                       std::uint64_t = 0) {
  return 0;
}
inline double NowSeconds() { return 0.0; }
inline void AddCounter(const std::string&, std::uint64_t = 1) {}
inline std::string StageBreakdown() {
  return "observability compiled out (VDB_OBS_DISABLED)\n";
}

}  // namespace vdb::obs

#define VDB_SPAN(...) static_cast<void>(0)
#define VDB_COUNTER_ADD(name, n) static_cast<void>(0)
#define VDB_GAUGE_ADD(name, delta) static_cast<void>(0)
#define VDB_GAUGE_SET(name, value) static_cast<void>(0)
#define VDB_GAUGE_SCOPE_INC(name) static_cast<void>(0)

#endif  // VDB_OBS_DISABLED
