// Shared machinery of the end-to-end benchmark driver: clocks, the
// latency histogram, per-interval throughput meters, the span tracer,
// the control-plane churn loop, and the result record every workload
// fills in.
//
// Everything here sits outside the library: the driver times public
// calls from the outside and never reaches into src/.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "compiler/compiler.hpp"
#include "dataplane/dataplane.hpp"

namespace perfbench {

using menshen::u16;
using menshen::u32;
using menshen::u64;
using menshen::u8;

inline u64 NowNs() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Fault injection for the checker self-test: corrupt one returned
  /// packet and withhold another from the checker.
  bool inject_faults = false;
  /// calc4_stream_96B only: migrate tenant i to shard i before the run
  /// instead of keeping the default steering (for the placement
  /// comparison in the README; not a workload of its own).
  bool one_tenant_per_shard = false;
  std::string out_dir = ".bench_out";
};

/// Byte offset of the benchmark's per-tenant packet id (u32, network
/// order).  No module of any workload reads or writes bytes 60..63, so
/// the id survives the pipeline untouched and identifies every output.
inline constexpr std::size_t kIdOffset = 60;

inline u32 ReadU32(const u8* p) {
  return (u32{p[0]} << 24) | (u32{p[1]} << 16) | (u32{p[2]} << 8) | u32{p[3]};
}
inline void WriteU32(u8* p, u32 v) {
  p[0] = static_cast<u8>(v >> 24);
  p[1] = static_cast<u8>(v >> 16);
  p[2] = static_cast<u8>(v >> 8);
  p[3] = static_cast<u8>(v);
}

/// Equality of two n-byte frames (n >= kIdOffset + 4) skipping the id
/// field and one more 4-byte field at `skip` (pass kIdOffset to skip
/// only the id).
inline bool SameFrameExcept(const u8* a, const u8* b, std::size_t n,
                            std::size_t skip) {
  const std::size_t cut[2] = {std::min(skip, kIdOffset),
                              std::max(skip, kIdOffset)};
  std::size_t pos = 0;
  for (const std::size_t c : cut) {
    if (c < pos) continue;
    const std::size_t end = std::min(c, n);
    if (!std::equal(a + pos, a + end, b + pos)) return false;
    pos = std::min(c + 4, n);
  }
  return std::equal(a + pos, a + n, b + pos);
}

// --- latency histogram --------------------------------------------------------

/// Log-bucketed histogram with 64 sub-buckets per octave (<1.6% bucket
/// width) and linear interpolation inside a bucket, so quantiles move
/// continuously with the data instead of snapping to bucket bounds.
/// Values from 2^30 ns (about 1 s) up share the last bucket.
class LatHist {
 public:
  static constexpr u32 kSub = 64;
  static constexpr u32 kOctaves = 24;
  static constexpr u32 kBuckets = kSub + kOctaves * kSub;

  LatHist() : b_(kBuckets, 0) {}
  void Add(u64 ns, u64 n = 1) {
    b_[BucketFor(ns)] += n;
    count_ += n;
  }
  void Merge(const LatHist& o) {
    for (u32 i = 0; i < kBuckets; ++i) b_[i] += o.b_[i];
    count_ += o.count_;
  }
  [[nodiscard]] u64 count() const { return count_; }
  /// Interpolated value (ns) at quantile q in [0, 1]; 0 when empty.
  [[nodiscard]] double Quantile(double q) const;

 private:
  static u32 BucketFor(u64 v);
  static void Bounds(u32 bucket, double& lo, double& width);
  std::vector<u64> b_;
  u64 count_ = 0;
};

// --- per-interval meter ---------------------------------------------------------

/// One thread's view of the measured phase: completed packets and their
/// L2 bytes per fixed interval, and one histogram of the sojourn times
/// of the whole phase.  Each thread writes only its own meter; they are
/// merged after join.
class Meter {
 public:
  Meter(u64 t0_ns, u64 interval_ns, std::size_t intervals)
      : t0_(t0_ns), interval_(interval_ns), slots_(intervals) {}
  /// Records `n` packets of `bytes` total L2 size completing at `now`.
  void Complete(u64 now, u64 n, u64 bytes) {
    Slot* s = SlotAt(now);
    if (s == nullptr) return;
    s->pkts += n;
    s->bytes += bytes;
  }
  /// Records `n` sojourn times completing at `now` (ignored outside the
  /// measured phase).
  void Latency(u64 now, u64 sojourn_ns, u64 n = 1) {
    if (SlotAt(now) != nullptr) lat_.Add(sojourn_ns, n);
  }
  void MergeInto(Meter& total) const;
  /// Per-interval rates.
  [[nodiscard]] std::vector<double> IntervalMpps() const;
  [[nodiscard]] std::vector<double> IntervalGbps() const;
  /// Sojourn times of the whole measured phase.
  [[nodiscard]] const LatHist& latency() const { return lat_; }
  void set_t0(u64 t0) { t0_ = t0; }

 private:
  struct Slot {
    u64 pkts = 0;
    u64 bytes = 0;
  };
  Slot* SlotAt(u64 now) {
    if (now < t0_) return nullptr;
    const u64 i = (now - t0_) / interval_;
    return i < slots_.size() ? &slots_[i] : nullptr;
  }
  u64 t0_;
  u64 interval_;
  std::vector<Slot> slots_;
  LatHist lat_;
};

// --- span tracer ------------------------------------------------------------------

/// Tracing is enabled only for the measured phase of a `--trace 1` run.
/// With tracing off a Span costs one relaxed load and a branch.
extern std::atomic<bool> g_trace_on;

/// Aggregated self/total time of one span name on one thread.
struct SpanStat {
  const char* name = nullptr;
  u64 self_ns = 0;
  u64 total_ns = 0;
  u64 calls = 0;
};

class Span {
 public:
  explicit Span(const char* name) {
    if (g_trace_on.load(std::memory_order_relaxed)) Begin(name);
  }
  ~Span() {
    if (active_) End();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void Begin(const char* name);
  void End();
  bool active_ = false;
};

/// Sums every thread's span aggregates by name (call after the traced
/// threads joined).
[[nodiscard]] std::vector<SpanStat> CollectSpanStats();
/// Writes the retained raw spans (name, start, end, parent) as JSON
/// lines; returns false when the file cannot be written.
bool DumpSpans(const std::string& path);

// --- control-plane churn ------------------------------------------------------------

/// A small module the control loop keeps loading and updating at a
/// fixed rate.  It carries no traffic on most workloads; its commits are
/// what `commit_p50_us` measures while the data path is busy.
class ChurnModule {
 public:
  explicit ChurnModule(menshen::ModuleAllocation alloc)
      : alloc_(std::move(alloc)) {}
  /// Compiles the module from DSL source with variant `i` of its entry
  /// set and stages every write.  Returns the compile time (ns).
  u64 Stage(menshen::Dataplane& dp, u64 i);

 private:
  menshen::ModuleAllocation alloc_;
};

/// Thread-safe record of control-plane operations: commit and migration
/// wall times, compile times, and failures.
struct ControlLog {
  std::mutex m;
  std::vector<double> commit_us;
  std::vector<double> compile_ms;
  u64 attempted = 0;
  u64 failed = 0;
};

/// Times one CommitEpoch and checks that it advanced the epoch by one
/// and left nothing staged.  Returns false (and counts a failed
/// operation) otherwise.
bool TimedCommit(menshen::Dataplane& dp, ControlLog& log);

/// Runs `step(i)` every `period_ns` on its own thread until stopped —
/// a fixed-rate schedule, so a slow step does not lower the rate of the
/// ones after it.  A step that throws counts as one failed control-plane
/// operation in `log`.
class ControlLoop {
 public:
  ControlLoop(u64 period_ns, ControlLog& log, std::function<void(u64)> step);
  ~ControlLoop();
  ControlLoop(const ControlLoop&) = delete;
  ControlLoop& operator=(const ControlLoop&) = delete;
  void Stop();

 private:
  u64 period_;
  ControlLog& log_;
  std::function<void(u64)> step_;
  std::mutex m_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread th_;
};

// --- results ------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports.  `failed` counts operations (packets
/// and control-plane commits) whose output was wrong, missing or
/// duplicated, or whose call threw; `correct` is false when an
/// invariant over the non-failed operations broke (totals reached by
/// independent paths disagree, a buffer leaked, ...).
struct RunResult {
  bool correct = true;
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<Metric> end_to_end;
  /// Measured with tracing off but not gated: their run-to-run spread
  /// on a shared host is too close to the largest bound (see README).
  std::vector<Metric> ungated;
  std::vector<Metric> per_layer;
  std::vector<std::string> problems;

  void Fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
  /// Records an invariant that must hold; a mismatch marks the run
  /// incorrect with both sides printed.
  void Expect(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }
};


/// Counters the per-layer ledger derives from before/after snapshots.
struct DataplaneDeltas {
  std::vector<menshen::Dataplane::ShardCounters> shards;
  std::vector<menshen::Dataplane::StageMatchCounters> stages;
  std::array<u64, menshen::kExecTierCount> tiers{};
};
[[nodiscard]] DataplaneDeltas SnapshotDataplane(const menshen::Dataplane& dp);
/// after - before, field by field.
[[nodiscard]] DataplaneDeltas Delta(const DataplaneDeltas& after,
                                    const DataplaneDeltas& before);

/// Samples the dataplane's relaxed counters while traffic runs, keeping
/// the deepest ingress/egress queue seen.
struct DepthSampler {
  u64 ingress_depth_max = 0;
  u64 egress_depth_max = 0;
  void Sample(const menshen::Dataplane& dp);
};

/// Inputs to the per-layer ledger a workload collects in its traced run.
struct LedgerInputs {
  u64 packets = 0;          // packets completed in the traced window
  double window_s = 0;      // traced window length
  u64 threads = 0;          // benchmark threads driving traffic
  DataplaneDeltas delta;    // dataplane counters over the window
  DepthSampler depth;
  u64 poll_calls = 0;
  u64 poll_empty = 0;
  u64 alloc_short = 0;
  double measured_p99_us = 0;
  u64 program_p99_ns = 0;   // max TenantStats::p99_ns over traffic tenants
  std::vector<double> commit_us;
  std::vector<double> compile_ms;
  u64 migrations = 0;
};
/// Builds the per-layer metric list from spans and counters.
[[nodiscard]] std::vector<Metric> BuildLedger(const LedgerInputs& in);

/// Start/stop handshake between the runner and the traffic threads:
/// each thread warms up, reports ready, waits for go, runs whole rounds
/// until stop, then drains.
struct PhaseControl {
  std::atomic<u64> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  /// Called by a traffic thread once its warm-up is done.
  void ReadyAndWait();
};

/// What the runner measured around a workload's measured phase.
struct PhaseResult {
  u64 setup_done_ns = 0;
  u64 t0 = 0;  // measured phase start
  u64 t1 = 0;  // all traffic threads joined
  DataplaneDeltas before;
  DataplaneDeltas after;
  DepthSampler depth;
};

/// Runs the measured phase around already-started traffic threads:
/// waits until all of them are warm, snapshots the dataplane, starts the
/// meters' clock and (with --trace 1) the tracer, releases the threads,
/// runs `on_go` (starts control-plane churn), waits `seconds` while
/// sampling queue depths, runs `on_stop`, stops and joins the threads.
PhaseResult RunMeasuredPhase(const Options& opt, menshen::Dataplane& dp,
                             PhaseControl& pc,
                             std::vector<std::thread>& threads,
                             std::vector<Meter>& meters,
                             const std::function<void()>& on_go,
                             const std::function<void()>& on_stop);

/// Number of whole throughput intervals in a run of `seconds`.
[[nodiscard]] std::size_t IntervalCount(double seconds);
inline constexpr u64 kIntervalNs = 250'000'000;

/// Rounds each traffic thread runs before the measured phase: enough to
/// fill the flow cache, the kernel records and the arenas' free lists,
/// and small, so that `setup_s` is set-up and not traffic.
inline constexpr std::size_t kWarmupRounds = 4;

/// Fills the end-to-end metrics from the merged meter, the control log
/// and the phase timings: throughput is the median of the per-interval
/// rates, latencies are quantiles of every sojourn in the measured
/// phase, and `commit_p50_us` (ungated) is the median of every commit
/// in it.
void AddEndToEnd(RunResult& r, const Meter& merged, const ControlLog& log,
                 const PhaseResult& ph, u64 process_start_ns);

/// Median / percentile of a sample (copies); 0 when empty.
[[nodiscard]] double Percentile(std::vector<double> v, double q);

/// Peak resident set of this process (MB).
[[nodiscard]] double PeakRssMb();

/// Zipf(s) sampler over ranks 0..n-1 by inverse CDF.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  [[nodiscard]] std::size_t Sample(double u) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace perfbench
