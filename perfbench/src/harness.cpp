#include "harness.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <map>

#include "runtime/stats.hpp"

namespace perfbench {

// --- LatHist ------------------------------------------------------------------

u32 LatHist::BucketFor(u64 v) {
  if (v < kSub) return static_cast<u32>(v);
  const u32 msb = 63u - static_cast<u32>(__builtin_clzll(v));
  const u32 shift = msb - 6;  // kSub == 64 == 2^6
  const u32 octave = std::min(shift, kOctaves - 1);
  const u32 sub = static_cast<u32>((v >> shift) & (kSub - 1));
  return kSub + octave * kSub + (shift >= kOctaves ? kSub - 1 : sub);
}

void LatHist::Bounds(u32 bucket, double& lo, double& width) {
  if (bucket < kSub) {
    lo = bucket;
    width = 1;
    return;
  }
  const u32 octave = (bucket - kSub) / kSub;
  const u32 sub = (bucket - kSub) % kSub;
  width = std::ldexp(1.0, static_cast<int>(octave));
  lo = static_cast<double>(kSub + sub) * width;
}

double LatHist::Quantile(double q) const {
  if (count_ == 0) return 0;
  const double rank = q * static_cast<double>(count_);
  double seen = 0;
  for (u32 i = 0; i < kBuckets; ++i) {
    if (b_[i] == 0) continue;
    const double next = seen + static_cast<double>(b_[i]);
    if (next >= rank) {
      double lo = 0, width = 0;
      Bounds(i, lo, width);
      return lo + width * (rank - seen) / static_cast<double>(b_[i]);
    }
    seen = next;
  }
  double lo = 0, width = 0;
  Bounds(kBuckets - 1, lo, width);
  return lo + width;
}

// --- Meter ----------------------------------------------------------------------

void Meter::MergeInto(Meter& total) const {
  for (std::size_t i = 0; i < slots_.size() && i < total.slots_.size(); ++i) {
    total.slots_[i].pkts += slots_[i].pkts;
    total.slots_[i].bytes += slots_[i].bytes;
  }
  total.lat_.Merge(lat_);
}

std::vector<double> Meter::IntervalMpps() const {
  std::vector<double> v;
  for (const Slot& s : slots_)
    v.push_back(static_cast<double>(s.pkts) /
                (static_cast<double>(interval_) * 1e-9) / 1e6);
  return v;
}

std::vector<double> Meter::IntervalGbps() const {
  std::vector<double> v;
  for (const Slot& s : slots_)
    v.push_back(static_cast<double>(s.bytes) * 8.0 /
                (static_cast<double>(interval_) * 1e-9) / 1e9);
  return v;
}

// --- tracer -------------------------------------------------------------------------

std::atomic<bool> g_trace_on{false};

namespace {

/// Raw spans kept per thread for the dump; aggregates keep counting
/// past this cap.
constexpr std::size_t kMaxRawSpansPerThread = 20000;

struct RawSpan {
  const char* name;
  u64 start;
  u64 end;
  int parent;  // index into the same thread's raw spans, -1 = root
};

struct ThreadTrace {
  u32 id = 0;
  std::vector<SpanStat> stats;
  struct Open {
    const char* name;
    u64 start;
    u64 child_ns;
    int raw;  // raw span index, -1 when not retained
  };
  std::vector<Open> stack;
  std::vector<RawSpan> raw;

  SpanStat& StatFor(const char* name) {
    for (SpanStat& s : stats)
      if (s.name == name) return s;
    stats.push_back(SpanStat{name, 0, 0, 0});
    return stats.back();
  }
};

std::mutex g_registry_m;
std::vector<std::unique_ptr<ThreadTrace>> g_registry;

ThreadTrace& LocalTrace() {
  thread_local ThreadTrace* tt = [] {
    std::lock_guard<std::mutex> g(g_registry_m);
    g_registry.push_back(std::make_unique<ThreadTrace>());
    g_registry.back()->id = static_cast<u32>(g_registry.size() - 1);
    return g_registry.back().get();
  }();
  return *tt;
}

}  // namespace

void Span::Begin(const char* name) {
  ThreadTrace& t = LocalTrace();
  active_ = true;
  int raw = -1;
  if (t.raw.size() < kMaxRawSpansPerThread) {
    const int parent = t.stack.empty() ? -1 : t.stack.back().raw;
    t.raw.push_back(RawSpan{name, 0, 0, parent});
    raw = static_cast<int>(t.raw.size() - 1);
  }
  t.stack.push_back(ThreadTrace::Open{name, NowNs(), 0, raw});
  if (raw >= 0) t.raw[static_cast<std::size_t>(raw)].start = t.stack.back().start;
}

void Span::End() {
  const u64 now = NowNs();
  ThreadTrace& t = LocalTrace();
  const ThreadTrace::Open open = t.stack.back();
  t.stack.pop_back();
  const u64 dur = now - open.start;
  SpanStat& s = t.StatFor(open.name);
  s.total_ns += dur;
  s.self_ns += dur > open.child_ns ? dur - open.child_ns : 0;
  ++s.calls;
  if (!t.stack.empty()) t.stack.back().child_ns += dur;
  if (open.raw >= 0) t.raw[static_cast<std::size_t>(open.raw)].end = now;
}

std::vector<SpanStat> CollectSpanStats() {
  std::lock_guard<std::mutex> g(g_registry_m);
  std::map<std::string, SpanStat> by_name;
  for (const auto& t : g_registry)
    for (const SpanStat& s : t->stats) {
      SpanStat& acc = by_name[s.name];
      acc.name = s.name;
      acc.self_ns += s.self_ns;
      acc.total_ns += s.total_ns;
      acc.calls += s.calls;
    }
  std::vector<SpanStat> out;
  for (const auto& [name, s] : by_name) out.push_back(s);
  return out;
}

bool DumpSpans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> g(g_registry_m);
  for (const auto& t : g_registry)
    for (std::size_t i = 0; i < t->raw.size(); ++i) {
      const RawSpan& r = t->raw[i];
      if (r.end == 0) continue;  // still open when the run ended
      std::fprintf(f,
                   "{\"thread\": %u, \"id\": %zu, \"name\": \"%s\", "
                   "\"start_ns\": %llu, \"end_ns\": %llu, \"parent\": %d}\n",
                   t->id, i, r.name, static_cast<unsigned long long>(r.start),
                   static_cast<unsigned long long>(r.end), r.parent);
    }
  return std::fclose(f) == 0;
}

// --- control plane ------------------------------------------------------------------

namespace {
constexpr const char* kChurnDsl = R"(
module churn {
  field ver_tos : 2 @ 18;
  field dport   : 2 @ 40;
  action mark(v) { ver_tos = v; }
  action pass(p) { port(p); }
  table mark_tbl { key = { dport }; actions = { mark, pass }; size = 4; }
}
)";
}  // namespace

u64 ChurnModule::Stage(menshen::Dataplane& dp, u64 i) {
  const u64 t0 = NowNs();
  menshen::CompiledModule m = [&] {
    Span s("compiler.Compile");
    menshen::CompiledModule c = menshen::CompileDsl(kChurnDsl, alloc_);
    c.AddEntry("mark_tbl", {{"dport", 7000 + (i % 2)}}, std::nullopt, "mark",
               {0x4500u + (i % 64)});
    c.AddEntry("mark_tbl", {{"dport", 7002}}, std::nullopt, "pass",
               {static_cast<u64>(1 + i % 8)});
    return c;
  }();
  const u64 compile_ns = NowNs() - t0;
  if (!m.ok())
    throw std::runtime_error("churn module failed to compile:\n" +
                             m.diags().ToString());
  Span s("dataplane.StageWrites");
  dp.StageWrites(m.AllWrites());
  return compile_ns;
}

bool TimedCommit(menshen::Dataplane& dp, ControlLog& log) {
  bool ok = true;
  const u64 before = dp.epoch();
  const u64 t0 = NowNs();
  try {
    Span s("dataplane.CommitEpoch");
    dp.CommitEpoch();
  } catch (const std::exception&) {
    ok = false;
  }
  const u64 t1 = NowNs();
  ok = ok && dp.epoch() == before + 1 && dp.pending_writes() == 0;
  std::lock_guard<std::mutex> g(log.m);
  ++log.attempted;
  if (ok) {
    log.commit_us.push_back(static_cast<double>(t1 - t0) / 1e3);
  } else {
    ++log.failed;
  }
  return ok;
}

ControlLoop::ControlLoop(u64 period_ns, ControlLog& log,
                         std::function<void(u64)> step)
    : period_(period_ns), log_(log), step_(std::move(step)) {
  th_ = std::thread([this] {
    auto next = std::chrono::steady_clock::now();
    for (u64 i = 0;; ++i) {
      next += std::chrono::nanoseconds(period_);
      {
        std::unique_lock<std::mutex> lk(m_);
        if (cv_.wait_until(lk, next, [this] { return stop_; })) return;
      }
      try {
        step_(i);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "control step %llu threw: %s\n",
                     static_cast<unsigned long long>(i), e.what());
        std::lock_guard<std::mutex> g(log_.m);
        ++log_.attempted;
        ++log_.failed;
      }
    }
  });
}

ControlLoop::~ControlLoop() { Stop(); }

void ControlLoop::Stop() {
  {
    std::lock_guard<std::mutex> g(m_);
    stop_ = true;
  }
  cv_.notify_all();
  if (th_.joinable()) th_.join();
}

// --- dataplane snapshots ---------------------------------------------------------------

DataplaneDeltas SnapshotDataplane(const menshen::Dataplane& dp) {
  DataplaneDeltas d;
  d.shards = dp.CountersSnapshot();
  d.stages = dp.MatchCountersSnapshot();
  const menshen::TelemetrySnapshot t = dp.telemetry().Snapshot();
  for (const menshen::ShardTelemetry& s : t.shards)
    for (int i = 0; i < menshen::kExecTierCount; ++i) d.tiers[i] += s.tier_pkts[i];
  return d;
}

DataplaneDeltas Delta(const DataplaneDeltas& a, const DataplaneDeltas& b) {
  DataplaneDeltas d = a;
  for (std::size_t i = 0; i < d.shards.size() && i < b.shards.size(); ++i) {
    auto& x = d.shards[i];
    const auto& y = b.shards[i];
    x.batches -= y.batches;
    x.packets -= y.packets;
    x.forwarded -= y.forwarded;
    x.dropped -= y.dropped;
    x.filtered -= y.filtered;
    x.busy_ns -= y.busy_ns;
    x.flow_cache_hits -= y.flow_cache_hits;
    x.flow_cache_misses -= y.flow_cache_misses;
    x.flow_cache_evictions -= y.flow_cache_evictions;
    x.flow_cache_burst_pkts -= y.flow_cache_burst_pkts;
    x.flow_cache_burst_fallback -= y.flow_cache_burst_fallback;
    x.kernel_pkts -= y.kernel_pkts;
    x.kernel_fallback_pkts -= y.kernel_fallback_pkts;
    x.kernel_record_fills -= y.kernel_record_fills;
    x.stream_bursts -= y.stream_bursts;
    x.stream_pkts -= y.stream_pkts;
    x.egress_pkts -= y.egress_pkts;
    x.producer_stalls -= y.producer_stalls;
    x.steals -= y.steals;
  }
  for (std::size_t i = 0; i < d.stages.size() && i < b.stages.size(); ++i) {
    d.stages[i].cam_lookups -= b.stages[i].cam_lookups;
    d.stages[i].cam_hits -= b.stages[i].cam_hits;
    d.stages[i].tcam_lookups -= b.stages[i].tcam_lookups;
    d.stages[i].tcam_hits -= b.stages[i].tcam_hits;
  }
  for (int i = 0; i < menshen::kExecTierCount; ++i) d.tiers[i] -= b.tiers[i];
  return d;
}

void DepthSampler::Sample(const menshen::Dataplane& dp) {
  for (const auto& c : dp.CountersSnapshotRelaxed()) {
    ingress_depth_max = std::max(ingress_depth_max, c.queue_depth);
    egress_depth_max = std::max(egress_depth_max, c.egress_depth);
  }
}

// --- ledger ------------------------------------------------------------------------------

namespace {

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

bool StartsWith(const char* s, const char* prefix) {
  return std::string(s).rfind(prefix, 0) == 0;
}

}  // namespace

std::vector<Metric> BuildLedger(const LedgerInputs& in) {
  std::vector<Metric> m;
  const double pkts = static_cast<double>(in.packets);
  const std::vector<SpanStat> spans = CollectSpanStats();
  const auto self_of = [&](std::initializer_list<const char*> names) {
    double ns = 0;
    for (const SpanStat& s : spans)
      for (const char* n : names)
        if (std::string(s.name) == n) ns += static_cast<double>(s.self_ns);
    return ns;
  };
  const auto per_pkt = [&](double ns) { return Ratio(ns, pkts); };

  m.push_back({"traced.wall_ns_per_pkt", Ratio(in.window_s * 1e9, pkts), "ns"});
  m.push_back({"packet.fill_ns_per_pkt",
               per_pkt(self_of({"packet.AllocateBurst", "packet.Assign",
                                "packet.BuildBatch"})),
               "ns"});
  m.push_back({"packet.release_ns_per_pkt",
               per_pkt(self_of({"packet.ReleaseToOwners", "packet.FreeResults"})),
               "ns"});
  m.push_back({"packet.alloc_short_bursts", static_cast<double>(in.alloc_short),
               "count"});
  m.push_back({"dataplane.submit_ns_per_pkt",
               per_pkt(self_of({"dataplane.SubmitStream", "dataplane.Submit"})),
               "ns"});
  m.push_back({"dataplane.return_ns_per_pkt",
               per_pkt(self_of({"dataplane.PollEgress", "dataplane.FlushEgress",
                                "dataplane.TicketWait"})),
               "ns"});
  m.push_back({"dataplane.poll_egress_empty_share",
               Ratio(static_cast<double>(in.poll_empty),
                     static_cast<double>(in.poll_calls)),
               "ratio"});

  double busy_sum = 0, busy_max = 0;
  u64 active = 0;
  u64 stalls = 0;
  u64 fc_hits = 0, fc_misses = 0, fc_evict = 0, burst = 0, burst_fb = 0;
  u64 kern = 0, kern_fb = 0;
  for (const auto& c : in.delta.shards) {
    const double b = static_cast<double>(c.busy_ns);
    busy_sum += b;
    busy_max = std::max(busy_max, b);
    if (c.packets != 0) ++active;
    stalls += c.producer_stalls;
    fc_hits += c.flow_cache_hits;
    fc_misses += c.flow_cache_misses;
    fc_evict += c.flow_cache_evictions;
    burst += c.flow_cache_burst_pkts;
    burst_fb += c.flow_cache_burst_fallback;
    kern += c.kernel_pkts;
    kern_fb += c.kernel_fallback_pkts;
  }
  const double shards = static_cast<double>(in.delta.shards.size());
  m.push_back({"dataplane.shard_busy_ns_per_pkt", per_pkt(busy_sum), "ns"});
  m.push_back({"dataplane.shard_busy_skew",
               Ratio(busy_max, Ratio(busy_sum, shards)), "ratio"});
  m.push_back({"dataplane.active_shards", static_cast<double>(active), "count"});
  m.push_back({"dataplane.commit_us_p50", Percentile(in.commit_us, 0.5), "us"});
  m.push_back({"dataplane.commit_us_p99", Percentile(in.commit_us, 0.99), "us"});
  m.push_back({"dataplane.migrations", static_cast<double>(in.migrations),
               "count"});
  m.push_back({"dataplane.migrate_share",
               Ratio(self_of({"dataplane.MigrateTenant"}),
                     in.window_s * 1e9 * static_cast<double>(in.threads)),
               "ratio"});
  m.push_back({"ingress.producer_stalls", static_cast<double>(stalls), "count"});
  m.push_back({"ingress.queue_depth_max",
               static_cast<double>(in.depth.ingress_depth_max), "count"});
  m.push_back({"dataplane.egress_depth_max",
               static_cast<double>(in.depth.egress_depth_max), "count"});

  m.push_back({"pipeline.flow_cache_hit_ratio",
               Ratio(static_cast<double>(fc_hits),
                     static_cast<double>(fc_hits + fc_misses)),
               "ratio"});
  m.push_back({"pipeline.flow_cache_burst_fallback_ratio",
               Ratio(static_cast<double>(burst_fb), static_cast<double>(burst)),
               "ratio"});
  m.push_back({"pipeline.flow_cache_evictions", static_cast<double>(fc_evict),
               "count"});
  double tier_total = 0;
  for (const u64 t : in.delta.tiers) tier_total += static_cast<double>(t);
  const char* tier_names[] = {"none", "flow_cache", "kernel", "interpreted",
                              "unplanned"};
  for (int t = 1; t < menshen::kExecTierCount; ++t)
    m.push_back({std::string("pipeline.tier_share.") + tier_names[t],
                 Ratio(static_cast<double>(in.delta.tiers[t]), tier_total),
                 "ratio"});
  m.push_back({"pipeline.kernel_fallback_share",
               Ratio(static_cast<double>(kern_fb),
                     static_cast<double>(kern + kern_fb)),
               "ratio"});
  u64 cam_l = 0, cam_h = 0, tcam_l = 0, tcam_h = 0;
  for (const auto& s : in.delta.stages) {
    cam_l += s.cam_lookups;
    cam_h += s.cam_hits;
    tcam_l += s.tcam_lookups;
    tcam_h += s.tcam_hits;
  }
  m.push_back({"pipeline.cam_hit_ratio",
               Ratio(static_cast<double>(cam_h), static_cast<double>(cam_l)),
               "ratio"});
  m.push_back({"pipeline.tcam_hit_ratio",
               Ratio(static_cast<double>(tcam_h), static_cast<double>(tcam_l)),
               "ratio"});
  m.push_back({"compiler.compile_ms", Percentile(in.compile_ms, 0.5), "ms"});
  m.push_back({"net.flush_egress_share",
               Ratio(self_of({"dataplane.FlushEgress"}),
                     in.window_s * 1e9 * static_cast<double>(in.threads)),
               "ratio"});
  m.push_back({"runtime.tenant_p99_over_measured",
               Ratio(static_cast<double>(in.program_p99_ns) / 1e3,
                     in.measured_p99_us),
               "ratio"});
  m.push_back({"bench.check_ns_per_pkt",
               per_pkt(self_of({"bench.Check", "compiler.Interpreter"})), "ns"});

  // Self time of every other span, so the ledger adds back up to the
  // traced threads' wall time.
  double named = 0, all = 0;
  for (const SpanStat& s : spans) {
    all += static_cast<double>(s.self_ns);
    if (StartsWith(s.name, "packet.") || StartsWith(s.name, "bench.") ||
        s.name == std::string("compiler.Interpreter") ||
        s.name == std::string("dataplane.SubmitStream") ||
        s.name == std::string("dataplane.Submit") ||
        s.name == std::string("dataplane.PollEgress") ||
        s.name == std::string("dataplane.FlushEgress") ||
        s.name == std::string("dataplane.TicketWait"))
      named += static_cast<double>(s.self_ns);
  }
  m.push_back({"traced.control_share",
               Ratio(all - named,
                     in.window_s * 1e9 * static_cast<double>(in.threads)),
               "ratio"});
  m.push_back({"traced.untraced_share",
               Ratio(in.window_s * 1e9 * static_cast<double>(in.threads) - all,
                     in.window_s * 1e9 * static_cast<double>(in.threads)),
               "ratio"});
  return m;
}

// --- measured phase ------------------------------------------------------------------------

void PhaseControl::ReadyAndWait() {
  ready.fetch_add(1, std::memory_order_acq_rel);
  while (!go.load(std::memory_order_acquire))
    std::this_thread::sleep_for(std::chrono::microseconds(200));
}

std::size_t IntervalCount(double seconds) {
  const auto n = static_cast<std::size_t>(seconds * 1e9 /
                                          static_cast<double>(kIntervalNs));
  return std::max<std::size_t>(n, 1);
}

PhaseResult RunMeasuredPhase(const Options& opt, menshen::Dataplane& dp,
                             PhaseControl& pc,
                             std::vector<std::thread>& threads,
                             std::vector<Meter>& meters,
                             const std::function<void()>& on_go,
                             const std::function<void()>& on_stop) {
  PhaseResult ph;
  while (pc.ready.load(std::memory_order_acquire) < threads.size())
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  ph.setup_done_ns = NowNs();
  ph.before = SnapshotDataplane(dp);
  ph.t0 = NowNs();
  for (Meter& m : meters) m.set_t0(ph.t0);
  if (opt.trace) g_trace_on.store(true);
  pc.go.store(true, std::memory_order_release);
  on_go();
  const u64 end = ph.t0 + static_cast<u64>(opt.seconds * 1e9);
  for (u64 now = NowNs(); now < end; now = NowNs()) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(
        std::min<u64>(end - now, 50'000'000)));
    ph.depth.Sample(dp);
  }
  on_stop();
  pc.stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  ph.t1 = NowNs();
  g_trace_on.store(false);
  ph.after = SnapshotDataplane(dp);
  return ph;
}

void AddEndToEnd(RunResult& r, const Meter& merged, const ControlLog& log,
                 const PhaseResult& ph, u64 process_start_ns) {
  const std::vector<double> mpps = merged.IntervalMpps();
  const LatHist& lat = merged.latency();
  r.end_to_end.push_back({"throughput_mpps", Percentile(mpps, 0.5), "Mpps"});
  r.end_to_end.push_back(
      {"throughput_gbps", Percentile(merged.IntervalGbps(), 0.5), "Gb/s"});
  r.end_to_end.push_back({"latency_p50_us", lat.Quantile(0.50) / 1e3, "us"});
  r.ungated.push_back({"latency_p99_us", lat.Quantile(0.99) / 1e3, "us"});
  r.ungated.push_back({"commit_p50_us", Percentile(log.commit_us, 0.5), "us"});
  r.end_to_end.push_back(
      {"setup_s",
       static_cast<double>(ph.setup_done_ns - process_start_ns) / 1e9, "s"});
  r.end_to_end.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  std::string series;
  for (const double v : mpps) {
    char buf[32];
    std::snprintf(buf, sizeof buf, " %.3f", v);
    series += buf;
  }
  std::fprintf(stderr, "interval Mpps:%s\n", series.c_str());
  r.Expect(lat.count() >= 1000,
           "fewer than 1000 latency samples in the measured phase");
  r.Expect(!log.commit_us.empty(), "no commit completed during the run");
}

// --- misc -----------------------------------------------------------------------------------

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t i = static_cast<std::size_t>(pos);
  if (i + 1 >= v.size()) return v.back();
  const double frac = pos - static_cast<double>(i);
  return v[i] + (v[i + 1] - v[i]) * frac;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

Zipf::Zipf(std::size_t n, double s) {
  cdf_.reserve(n);
  double sum = 0;
  for (std::size_t k = 1; k <= n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k), s);
    cdf_.push_back(sum);
  }
  for (double& c : cdf_) c /= sum;
}

std::size_t Zipf::Sample(double u) const {
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

}  // namespace perfbench
