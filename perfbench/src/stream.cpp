#include "stream.hpp"

#include <cstdio>
#include <cstring>

namespace perfbench {


StreamChecker::StreamChecker(std::vector<StreamTenant*> tenants, bool ordered)
    : tenants_(std::move(tenants)), by_vid_(4096, nullptr), ordered_(ordered) {
  for (StreamTenant* t : tenants_) by_vid_[t->vid] = t;
}

bool StreamChecker::Check(const u8* data, std::size_t len,
                          menshen::Disposition disp, u16 port, bool check_port,
                          u64 now, Meter& meter, CheckCounters& cc) {
  Span span("bench.Check");
  ++cc.checked;
  cc.bytes += len;
  if (len < kIdOffset + 4 || len < menshen::offsets::kPayload) {
    ++cc.failed;
    return false;
  }
  const u16 vid = static_cast<u16>(
      ((u16{data[menshen::offsets::kVlanTci]} << 8) |
       data[menshen::offsets::kVlanTci + 1]) &
      0x0FFF);
  StreamTenant* t = Find(vid);
  if (t == nullptr) {
    ++cc.failed;
    return false;
  }
  const u32 seq = ReadU32(data + kIdOffset);
  // Exactly once: the id must be in flight, and returning clears it.
  if (t->inflight[seq & (kRing - 1)].exchange(0, std::memory_order_acq_rel) !=
      1) {
    ++cc.failed;
    return false;
  }
  t->returned.fetch_add(1, std::memory_order_relaxed);
  const u64 stamp =
      t->submit_ns[(seq / kBurst) & (kRing / kBurst - 1)].load(
          std::memory_order_relaxed);
  if (stamp != 0 && now > stamp) meter.Latency(now, now - stamp);

  bool ok = true;
  if (ordered_) {
    ok = static_cast<std::int64_t>(seq) > t->last_returned;
    t->last_returned = std::max<std::int64_t>(t->last_returned, seq);
  }
  const TracePacket& e = t->trace[seq % t->trace.size()];
  if (len != e.out.size() || e.drop || disp != e.disp ||
      (check_port && disp == menshen::Disposition::kForward && port != e.port))
    ok = false;
  if (ok && t->seq_offset) {
    const std::size_t off = *t->seq_offset;
    ok = ReadU32(data + off) == seq + 1 &&
         SameFrameExcept(data, e.out.data(), len, off);
  } else if (ok) {
    ok = SameFrameExcept(data, e.out.data(), len, kIdOffset);
  }
  if (!ok) ++cc.failed;
  return ok;
}

u64 StreamChecker::CountMissing() const {
  u64 n = 0;
  for (const StreamTenant* t : tenants_) {
    n += t->missing_on_wrap;
    for (u32 i = 0; i < kRing; ++i)
      n += t->inflight[i].load(std::memory_order_acquire);
  }
  return n;
}

void FillBurst(StreamTenant& t, menshen::ArenaPacket** burst, std::size_t n) {
  {
    Span span("packet.Assign");
    for (std::size_t i = 0; i < n; ++i) {
      const u32 seq = t.next_seq + static_cast<u32>(i);
      const TracePacket& p = t.trace[seq % t.trace.size()];
      burst[i]->Assign(p.in);
      WriteU32(burst[i]->data() + kIdOffset, seq);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const u32 seq = t.next_seq + static_cast<u32>(i);
    const TracePacket& p = t.trace[seq % t.trace.size()];
    if (p.drop) {
      ++t.expected_drops;
      continue;
    }
    // A slot still marked from kRing ids ago is a packet that never
    // came back.
    if (t.inflight[seq & (kRing - 1)].exchange(1, std::memory_order_acq_rel) !=
        0)
      ++t.missing_on_wrap;
  }
  t.next_seq += static_cast<u32>(n);
  t.submitted += n;
}

void StampSubmit(StreamTenant& t, u32 first_seq, u64 now) {
  t.submit_ns[(first_seq / kBurst) & (kRing / kBurst - 1)].store(
      now, std::memory_order_relaxed);
}

}  // namespace perfbench

namespace perfbench {

namespace {

/// How long the final drain waits for outstanding buffers without any
/// coming back before it gives up (they then show as leaked).
constexpr u64 kDrainTimeoutNs = 2'000'000'000;

struct ProducerStats {
  u64 poll_calls = 0;
  u64 poll_empty = 0;
  u64 alloc_short = 0;
  u64 window_pkts = 0;
  u64 threw_calls = 0;  // SubmitStream/PollEgress/FlushEgress calls that threw
};

struct StreamRun {
  const Options& opt;
  StreamWorkload& w;
  StreamChecker checker;
  FaultPlan faults;
  PhaseControl pc;
  std::vector<std::unique_ptr<menshen::PacketArena>> arenas;
  std::vector<Meter> meters;
  std::vector<CheckCounters> cc;
  std::vector<ProducerStats> ps;

  StreamRun(const Options& o, StreamWorkload& wl, std::vector<StreamTenant*> ts)
      : opt(o), w(wl), checker(std::move(ts), wl.ordered) {}

  void Producer(std::size_t p);
};

void StreamRun::Producer(std::size_t p) {
  menshen::Dataplane& dp = *w.dp;
  StreamTenant& t = *w.tenants[p];
  menshen::PacketArena& arena = *arenas[p];
  Meter& meter = meters[p];
  CheckCounters& c = cc[p];
  ProducerStats& st = ps[p];
  bool in_window = false;
  std::vector<menshen::ArenaPacket*> out;
  std::vector<menshen::Delivery> deliveries;
  std::array<menshen::ArenaPacket*, kBurst> burst{};

  const auto check_one = [&](const u8* data, std::size_t len,
                             menshen::Disposition disp, u16 port,
                             bool check_port, u64 now) {
    const int fault = faults.Next();
    if (fault == 2) return;  // withheld: must surface as missing
    std::vector<u8> corrupted;
    if (fault == 1) {
      corrupted.assign(data, data + len);
      corrupted[50] ^= 0xFF;
      data = corrupted.data();
    }
    checker.Check(data, len, disp, port, check_port, now, meter, c);
  };

  const auto threw = [&](const char* call, const std::exception& e) {
    if (st.threw_calls++ == 0)
      std::fprintf(stderr, "tenant %u: %s threw: %s\n", t.vid, call, e.what());
  };

  // A packet a throwing drain call did not hand back stays in flight and
  // is counted missing, i.e. failed.
  const auto drain = [&]() -> std::size_t {
    std::size_t n = 0;
    u64 bytes = 0;
    if (w.flush_to_network) {
      deliveries.clear();
      try {
        Span s("dataplane.FlushEgress");
        deliveries = dp.FlushEgress();
      } catch (const std::exception& e) {
        threw("FlushEgress", e);
      }
      const u64 now = NowNs();
      n = deliveries.size();
      for (const menshen::Delivery& d : deliveries) {
        const auto b = d.packet.bytes().bytes();
        bytes += b.size();
        const u64 before = c.failed;
        check_one(b.data(), b.size(), menshen::Disposition::kForward, 0,
                  false, now);
        if (c.failed == before && !(d.at == w.edge)) ++c.failed;
      }
      meter.Complete(now, n, bytes);
      Span s("packet.FreeResults");
      deliveries.clear();
    } else {
      out.clear();
      try {
        Span s("dataplane.PollEgress");
        dp.PollEgress(out);
      } catch (const std::exception& e) {
        threw("PollEgress", e);  // what it already handed back is checked
      }
      n = out.size();
      const u64 now = NowNs();
      for (menshen::ArenaPacket* a : out) {
        bytes += a->size();
        check_one(a->data(), a->size(), a->disposition, a->egress_port, true,
                  now);
      }
      meter.Complete(now, n, bytes);
      Span s("packet.ReleaseToOwners");
      menshen::ReleaseToOwners(out.data(), out.size());
    }
    ++st.poll_calls;
    if (n == 0) ++st.poll_empty;
    if (in_window) st.window_pkts += n;
    return n;
  };

  const std::size_t bursts = t.trace.size() / kBurst;
  const auto round = [&] {
    for (std::size_t b = 0; b < bursts; ++b) {
      std::size_t have = 0;
      {
        Span s("packet.AllocateBurst");
        have = arena.AllocateBurst(burst.data(), kBurst);
      }
      while (have < kBurst) {
        ++st.alloc_short;
        if (drain() == 0) std::this_thread::yield();
        Span s("packet.AllocateBurst");
        have += arena.AllocateBurst(burst.data() + have, kBurst - have);
      }
      const u32 first = t.next_seq;
      const u64 drops_before = t.expected_drops;
      u64 drop_bytes = 0;
      for (std::size_t i = 0; i < kBurst; ++i) {
        const TracePacket& tp = t.trace[(first + i) % t.trace.size()];
        if (tp.drop) drop_bytes += tp.in.size();
      }
      FillBurst(t, burst.data(), kBurst);
      const u64 now = NowNs();
      StampSubmit(t, first, now);
      try {
        Span s("dataplane.SubmitStream");
        dp.SubmitStream(burst.data(), kBurst);
      } catch (const std::exception& e) {
        // Every packet of the burst fails; none is expected back.
        threw("SubmitStream", e);
        t.threw += kBurst;
        c.failed += kBurst;
        t.expected_drops = drops_before;
        for (std::size_t i = 0; i < kBurst; ++i)
          t.inflight[(first + i) & (kRing - 1)].store(0);
        continue;
      }
      const u64 drops = t.expected_drops - drops_before;
      if (drops != 0) {
        meter.Complete(NowNs(), drops, drop_bytes);
        if (in_window) st.window_pkts += drops;
      }
      if (b % w.drain_every == w.drain_every - 1) drain();
    }
  };

  for (std::size_t r = 0; r < kWarmupRounds; ++r) round();
  pc.ReadyAndWait();
  in_window = true;
  while (!pc.stop.load(std::memory_order_acquire)) round();
  in_window = false;
  for (u64 last = NowNs(); arena.outstanding() != 0;) {
    if (drain() != 0)
      last = NowNs();
    else if (NowNs() - last > kDrainTimeoutNs)
      break;
    else
      std::this_thread::yield();
  }
}

}  // namespace

RunResult RunStream(const Options& opt, u64 process_start_ns,
                    StreamWorkload& w) {
  menshen::Dataplane& dp = *w.dp;
  std::vector<StreamTenant*> ts;
  for (auto& t : w.tenants) ts.push_back(t.get());
  StreamRun run(opt, w, ts);
  run.faults.enabled = opt.inject_faults;
  const std::size_t n = w.tenants.size();
  const std::size_t intervals = IntervalCount(opt.seconds);
  for (std::size_t p = 0; p < n; ++p) {
    run.arenas.push_back(std::make_unique<menshen::PacketArena>(kArenaCap));
    run.meters.emplace_back(0, kIntervalNs, intervals);
  }
  run.cc.resize(n);
  run.ps.resize(n);

  ChurnModule churn(menshen::UniformAllocation(menshen::ModuleId(20), 1, 1, 0, 4));
  ControlLog log;
  std::unique_ptr<ControlLoop> control;
  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < n; ++p)
    threads.emplace_back([&run, p] { run.Producer(p); });

  const PhaseResult ph = RunMeasuredPhase(
      opt, dp, run.pc, threads, run.meters,
      [&] {
        control = std::make_unique<ControlLoop>(kChurnPeriodNs, log, [&](u64 i) {
          const u64 compile_ns = churn.Stage(dp, i);
          {
            std::lock_guard<std::mutex> g(log.m);
            log.compile_ms.push_back(static_cast<double>(compile_ns) / 1e6);
          }
          TimedCommit(dp, log);
        });
      },
      [&] { control->Stop(); });

  RunResult r;
  Meter merged(ph.t0, kIntervalNs, intervals);
  for (const Meter& m : run.meters) m.MergeInto(merged);
  AddEndToEnd(r, merged, log, ph, process_start_ns);

  // --- correctness: per-packet failures and totals from independent paths
  const u64 missing = run.checker.CountMissing();
  u64 failed = missing + log.failed;
  u64 submitted = 0;
  for (const CheckCounters& c : run.cc) failed += c.failed;
  u64 missing_seen = 0;
  u64 threw = 0;
  for (const StreamTenant* t : ts) {
    submitted += t->submitted;
    threw += t->threw;
    u64 t_missing = t->missing_on_wrap;
    for (u32 i = 0; i < kRing; ++i) t_missing += t->inflight[i].load();
    missing_seen += t_missing;
    const u64 ret = t->returned.load();
    r.Expect(t->submitted == ret + t->expected_drops + t_missing + t->threw,
             "tenant " + std::to_string(t->vid) + ": submitted " +
                 std::to_string(t->submitted) + " != returned " +
                 std::to_string(ret) + " + expected drops " +
                 std::to_string(t->expected_drops) + " + missing " +
                 std::to_string(t_missing) + " + threw " +
                 std::to_string(t->threw));
    // A burst whose SubmitStream threw may have been processed in part,
    // so the program's totals are bounded rather than fixed there.
    const u64 fwd = dp.forwarded(menshen::ModuleId(t->vid));
    const u64 drp = dp.dropped(menshen::ModuleId(t->vid));
    r.Expect(fwd + drp <= t->submitted && fwd + drp + t->threw >= t->submitted,
             "tenant " + std::to_string(t->vid) + ": program forwarded " +
                 std::to_string(fwd) + " + dropped " + std::to_string(drp) +
                 " != submitted " + std::to_string(t->submitted) +
                 " (threw " + std::to_string(t->threw) + ")");
    r.Expect(drp >= t->expected_drops && drp <= t->expected_drops + t->threw,
             "tenant " + std::to_string(t->vid) + ": program dropped " +
                 std::to_string(drp) + " != expected drops " +
                 std::to_string(t->expected_drops));
  }
  r.Expect(missing_seen == missing, "missing count disagrees");
  u64 tier_sum = 0;
  for (const u64 x : ph.after.tiers) tier_sum += x;
  r.Expect(tier_sum <= submitted && tier_sum + threw >= submitted,
           "tier_pkts sum " + std::to_string(tier_sum) +
               " != data packets submitted " + std::to_string(submitted));
  for (std::size_t p = 0; p < n; ++p)
    r.Expect(run.arenas[p]->outstanding() == 0,
             "arena " + std::to_string(p) + " has " +
                 std::to_string(run.arenas[p]->outstanding()) +
                 " buffers outstanding");
  u64 threw_calls = 0;
  for (const ProducerStats& s : run.ps) threw_calls += s.threw_calls;
  if (threw_calls != 0)
    std::fprintf(stderr, "%llu dataplane calls threw\n",
                 static_cast<unsigned long long>(threw_calls));
  if (w.extra_checks) w.extra_checks(r);
  r.attempted = submitted + log.attempted;
  r.failed = failed;

  if (opt.trace) {
    LedgerInputs in;
    for (const ProducerStats& s : run.ps) {
      in.packets += s.window_pkts;
      in.poll_calls += s.poll_calls;
      in.poll_empty += s.poll_empty;
      in.alloc_short += s.alloc_short;
    }
    in.window_s = static_cast<double>(ph.t1 - ph.t0) / 1e9;
    in.threads = n;
    in.delta = Delta(ph.after, ph.before);
    in.depth = ph.depth;
    in.measured_p99_us = merged.latency().Quantile(0.99) / 1e3;
    for (const StreamTenant* t : ts)
      in.program_p99_ns = std::max(
          in.program_p99_ns, dp.telemetry().TenantP99(t->vid));
    in.commit_us = log.commit_us;
    in.compile_ms = log.compile_ms;
    r.per_layer = BuildLedger(in);
  }
  return r;
}

}  // namespace perfbench
