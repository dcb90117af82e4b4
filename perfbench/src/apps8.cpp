// apps8_batched_churn: the paper's Table 3 apps as eight tenants sharing
// one pipeline (they fit the modelled CAM budget together), driven
// through the batched Submit API with two worker shards and one
// producer.  A control thread keeps loading/updating an idle module,
// updates the QoS tenant's classes while its traffic flows, and now and
// then migrates the stateful NetCache tenant between shards.
//
// Every output is compared byte for byte with the reference Interpreter
// (src/compiler/interpreter) run on the same per-tenant input sequence:
// stateless tenants against one interpreter run per distinct frame,
// stateful tenants (NetCache, NetChain) against a live interpreter fed
// every packet in order.  QoS packets must match the old or the new
// class table, switching once per commit, in commit order.
#include <cstdio>
#include <deque>
#include <future>
#include <mutex>

#include "apps/apps.hpp"
#include "common/rng.hpp"
#include "compiler/interpreter.hpp"
#include "stream.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using menshen::Disposition;
using menshen::Packet;

constexpr std::size_t kBatch = 256;
constexpr std::size_t kRoundBatches = 32;
constexpr std::size_t kRound = kBatch * kRoundBatches;
constexpr std::size_t kWindow = 4;        // tickets in flight
constexpr std::size_t kTemplates = 32;    // distinct frames per tenant
constexpr std::size_t kFrame = 96;
constexpr u64 kControlPeriodNs = 5'000'000;
constexpr u64 kMigrateEvery = 20;  // control steps between migrations

struct Entry {
  std::string table;
  std::map<std::string, u64> keys;
  std::string action;
  std::vector<u64> args;
};

/// One app tenant: its module, installed entries, traffic templates and
/// the reference interpreter(s) that define its expected outputs.
struct AppTenant {
  std::string name;
  u16 vid = 0;
  const menshen::ModuleSpec* spec = nullptr;
  menshen::ModuleAllocation alloc;
  double weight = 1;
  std::vector<Entry> entries;
  std::vector<Packet> templates;
  /// Multicast tenant: the port set each template must fan out to (the
  /// interpreter models the group id, not the group's ports).
  std::vector<std::vector<u16>> mcast_ports;
  bool stateful = false;
  // Stateless tenants: the interpreter's output for each template.
  // The updated tenant has one table per configuration.
  std::vector<std::vector<Packet>> expected;
  std::unique_ptr<menshen::Interpreter> live;  // stateful tenants

  // Producer-owned.
  u32 next_seq = 0;
  u64 submitted = 0;
  // Checker-owned.
  u32 check_seq = 0;
  u64 checked = 0;
  u64 oracle_drops = 0;
  u64 generation = 0;  // configuration the last distinguishing packet saw
  u64 failed = 0;
  std::string first_failure;
};

Packet BasePacket(u16 vid, menshen::Rng& rng) {
  return menshen::PacketBuilder{}
      .vid(menshen::ModuleId(vid))
      .ipv4(static_cast<u32>(rng.Next()), static_cast<u32>(rng.Next()))
      .udp(static_cast<u16>(rng.Next()), static_cast<u16>(rng.Next()))
      .frame_size(kFrame)
      .Build();
}

u16 Port(menshen::Rng& rng) { return static_cast<u16>(1 + rng.Below(15)); }

/// Ports of multicast group `g` (1..15), as configured on every shard.
std::vector<u16> McastPorts(u16 g) {
  return {static_cast<u16>(g % 8 + 1), static_cast<u16>(g % 8 + 9)};
}

/// QoS class table variant `cfg` (0 or 1): same classes, different TOS.
std::vector<Entry> QosEntries(const std::vector<u16>& ports,
                              const std::vector<u16>& out_ports, int cfg) {
  std::vector<Entry> e;
  for (std::size_t i = 0; i < ports.size(); ++i) {
    const u8 tos = static_cast<u8>((0x20 * (i + 1)) ^ (cfg == 0 ? 0 : 0x1C));
    e.push_back({"qos_tbl", {{"dst_port", ports[i]}}, "set_class",
                 {static_cast<u64>(0x4500 | tos), out_ports[i]}});
  }
  return e;
}

std::vector<AppTenant> BuildTenants(menshen::Rng& rng,
                                    std::vector<u16>& qos_ports,
                                    std::vector<u16>& qos_out) {
  using menshen::ModuleId;
  using menshen::UniformAllocation;
  namespace apps = menshen::apps;
  std::vector<AppTenant> ts(8);

  // Template i takes a fixed category from i (hit, miss, drop, ...), so
  // every seed has the same mix; the seed draws the values.
  //
  // Stage 0: CALC, LB, QoS and the firewall's first table; stage 1: the
  // firewall's second table, SourceRouting, Multicast; stage 2: the two
  // stateful apps.  Stage 3 is left to the churn module.
  {
    AppTenant& t = ts[0];
    t.name = "calc";
    t.vid = 2;
    t.spec = &apps::CalcSpec();
    t.alloc = UniformAllocation(ModuleId(2), 0, 1, 0, 4);
    const u16 port = Port(rng);
    t.entries = {{"calc_tbl", {{"op", apps::kCalcOpAdd}}, "do_add", {port}},
                 {"calc_tbl", {{"op", apps::kCalcOpSub}}, "do_sub", {port}},
                 {"calc_tbl", {{"op", apps::kCalcOpEcho}}, "do_echo", {port}}};
    for (std::size_t i = 0; i < kTemplates; ++i) {
      Packet p = BasePacket(t.vid, rng);
      p.bytes().set_u16(46, static_cast<u16>(1 + i % 4));  // 4 = miss
      p.bytes().set_u32(48, static_cast<u32>(rng.Next()));
      p.bytes().set_u32(52, static_cast<u32>(rng.Next()));
      t.templates.push_back(std::move(p));
    }
  }
  {
    AppTenant& t = ts[1];
    t.name = "firewall";
    t.vid = 3;
    t.spec = &apps::FirewallSpec();
    t.alloc = UniformAllocation(ModuleId(3), 0, 2, 4, 4);
    std::vector<u32> ips;
    std::vector<u16> ports;
    for (int i = 0; i < 4; ++i) {
      ips.push_back(static_cast<u32>(rng.Next()));
      ports.push_back(static_cast<u16>(rng.Next()));
    }
    const u16 fwd = Port(rng);
    for (int i = 0; i < 4; ++i) {
      t.entries.push_back({"fw_src", {{"src_ip", ips[i]}},
                           i < 2 ? "fw_block" : "fw_allow",
                           i < 2 ? std::vector<u64>{} : std::vector<u64>{fwd}});
      t.entries.push_back({"fw_port", {{"dst_port", ports[i]}},
                           i < 2 ? "fw_block" : "fw_allow",
                           i < 2 ? std::vector<u64>{} : std::vector<u64>{fwd}});
    }
    for (std::size_t i = 0; i < kTemplates; ++i) {
      Packet p = BasePacket(t.vid, rng);
      if (i % 4 != 3) p.set_ipv4_src(ips[i % 4]);
      if ((i / 4) % 4 != 3) p.set_l4_dst_port(ports[(i / 4) % 4]);
      t.templates.push_back(std::move(p));
    }
  }
  {
    AppTenant& t = ts[2];
    t.name = "load_balance";
    t.vid = 4;
    t.spec = &apps::LoadBalanceSpec();
    t.alloc = UniformAllocation(ModuleId(4), 0, 1, 8, 4);
    std::vector<Packet> flows;
    for (int i = 0; i < 4; ++i) {
      Packet p = BasePacket(t.vid, rng);
      t.entries.push_back({"lb_tbl",
                           {{"src_ip", p.ipv4_src()},
                            {"dst_ip", p.ipv4_dst()},
                            {"src_port", p.l4_src_port()},
                            {"dst_port", p.l4_dst_port()}},
                           i == 3 ? "lb_drop" : "lb_steer",
                           i == 3 ? std::vector<u64>{}
                                  : std::vector<u64>{Port(rng)}});
      flows.push_back(std::move(p));
    }
    for (std::size_t i = 0; i < kTemplates; ++i)
      t.templates.push_back(i % 4 != 3 ? flows[i % 4] : BasePacket(t.vid, rng));
  }
  {
    AppTenant& t = ts[3];
    t.name = "qos";
    t.vid = 5;
    t.spec = &apps::QosSpec();
    t.alloc = UniformAllocation(ModuleId(5), 0, 1, 12, 4);
    for (int i = 0; i < 4; ++i) {
      qos_ports.push_back(static_cast<u16>(rng.Next()));
      qos_out.push_back(Port(rng));
    }
    t.entries = QosEntries(qos_ports, qos_out, 0);
    for (std::size_t i = 0; i < kTemplates; ++i) {
      Packet p = BasePacket(t.vid, rng);
      if (i % 4 != 3) p.set_l4_dst_port(qos_ports[i % 4]);
      t.templates.push_back(std::move(p));
    }
  }
  {
    AppTenant& t = ts[4];
    t.name = "source_routing";
    t.vid = 6;
    t.spec = &apps::SourceRoutingSpec();
    t.alloc = UniformAllocation(ModuleId(6), 1, 1, 8, 4);
    std::vector<u16> tags;
    for (int i = 0; i < 4; ++i) {
      tags.push_back(static_cast<u16>(rng.Next()));
      t.entries.push_back(
          {"sr_tbl", {{"sr_tag", tags.back()}}, "sr_forward", {Port(rng)}});
    }
    for (std::size_t i = 0; i < kTemplates; ++i) {
      Packet p = BasePacket(t.vid, rng);
      p.bytes().set_u16(46, i % 4 != 3 ? tags[i % 4]
                                       : static_cast<u16>(rng.Next()));
      p.bytes().set_u16(48, static_cast<u16>(rng.Next()));
      t.templates.push_back(std::move(p));
    }
  }
  {
    AppTenant& t = ts[5];
    t.name = "netcache";
    t.vid = 7;
    t.spec = &apps::NetCacheSpec();
    t.alloc = UniformAllocation(ModuleId(7), 2, 1, 0, 8, 0, 32);
    t.weight = 0.25;
    t.stateful = true;
    std::vector<u32> keys;
    const u16 client = Port(rng), server = Port(rng);
    for (u16 slot = 0; slot < 4; ++slot) {
      keys.push_back(static_cast<u32>(rng.Next()));
      t.entries.push_back({"nc_tbl",
                           {{"nc_op", apps::kNetCacheOpGet}, {"nc_key", keys.back()}},
                           "nc_hit",
                           {slot, client}});
      t.entries.push_back({"nc_tbl",
                           {{"nc_op", apps::kNetCacheOpPut}, {"nc_key", keys.back()}},
                           "nc_put",
                           {slot, server}});
    }
    for (std::size_t i = 0; i < kTemplates; ++i) {
      Packet p = BasePacket(t.vid, rng);
      p.bytes().set_u16(46, static_cast<u16>(1 + i % 2));
      p.bytes().set_u32(48, (i / 2) % 4 != 3 ? keys[(i / 2) % 4]
                                             : static_cast<u32>(rng.Next()));
      p.bytes().set_u32(52, static_cast<u32>(rng.Next()));
      t.templates.push_back(std::move(p));
    }
  }
  {
    AppTenant& t = ts[6];
    t.name = "netchain";
    t.vid = 8;
    t.spec = &apps::NetChainSpec();
    t.alloc = UniformAllocation(ModuleId(8), 2, 1, 8, 4, 32, 8);
    t.weight = 0.25;
    t.stateful = true;
    t.entries = {{"ch_tbl", {{"ch_op", apps::kNetChainOpSeq}}, "ch_next",
                  {Port(rng)}}};
    for (std::size_t i = 0; i < kTemplates; ++i) {
      Packet p = BasePacket(t.vid, rng);
      p.bytes().set_u16(46, i % 8 != 7 ? apps::kNetChainOpSeq : 9);
      t.templates.push_back(std::move(p));
    }
  }
  {
    AppTenant& t = ts[7];
    t.name = "multicast";
    t.vid = 9;
    t.spec = &apps::MulticastSpec();
    t.alloc = UniformAllocation(ModuleId(9), 1, 1, 12, 4);
    std::vector<u32> dsts;
    std::map<u32, u16> group_of;
    for (int i = 0; i < 4; ++i) {
      dsts.push_back(static_cast<u32>(rng.Next()));
      const u16 group = static_cast<u16>(1 + rng.Below(15));
      if (i != 3) group_of[dsts.back()] = group;
      t.entries.push_back({"mc_tbl",
                           {{"dst_ip", dsts.back()}},
                           i == 3 ? "mc_drop" : "mc_group",
                           i == 3 ? std::vector<u64>{}
                                  : std::vector<u64>{group}});
    }
    for (std::size_t i = 0; i < kTemplates; ++i) {
      Packet p = BasePacket(t.vid, rng);
      if (i % 4 != 3) p.set_ipv4_dst(dsts[i % 4]);
      const auto g = group_of.find(p.ipv4_dst());
      t.mcast_ports.push_back(g == group_of.end() ? std::vector<u16>{}
                                                  : McastPorts(g->second));
      t.templates.push_back(std::move(p));
    }
  }
  return ts;
}

menshen::CompiledModule CompileWith(const AppTenant& t,
                                    const std::vector<Entry>& entries) {
  Span s("compiler.Compile");
  menshen::CompiledModule m = menshen::Compile(*t.spec, t.alloc);
  for (const Entry& e : entries)
    m.AddEntry(e.table, e.keys, std::nullopt, e.action, e.args);
  if (!m.ok())
    throw std::runtime_error(t.name + ": " + m.diags().ToString());
  return m;
}

std::unique_ptr<menshen::Interpreter> InterpreterWith(
    const AppTenant& t, const std::vector<Entry>& entries) {
  auto in = std::make_unique<menshen::Interpreter>(*t.spec);
  for (const Entry& e : entries)
    in->AddEntry(e.table,
                 menshen::InterpEntry{e.keys, std::nullopt, e.action, e.args});
  return in;
}

std::vector<Packet> RunAll(menshen::Interpreter& in,
                           const std::vector<Packet>& templates) {
  std::vector<Packet> out;
  for (Packet p : templates) {
    in.Run(p);
    out.push_back(std::move(p));
  }
  return out;
}

/// True when `got` is the interpreter's `want` (the id field aside).
bool SameOutput(const Packet& got, const Packet& want) {
  const auto g = got.bytes().bytes();
  const auto w = want.bytes().bytes();
  if (g.size() != w.size() || got.disposition != want.disposition) return false;
  if (want.disposition == Disposition::kForward &&
      got.egress_port != want.egress_port)
    return false;
  return SameFrameExcept(g.data(), w.data(), g.size(), kIdOffset);
}

struct Completed {
  std::vector<menshen::PipelineResult> results;
  std::size_t batch = 0;  // index within the round
  u64 lo = 0;             // QoS commits completed before Submit
  u64 hi = 0;             // QoS commits started before the results returned
  bool threw = false;
};

}  // namespace

RunResult RunApps8BatchedChurn(const Options& opt, u64 process_start_ns) {
  menshen::Rng rng(opt.seed * 0x9E3779B97F4A7C15ULL + 0xA998);
  std::vector<u16> qos_ports, qos_out;
  std::vector<AppTenant> ts = BuildTenants(rng, qos_ports, qos_out);
  constexpr std::size_t kQos = 3, kNetCache = 5;
  const std::vector<Entry> qos_cfg[2] = {QosEntries(qos_ports, qos_out, 0),
                                         QosEntries(qos_ports, qos_out, 1)};

  menshen::Dataplane dp(menshen::DataplaneConfig{
      .num_shards = 2, .worker_threads = true, .ingress_queue_depth = 64});
  // Multicast groups are per-replica state outside the config-write
  // path: set them on every shard before traffic starts.
  for (u16 g = 1; g < 16; ++g)
    for (std::size_t s = 0; s < dp.num_shards(); ++s)
      dp.shard(s).SetMulticastGroup(g, McastPorts(g));
  for (AppTenant& t : ts) {
    dp.ApplyWrites(CompileWith(t, t.entries).AllWrites());
    if (t.stateful) {
      t.live = InterpreterWith(t, t.entries);
    } else if (&t == &ts[kQos]) {
      for (const auto& cfg : qos_cfg)
        t.expected.push_back(RunAll(*InterpreterWith(t, cfg), t.templates));
    } else {
      t.expected.push_back(RunAll(*InterpreterWith(t, t.entries), t.templates));
    }
  }

  // One round: every tenant gets its weight's exact share of kRound
  // packets, cycling through its templates; the seed shuffles the order.
  struct Draw {
    u8 tenant;
    u8 tmpl;
  };
  std::vector<Draw> round;
  {
    double total = 0;
    for (const AppTenant& t : ts) total += t.weight;
    for (std::size_t k = 0; k < ts.size(); ++k) {
      const auto n = static_cast<std::size_t>(
          static_cast<double>(kRound) * ts[k].weight / total);
      for (std::size_t i = 0; i < n; ++i)
        round.push_back(Draw{static_cast<u8>(k),
                             static_cast<u8>(i % kTemplates)});
    }
    for (std::size_t i = 0; round.size() < kRound; ++i)
      round.push_back(Draw{0, static_cast<u8>(i % kTemplates)});
    for (std::size_t i = round.size() - 1; i > 0; --i)
      std::swap(round[i], round[rng.Below(i + 1)]);
  }

  ChurnModule churn(menshen::UniformAllocation(menshen::ModuleId(20), 3, 1,
                                                   0, 4));
  ControlLog log;
  std::atomic<u64> qos_started{0}, qos_done{0};
  u64 migrations = 0;

  FaultPlan faults;
  faults.enabled = opt.inject_faults;
  PhaseControl pc;
  const std::size_t intervals = IntervalCount(opt.seconds);
  std::vector<Meter> meters;
  meters.emplace_back(0, kIntervalNs, intervals);

  u64 check_failed = 0;
  std::vector<Packet> spare;  // producer-owned recycled packet buffers
  u64 window_pkts = 0;

  const auto check_batch = [&](Completed& c) {
    Span span("bench.Check");
    // A throwing Submit or a result vector of the wrong length fails
    // every packet of the batch.
    if (!c.threw && c.results.size() != kBatch) c.threw = true;
    if (c.threw) check_failed += kBatch;
    for (std::size_t k = 0; k < kBatch; ++k) {
      const Draw d = round[c.batch * kBatch + k];
      AppTenant& t = ts[d.tenant];
      const auto fail = [&](const char* why) {
        ++check_failed;
        if (t.failed++ == 0)
          t.first_failure = std::string(why) + " (id " +
                            std::to_string(t.check_seq - 1) + ", template " +
                            std::to_string(d.tmpl) + ")";
      };
      const u32 seq = t.check_seq++;
      ++t.checked;
      // The oracle sees every submitted packet, in order, whether or not
      // the pipeline's output survived: stateful oracles stay in step.
      const Packet* want = nullptr;
      Packet live_out;
      if (t.stateful) {
        Span s("compiler.Interpreter");
        live_out = t.templates[d.tmpl];
        t.live->Run(live_out);
        want = &live_out;
      } else if (t.expected.size() == 1) {
        want = &t.expected[0][d.tmpl];
      }
      // (The updated tenant, QoS, never drops.)
      if (want != nullptr && want->disposition == Disposition::kDrop)
        ++t.oracle_drops;
      if (c.threw) continue;
      menshen::PipelineResult& r = c.results[k];
      const int fault = faults.Next();
      if (fault == 2) r.output.reset();
      if (fault == 1 && r.output)
        r.output->bytes().set_u8(50, r.output->bytes().u8_at(50) ^ 0xFF);
      if (!r.output || r.filter_verdict != menshen::FilterVerdict::kData ||
          r.output->size() < kIdOffset + 4 ||
          ReadU32(r.output->bytes().bytes().data() + kIdOffset) != seq) {
        fail("output missing, filtered or out of order");
        continue;
      }
      const Packet& got = *r.output;
      if (want == nullptr) {
        // The updated tenant: old or new class table, switching once per
        // commit and in commit order.
        const bool a = SameOutput(got, t.expected[0][d.tmpl]);
        const bool b = SameOutput(got, t.expected[1][d.tmpl]);
        if (!a && !b) {
          fail("matches neither QoS configuration");
          continue;
        }
        if (a != b) {
          const u64 parity = a ? 0 : 1;
          u64 g = std::max(c.lo, t.generation);
          if (g % 2 != parity) ++g;
          if (g > c.hi) {
            fail("QoS configuration switched out of commit order");
            continue;
          }
          t.generation = g;
        }
      } else if (!SameOutput(got, *want) ||
                 (want->disposition == Disposition::kMulticast &&
                  got.multicast_ports != t.mcast_ports[d.tmpl])) {
        fail("differs from the interpreter");
        continue;
      }
    }
    // Returned packets become the next batches' buffers, as a caller
    // that recycles its own Packets would do.
    Span s("packet.FreeResults");
    for (menshen::PipelineResult& r : c.results)
      if (r.output) spare.push_back(std::move(*r.output));
    c.results = {};
  };

  std::thread producer([&] {
    Meter& meter = meters[0];
    bool in_window = false;
    struct InFlight {
      std::future<std::vector<menshen::PipelineResult>> f;
      std::size_t batch;
      u64 lo;
      u64 t_submit;
    };
    std::deque<InFlight> window;
    const auto complete_oldest = [&] {
      InFlight inf = std::move(window.front());
      window.pop_front();
      Completed c;
      c.batch = inf.batch;
      c.lo = inf.lo;
      try {
        Span s("dataplane.TicketWait");
        c.results = inf.f.get();
      } catch (const std::exception&) {
        c.threw = true;
      }
      const u64 now = NowNs();
      c.hi = qos_started.load(std::memory_order_acquire);
      if (!c.threw) {
        meter.Latency(now, now - inf.t_submit, kBatch);
        meter.Complete(now, kBatch, kBatch * kFrame);
        if (in_window) window_pkts += kBatch;
      }
      check_batch(c);
    };
    const auto run_round = [&] {
      for (std::size_t b = 0; b < kRoundBatches; ++b) {
        menshen::BatchTicket ticket;
        {
          Span s("packet.BuildBatch");
          ticket.batch.reserve(kBatch);
          for (std::size_t k = 0; k < kBatch; ++k) {
            const Draw d = round[b * kBatch + k];
            AppTenant& t = ts[d.tenant];
            if (spare.empty()) {
              ticket.batch.push_back(t.templates[d.tmpl]);
            } else {
              ticket.batch.push_back(std::move(spare.back()));
              spare.pop_back();
              ticket.batch.back() = t.templates[d.tmpl];  // reuses storage
            }
            ticket.batch.back().bytes().set_u32(kIdOffset, t.next_seq++);
            ++t.submitted;
          }
        }
        const u64 lo = qos_done.load(std::memory_order_acquire);
        const u64 t_submit = NowNs();
        std::future<std::vector<menshen::PipelineResult>> f;
        try {
          Span s("dataplane.Submit");
          f = dp.Submit(std::move(ticket));
        } catch (const std::exception&) {
          // The batch fails when its ticket is completed.
          std::promise<std::vector<menshen::PipelineResult>> p;
          p.set_exception(std::current_exception());
          f = p.get_future();
        }
        window.push_back(InFlight{std::move(f), b, lo, t_submit});
        if (window.size() >= kWindow) complete_oldest();
      }
    };
    for (std::size_t r = 0; r < kWarmupRounds; ++r) run_round();
    pc.ReadyAndWait();
    in_window = true;
    while (!pc.stop.load(std::memory_order_acquire)) run_round();
    while (!window.empty()) complete_oldest();
    in_window = false;
  });

  std::vector<std::thread> traffic;
  traffic.push_back(std::move(producer));
  std::unique_ptr<ControlLoop> control;
  const PhaseResult ph = RunMeasuredPhase(
      opt, dp, pc, traffic, meters,
      [&] {
        control = std::make_unique<ControlLoop>(kControlPeriodNs, log, [&](u64 i) {
          if (i % kMigrateEvery == kMigrateEvery / 2) {
            const menshen::ModuleId nc(ts[kNetCache].vid);
            const std::size_t to = (dp.ShardFor(nc) + 1) % dp.num_shards();
            bool ok = false;
            try {
              Span s("dataplane.MigrateTenant");
              ok = dp.MigrateTenant(nc, to) && dp.ShardFor(nc) == to;
            } catch (const std::exception&) {
            }
            std::lock_guard<std::mutex> g(log.m);
            ++log.attempted;
            if (ok)
              ++migrations;
            else
              ++log.failed;
            return;
          }
          if (i % 2 == 0) {
            const u64 compile_ns = churn.Stage(dp, i / 2);
            {
              std::lock_guard<std::mutex> g(log.m);
              log.compile_ms.push_back(static_cast<double>(compile_ns) / 1e6);
            }
            TimedCommit(dp, log);
            return;
          }
          // Update the QoS tenant's class table while its traffic flows.
          const u64 next = qos_started.load() + 1;
          const u64 t0 = NowNs();
          const menshen::CompiledModule m =
              CompileWith(ts[kQos], qos_cfg[next % 2]);
          {
            std::lock_guard<std::mutex> g(log.m);
            log.compile_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
          }
          {
            Span s("dataplane.StageWrites");
            dp.StageWrites(m.AllWrites());
          }
          qos_started.store(next, std::memory_order_release);
          TimedCommit(dp, log);
          qos_done.store(next, std::memory_order_release);
        });
      },
      [&] { control->Stop(); });

  RunResult r;
  AddEndToEnd(r, meters[0], log, ph, process_start_ns);
  u64 submitted = 0;
  for (const AppTenant& t : ts) {
    submitted += t.submitted;
    const std::string who = t.name + " (vid " + std::to_string(t.vid) + ")";
    if (t.failed != 0)
      std::fprintf(stderr, "%s: %llu failed packets, first: %s\n", who.c_str(),
                   static_cast<unsigned long long>(t.failed),
                   t.first_failure.c_str());
    r.Expect(t.checked == t.submitted,
             who + ": checked " + std::to_string(t.checked) + " != submitted " +
                 std::to_string(t.submitted));
    const u64 fwd = dp.forwarded(menshen::ModuleId(t.vid));
    const u64 drp = dp.dropped(menshen::ModuleId(t.vid));
    r.Expect(fwd + drp == t.submitted,
             who + ": program forwarded " + std::to_string(fwd) +
                 " + dropped " + std::to_string(drp) + " != submitted " +
                 std::to_string(t.submitted));
    r.Expect(drp == t.oracle_drops,
               who + ": program dropped " + std::to_string(drp) +
                   " != interpreter drops " + std::to_string(t.oracle_drops));
  }
  u64 tier_sum = 0;
  for (const u64 x : ph.after.tiers) tier_sum += x;
  r.Expect(tier_sum == submitted, "tier_pkts sum " + std::to_string(tier_sum) +
                                      " != data packets submitted " +
                                      std::to_string(submitted));
  r.Expect(qos_done.load() == qos_started.load(), "QoS update left unfinished");
  std::fprintf(stderr,
               "qos: %llu commits, last configuration seen by traffic %llu; "
               "netcache migrations %llu\n",
               static_cast<unsigned long long>(qos_done.load()),
               static_cast<unsigned long long>(ts[kQos].generation),
               static_cast<unsigned long long>(migrations));
  r.attempted = submitted + log.attempted;
  r.failed = check_failed + log.failed;

  if (opt.trace) {
    LedgerInputs in;
    in.packets = window_pkts;
    in.window_s = static_cast<double>(ph.t1 - ph.t0) / 1e9;
    in.threads = 1;  // the producer, which also checks
    in.delta = Delta(ph.after, ph.before);
    in.depth = ph.depth;
    in.measured_p99_us = meters[0].latency().Quantile(0.99) / 1e3;
    for (const AppTenant& t : ts)
      in.program_p99_ns =
          std::max(in.program_p99_ns, dp.telemetry().TenantP99(t.vid));
    in.commit_us = log.commit_us;
    in.compile_ms = log.compile_ms;
    in.migrations = migrations;
    r.per_layer = BuildLedger(in);
  }
  return r;
}

}  // namespace perfbench
