// netchain_3hop_egress: one shard runs a NetChain sequencer tenant; its
// egress is bound to a three-switch forwarder Network, so FlushEgress
// and the Network hop loop are on the measured path.
#include "apps/apps.hpp"
#include "common/rng.hpp"
#include "net/network.hpp"
#include "runtime/module_manager.hpp"
#include "stream.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr u16 kVid = 5;
constexpr std::size_t kRound = 4096;
constexpr std::size_t kFrame = 96;
constexpr u16 kChainPort = 40000;
constexpr std::size_t kSeqOffset = 48;  // NetChain's ch_seq field

constexpr const char* kForwarderDsl = R"(
module fwd {
  field dport : 2 @ 40;
  action go(p) { port(p); }
  table t { key = { dport }; actions = { go }; size = 4; }
}
)";

void InstallForwarder(menshen::Device& dev, u16 out_port) {
  const menshen::ModuleAllocation alloc = menshen::UniformAllocation(
      menshen::ModuleId(kVid), 0, menshen::params::kNumStages, 0, 4, 0, 0);
  menshen::CompiledModule m = menshen::CompileDsl(kForwarderDsl, alloc);
  m.AddEntry("t", {{"dport", kChainPort}}, std::nullopt, "go", {out_port});
  if (!m.ok()) throw std::runtime_error(m.diags().ToString());
  menshen::ModuleManager mgr(dev.pipeline());
  const auto res = mgr.Load(m, alloc);
  if (!res.admission.admitted)
    throw std::runtime_error("forwarder not admitted: " +
                             res.admission.reason);
}

}  // namespace

RunResult RunNetchain3HopEgress(const Options& opt, u64 process_start_ns) {
  menshen::Dataplane dp(menshen::DataplaneConfig{
      .num_shards = 1, .worker_threads = false, .ingress_queue_depth = 256});
  menshen::Rng rng(opt.seed * 0x9E3779B97F4A7C15ULL + 0x3C4A);

  {
    const menshen::ModuleAllocation alloc = menshen::UniformAllocation(
        menshen::ModuleId(kVid), 0, 1, 0, 4, 0, 8);
    menshen::CompiledModule m =
        menshen::Compile(menshen::apps::NetChainSpec(), alloc);
    m.AddEntry("ch_tbl", {{"ch_op", menshen::apps::kNetChainOpSeq}},
               std::nullopt, "ch_next", {2});
    if (!m.ok()) throw std::runtime_error(m.diags().ToString());
    dp.ApplyWrites(m.AllWrites());
  }

  // host -> dataplane (sequencer) -> s0 -> s1 -> s2 -> edge port 3.
  menshen::Network net;
  for (const char* name : {"s0", "s1", "s2"}) net.AddDevice(name);
  net.Link({"s0", 2}, {"s1", 1});
  net.Link({"s1", 2}, {"s2", 1});
  net.AttachHost({"s0", 1}, menshen::ModuleId(kVid));
  InstallForwarder(net.device("s0"), 2);
  InstallForwarder(net.device("s1"), 2);
  InstallForwarder(net.device("s2"), 3);
  dp.BindEgressDevice(net, {{2, menshen::PortRef{"s0", 1}}});

  auto t = std::make_unique<StreamTenant>();
  t->vid = kVid;
  t->seq_offset = kSeqOffset;
  t->trace.resize(kRound);
  for (TracePacket& tp : t->trace) {
    menshen::Packet p = menshen::PacketBuilder{}
                            .vid(menshen::ModuleId(kVid))
                            .udp(static_cast<u16>(10000 + rng.Below(1000)),
                                 kChainPort)
                            .frame_size(kFrame)
                            .Build();
    p.bytes().set_u16(46, menshen::apps::kNetChainOpSeq);
    for (std::size_t off = kIdOffset + 4; off < kFrame; ++off)
      p.bytes().set_u8(off, static_cast<u8>(rng.Next()));
    const auto in = p.bytes().bytes();
    tp.in.assign(in.begin(), in.end());
    tp.out = tp.in;
  }

  StreamWorkload w;
  w.dp = &dp;
  w.tenants.push_back(std::move(t));
  w.ordered = true;
  w.flush_to_network = true;
  w.edge = menshen::PortRef{"s2", 3};
  w.drain_every = 4;
  w.extra_checks = [&dp, &net](RunResult& r) {
    r.Expect(dp.egress_unbound() == 0,
             "egress_unbound " + std::to_string(dp.egress_unbound()));
    r.Expect(net.loop_drops() == 0,
             "network loop drops " + std::to_string(net.loop_drops()));
  };
  return RunStream(opt, process_start_ns, w);
}

}  // namespace perfbench
