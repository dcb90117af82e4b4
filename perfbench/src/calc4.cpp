// calc4_stream_96B: four CALC tenants on four shards, one producer
// thread per tenant running bursts to completion inline
// (worker_threads=false).  Steering is left at its default, so tenant
// placement is whatever the dataplane's hash makes of VIDs 2-5.
#include "apps/apps.hpp"
#include "common/rng.hpp"
#include "stream.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kTenants = 4;
constexpr std::size_t kRound = 4096;  // packets per producer round
constexpr std::size_t kFrame = 96;

std::unique_ptr<StreamTenant> MakeCalcTenant(menshen::Dataplane& dp, u16 vid,
                                             std::size_t slot,
                                             menshen::Rng& rng) {
  using menshen::apps::kCalcOpAdd;
  using menshen::apps::kCalcOpEcho;
  using menshen::apps::kCalcOpSub;
  const u16 reply_port = static_cast<u16>(10 + slot);
  // One stage, a four-entry CAM block per tenant: stage 1 stays free for
  // the churn module.
  const menshen::ModuleAllocation alloc = menshen::UniformAllocation(
      menshen::ModuleId(vid), 0, 1, slot * 4, 4);
  menshen::CompiledModule m = [&] {
    Span s("compiler.Compile");
    return menshen::Compile(menshen::apps::CalcSpec(), alloc);
  }();
  m.AddEntry("calc_tbl", {{"op", kCalcOpAdd}}, std::nullopt, "do_add",
             {reply_port});
  m.AddEntry("calc_tbl", {{"op", kCalcOpSub}}, std::nullopt, "do_sub",
             {reply_port});
  m.AddEntry("calc_tbl", {{"op", kCalcOpEcho}}, std::nullopt, "do_echo",
             {reply_port});
  if (!m.ok()) throw std::runtime_error(m.diags().ToString());
  dp.ApplyWrites(m.AllWrites());

  auto t = std::make_unique<StreamTenant>();
  t->vid = vid;
  t->trace.resize(kRound);
  const u16 ops[3] = {kCalcOpAdd, kCalcOpSub, kCalcOpEcho};
  for (TracePacket& tp : t->trace) {
    const u16 op = ops[rng.Below(3)];
    const u32 a = static_cast<u32>(rng.Next());
    const u32 b = static_cast<u32>(rng.Next());
    menshen::Packet p = menshen::PacketBuilder{}
                            .vid(menshen::ModuleId(vid))
                            .udp(static_cast<u16>(10000 + rng.Below(1000)),
                                 20000)
                            .frame_size(kFrame)
                            .Build();
    p.bytes().set_u16(46, op);
    p.bytes().set_u32(48, a);
    p.bytes().set_u32(52, b);
    const auto in = p.bytes().bytes();
    tp.in.assign(in.begin(), in.end());
    const u32 res = op == kCalcOpAdd ? a + b : op == kCalcOpSub ? a - b : a;
    p.bytes().set_u32(56, res);
    const auto out = p.bytes().bytes();
    tp.out.assign(out.begin(), out.end());
    tp.disp = menshen::Disposition::kForward;
    tp.port = reply_port;
  }
  return t;
}

}  // namespace

RunResult RunCalc4Stream(const Options& opt, u64 process_start_ns) {
  menshen::Dataplane dp(menshen::DataplaneConfig{
      .num_shards = kTenants,
      .worker_threads = false,
      .ingress_queue_depth = 256});
  menshen::Rng rng(opt.seed * 0x9E3779B97F4A7C15ULL + 0xCA1C);
  StreamWorkload w;
  w.dp = &dp;
  for (std::size_t slot = 0; slot < kTenants; ++slot)
    w.tenants.push_back(
        MakeCalcTenant(dp, static_cast<u16>(2 + slot), slot, rng));
  if (opt.one_tenant_per_shard)
    for (std::size_t slot = 0; slot < kTenants; ++slot)
      if (!dp.MigrateTenant(menshen::ModuleId(static_cast<u16>(2 + slot)), slot) &&
          dp.ShardFor(menshen::ModuleId(static_cast<u16>(2 + slot))) != slot)
        throw std::runtime_error("could not place tenant on its own shard");
  w.ordered = false;  // every producer drains every shard
  w.drain_every = 4;
  return RunStream(opt, process_start_ns, w);
}

}  // namespace perfbench
