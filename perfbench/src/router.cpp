// router_zipf_imix: one producer, one shard.  A router tenant receives
// zipf(0.9)-distributed tags over a tag space far larger than the
// flow-verdict cache's slots, in IMIX frame sizes, so cache hits,
// misses and evictions all occur and size-dependent copies matter.
#include <numeric>
#include <unordered_set>

#include "common/rng.hpp"
#include "runtime/stats.hpp"
#include "stream.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr u16 kVid = 2;
constexpr std::size_t kRound = 12288;  // a multiple of 12 and of kBurst
constexpr std::size_t kTagSpace = 4096;
constexpr double kZipfS = 0.9;
constexpr std::size_t kEntries = 16;  // the stage's whole CAM block
constexpr std::size_t kDropEntries = 4;
constexpr u16 kPortBase = 40;

constexpr const char* kRouterDsl = R"(
module router {
  field tag : 2 @ 46;
  action fwd(p) { port(p); }
  action sink { drop(); }
  table routes { key = { tag }; actions = { fwd, sink }; size = 16; }
}
)";

/// IMIX by count, exactly 64 B : 576 B : 1500 B = 7 : 4 : 1 per round,
/// in a seeded order.
std::vector<std::size_t> ImixSizes(std::size_t n, menshen::Rng& rng) {
  std::vector<std::size_t> sizes(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t k = i % 12;
    sizes[i] = k < 7 ? 64 : k < 11 ? 576 : 1500;
  }
  for (std::size_t i = n - 1; i > 0; --i)
    std::swap(sizes[i], sizes[rng.Below(i + 1)]);
  return sizes;
}

}  // namespace

RunResult RunRouterZipfImix(const Options& opt, u64 process_start_ns) {
  menshen::Dataplane dp(menshen::DataplaneConfig{
      .num_shards = 1, .worker_threads = false, .ingress_queue_depth = 256});
  // The tag space, the rank -> tag permutation and the installed table
  // are fixed; the seed draws the packet sequence (tags and the order of
  // frame sizes).  Which hot tags share a flow-cache slot then does not
  // change from seed to seed.
  menshen::Rng fixed(0x2007);
  menshen::Rng rng(opt.seed * 0x9E3779B97F4A7C15ULL + 0x2007);

  // Rank -> tag: a permutation of the tag space.
  std::vector<u16> tag_of_rank(kTagSpace);
  std::iota(tag_of_rank.begin(), tag_of_rank.end(), 0);
  for (std::size_t i = kTagSpace - 1; i > 0; --i)
    std::swap(tag_of_rank[i], tag_of_rank[fixed.Below(i + 1)]);

  // The installed table: kEntries tags among the 64 hottest ranks, the
  // first kDropEntries of them dropped, the rest forwarded to 40+tag.
  // Everything else misses and leaves unchanged on port 0.
  enum class Route : u8 { kMiss, kFwd, kDrop };
  std::vector<Route> route(kTagSpace, Route::kMiss);
  {
    std::vector<std::size_t> ranks(64);
    std::iota(ranks.begin(), ranks.end(), 0);
    for (std::size_t i = ranks.size() - 1; i > 0; --i)
      std::swap(ranks[i], ranks[fixed.Below(i + 1)]);
    const menshen::ModuleAllocation alloc = menshen::UniformAllocation(
        menshen::ModuleId(kVid), 0, 1, 0, kEntries);
    menshen::CompiledModule m = menshen::CompileDsl(kRouterDsl, alloc);
    for (std::size_t i = 0; i < kEntries; ++i) {
      const u16 tag = tag_of_rank[ranks[i]];
      if (i < kDropEntries) {
        route[tag] = Route::kDrop;
        m.AddEntry("routes", {{"tag", tag}}, std::nullopt, "sink", {});
      } else {
        route[tag] = Route::kFwd;
        m.AddEntry("routes", {{"tag", tag}}, std::nullopt, "fwd",
                   {static_cast<u64>(kPortBase + tag)});
      }
    }
    if (!m.ok()) throw std::runtime_error(m.diags().ToString());
    dp.ApplyWrites(m.AllWrites());
  }

  auto t = std::make_unique<StreamTenant>();
  t->vid = kVid;
  t->trace.resize(kRound);
  const Zipf zipf(kTagSpace, kZipfS);
  std::unordered_set<u16> distinct;
  const std::vector<std::size_t> sizes = ImixSizes(kRound, rng);
  for (std::size_t i = 0; i < kRound; ++i) {
    TracePacket& tp = t->trace[i];
    const u16 tag = tag_of_rank[zipf.Sample(rng.NextDouble())];
    distinct.insert(tag);
    menshen::Packet p = menshen::PacketBuilder{}
                            .vid(menshen::ModuleId(kVid))
                            .udp(static_cast<u16>(10000 + rng.Below(1000)),
                                 20000)
                            .frame_size(sizes[i])
                            .Build();
    p.bytes().set_u16(46, tag);
    const auto in = p.bytes().bytes();
    tp.in.assign(in.begin(), in.end());
    tp.out = tp.in;
    tp.drop = route[tag] == Route::kDrop;
    tp.disp = tp.drop ? menshen::Disposition::kDrop
                      : menshen::Disposition::kForward;
    tp.port = route[tag] == Route::kFwd ? static_cast<u16>(kPortBase + tag) : 0;
  }

  StreamWorkload w;
  w.dp = &dp;
  StreamTenant* tenant = t.get();
  w.tenants.push_back(std::move(t));
  w.ordered = true;
  const std::size_t distinct_keys = distinct.size();
  w.extra_checks = [&dp, tenant, distinct_keys](RunResult& r) {
    // Every distinct key misses at least once from a cold cache, so
    // hits over the whole run are bounded by packets - distinct keys.
    u64 hits = 0;
    for (const auto& c : dp.CountersSnapshot()) hits += c.flow_cache_hits;
    const u64 packets = tenant->submitted;
    r.Expect(hits + distinct_keys <= packets,
             "flow-cache hits " + std::to_string(hits) + " exceed packets " +
                 std::to_string(packets) + " - distinct keys " +
                 std::to_string(distinct_keys));
  };
  return RunStream(opt, process_start_ns, w);
}

}  // namespace perfbench
