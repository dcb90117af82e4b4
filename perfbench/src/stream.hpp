// Streaming-path plumbing shared by the workloads that drive
// SubmitStream: per-tenant traces with independently computed expected
// outputs, the exactly-once / in-order / content checker, and the
// producer loop (allocate, fill, submit, drain, check, release).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "harness.hpp"
#include "packet/arena.hpp"
#include "packet/packet.hpp"

namespace perfbench {

inline constexpr std::size_t kBurst = 64;
/// Buffers in each producer's arena: the most packets one producer can
/// have outstanding.
inline constexpr std::size_t kArenaCap = 4096;
/// In-flight bookkeeping ring per tenant (packets).  Must exceed the
/// packets one tenant can have outstanding (kArenaCap).
inline constexpr u32 kRing = 1u << 16;
static_assert(kRing > kArenaCap);
/// Period of the control loop's churn commits.
inline constexpr u64 kChurnPeriodNs = 10'000'000;

/// One packet of a tenant's round: the frame the benchmark sends and
/// the output the benchmark expects back, both computed without the
/// pipeline.
struct TracePacket {
  std::vector<u8> in;
  std::vector<u8> out;
  bool drop = false;  // expected to be discarded (never returned)
  menshen::Disposition disp = menshen::Disposition::kForward;
  u16 port = 0;
};

struct StreamTenant {
  u16 vid = 0;
  std::vector<TracePacket> trace;  // one round; size is a multiple of kBurst
  /// Offset of a field whose expected value depends on the packet's
  /// position in the tenant's stream rather than on its frame (the
  /// NetChain sequence number): expected = id + 1, 4 bytes, network
  /// order.
  std::optional<std::size_t> seq_offset;

  // Bookkeeping shared by the producer (writes) and any drainer.
  std::unique_ptr<std::atomic<u8>[]> inflight{new std::atomic<u8>[kRing]};
  std::unique_ptr<std::atomic<u64>[]> submit_ns{
      new std::atomic<u64>[kRing / kBurst]};
  u32 next_seq = 0;                // producer-owned
  u64 submitted = 0;               // producer-owned
  u64 expected_drops = 0;          // producer-owned
  u64 missing_on_wrap = 0;         // producer-owned
  u64 threw = 0;  // producer-owned: packets whose SubmitStream threw
  std::atomic<u64> returned{0};
  /// Highest id returned so far, for workloads with one draining thread.
  std::int64_t last_returned = -1;

  StreamTenant() {
    for (u32 i = 0; i < kRing; ++i) inflight[i].store(0);
    for (u32 i = 0; i < kRing / kBurst; ++i) submit_ns[i].store(0);
  }
};

/// Per-thread checker state.
struct CheckCounters {
  u64 failed = 0;
  u64 checked = 0;
  u64 bytes = 0;
};

/// Checks one returned frame against its tenant's expectation and the
/// in-flight ring.  `ordered` additionally requires ids to increase per
/// tenant (only meaningful where a single thread drains).
class StreamChecker {
 public:
  explicit StreamChecker(std::vector<StreamTenant*> tenants, bool ordered);
  /// Returns true when the frame was the expected output.
  bool Check(const u8* data, std::size_t len, menshen::Disposition disp,
             u16 port, bool check_port, u64 now, Meter& meter,
             CheckCounters& cc);
  /// Counts ids still marked in flight after the final drain.
  [[nodiscard]] u64 CountMissing() const;
  [[nodiscard]] StreamTenant* Find(u16 vid) const {
    return vid < by_vid_.size() ? by_vid_[vid] : nullptr;
  }

 private:
  std::vector<StreamTenant*> tenants_;
  std::vector<StreamTenant*> by_vid_;
  bool ordered_;
};

/// Fills `n` packets of tenant `t` (its next ids) into `burst`, marks
/// them in flight and stamps the submit time of the burst.
void FillBurst(StreamTenant& t, menshen::ArenaPacket** burst, std::size_t n);
/// Stamps the burst's submit time (call right before SubmitStream).
void StampSubmit(StreamTenant& t, u32 first_seq, u64 now);

/// Fault injection for the checker self-test: corrupts the
/// kCorruptAt-th returned packet and withholds the kWithholdAt-th one
/// from the checker.
struct FaultPlan {
  static constexpr u64 kCorruptAt = 5000;
  static constexpr u64 kWithholdAt = 7000;
  bool enabled = false;
  std::atomic<u64> seen{0};
  /// Returns 0 = check normally, 1 = corrupt then check, 2 = skip check.
  int Next() {
    if (!enabled) return 0;
    const u64 k = seen.fetch_add(1, std::memory_order_relaxed);
    return k == kCorruptAt ? 1 : k == kWithholdAt ? 2 : 0;
  }
};

}  // namespace perfbench

namespace perfbench {

/// A streaming workload: one producer thread per tenant, each with its
/// own arena, running whole rounds of its trace in a closed loop, while
/// a control thread commits the churn module (VID 20, stage 1) every
/// kChurnPeriodNs.
struct StreamWorkload {
  menshen::Dataplane* dp = nullptr;
  std::vector<std::unique_ptr<StreamTenant>> tenants;  // one per producer
  /// Ids must come back in increasing order per tenant (one drainer).
  bool ordered = false;
  /// Drain through FlushEgress into a bound Network instead of
  /// PollEgress; every delivery must arrive at `edge`.
  bool flush_to_network = false;
  menshen::PortRef edge;
  /// Bursts submitted between two drains.
  std::size_t drain_every = 1;
  /// Workload-specific invariants checked after the run.
  std::function<void(RunResult&)> extra_checks;
};

/// Runs a streaming workload to the end and checks it.
RunResult RunStream(const Options& opt, u64 process_start_ns,
                    StreamWorkload& w);

}  // namespace perfbench
