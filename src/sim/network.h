// Simulated point-to-point network with authenticated-channel semantics,
// replacing the paper's NNG/TCP mesh across AWS machines.
//
// Resource model (what the paper's experiments actually measure):
//   * one-way latency matrix          -> geo topologies, Fig. 8(e-h), 9(e,j)
//   * per-node egress bandwidth       -> O(n) broadcast cost, batching limits
//   * per-node CPU busy-time          -> signature/exec compute-bound regimes
//   * per-node injected delay         -> Fig. 9(a-d,f-i) delay experiments
//   * crash / drop / partition rules  -> failure experiments and tests
//
// Threading / determinism contract (see docs/ARCHITECTURE.md): every piece
// of mutable run-time state is partitioned by node. Send(from, ...) touches
// only sender-owned state (egress clock, the sender's RNG stream, per-sender
// counters) and is called only from events on shard `from`; deliveries and
// ingress drains are scheduled on the destination's shard. Configuration
// mutators (latencies, rules, Crash/Recover) are for setup or for untagged
// (kShardSerial, i.e. barrier) events only.

#ifndef HOTSTUFF1_SIM_NETWORK_H_
#define HOTSTUFF1_SIM_NETWORK_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/units.h"
#include "sim/simulator.h"

namespace hotstuff1::sim {

using NodeId = uint32_t;

/// Base class for anything sent over the simulated wire. WireSize feeds the
/// bandwidth model; subclasses report header + payload estimates.
struct NetMessage {
  virtual ~NetMessage() = default;
  virtual size_t WireSize() const { return 64; }
};

/// Smallest wire size any message may report (the leanest header in
/// consensus/messages.h is 32 bytes). The lookahead horizon's serialization
/// floor is derived from it: every cross-node send pays at least
/// kMinWireBytes / bandwidth of egress time before departing.
inline constexpr size_t kMinWireBytes = 32;

using NetMessagePtr = std::shared_ptr<const NetMessage>;

struct NetworkConfig {
  /// Egress bandwidth per node, in bytes per microsecond (2000 = 2 GB/s).
  double bandwidth_bytes_per_us = 2000.0;
  /// Latency for self-delivery (leader processing its own proposal).
  SimTime loopback_latency = 1;
  /// Default one-way latency between distinct nodes (overridden per-pair).
  SimTime default_latency = Millis(0.4);
  uint64_t seed = 1;
};

/// A generic fault rule; applies to cross-node messages with
/// from_match[from] and to_match[to] set (self-delivery is exempt, like
/// egress serialization). `extra_delay` must be >= 0, and jitter adds
/// latency * U[0, extra_jitter_frac) summed over the matching rules (WAN
/// jitter, kActJitter) — the lookahead horizon (MinDeliveryLatency) relies on
/// faults only ever *adding* delay.
struct FaultRule {
  std::vector<bool> from_match;
  std::vector<bool> to_match;
  SimTime extra_delay = 0;
  double drop_prob = 0.0;
  double extra_jitter_frac = 0.0;
};

class Network {
 public:
  using Handler = std::function<void(NodeId from, const NetMessagePtr& msg)>;

  Network(Simulator* sim, uint32_t n, NetworkConfig config = {});

  uint32_t num_nodes() const { return n_; }
  Simulator* simulator() const { return sim_; }

  // --- wiring ---------------------------------------------------------------
  void SetHandler(NodeId id, Handler handler);

  // --- latency configuration -------------------------------------------------
  void SetLatency(NodeId from, NodeId to, SimTime one_way);
  void SetSymmetricLatency(NodeId a, NodeId b, SimTime one_way);
  void SetAllLatencies(SimTime one_way);
  SimTime latency(NodeId from, NodeId to) const { return latency_[from][to]; }

  // --- lookahead horizon -----------------------------------------------------
  /// Returned by MinDeliveryLatency when no cross-node traffic is possible
  /// (n < 2): effectively "no bound", safely below any overflow.
  static constexpr SimTime kNoCrossTraffic = INT64_MAX / 4;

  /// Guaranteed egress-serialization delay of any cross-node message:
  /// floor(kMinWireBytes / bandwidth). Grows as bandwidth shrinks, so low
  /// bandwidth widens the safe horizon; at GB/s-class bandwidth it rounds
  /// to zero and the horizon shrinks to the pure link delay.
  SimTime SerializationFloor() const;

  /// Conservative lower bound on when any message sent from now on can be
  /// delivered to a *different* node: min pairwise one-way latency plus the
  /// serialization floor. Impairments, fault rules, and jitter only add
  /// delay, so this is a safe per-shard-pair horizon minimum — valid for a
  /// run's lifetime as long as latencies are only lowered between runs or
  /// from barrier events followed by a fresh Simulator::SetLookahead.
  SimTime MinDeliveryLatency() const;

  // --- sending ---------------------------------------------------------------
  void Send(NodeId from, NodeId to, NetMessagePtr msg);
  /// Sends to every node; `include_self` self-delivers at loopback latency
  /// without consuming egress bandwidth.
  void Broadcast(NodeId from, const NetMessagePtr& msg, bool include_self = true);

  // --- faults ---------------------------------------------------------------
  /// Adds `extra_delay` to every message into or out of `id` (Fig. 9 setup).
  void ImpairNode(NodeId id, SimTime extra_delay);
  void ClearImpairments();
  /// Generic rule; returns an id for RemoveRule.
  int AddRule(FaultRule rule);
  void RemoveRule(int rule_id);
  void Crash(NodeId id);
  void Recover(NodeId id);
  bool IsCrashed(NodeId id) const { return crashed_[id]; }

  // --- virtual CPU -----------------------------------------------------------
  /// Accounts `cost` of compute at node `id`, starting no earlier than now.
  /// Deliveries to a busy node are deferred until the CPU frees up.
  void ConsumeCpu(NodeId id, SimTime cost);

  // --- stats -----------------------------------------------------------------
  // Counters are kept per sender so concurrent shards never share a cache
  // line or an increment; totals are summed on read (post-run).
  uint64_t messages_sent() const { return Total(messages_sent_by_); }
  uint64_t bytes_sent() const { return Total(bytes_sent_by_); }
  uint64_t messages_dropped() const { return Total(messages_dropped_by_); }

 private:
  void DeliverLater(NodeId from, NodeId to, NetMessagePtr msg, SimTime arrival);
  void TryDeliver(NodeId from, NodeId to, const NetMessagePtr& msg);
  void ScheduleDrain(NodeId to);
  void Drain(NodeId to);

  static uint64_t Total(const std::vector<uint64_t>& v) {
    uint64_t sum = 0;
    for (uint64_t x : v) sum += x;
    return sum;
  }

  Simulator* sim_;
  uint32_t n_;
  NetworkConfig config_;
  // One jitter/drop stream per sender: draws depend only on the sender's own
  // send sequence, never on cross-node interleaving.
  std::vector<Rng> rngs_;

  std::vector<Handler> handlers_;
  std::vector<std::vector<SimTime>> latency_;
  std::vector<SimTime> node_extra_delay_;
  std::vector<SimTime> egress_busy_until_;
  std::vector<SimTime> cpu_busy_until_;
  std::vector<bool> crashed_;
  // Per-node ingress queue: messages that arrived while the node's CPU was
  // busy wait here in FIFO order and drain as the CPU frees up.
  std::vector<std::deque<std::pair<NodeId, NetMessagePtr>>> ingress_;
  // One byte per node, NOT vector<bool>: the flag is written from each
  // node's own shard, and bit-packing would make neighboring nodes' flags
  // share a word (a data race under the parallel executor).
  std::vector<uint8_t> drain_scheduled_;
  std::vector<std::pair<int, FaultRule>> rules_;
  int next_rule_id_ = 0;

  std::vector<uint64_t> messages_sent_by_;
  std::vector<uint64_t> bytes_sent_by_;
  std::vector<uint64_t> messages_dropped_by_;
};

}  // namespace hotstuff1::sim

#endif  // HOTSTUFF1_SIM_NETWORK_H_
