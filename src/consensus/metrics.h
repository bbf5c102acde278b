// Per-replica counters and latency aggregation.

#ifndef HOTSTUFF1_CONSENSUS_METRICS_H_
#define HOTSTUFF1_CONSENSUS_METRICS_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/units.h"

namespace hotstuff1 {

struct ReplicaMetrics {
  uint64_t views_entered = 0;
  uint64_t timeouts = 0;
  uint64_t blocks_proposed = 0;
  uint64_t slots_proposed = 0;
  uint64_t blocks_committed = 0;
  uint64_t txns_committed = 0;
  uint64_t blocks_speculated = 0;
  // Rollbacks are counted by the replica's Ledger, at speculation and at
  // commit time alike (Ledger::rollback_events, blocks_rolled_back).
  uint64_t rejects_sent = 0;
  uint64_t votes_sent = 0;
  uint64_t proposals_received = 0;
  uint64_t fetches = 0;
};

/// \brief Latency sample set with exact quantiles (samples are kept; a run
/// produces at most a few million).
class LatencyRecorder {
 public:
  void Add(SimTime latency) { samples_.push_back(latency); }

  size_t count() const { return samples_.size(); }

  double AvgMs() const {
    if (samples_.empty()) return 0;
    double sum = 0;
    for (SimTime s : samples_) sum += static_cast<double>(s);
    return sum / static_cast<double>(samples_.size()) / kMillisecond;
  }

  /// Exact quantile in milliseconds; q in [0, 1].
  double PercentileMs(double q) const {
    if (samples_.empty()) return 0;
    std::vector<SimTime> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    const size_t idx = std::min(sorted.size() - 1,
                                static_cast<size_t>(q * static_cast<double>(sorted.size())));
    return ToMillis(sorted[idx]);
  }

  void Clear() { samples_.clear(); }

  const std::vector<SimTime>& samples() const { return samples_; }

  /// Concatenates another recorder's samples (used to merge per-shard
  /// recorders; concatenation order must be deterministic for in-order
  /// statistics like AvgMs to be executor-independent).
  void Append(const LatencyRecorder& other) {
    samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
  }

 private:
  std::vector<SimTime> samples_;
};

}  // namespace hotstuff1

#endif  // HOTSTUFF1_CONSENSUS_METRICS_H_
