#include "sim/network.h"

#include <algorithm>

#include "common/logging.h"

namespace hotstuff1::sim {

Network::Network(Simulator* sim, uint32_t n, NetworkConfig config)
    : sim_(sim),
      n_(n),
      config_(config),
      handlers_(n),
      latency_(n, std::vector<SimTime>(n, config.default_latency)),
      node_extra_delay_(n, 0),
      egress_busy_until_(n, 0),
      cpu_busy_until_(n, 0),
      crashed_(n, false),
      ingress_(n),
      drain_scheduled_(n, 0),
      messages_sent_by_(n, 0),
      bytes_sent_by_(n, 0),
      messages_dropped_by_(n, 0) {
  rngs_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    // Decorrelated per-sender streams derived from the network seed.
    rngs_.emplace_back(config.seed ^ (0x9e3779b97f4a7c15ULL * (i + 1)));
    latency_[i][i] = config.loopback_latency;
  }
}

void Network::SetHandler(NodeId id, Handler handler) {
  HS1_CHECK_LT(id, n_);
  handlers_[id] = std::move(handler);
}

void Network::SetLatency(NodeId from, NodeId to, SimTime one_way) {
  HS1_CHECK_LT(from, n_);
  HS1_CHECK_LT(to, n_);
  latency_[from][to] = one_way;
}

void Network::SetSymmetricLatency(NodeId a, NodeId b, SimTime one_way) {
  HS1_CHECK_LT(a, n_);
  HS1_CHECK_LT(b, n_);
  latency_[a][b] = one_way;
  latency_[b][a] = one_way;
}

void Network::SetAllLatencies(SimTime one_way) {
  for (uint32_t i = 0; i < n_; ++i) {
    for (uint32_t j = 0; j < n_; ++j) {
      latency_[i][j] = (i == j) ? config_.loopback_latency : one_way;
    }
  }
}

SimTime Network::SerializationFloor() const {
  return static_cast<SimTime>(static_cast<double>(kMinWireBytes) /
                              config_.bandwidth_bytes_per_us);
}

SimTime Network::MinDeliveryLatency() const {
  if (n_ < 2) return kNoCrossTraffic;
  SimTime min_latency = kNoCrossTraffic;
  for (NodeId from = 0; from < n_; ++from) {
    for (NodeId to = 0; to < n_; ++to) {
      if (from == to) continue;  // self-delivery stays on the sender's shard
      min_latency = std::min(min_latency, latency_[from][to]);
    }
  }
  return min_latency + SerializationFloor();
}

void Network::ImpairNode(NodeId id, SimTime extra_delay) {
  HS1_CHECK_LT(id, n_);
  node_extra_delay_[id] = extra_delay;
}

void Network::ClearImpairments() {
  std::fill(node_extra_delay_.begin(), node_extra_delay_.end(), 0);
}

int Network::AddRule(FaultRule rule) {
  const int id = next_rule_id_++;
  rules_.emplace_back(id, std::move(rule));
  return id;
}

void Network::RemoveRule(int rule_id) {
  rules_.erase(std::remove_if(rules_.begin(), rules_.end(),
                              [&](const auto& p) { return p.first == rule_id; }),
               rules_.end());
}

void Network::Crash(NodeId id) { crashed_[id] = true; }
void Network::Recover(NodeId id) { crashed_[id] = false; }

void Network::ConsumeCpu(NodeId id, SimTime cost) {
  const SimTime start = std::max(sim_->Now(), cpu_busy_until_[id]);
  cpu_busy_until_[id] = start + cost;
}

void Network::Send(NodeId from, NodeId to, NetMessagePtr msg) {
  HS1_CHECK_LT(from, n_);
  HS1_CHECK_LT(to, n_);
  if (crashed_[from]) return;

  // An impaired endpoint delays the whole message; two impaired endpoints
  // do not stack (the injected delay models one slow link segment).
  // Self-delivery never crosses a link: it is exempt from impairments and
  // fault rules exactly as it is exempt from jitter and egress
  // serialization below. In particular a loopback send must never consume a
  // drop/jitter draw from the sender's RNG stream — that would let
  // self-traffic (a local scheduling artifact) perturb the fault pattern
  // observed by every later cross-node message from the same sender.
  SimTime extra = 0;
  double jitter_frac = 0;
  if (to != from) {
    extra = std::max(node_extra_delay_[from], node_extra_delay_[to]);
    for (const auto& [id, rule] : rules_) {
      (void)id;
      if (rule.from_match[from] && rule.to_match[to]) {
        if (rule.drop_prob > 0 && rngs_[from].NextBool(rule.drop_prob)) {
          ++messages_dropped_by_[from];
          return;
        }
        extra += rule.extra_delay;
        jitter_frac += rule.extra_jitter_frac;
      }
    }
  }

  const size_t size = msg->WireSize();
  SimTime depart = sim_->Now();
  if (to != from) {
    // Egress serialization: a broadcast's n-1 copies leave one after another.
    const SimTime tx = static_cast<SimTime>(
        static_cast<double>(size) / config_.bandwidth_bytes_per_us);
    const SimTime start = std::max(sim_->Now(), egress_busy_until_[from]);
    egress_busy_until_[from] = start + tx;
    depart = start + tx;
  }

  SimTime lat = latency_[from][to];
  if (jitter_frac > 0 && to != from) {
    lat += static_cast<SimTime>(static_cast<double>(lat) * jitter_frac *
                                rngs_[from].NextDouble());
  }

  ++messages_sent_by_[from];
  bytes_sent_by_[from] += size;
  DeliverLater(from, to, std::move(msg), depart + lat + extra);
}

void Network::Broadcast(NodeId from, const NetMessagePtr& msg, bool include_self) {
  for (NodeId to = 0; to < n_; ++to) {
    if (to == from && !include_self) continue;
    Send(from, to, msg);
  }
}

void Network::DeliverLater(NodeId from, NodeId to, NetMessagePtr msg, SimTime arrival) {
  // Delivery runs on the destination's shard: the handler mutates only
  // receiver-owned state, so deliveries to distinct nodes may execute
  // concurrently under a parallel executor.
  sim_->AtShard(arrival, to, [this, from, to, msg = std::move(msg)]() {
    TryDeliver(from, to, msg);
  });
}

void Network::TryDeliver(NodeId from, NodeId to, const NetMessagePtr& msg) {
  if (crashed_[to]) return;
  // If the destination CPU is busy (processing an earlier message), the
  // message waits in the node's ingress queue until the CPU frees up.
  if (cpu_busy_until_[to] > sim_->Now() || !ingress_[to].empty()) {
    ingress_[to].emplace_back(from, msg);
    ScheduleDrain(to);
    return;
  }
  if (handlers_[to]) handlers_[to](from, msg);
}

void Network::ScheduleDrain(NodeId to) {
  if (drain_scheduled_[to]) return;
  drain_scheduled_[to] = true;
  const SimTime when = std::max(sim_->Now(), cpu_busy_until_[to]);
  sim_->AtShard(when, to, [this, to]() { Drain(to); });
}

void Network::Drain(NodeId to) {
  drain_scheduled_[to] = false;
  if (crashed_[to]) {
    ingress_[to].clear();
    return;
  }
  // Process queued messages until the handler makes the CPU busy again.
  while (!ingress_[to].empty() && cpu_busy_until_[to] <= sim_->Now()) {
    auto [from, msg] = std::move(ingress_[to].front());
    ingress_[to].pop_front();
    if (handlers_[to]) handlers_[to](from, msg);
  }
  if (!ingress_[to].empty()) ScheduleDrain(to);
}

}  // namespace hotstuff1::sim
