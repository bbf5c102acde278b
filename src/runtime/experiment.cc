#include "runtime/experiment.h"

#include <limits>
#include <type_traits>

#include "baselines/hotstuff.h"
#include "baselines/hotstuff2.h"
#include "common/logging.h"
#include "common/parse.h"
#include "core/hotstuff1_basic.h"
#include "core/hotstuff1_slotted.h"
#include "core/hotstuff1_streamlined.h"
#include "runtime/config_schema.h"
#include "runtime/oracle.h"

namespace hotstuff1 {

const char* ProtocolName(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kHotStuff: return "HotStuff";
    case ProtocolKind::kHotStuff2: return "HotStuff-2";
    case ProtocolKind::kHotStuff1Basic: return "HotStuff-1 (basic)";
    case ProtocolKind::kHotStuff1: return "HotStuff-1";
    case ProtocolKind::kHotStuff1Slotted: return "HotStuff-1 (slotting)";
  }
  return "?";
}

bool IsSpeculative(ProtocolKind kind) {
  return kind == ProtocolKind::kHotStuff1Basic || kind == ProtocolKind::kHotStuff1 ||
         kind == ProtocolKind::kHotStuff1Slotted;
}

bool ParseLookahead(const std::string& s, LookaheadSpec* out) {
  if (s == "auto") {
    *out = LookaheadSpec{LookaheadMode::kAuto, 0};
    return true;
  }
  uint64_t v = 0;
  if (!ParseUint(s, std::numeric_limits<SimTime>::max(), &v) || v == 0) return false;
  *out = LookaheadSpec{LookaheadMode::kWindow, static_cast<SimTime>(v)};
  return true;
}

std::string FormatLookahead(const LookaheadSpec& spec) {
  return spec.mode == LookaheadMode::kAuto ? "auto" : std::to_string(spec.window);
}

Experiment::Experiment(ExperimentConfig config) : config_(std::move(config)) {}
Experiment::~Experiment() = default;

std::unique_ptr<ReplicaBase> Experiment::MakeReplica(ReplicaId id,
                                                     const ConsensusConfig& cc,
                                                     KvState state) {
  // Every core takes ReplicaBase's constructor.
  auto make = [&]<typename Core>(std::type_identity<Core>) {
    return std::unique_ptr<ReplicaBase>(std::make_unique<Core>(
        id, cc, net_.get(), registry_.get(), clients_.get(), clients_.get(),
        std::move(state)));
  };
  switch (config_.protocol) {
    case ProtocolKind::kHotStuff: return make(std::type_identity<HotStuffReplica>());
    case ProtocolKind::kHotStuff2: return make(std::type_identity<HotStuff2Replica>());
    case ProtocolKind::kHotStuff1Basic:
      return make(std::type_identity<HotStuff1BasicReplica>());
    case ProtocolKind::kHotStuff1:
      return make(std::type_identity<HotStuff1StreamlinedReplica>());
    case ProtocolKind::kHotStuff1Slotted:
      return make(std::type_identity<HotStuff1SlottedReplica>());
  }
  return nullptr;
}

void Experiment::Setup() {
  if (setup_done_) return;
  setup_done_ = true;
  const uint32_t n = config_.n;
  if (config_.topology.n == 0) {
    config_.topology = config_.regions > 1 ? sim::Topology::Geo(n, config_.regions)
                                           : sim::Topology::Lan(n);
  }
  HS1_CHECK_EQ(config_.topology.n, n);

  sim_ = std::make_unique<sim::Simulator>();
  if (config_.event_cap > 0) sim_->SetEventCap(config_.event_cap);
  sim::NetworkConfig net_cfg;
  net_cfg.bandwidth_bytes_per_us = config_.bandwidth_bytes_per_us;
  net_cfg.seed = config_.seed;
  net_ = std::make_unique<sim::Network>(sim_.get(), n, net_cfg);
  config_.topology.Apply(net_.get());

  // Fig. 9 delay injection: the last `num_impaired` replicas are impacted.
  for (uint32_t i = 0; i < config_.num_impaired && i < n; ++i) {
    net_->ImpairNode(n - 1 - i, config_.inject_delay);
  }

  registry_ = std::make_unique<KeyRegistry>(n, config_.seed ^ 0x5e17c0defeedULL);

  if (config_.workload == WorkloadKind::kYcsb) {
    workload_ = std::make_unique<YcsbWorkload>(config_.ycsb);
  } else {
    workload_ = std::make_unique<TpccWorkload>(config_.tpcc);
  }

  // Clients sit in `client_region`; their delay to each replica follows the
  // topology's inter-region latency.
  std::vector<SimTime> client_lat(n);
  for (uint32_t r = 0; r < n; ++r) {
    client_lat[r] =
        config_.topology.region_latency[config_.client_region]
                                       [config_.topology.region_of[r]];
  }
  // Fig. 9 semantics: delays are injected on *all* traffic to and from the
  // impacted replicas, including client requests and responses.
  for (uint32_t i = 0; i < config_.num_impaired && i < n; ++i) {
    client_lat[n - 1 - i] += config_.inject_delay;
  }
  ClientPoolConfig cp;
  // Open loop defaults to a million-strong population: client records are
  // lazy, so the figure is a label space, not a memory commitment.
  const uint32_t default_clients =
      config_.arrival.kind == ArrivalKind::kClosedLoop ? 8 * config_.batch_size
                                                       : 1'000'000;
  cp.num_clients = config_.num_clients > 0 ? config_.num_clients : default_clients;
  cp.groups = config_.client_groups;
  cp.arrival = config_.arrival;
  const uint32_t f = config_.f();
  cp.quorum_commit = f + 1;
  cp.quorum_speculative =
      (IsSpeculative(config_.protocol) && config_.speculation_enabled) ? n - f : 0;
  cp.resubmit_timeout = std::max<SimTime>(Millis(100), 8 * config_.view_timer);
  cp.seed = config_.seed * 1000003 + 17;
  cp.track_accepted = config_.track_accepted;
  clients_ = std::make_unique<ClientPool>(sim_.get(), workload_.get(), cp,
                                          std::move(client_lat));

  // Conservative lookahead horizon: no event may schedule onto another
  // shard sooner than the fastest cross-shard path — a network delivery
  // (min pairwise latency + egress serialization floor) or a replica->
  // client response hop. Faults, jitter, and impairments only add delay. An
  // explicit window only narrows it. A capped run, or a horizon of 1 us or
  // less, gets no executor (Simulator::SetParallelism) and takes exactly the
  // serial path of sim_jobs = 1.
  SimTime horizon = std::min(net_->MinDeliveryLatency(), clients_->MinResponseLatency());
  if (config_.lookahead.mode == LookaheadMode::kWindow) {
    horizon = std::min(horizon, config_.lookahead.window);
  }
  sim_->SetParallelism(static_cast<int>(config_.sim_jobs), horizon);

  // The replicas' parameters: config_'s consensus half with the committee
  // resolved once (the static committee is the one-step schedule). config_
  // itself keeps the schedule as typed, so repro strings carry it verbatim.
  ConsensusConfig cc = config_;
  cc.reconfig = ResolveCommittee(cc.reconfig, n);

  StrategySchedule schedule = config_.strategy;
  if (!schedule.empty() && schedule.epoch_length <= 0) {
    // Auto epoch: one pacemaker epoch (f+1 views) of wall-clock time.
    schedule.epoch_length = static_cast<SimTime>(f + 1) * config_.view_timer;
  }
  plan_ = MakeAdversaryPlan(n, config_.num_faulty, config_.rollback_victims,
                            std::move(schedule));

  const SimTime gst = plan_.schedule ? plan_.schedule->ResolvedGst() : 0;
  if (config_.oracle_enabled) {
    InvariantOracle::Setup os;
    os.n = n;
    os.faulty_mask = plan_.faulty_mask;
    os.victims = plan_.victims;  // the very mask the attacking leaders use
    os.committee = cc.reconfig;
    os.gst = gst;
    os.k = config_.liveness_k;
    os.grace = config_.liveness_grace;
    os.view_timer = config_.view_timer;
    os.config_summary = DescribeConfig(config_);
    oracle_ = std::make_unique<InvariantOracle>(sim_.get(), std::move(os));
    clients_->SetOracle(oracle_.get());
  }

  // GST barrier event: scheduled whenever the schedule promises a concrete
  // stabilization time, whether or not the oracle is armed, so arming it
  // never changes the event stream it observes. As a barrier it lands at one
  // position in the serial event order under any executor shape.
  if (gst > 0 && gst < StrategySchedule::kGstNever) {
    sim_->At(gst, [this]() { if (oracle_) oracle_->OnGstReached(); });
  }

  // Timed network faults realize as Network fault rules, installed by
  // barrier (kShardSerial) events at an entry's first epoch and removed at
  // its end (the heal time). Delay is the coalition's: extra one-way delay
  // on its outbound traffic. Partition, correlated regional outage and WAN
  // jitter are environmental: they model the network, not the adversary's
  // replicas. All of them only drop or add delay, so the lookahead horizon
  // derived above stays valid for the whole run.
  if (plan_.schedule) {
    for (const StrategyEntry& e : plan_.schedule->entries) {
      std::vector<sim::FaultRule> rules;
      if (e.actions & kActDelay) {
        sim::FaultRule rule;
        rule.from_match = *plan_.faulty_mask;
        rule.to_match = std::vector<bool>(n, true);
        rule.extra_delay = e.delay;
        rules.push_back(std::move(rule));
      }
      if (e.actions & kActPartition) {
        // One rule per group: drop everything it sends to the other groups.
        // Nodes in no group keep talking to everyone.
        for (size_t g = 0; g < e.partition.size(); ++g) {
          std::vector<bool> from(n, false), others(n, false);
          for (const uint32_t id : e.partition[g]) {
            if (id < n) from[id] = true;
          }
          for (size_t h = 0; h < e.partition.size(); ++h) {
            if (h == g) continue;
            for (const uint32_t id : e.partition[h]) {
              if (id < n) others[id] = true;
            }
          }
          sim::FaultRule rule;
          rule.from_match = std::move(from);
          rule.to_match = std::move(others);
          rule.drop_prob = 1.0;
          rules.push_back(std::move(rule));
        }
      }
      if (e.actions & kActOutage) {
        // The listed regions fall off the map: all their traffic, both
        // directions, is dropped until the entry heals.
        std::vector<bool> member(n, false);
        for (uint32_t r = 0; r < n; ++r) {
          for (const uint32_t region : e.outage_regions) {
            if (config_.topology.region_of[r] == region) member[r] = true;
          }
        }
        sim::FaultRule out_rule;
        out_rule.from_match = member;
        out_rule.to_match = std::vector<bool>(n, true);
        out_rule.drop_prob = 1.0;
        rules.push_back(std::move(out_rule));
        sim::FaultRule in_rule;
        in_rule.from_match = std::vector<bool>(n, true);
        in_rule.to_match = std::move(member);
        in_rule.drop_prob = 1.0;
        rules.push_back(std::move(in_rule));
      }
      if (e.actions & kActJitter) {
        sim::FaultRule rule;
        rule.from_match = std::vector<bool>(n, true);
        rule.to_match = std::vector<bool>(n, true);
        rule.extra_jitter_frac = static_cast<double>(e.jitter_pct) / 100.0;
        rules.push_back(std::move(rule));
      }
      if (rules.empty()) continue;
      const SimTime start =
          static_cast<SimTime>(e.from_epoch) * plan_.schedule->epoch_length;
      auto rule_ids = std::make_shared<std::vector<int>>();
      sim_->At(start, [this, rules, rule_ids]() {
        for (const sim::FaultRule& r : rules) rule_ids->push_back(net_->AddRule(r));
      });
      if (e.to_epoch != kEpochForever) {
        const SimTime end =
            static_cast<SimTime>(e.to_epoch) * plan_.schedule->epoch_length;
        sim_->At(end, [this, rule_ids]() {
          for (const int id : *rule_ids) net_->RemoveRule(id);
          rule_ids->clear();
        });
      }
    }
  }

  replicas_.reserve(n);
  for (ReplicaId id = 0; id < n; ++id) {
    KvState state;  // lazy materialization: absent keys read as zero
    state.Reserve(1 << 16);
    replicas_.push_back(MakeReplica(id, cc, std::move(state)));
    replicas_.back()->SetOracle(oracle_.get());
    const AdversarySpec spec = plan_.SpecFor(id);
    if (!spec.schedule) continue;
    if (spec.schedule->HasAction(kActCrash)) {
      net_->Crash(id);
      replicas_.back()->SetCrashed();
    } else {
      replicas_.back()->SetAdversary(spec);
    }
  }
}

ExperimentResult Experiment::Run() {
  Setup();
  for (auto& r : replicas_) {
    if (!r->crashed()) r->Start();
  }
  clients_->Start();

  sim_->RunUntil(config_.warmup);
  clients_->ResetStats();
  const uint64_t committed_before = replicas_[0]->metrics().txns_committed;
  const uint64_t views_before = replicas_[0]->metrics().views_entered;

  sim_->RunUntil(config_.warmup + config_.duration);

  ExperimentResult res;
  res.protocol = ProtocolName(config_.protocol);
  res.accepted = clients_->accepted();
  res.accepted_speculative = clients_->accepted_speculative();
  res.resubmissions = clients_->resubmissions();
  res.throughput_tps =
      static_cast<double>(res.accepted) / ToSeconds(config_.duration);
  const LatencyRecorder lat = clients_->latencies();
  res.avg_latency_ms = lat.AvgMs();
  res.p50_latency_ms = lat.PercentileMs(0.50);
  res.p99_latency_ms = lat.PercentileMs(0.99);
  res.p999_latency_ms = lat.PercentileMs(0.999);
  res.backlog = clients_->backlog();
  res.committed_blocks = replicas_[0]->metrics().blocks_committed;
  res.committed_txns = replicas_[0]->metrics().txns_committed - committed_before;
  res.views = replicas_[0]->metrics().views_entered - views_before;
  res.messages_sent = net_->messages_sent();
  res.bytes_sent = net_->bytes_sent();
  const uint64_t final_view = replicas_[0]->view();
  const CommitteeSchedule& committee = replicas_[0]->config().reconfig;
  res.final_committee_n = committee.AtView(final_view).n();
  for (size_t i = 1; i < committee.steps.size(); ++i) {
    const uint64_t first_view =
        static_cast<uint64_t>(committee.steps[i].from_epoch) * committee.views_per_epoch;
    if (first_view <= final_view &&
        committee.steps[i].committee != committee.steps[i - 1].committee) {
      ++res.committee_changes;
    }
  }
  for (uint32_t id = 0; id < config_.n; ++id) {
    const auto& m = replicas_[id]->metrics();
    res.slots += m.slots_proposed;
    res.timeouts += m.timeouts;
    res.rejects += m.rejects_sent;
    if (!plan_.faulty_mask || !(*plan_.faulty_mask)[id]) {
      res.rollback_events += replicas_[id]->ledger().rollback_events();
      res.blocks_rolled_back += replicas_[id]->ledger().blocks_rolled_back();
    }
  }
  res.safety_ok = CheckSafety();
  res.event_cap_hit = sim_->cap_hit();
  res.events_processed = sim_->EventsProcessed();
  if (oracle_) {
    oracle_->Finalize();
    const auto& safety = oracle_->verdict(InvariantOracle::kSafety);
    const auto& liveness = oracle_->verdict(InvariantOracle::kLiveness);
    res.oracle_violations = safety.violations;
    res.oracle_first_violation = safety.First();
    res.liveness_violations = liveness.violations;
    res.liveness_first_violation = liveness.First();
  }
  return res;
}

bool Experiment::CheckSafety() const {
  // Theorem B.5: committed blocks at equal positions agree across correct
  // replicas.
  const std::vector<BlockPtr>* reference = nullptr;
  for (uint32_t id = 0; id < config_.n; ++id) {
    if (replicas_[id]->crashed()) continue;
    if (plan_.faulty_mask && (*plan_.faulty_mask)[id]) continue;
    const auto& chain = replicas_[id]->ledger().committed_chain();
    if (reference == nullptr) {
      reference = &chain;
      continue;
    }
    const size_t common = std::min(reference->size(), chain.size());
    for (size_t h = 0; h < common; ++h) {
      if ((*reference)[h]->hash() != chain[h]->hash()) return false;
    }
  }
  return true;
}

ExperimentResult RunExperiment(const ExperimentConfig& config) {
  Experiment exp(config);
  return exp.Run();
}

ExperimentResult RunPaperPoint(const ExperimentConfig& config) {
  ExperimentConfig sat = config;
  if (sat.num_clients == 0) sat.num_clients = 8 * sat.batch_size;
  ExperimentResult result = RunExperiment(sat);

  ExperimentConfig light = config;
  light.num_clients = std::max<uint32_t>(16, config.batch_size);
  const ExperimentResult lat = RunExperiment(light);
  result.avg_latency_ms = lat.avg_latency_ms;
  result.p50_latency_ms = lat.p50_latency_ms;
  result.p99_latency_ms = lat.p99_latency_ms;
  result.p999_latency_ms = lat.p999_latency_ms;
  MergeVerdicts(lat, &result);
  return result;
}

void MergeVerdicts(const ExperimentResult& other, ExperimentResult* into) {
  into->safety_ok = into->safety_ok && other.safety_ok;
  into->event_cap_hit = into->event_cap_hit || other.event_cap_hit;
  into->oracle_violations += other.oracle_violations;
  if (into->oracle_first_violation.empty()) {
    into->oracle_first_violation = other.oracle_first_violation;
  }
  into->liveness_violations += other.liveness_violations;
  if (into->liveness_first_violation.empty()) {
    into->liveness_first_violation = other.liveness_first_violation;
  }
}

}  // namespace hotstuff1
