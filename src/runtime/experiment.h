// The experiment runner: wires simulator, network, topology, workload,
// clients, replicas and faults; runs for a virtual duration; collects the
// metrics the paper reports (throughput, client latency) plus safety
// diagnostics.

#ifndef HOTSTUFF1_RUNTIME_EXPERIMENT_H_
#define HOTSTUFF1_RUNTIME_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "client/client_pool.h"
#include "consensus/replica.h"
#include "runtime/adversary.h"
#include "sim/topology.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

namespace hotstuff1 {

class InvariantOracle;  // runtime/oracle.h

enum class ProtocolKind {
  kHotStuff = 0,
  kHotStuff2 = 1,
  kHotStuff1Basic = 2,
  kHotStuff1 = 3,         // streamlined
  kHotStuff1Slotted = 4,  // streamlined + slotting
};

const char* ProtocolName(ProtocolKind kind);
bool IsSpeculative(ProtocolKind kind);

enum class WorkloadKind { kYcsb = 0, kTpcc = 1 };

/// How the simulator's conservative lookahead window is chosen (the safe
/// horizon within which the parallel executor may run events of different
/// timestamps concurrently — see docs/ARCHITECTURE.md, "Lookahead window").
enum class LookaheadMode : uint32_t {
  kAuto = 0,    // derive from min cross-shard delivery latency at setup
  kWindow = 1,  // at most `window` microseconds of the derived horizon
};

struct LookaheadSpec {
  LookaheadMode mode = LookaheadMode::kAuto;
  SimTime window = 0;  // only read when mode == kWindow
};

inline bool operator==(const LookaheadSpec& a, const LookaheadSpec& b) {
  return a.mode == b.mode &&
         (a.mode != LookaheadMode::kWindow || a.window == b.window);
}
inline bool operator!=(const LookaheadSpec& a, const LookaheadSpec& b) {
  return !(a == b);
}

/// Parses "auto" or a positive integer microsecond window. Returns false on
/// anything else, "off" and "0" included (--sim-jobs=1 runs serially).
bool ParseLookahead(const std::string& s, LookaheadSpec* out);
std::string FormatLookahead(const LookaheadSpec& spec);

/// One experiment point: the consensus parameters (ConsensusConfig, whose
/// fields are knobs too) plus the world around the protocol — topology,
/// workload, clients, adversary, oracle and executor.
struct ExperimentConfig : ConsensusConfig {
  ProtocolKind protocol = ProtocolKind::kHotStuff1;
  sim::Topology topology;     // defaults to Geo(n, regions) / LAN(n) when empty
  // Paper geo deployment over the first `regions` of its five regions
  // (--regions); 1 = LAN. Only read when `topology` is empty. A field, not
  // an hs1sim-only option, so DescribeConfig's repro of a geo run carries it.
  uint32_t regions = 1;
  uint32_t client_region = 0; // clients' region (paper: North Virginia)

  SimTime duration = Seconds(3);
  SimTime warmup = Millis(500);

  WorkloadKind workload = WorkloadKind::kYcsb;
  YcsbConfig ycsb;
  TpccConfig tpcc;
  uint32_t num_clients = 0;  // 0 -> 8 * batch_size (closed loop) / 1M (open)
  // Client-group shard count for the pool (--client-groups); 1 reproduces
  // the historical single-shard pool byte-for-byte.
  uint32_t client_groups = 1;
  // Traffic model (--arrival / --offered-load); closed loop by default.
  ArrivalConfig arrival;
  uint64_t seed = 1;

  // The adversary (Fig. 10): replicas 1..num_faulty follow `strategy`, a
  // per-epoch schedule (--strategy; grammar in runtime/adversary.h) — e.g.
  // "0-:slow", "0-:tailfork", "0-:equivocate" (the rollback attack, which
  // misleads `rollback_victims` correct replicas, clamped to f) or
  // "0-:crash". epoch_length 0 is resolved to (f+1) * view_timer at setup.
  uint32_t num_faulty = 0;
  uint32_t rollback_victims = 0;
  StrategySchedule strategy;

  // Thresholds of the oracle's liveness family (runtime/oracle.h); 0 = auto.
  // Only read when oracle_enabled.
  uint64_t liveness_k = 0;
  SimTime liveness_grace = 0;

  // Message-delay injection (Fig. 9): extra one-way delay on traffic to or
  // from the last `num_impaired` replicas.
  SimTime inject_delay = 0;
  uint32_t num_impaired = 0;

  // Test hook: record accepted (txn, block) pairs in the client pool.
  bool track_accepted = false;

  // Per-node egress bandwidth, bytes per microsecond (--bandwidth_bytes_per_us).
  double bandwidth_bytes_per_us = 2000.0;

  // Intra-experiment parallelism: worker threads for the simulator's event
  // loop (--sim-jobs). 1 = the classic single-threaded loop; any value
  // yields byte-identical results (see docs/ARCHITECTURE.md, determinism
  // contract).
  uint32_t sim_jobs = 1;

  // Conservative lookahead window for the parallel event loop (--lookahead).
  // The safe horizon is the topology's minimum cross-shard delivery latency
  // plus the bandwidth serialization floor; kWindow caps it at `window`. Any
  // setting is byte-identical to any other. Only consulted when sim_jobs > 1.
  // A run with an event cap or a horizon of 1 us or less gets no executor:
  // it takes exactly the sim_jobs = 1 path.
  LookaheadSpec lookahead;

  // Safety valve against runaway event storms: 0 = unlimited. A truncated
  // run is reported via ExperimentResult::event_cap_hit, never silently.
  uint64_t event_cap = 0;

  // Arms the online invariant oracle (runtime/oracle.h): every protocol core
  // and the client pool report state transitions into it, and violations of
  // the paper's safety and liveness claims fail the run with a (config, seed,
  // event) diagnostic. Pure observer: enabling it never changes results.
  bool oracle_enabled = false;
};

struct ExperimentResult {
  std::string protocol;
  double throughput_tps = 0;
  double avg_latency_ms = 0;
  double p50_latency_ms = 0;
  double p99_latency_ms = 0;
  double p999_latency_ms = 0;
  uint64_t accepted = 0;
  uint64_t accepted_speculative = 0;
  uint64_t resubmissions = 0;
  // Transactions still waiting in the submission queue at the end of the
  // run. Grows without bound past the saturation knee in open-loop runs.
  uint64_t backlog = 0;
  uint64_t committed_blocks = 0;  // at observer replica 0
  uint64_t committed_txns = 0;
  uint64_t views = 0;             // views entered at observer
  uint64_t slots = 0;             // total slots proposed (all replicas)
  uint64_t timeouts = 0;
  // Local-ledger rollbacks at correct replicas, at speculation and at
  // commit time alike, and the blocks they undid: the sums of their
  // Ledger::rollback_events and blocks_rolled_back over the whole run.
  uint64_t rollback_events = 0;
  uint64_t blocks_rolled_back = 0;
  uint64_t rejects = 0;
  uint64_t messages_sent = 0;
  uint64_t bytes_sent = 0;
  // Reconfiguration: membership changes the observer replica actually lived
  // through (schedule steps whose first view was entered), and the size of
  // the committee active in the observer's final view. 0 / base n for runs
  // without a schedule. Deterministic like every other consensus metric.
  uint64_t committee_changes = 0;
  uint32_t final_committee_n = 0;
  bool safety_ok = true;  // committed prefixes agree across correct replicas
  bool event_cap_hit = false;  // simulator stopped at its event cap: truncated run
  // Simulator events executed during the whole run (setup + warmup +
  // measurement). Deterministic: identical at any jobs/sim-jobs/lookahead.
  uint64_t events_processed = 0;
  // Online verdict of the oracle's safety family (0 and empty when it is off
  // or the run is clean). Deterministic: identical at any jobs/sim-jobs/lookahead.
  uint64_t oracle_violations = 0;
  std::string oracle_first_violation;
  // Online verdict of the oracle's liveness family (runtime/oracle.h), same
  // determinism contract as the safety family's fields above.
  uint64_t liveness_violations = 0;
  std::string liveness_first_violation;
};

class Experiment {
 public:
  explicit Experiment(ExperimentConfig config);
  ~Experiment();

  /// Builds the whole system (callable once; Run() calls it lazily).
  void Setup();

  /// Runs warmup + measurement and returns the collected result.
  ExperimentResult Run();

  // --- test access ------------------------------------------------------------
  sim::Simulator& simulator() { return *sim_; }
  sim::Network& network() { return *net_; }
  ClientPool& clients() { return *clients_; }
  const KeyRegistry& registry() const { return *registry_; }
  std::vector<std::unique_ptr<ReplicaBase>>& replicas() { return replicas_; }
  const ExperimentConfig& config() const { return config_; }
  /// Null unless config().oracle_enabled.
  InvariantOracle* oracle() { return oracle_.get(); }

  /// Committed-prefix agreement across correct replicas (Theorem B.5 check).
  bool CheckSafety() const;

 private:
  std::unique_ptr<ReplicaBase> MakeReplica(ReplicaId id, const ConsensusConfig& cc,
                                           KvState state);

  ExperimentConfig config_;
  bool setup_done_ = false;
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<sim::Network> net_;
  std::unique_ptr<KeyRegistry> registry_;
  std::unique_ptr<Workload> workload_;
  std::unique_ptr<ClientPool> clients_;
  std::unique_ptr<InvariantOracle> oracle_;
  AdversaryPlan plan_;
  std::vector<std::unique_ptr<ReplicaBase>> replicas_;
};

/// Convenience: run one configuration and return the result.
ExperimentResult RunExperiment(const ExperimentConfig& config);

/// Reproduces one figure data point the way the paper measures (§7 Metrics):
/// *throughput* is the saturated maximum (deep closed-loop client pool),
/// while *client latency* is measured at a light operating point (one batch
/// of transactions in flight), where queueing does not mask the protocols'
/// phase-count differences. Returns the saturation result with its latency
/// fields replaced by the light-load measurements.
ExperimentResult RunPaperPoint(const ExperimentConfig& config);

/// Folds `other`'s verdicts into `into`: safety and the event cap, and both
/// oracle families' counts (added) and first diagnostics (the earliest wins).
void MergeVerdicts(const ExperimentResult& other, ExperimentResult* into);

}  // namespace hotstuff1

#endif  // HOTSTUFF1_RUNTIME_EXPERIMENT_H_
