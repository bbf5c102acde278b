// Benchmark runner: one process measures one point of one workload and
// prints one JSON object on stdout. bench/perf/run.py starts it once per
// point, reads its peak RSS from the process's rusage, and turns the points
// into metrics.
//
//   hs1perf --workload=NAME --seed=N [--trace] [--smoke]
//
// Layers are measured from outside: the runner times only its own calls
// into the simulator's public functions (Experiment::Setup/Run, the
// destructor, ClientPool::latencies, LatencyRecorder::PercentileMs) and reads
// public counters afterwards. With --trace it also replays the run's exact
// inputs (replica 0's committed chain, the run's key registry) through the
// crypto and ledger layers' public functions, and probes single calls. The
// replays run after Run() and before teardown, outside the point's wall_s.
//
// Exit codes: 0 success (checks are judged by run.py), 2 bad flags.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "consensus/certificate.h"
#include "crypto/signer.h"
#include "ledger/kv_state.h"
#include "runtime/adversary.h"
#include "runtime/experiment.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

namespace hotstuff1 {
namespace {

using Clock = std::chrono::steady_clock;

// --- Workloads ---------------------------------------------------------------
// Why each workload exists is recorded in BENCHMARK.json and README.md. All
// run streamlined HotStuff-1 with the hs1sim defaults (delta 1 ms, view timer
// 10 ms unless stated). Durations are fixed here, never read from the
// environment, so event counts stay comparable across commits.

ExperimentConfig Base(uint32_t n, uint32_t batch, double warmup_ms,
                      double duration_ms) {
  ExperimentConfig cfg;
  cfg.protocol = ProtocolKind::kHotStuff1;
  cfg.n = n;
  cfg.batch_size = batch;
  cfg.delta = Millis(1);
  cfg.view_timer = Millis(10);
  cfg.warmup = Millis(warmup_ms);
  cfg.duration = Millis(duration_ms);
  return cfg;
}

ExperimentConfig LanN32() { return Base(32, 100, 100, 500); }

ExperimentConfig VotesN128() {
  ExperimentConfig cfg = Base(128, 10, 100, 300);
  cfg.view_timer = Millis(40);
  return cfg;
}

ExperimentConfig VotesN128Sj4() {
  ExperimentConfig cfg = VotesN128();
  cfg.sim_jobs = 4;
  cfg.lookahead = {LookaheadMode::kAuto, 0};
  return cfg;
}

ExperimentConfig TpccN16() {
  ExperimentConfig cfg = Base(16, 100, 50, 200);
  cfg.workload = WorkloadKind::kTpcc;
  return cfg;
}

ExperimentConfig FlashN16() {
  ExperimentConfig cfg = Base(16, 100, 100, 700);
  cfg.arrival.kind = ArrivalKind::kFlashCrowd;
  cfg.arrival.offered_load_tps = 75'000;
  cfg.num_clients = 1'200'000;
  cfg.client_groups = 8;
  return cfg;
}

ExperimentConfig AttackN32() {
  ExperimentConfig cfg = Base(32, 100, 100, 1000);
  cfg.num_faulty = 10;
  cfg.rollback_victims = 10;  // hs1sim's default: f victims
  std::string error;
  if (!ParseStrategySchedule("0-:equivocate", &cfg.strategy, &error)) {
    std::fprintf(stderr, "hs1perf: bad built-in strategy: %s\n", error.c_str());
    std::exit(1);
  }
  cfg.oracle_enabled = true;
  return cfg;
}

struct WorkloadDef {
  const char* name;
  ExperimentConfig (*make)();
};

constexpr WorkloadDef kWorkloads[] = {
    {"lan_n32", LanN32},     {"votes_n128", VotesN128},
    {"votes_n128_sj4", VotesN128Sj4}, {"tpcc_n16", TpccN16},
    {"flash_n16", FlashN16}, {"attack_n32", AttackN32},
};

// Smoke: the same workload at a tenth of its virtual time, arrival timing
// included, so the flash crowd still ramps inside the shorter window.
void ShrinkForSmoke(ExperimentConfig& cfg) {
  cfg.warmup /= 10;
  cfg.duration /= 10;
  cfg.arrival.flash_start /= 10;
  cfg.arrival.flash_rise /= 10;
  cfg.arrival.flash_decay /= 10;
}

// --- Spans -------------------------------------------------------------------

struct Span {
  const char* name;
  const char* parent;  // "" for the root
  double start_us;
  double dur_us;
};

class SpanLog {
 public:
  /// Runs `fn`, records it as a span, and returns its duration in seconds.
  template <typename Fn>
  double Time(const char* name, const char* parent, Fn&& fn) {
    const double start = NowUs();
    fn();
    const double dur = NowUs() - start;
    spans_.push_back({name, parent, start, dur});
    return dur / 1e6;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  }
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

// --- JSON output -------------------------------------------------------------

class JsonObject {
 public:
  void Num(const char* key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    Raw(key, buf);
  }
  void Count(const char* key, uint64_t v) { Raw(key, std::to_string(v)); }
  void Bool(const char* key, bool v) { Raw(key, v ? "true" : "false"); }
  void Raw(const char* key, const std::string& json) {
    out_ += out_.empty() ? "{" : ",";
    out_ += "\"";
    out_ += key;
    out_ += "\":";
    out_ += json;
  }
  std::string Close() const { return out_.empty() ? "{}" : out_ + "}"; }

 private:
  std::string out_;
};

// --- Replays and probes ------------------------------------------------------

using Chain = std::vector<BlockPtr>;

/// Replica 0's committed chain without genesis: the run's exact inputs.
Chain CommittedChain(Experiment& exp) {
  const Chain& all = exp.replicas()[0]->ledger().committed_chain();
  return Chain(all.begin() + 1, all.end());
}

Hash256 PrepareDigest(const Block& b) {
  return VoteDigest(CertKind::kPrepare, b.view(), b.id(), b.hash());
}

std::vector<Signature> SignAll(const KeyRegistry& reg, uint32_t count,
                               const Hash256& digest) {
  std::vector<Signature> sigs;
  sigs.reserve(count);
  for (ReplicaId r = 0; r < count; ++r) {
    sigs.push_back(Signer(&reg, r).Sign(SignDomain::kProposeVote, digest));
  }
  return sigs;
}

// Steady-state lower bound of the run's crypto: every committed block gets n
// signed-and-verified votes and n verifications of its n-f certificate.
// Returns false if any verification fails.
bool ReplayCrypto(const KeyRegistry& reg, uint32_t n, const Chain& chain) {
  const uint32_t quorum = n - (n - 1) / 3;
  bool ok = true;
  for (const BlockPtr& b : chain) {
    const Hash256 digest = PrepareDigest(*b);
    std::vector<Signature> sigs;
    sigs.reserve(n);
    for (ReplicaId r = 0; r < n; ++r) {
      sigs.push_back(Signer(&reg, r).Sign(SignDomain::kProposeVote, digest));
      ok &= reg.Verify(sigs.back(), SignDomain::kProposeVote, digest);
    }
    sigs.resize(quorum);
    const Certificate cert(CertKind::kPrepare, b->id(), b->hash(), b->view(),
                           std::move(sigs));
    for (uint32_t r = 0; r < n; ++r) ok &= cert.Verify(reg, quorum).ok();
  }
  return ok;
}

// Re-executes the committed chain into n fresh states the way replicas hold
// them, interleaved block by block: one hot-cache state would read about half
// the real cost. Each block keeps an undo log, as speculative execution does.
std::vector<KvState> ReplayLedger(uint32_t n, const Chain& chain) {
  std::vector<KvState> states(n);
  for (KvState& s : states) s.Reserve(1 << 16);
  KvState::UndoLog undo;
  for (const BlockPtr& b : chain) {
    for (KvState& s : states) {
      undo.clear();
      for (const Transaction& txn : b->txns()) s.ApplyTxn(txn, &undo);
    }
  }
  return states;
}

double NsPer(Clock::time_point start, uint64_t ops) {
  const double ns =
      std::chrono::duration<double, std::nano>(Clock::now() - start).count();
  return ops == 0 ? 0 : ns / static_cast<double>(ops);
}

struct Probes {
  double sign_ns = 0;
  double cert_verify_us = 0;
  double undo_ns = 0;
  double gen_ns = 0;
  bool ok = true;
};

// Single-call costs at this workload's input shape, over the run's inputs.
Probes RunProbes(const ExperimentConfig& cfg, const KeyRegistry& reg,
                 const Chain& chain, uint64_t seed, SpanLog& spans) {
  Probes p;
  const uint32_t n = cfg.n;
  const uint32_t quorum = n - (n - 1) / 3;
  std::vector<Hash256> digests;
  for (const BlockPtr& b : chain) digests.push_back(PrepareDigest(*b));
  if (digests.empty()) digests.push_back(PrepareDigest(*Block::Genesis()));

  spans.Time("probe.sign", "layers", [&] {
    constexpr uint64_t kSigns = 20'000;
    std::vector<Signature> sigs;
    sigs.reserve(kSigns);
    const auto start = Clock::now();
    for (uint64_t i = 0; i < kSigns; ++i) {
      sigs.push_back(Signer(&reg, static_cast<ReplicaId>(i % n))
                         .Sign(SignDomain::kProposeVote, digests[i % digests.size()]));
    }
    p.sign_ns = NsPer(start, kSigns);
    p.ok &= reg.Verify(sigs.back(), SignDomain::kProposeVote,
                       digests[(kSigns - 1) % digests.size()]);
  });

  spans.Time("probe.cert_verify", "layers", [&] {
    const uint64_t certs = std::min<uint64_t>(digests.size(), 64);
    std::vector<Certificate> batch;
    for (uint64_t i = 0; i < certs; ++i) {
      const Block& b = chain.empty() ? *Block::Genesis() : *chain[i];
      batch.emplace_back(CertKind::kPrepare, b.id(), b.hash(), b.view(),
                         SignAll(reg, quorum, digests[i]));
    }
    constexpr int kRounds = 4;
    const auto start = Clock::now();
    for (int r = 0; r < kRounds; ++r) {
      for (const Certificate& c : batch) p.ok &= c.Verify(reg, quorum).ok();
    }
    p.cert_verify_us = NsPer(start, certs * kRounds) / 1e3;
  });

  spans.Time("probe.undo", "layers", [&] {
    KvState state;
    state.Reserve(1 << 16);
    uint64_t undone = 0;
    double ns = 0;
    for (const BlockPtr& b : chain) {
      KvState::UndoLog log;
      for (const Transaction& txn : b->txns()) state.ApplyTxn(txn, &log);
      const auto start = Clock::now();
      state.Undo(log);
      ns += NsPer(start, 1);
      undone += b->txns().size();
      if (undone >= 20'000) break;
    }
    p.undo_ns = undone == 0 ? 0 : ns / static_cast<double>(undone);
    p.ok &= state.size() == 0;  // every block was undone back to empty
  });

  spans.Time("probe.gen", "layers", [&] {
    std::unique_ptr<Workload> wl;
    if (cfg.workload == WorkloadKind::kTpcc) {
      wl = std::make_unique<TpccWorkload>(cfg.tpcc);
    } else {
      wl = std::make_unique<YcsbWorkload>(cfg.ycsb);
    }
    Rng rng(seed);
    constexpr uint64_t kTxns = 20'000;
    uint64_t ops = 0;
    const auto start = Clock::now();
    for (uint64_t i = 0; i < kTxns; ++i) ops += wl->Generate(&rng).ops.size();
    p.gen_ns = NsPer(start, kTxns);
    p.ok &= ops > 0;
  });
  return p;
}

// --- One point ----------------------------------------------------------------

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  bool trace = false;
  bool smoke = false;
};

bool ParseFlags(int argc, char** argv, Flags* f) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix, std::string* out) {
      const size_t len = std::strlen(prefix);
      if (arg.compare(0, len, prefix) != 0) return false;
      *out = arg.substr(len);
      return true;
    };
    std::string v;
    char* end = nullptr;
    if (value("--workload=", &v)) {
      f->workload = v;
    } else if (value("--seed=", &v)) {
      f->seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') return false;
    } else if (arg == "--trace") {
      f->trace = true;
    } else if (arg == "--smoke") {
      f->smoke = true;
    } else {
      return false;
    }
  }
  return !f->workload.empty();
}

int Main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    std::fprintf(stderr,
                 "usage: hs1perf --workload=NAME --seed=N [--trace] [--smoke]\n");
    return 2;
  }
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : kWorkloads) {
    if (flags.workload == w.name) def = &w;
  }
  if (def == nullptr) {
    std::fprintf(stderr, "hs1perf: unknown workload '%s'\n", flags.workload.c_str());
    return 2;
  }
  ExperimentConfig cfg = def->make();
  cfg.seed = flags.seed;
  if (flags.smoke) ShrinkForSmoke(cfg);

  SpanLog spans;
  std::unique_ptr<Experiment> exp;
  ExperimentResult res;
  LatencyRecorder lat;
  double p50 = 0, p99 = 0, p999 = 0;
  double setup_s = 0, run_s = 0, collect_s = 0, teardown_s = 0;
  double layers_s = 0, crypto_s = 0, ledger_s = 0;
  bool crypto_ok = true, ledger_ok = true;
  Probes probes;
  Chain chain;
  uint64_t timeouts = 0, votes = 0, proposed = 0, committed = 0, state_keys = 0,
           blocks_stored = 0;

  const double point_s = spans.Time("point", "", [&] {
    exp = std::make_unique<Experiment>(cfg);
    setup_s = spans.Time("setup", "point", [&] { exp->Setup(); });
    run_s = spans.Time("run", "point", [&] { res = exp->Run(); });
    collect_s = spans.Time("collect", "point", [&] {
      lat = exp->clients().latencies();
      p50 = lat.PercentileMs(0.50);
      p99 = lat.PercentileMs(0.99);
      p999 = lat.PercentileMs(0.999);
    });
    for (const auto& r : exp->replicas()) {
      const ReplicaMetrics& m = r->metrics();
      timeouts += m.timeouts;
      votes += m.votes_sent;
      proposed += m.blocks_proposed;
      blocks_stored += r->store().size();
    }
    committed = exp->replicas()[0]->metrics().blocks_committed;
    state_keys = exp->replicas()[0]->ledger().state().size();
    if (flags.trace) {
      // Subtracted from the point: the replays are a separate measurement.
      layers_s = spans.Time("layers", "point", [&] {
        chain = CommittedChain(*exp);
        crypto_s = spans.Time("replay.crypto", "layers", [&] {
          crypto_ok = ReplayCrypto(exp->registry(), cfg.n, chain);
        });
        std::vector<KvState> states;
        ledger_s = spans.Time("replay.ledger", "layers",
                              [&] { states = ReplayLedger(cfg.n, chain); });
        for (const KvState& s : states) {
          ledger_ok &= s.Fingerprint() == states[0].Fingerprint();
        }
        probes = RunProbes(cfg, exp->registry(), chain, flags.seed, spans);
      });
    }
    teardown_s = spans.Time("teardown", "point", [&] { exp.reset(); });
  });

  JsonObject out;
  out.Raw("workload", "\"" + flags.workload + "\"");
  out.Count("seed", flags.seed);
  // Deterministic digest: identical across repeats and executor shapes.
  JsonObject digest;
  digest.Count("events", res.events_processed);
  digest.Count("accepted", res.accepted);
  digest.Count("committed_txns", res.committed_txns);
  digest.Count("views", res.views);
  digest.Count("messages", res.messages_sent);
  digest.Count("bytes", res.bytes_sent);
  digest.Num("p50_ms", p50);
  digest.Num("p99_ms", p99);
  digest.Num("p999_ms", p999);
  digest.Count("rollbacks", res.rollback_events);
  digest.Count("resubmissions", res.resubmissions);
  digest.Count("backlog", res.backlog);
  out.Raw("digest", digest.Close());

  JsonObject checks;
  checks.Bool("safety_ok", res.safety_ok);
  checks.Bool("event_cap_hit", res.event_cap_hit);
  checks.Count("oracle_violations", res.oracle_violations);
  checks.Count("liveness_violations", res.liveness_violations);
  checks.Bool("quantiles_match", p50 == res.p50_latency_ms &&
                                     p99 == res.p99_latency_ms &&
                                     p999 == res.p999_latency_ms);
  if (flags.trace) {
    checks.Bool("crypto_replay_ok", crypto_ok && probes.ok);
    checks.Bool("ledger_replay_ok", ledger_ok);
  }
  out.Raw("checks", checks.Close());

  JsonObject times;
  times.Num("setup_s", setup_s);
  times.Num("run_s", run_s);
  times.Num("collect_s", collect_s);
  times.Num("teardown_s", teardown_s);
  times.Num("wall_s", point_s - layers_s);  // construction through destruction
  out.Raw("times", times.Close());

  JsonObject counts;
  counts.Count("timeouts", timeouts);
  counts.Count("votes", votes);
  counts.Count("blocks_proposed", proposed);
  counts.Count("blocks_committed", committed);
  counts.Count("state_keys", state_keys);
  counts.Count("blocks_stored", blocks_stored);
  counts.Count("accepted_speculative", res.accepted_speculative);
  out.Raw("counts", counts.Close());

  if (flags.trace) {
    JsonObject layers;
    layers.Num("crypto_replay_s", crypto_s);
    layers.Num("ledger_replay_s", ledger_s);
    layers.Num("sign_ns", probes.sign_ns);
    layers.Num("cert_verify_us", probes.cert_verify_us);
    layers.Num("undo_ns", probes.undo_ns);
    layers.Num("gen_ns", probes.gen_ns);
    out.Raw("layers", layers.Close());

    std::string list = "[";
    for (const Span& s : spans.spans()) {
      JsonObject js;
      js.Raw("name", std::string("\"") + s.name + "\"");
      js.Raw("parent", std::string("\"") + s.parent + "\"");
      js.Num("ts_us", s.start_us);
      js.Num("dur_us", s.dur_us);
      list += (list.size() > 1 ? "," : "") + js.Close();
    }
    out.Raw("spans", list + "]");
  }
  std::printf("%s\n", out.Close().c_str());
  return 0;
}

}  // namespace
}  // namespace hotstuff1

int main(int argc, char** argv) { return hotstuff1::Main(argc, argv); }
