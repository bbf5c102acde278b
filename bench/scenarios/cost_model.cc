// Cost-model sensitivity: the virtual CPU axes of ConsensusConfig::costs
// that no other scenario sweeps. The table axis is two-dimensional —
// per-transaction execution cost (the paper's 0.5us YCSB calibration vs a
// 10x heavier state machine) x crypto shape ("sym" sweeps sign and verify
// together, ECDSA-style; "bls" is the asymmetric regime of aggregate
// schemes: expensive signing, cheap verification). Each crypto shape also
// carries its matching authenticator *size* model (crypto/authenticator.h):
// "sym" ships the §7 multisig vector (O(n) certificate bytes), "bls" the
// aggregate encoding (O(1) + signer bitmap) — so the time and byte costs of
// a regime move together, as they do in real systems. Rows scale the crypto
// base costs by 1x/4x/16x, so each table shows how throughput decays as its
// crypto regime slows down.
//
// Expected shape: crypto cost hits the leader-bound protocols hardest (the
// leader verifies n-1 shares per certificate), so under "sym" throughput at
// the slow point decays with n-f; under "bls" the verify side stays cheap
// and the decay flattens — the certificate-verification bottleneck, not raw
// signing, is what separates the protocols. Execution cost shifts every
// protocol down by about batch x per_txn_exec_us per block but preserves
// the latency ordering, since speculation saves half-phases, not execution
// time.

#include <cstdio>

#include "runtime/scenario.h"

namespace hotstuff1 {
namespace {

ScenarioSpec CostModel() {
  ScenarioSpec spec;
  spec.name = "cost_model";
  spec.title = "Cost model sensitivity (n=32, LAN, YCSB, batch=100)";
  spec.description =
      "throughput and latency vs exec cost x crypto shape (sym / BLS-asymmetric)";
  spec.table_name = "exec_us/crypto";
  spec.row_name = "crypto_scale";

  spec.base.n = 32;
  spec.base.batch_size = 100;
  spec.base.duration = Millis(600);
  spec.base.warmup = Millis(200);
  spec.base.seed = 2024;

  struct Shape {
    const char* label;
    SimTime sign_us;
    SimTime verify_us;
    CertScheme scheme;
  };
  // Base (1x) costs per crypto regime; rows multiply both. The byte model
  // rides along: symmetric crypto means vector certificates, BLS-shaped
  // crypto means aggregate ones.
  constexpr Shape kShapes[] = {{"sym", 3, 4, CertScheme::kMultisigVector},
                               {"bls", 12, 1, CertScheme::kAggregate}};
  for (double exec_us : {0.5, 5.0}) {
    for (const Shape shape : kShapes) {
      char label[32];
      std::snprintf(label, sizeof(label), "%g/%s", exec_us, shape.label);
      spec.tables.push_back({label, [exec_us, shape](ExperimentConfig& c) {
                               c.costs.per_txn_exec_us = exec_us;
                               c.costs.sign_us = shape.sign_us;
                               c.costs.verify_us = shape.verify_us;
                               c.cert_scheme = shape.scheme;
                             }});
    }
  }
  for (const SimTime scale : {SimTime{1}, SimTime{4}, SimTime{16}}) {
    char label[16];
    std::snprintf(label, sizeof(label), "%lldx", static_cast<long long>(scale));
    spec.rows.push_back({label, [scale](ExperimentConfig& c) {
      c.costs.sign_us *= scale;
      c.costs.verify_us *= scale;
      // Slow crypto stretches every protocol step (a leader verifies ~n-f
      // shares per certificate and every replica signs once); keep Delta and
      // the view timer above the slowed round trip so measurements are not
      // dominated by timeouts.
      c.delta = Millis(1) +
                Micros(40 * c.costs.verify_us + 2 * c.costs.sign_us);
      c.view_timer = Millis(10) + 4 * c.delta;
    }});
  }
  spec.cols = PaperProtocolAxis();
  spec.metrics = {ThroughputMetric(), AvgLatencyMetric()};
  // The timer scaling above must keep even 16x crypto committing.
  spec.judge = EveryPointAccepts;
  return spec;
}

HS1_REGISTER_SCENARIO(CostModel);

}  // namespace
}  // namespace hotstuff1
