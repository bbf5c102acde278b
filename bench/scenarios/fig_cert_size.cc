// Authenticator size crossover: certificate scheme x committee size. The
// paper's implementation note (§7) ships certificates as the literal vector
// of n-f signatures — O(n) bytes — where production systems aggregate into
// one BLS point (O(1) + a signer bitmap) or a threshold signature (O(1)).
// This sweep charges each scheme's real byte shapes through the bandwidth
// model (crypto/authenticator.h) and reports wire bytes per committed
// block, so the crossover is directly visible: the vector column grows
// linearly with n while aggregate/threshold stay flat, and past n≈128 the
// O(n^2) leader egress of vector certificates starts costing throughput.
//
// Columns are the scheme axis, so the --cert-scheme CLI override is
// ignored here (respect-the-axis rule); protocol is fixed to streamlined
// HotStuff-1 — the scheme story is protocol-independent and one core keeps
// the sweep cheap at n = 512. docs/cost-model.md derives the formulas.

#include "runtime/scenario.h"

namespace hotstuff1 {
namespace {

double WireBytesPerBlock(const ExperimentResult& r) {
  return r.committed_blocks == 0 ? 0.0
                                 : static_cast<double>(r.bytes_sent) /
                                       static_cast<double>(r.committed_blocks);
}

// Every point commits, and the crossover shows in the data: at n = 512 the
// vector certificates cost more than ten times the aggregate encoding's
// wire bytes per block.
std::vector<std::string> CrossoverJudge(const std::vector<SweepPoint>& points,
                                        const std::vector<ExperimentResult>& results) {
  std::vector<std::string> failures = EveryPointAccepts(points, results);
  double vector = 0, aggregate = 0;
  for (size_t i = 0; i < points.size(); ++i) {
    const ExperimentConfig& c = points[i].config;
    if (c.n != 512) continue;
    if (c.cert_scheme == CertScheme::kMultisigVector) vector = WireBytesPerBlock(results[i]);
    if (c.cert_scheme == CertScheme::kAggregate) aggregate = WireBytesPerBlock(results[i]);
  }
  if (!(aggregate > 0 && vector > 10 * aggregate)) {
    failures.push_back("at n=512 vector certificates cost " +
                       std::to_string(static_cast<uint64_t>(vector)) +
                       " wire bytes/block against " +
                       std::to_string(static_cast<uint64_t>(aggregate)) +
                       " for aggregate; the claim is more than 10x, aggregate > 0");
  }
  return failures;
}

ScenarioSpec FigCertSize() {
  ScenarioSpec spec;
  spec.name = "fig_cert_size";
  spec.title =
      "Certificate size: multisig vector vs aggregate vs threshold (HS-1, "
      "LAN, batch=100)";
  spec.description =
      "wire bytes/block and throughput vs cert scheme x n = 32..512";
  spec.row_name = "n";

  spec.base.protocol = ProtocolKind::kHotStuff1;
  spec.base.batch_size = 100;
  spec.base.duration = Millis(400);
  spec.base.warmup = Millis(150);
  spec.base.seed = 2024;
  spec.mode = RunMode::kSingle;

  for (uint32_t n : {32u, 64u, 128u, 256u, 512u}) {
    spec.rows.push_back(
        {std::to_string(n), [n](ExperimentConfig& c) {
           c.n = n;
           // Same timer scaling as fig8_scalability_xl: keep big committees
           // timeout-free so the bytes/block column measures certificate
           // shapes, not view-change churn.
           if (n > 128) {
             c.delta = Millis(1) + Micros(16 * n);
             c.view_timer = Millis(10) + 4 * c.delta;
           }
         }});
  }
  for (CertScheme scheme : {CertScheme::kMultisigVector, CertScheme::kAggregate,
                            CertScheme::kThreshold}) {
    spec.cols.push_back({CertSchemeName(scheme), [scheme](ExperimentConfig& c) {
                           c.cert_scheme = scheme;
                         }});
  }
  spec.metrics = {CountMetric("wire_bytes_per_block", WireBytesPerBlock),
                  ThroughputMetric()};
  // Smoke keeps the endpoints (n = 32 and 512) for all three schemes; the
  // n = 512 epoch-0 sync needs more than the default 120 ms window (see
  // fig8_scalability_xl).
  spec.smoke = [](ExperimentConfig& c) {
    c.duration = Millis(160);
    c.warmup = Millis(60);
    c.num_clients = 2 * c.batch_size;
  };
  spec.judge = CrossoverJudge;
  return spec;
}

HS1_REGISTER_SCENARIO(FigCertSize);

}  // namespace
}  // namespace hotstuff1
