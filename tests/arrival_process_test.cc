// Statistical property tests for the open-loop arrival processes
// (client/arrival.h). Every sequence is a pure function of (config, rate,
// seed), so these are *fixed* assertions on *fixed* streams — the tolerances
// are sized from confidence intervals (3-4 sigma for the chosen sample
// counts), but a failure is always a code change, never sampling noise.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "client/arrival.h"

namespace hotstuff1 {
namespace {

std::vector<SimTime> Draw(ArrivalSequence& seq, size_t count) {
  std::vector<SimTime> times;
  times.reserve(count);
  for (size_t i = 0; i < count; ++i) times.push_back(seq.Next());
  return times;
}

// Empirical rate (arrivals per second) over the stream's own span.
double EmpiricalTps(const std::vector<SimTime>& times) {
  return static_cast<double>(times.size()) / ToSeconds(times.back());
}

TEST(ArrivalProcessTest, SequencesAreSeedDeterministic) {
  for (ArrivalKind kind : {ArrivalKind::kPoisson, ArrivalKind::kBursty,
                           ArrivalKind::kDiurnal, ArrivalKind::kFlashCrowd}) {
    ArrivalConfig cfg;
    cfg.kind = kind;
    ArrivalSequence a(cfg, 50'000, 7);
    ArrivalSequence b(cfg, 50'000, 7);
    ArrivalSequence c(cfg, 50'000, 8);
    const auto ta = Draw(a, 5'000);
    const auto tb = Draw(b, 5'000);
    const auto tc = Draw(c, 5'000);
    EXPECT_EQ(ta, tb) << ArrivalKindName(kind);
    EXPECT_NE(ta, tc) << ArrivalKindName(kind);
  }
}

TEST(ArrivalProcessTest, TimesAreNonDecreasing) {
  for (ArrivalKind kind : {ArrivalKind::kPoisson, ArrivalKind::kBursty,
                           ArrivalKind::kDiurnal, ArrivalKind::kFlashCrowd}) {
    ArrivalConfig cfg;
    cfg.kind = kind;
    ArrivalSequence seq(cfg, 200'000, 11);
    SimTime prev = 0;
    for (int i = 0; i < 50'000; ++i) {
      const SimTime t = seq.Next();
      ASSERT_GE(t, prev) << ArrivalKindName(kind) << " at draw " << i;
      prev = t;
    }
  }
}

TEST(ArrivalProcessTest, PoissonRateMatchesConfigured) {
  // 100k arrivals: the empirical rate estimator has relative sigma
  // 1/sqrt(N) ~ 0.32%; 1% tolerance is > 3 sigma.
  ArrivalConfig cfg;
  cfg.kind = ArrivalKind::kPoisson;
  ArrivalSequence seq(cfg, 50'000, 42);
  const auto times = Draw(seq, 100'000);
  EXPECT_NEAR(EmpiricalTps(times), 50'000, 500);
}

TEST(ArrivalProcessTest, PoissonInterArrivalCvIsOne) {
  // Exponential gaps have CV = 1 exactly. A low rate keeps the mean gap
  // (1000us) far above the 1us ceil granularity, so rounding cannot bias
  // the estimate; 100k samples put the CV estimator sigma near 0.3%.
  ArrivalConfig cfg;
  cfg.kind = ArrivalKind::kPoisson;
  ArrivalSequence seq(cfg, 1'000, 42);
  const auto times = Draw(seq, 100'000);
  double sum = 0, sum2 = 0;
  SimTime prev = 0;
  for (SimTime t : times) {
    const double gap = static_cast<double>(t - prev);
    sum += gap;
    sum2 += gap * gap;
    prev = t;
  }
  const double n = static_cast<double>(times.size());
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  const double cv = std::sqrt(var) / mean;
  EXPECT_NEAR(cv, 1.0, 0.02);
}

// Index of dispersion of windowed counts: 1 for Poisson, substantially
// above 1 for a process with on/off structure at the window scale.
double DispersionIndex(const std::vector<SimTime>& times, SimTime window) {
  // Full windows only: the trailing partial window would read as a fake
  // near-empty count and inflate the index even for a perfect Poisson.
  const size_t full = static_cast<size_t>(times.back() / window);
  std::vector<uint64_t> counts(full, 0);
  for (SimTime t : times) {
    const size_t idx = static_cast<size_t>(t / window);
    if (idx < full) ++counts[idx];
  }
  double sum = 0, sum2 = 0;
  for (uint64_t c : counts) {
    sum += static_cast<double>(c);
    sum2 += static_cast<double>(c) * static_cast<double>(c);
  }
  const double n = static_cast<double>(counts.size());
  const double mean = sum / n;
  return (sum2 / n - mean * mean) / mean;
}

TEST(ArrivalProcessTest, BurstyPreservesLongRunRateAndIsOverdispersed) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalKind::kBursty;
  cfg.burst_duty = 0.3;
  cfg.burst_on_mean = Millis(20);
  ArrivalSequence seq(cfg, 50'000, 42);
  // The rate estimator's variance is dominated by the number of ON/OFF
  // cycles realized, not the arrival count: a 1M-arrival stream spans ~300
  // cycles of ~67ms, putting the estimator sigma near 6% — the 15% band is
  // > 2 sigma while still rejecting e.g. a stream running at the ON rate
  // (3.3x) or at duty*lambda (0.3x).
  const auto times = Draw(seq, 1'000'000);
  EXPECT_NEAR(EmpiricalTps(times), 50'000, 7'500);
  // At the sojourn scale (5ms windows vs 20ms ON / ~47ms OFF sojourns) the
  // counts are strongly overdispersed; a Poisson stream of the same rate
  // sits at 1.0 +- a few percent.
  EXPECT_GT(DispersionIndex(times, Millis(5)), 3.0);

  ArrivalConfig pcfg;
  pcfg.kind = ArrivalKind::kPoisson;
  ArrivalSequence poisson(pcfg, 50'000, 42);
  EXPECT_LT(DispersionIndex(Draw(poisson, 200'000), Millis(5)), 1.1);
}

TEST(ArrivalProcessTest, BurstyDutyCycleMatchesConfig) {
  // Reconstruct the ON fraction from the stream itself: with an ON rate of
  // lambda/duty = 167/ms, any 1ms window holding arrivals is almost surely
  // ON. The expected busy fraction is the duty cycle (0.3), up to boundary
  // effects at sojourn edges — a generous +-0.05 band is still far tighter
  // than the 0.3 vs 1.0 gap that distinguishes bursty from Poisson.
  ArrivalConfig cfg;
  cfg.kind = ArrivalKind::kBursty;
  cfg.burst_duty = 0.3;
  cfg.burst_on_mean = Millis(20);
  ArrivalSequence seq(cfg, 50'000, 42);
  const auto times = Draw(seq, 200'000);
  std::vector<bool> busy(static_cast<size_t>(times.back() / Millis(1)) + 1, false);
  for (SimTime t : times) busy[static_cast<size_t>(t / Millis(1))] = true;
  double on = 0;
  for (bool b : busy) on += b ? 1 : 0;
  EXPECT_NEAR(on / static_cast<double>(busy.size()), 0.3, 0.05);
}

TEST(ArrivalProcessTest, DiurnalPeakToTroughFollowsAmplitude) {
  // lambda(t) = base * (1 + 0.75 sin(2 pi t / period)): the first quarter of
  // each period is centered on the sine peak (rate up to 1.75x) and the
  // third quarter on the trough (down to 0.25x). Integrated over the
  // quarters the expected count ratio is
  // (1 + 1.5/pi) / (1 - 1.5/pi) ~ 2.8; requiring > 2 rejects any flat or
  // weakly-modulated stream while leaving > 4 sigma of margin.
  ArrivalConfig cfg;
  cfg.kind = ArrivalKind::kDiurnal;
  cfg.diurnal_period = Millis(400);
  cfg.diurnal_amplitude = 0.75;
  ArrivalSequence seq(cfg, 50'000, 42);
  const auto times = Draw(seq, 200'000);
  EXPECT_NEAR(EmpiricalTps(times), 50'000, 1'500);
  uint64_t peak_quarter = 0, trough_quarter = 0;
  for (SimTime t : times) {
    const SimTime phase = t % cfg.diurnal_period;
    if (phase < cfg.diurnal_period / 4) ++peak_quarter;
    if (phase >= cfg.diurnal_period / 2 && phase < 3 * cfg.diurnal_period / 4) {
      ++trough_quarter;
    }
  }
  EXPECT_GT(static_cast<double>(peak_quarter),
            2.0 * static_cast<double>(trough_quarter));
}

TEST(ArrivalProcessTest, FlashCrowdRampAndDecay) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalKind::kFlashCrowd;
  cfg.flash_start = Millis(400);
  cfg.flash_rise = Millis(30);
  cfg.flash_decay = Millis(150);
  cfg.flash_peak = 6.0;
  ArrivalSequence seq(cfg, 50'000, 42);
  // ~20k baseline arrivals to flash_start, ~40k extra through the crowd,
  // then baseline again: 150k draws span well past the decay tail.
  const auto times = Draw(seq, 150'000);
  ASSERT_GT(times.back(), Millis(1'600));

  auto rate_in = [&](SimTime lo, SimTime hi) {
    uint64_t count = 0;
    for (SimTime t : times) count += (t >= lo && t < hi) ? 1 : 0;
    return static_cast<double>(count) / ToSeconds(hi - lo);
  };
  const double before = rate_in(Millis(100), Millis(400));
  const double at_peak = rate_in(Millis(430), Millis(460));
  const double recovered = rate_in(Millis(1'300), Millis(1'600));
  // Baseline before the flash; ~6x baseline right after the ramp tops out
  // (the first 30ms past the ramp sees the decay fall only to ~5x); decayed
  // back to within ~25% of baseline after 4+ time constants.
  EXPECT_NEAR(before, 50'000, 2'500);
  EXPECT_GT(at_peak, 4.0 * before);
  EXPECT_LT(at_peak, 7.0 * before);
  EXPECT_NEAR(recovered, 50'000, 12'500);
}

}  // namespace
}  // namespace hotstuff1
