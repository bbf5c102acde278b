// Open-loop arrival processes for the client pool. A closed-loop pool (the
// paper-fidelity default) regulates itself: each client submits the next
// transaction only after the previous one is accepted, so offered load can
// never exceed service capacity. Production BFT deployments are not so
// polite — they are driven by an *open-loop* superposition of millions of
// thin client streams whose aggregate arrival rate is set by the outside
// world. This header models that aggregate as a per-client-group point
// process:
//
//   * kPoisson     — constant-rate Poisson arrivals (exponential gaps), the
//                    limit of many independent clients;
//   * kBursty      — MMPP-style on/off modulation: exponential ON/OFF
//                    sojourns, Poisson at rate lambda/duty while ON, silent
//                    while OFF (same long-run rate, burstier short-run);
//   * kDiurnal     — sinusoidal rate modulation lambda(t) = lambda *
//                    (1 + a*sin(2*pi*t/period)), sampled by thinning;
//   * kFlashCrowd  — baseline Poisson until flash_start, then a linear ramp
//                    to peak*lambda over flash_rise followed by exponential
//                    decay back to baseline (thinning against peak*lambda).
//
// Determinism: every draw comes from the sequence's own Rng, so the arrival
// times are a pure function of (config, rate, seed) — independent of
// executor shape, like everything else in the simulator.

#ifndef HOTSTUFF1_CLIENT_ARRIVAL_H_
#define HOTSTUFF1_CLIENT_ARRIVAL_H_

#include <cstdint>

#include "common/random.h"
#include "common/units.h"

namespace hotstuff1 {

enum class ArrivalKind : uint32_t {
  kClosedLoop = 0,  // no generator: the classic one-outstanding-txn pool
  kPoisson = 1,
  kBursty = 2,
  kDiurnal = 3,
  kFlashCrowd = 4,
};

/// "closed" / "poisson" / "bursty" / "diurnal" / "flash" (the --arrival
/// spellings).
const char* ArrivalKindName(ArrivalKind kind);

struct ArrivalConfig {
  ArrivalKind kind = ArrivalKind::kClosedLoop;
  /// Aggregate target arrival rate (txn/s) across the whole pool; each of G
  /// client groups runs an independent sequence at offered_load_tps / G
  /// (superposing independent Poisson streams is again Poisson).
  double offered_load_tps = 50'000;

  // kBursty: fraction of time spent ON and the mean ON-sojourn length; the
  // OFF mean is derived so the long-run duty cycle equals burst_duty, and
  // the ON rate is offered_load / duty so the long-run rate is preserved.
  double burst_duty = 0.3;
  SimTime burst_on_mean = Millis(20);

  // kDiurnal: modulation period and relative amplitude in [0, 1).
  SimTime diurnal_period = Millis(400);
  double diurnal_amplitude = 0.75;

  // kFlashCrowd: quiet until flash_start, ramp to flash_peak x baseline over
  // flash_rise, exponential decay (time constant flash_decay) afterwards.
  SimTime flash_start = Millis(400);
  SimTime flash_rise = Millis(30);
  SimTime flash_decay = Millis(150);
  double flash_peak = 6.0;
};

inline bool operator==(const ArrivalConfig& a, const ArrivalConfig& b) {
  return a.kind == b.kind && a.offered_load_tps == b.offered_load_tps &&
         a.burst_duty == b.burst_duty && a.burst_on_mean == b.burst_on_mean &&
         a.diurnal_period == b.diurnal_period &&
         a.diurnal_amplitude == b.diurnal_amplitude &&
         a.flash_start == b.flash_start && a.flash_rise == b.flash_rise &&
         a.flash_decay == b.flash_decay && a.flash_peak == b.flash_peak;
}
inline bool operator!=(const ArrivalConfig& a, const ArrivalConfig& b) {
  return !(a == b);
}

/// \brief One group's deterministic arrival-time stream.
///
/// Next() returns successive absolute arrival times (microseconds from t=0),
/// non-decreasing; sub-microsecond gaps collapse onto the same tick. The
/// internal clock is a double so rates above 1 arrival/us stay accurate.
class ArrivalSequence {
 public:
  /// `rate_tps` is this sequence's own rate (the pool passes the per-group
  /// share of the aggregate offered load). Must be > 0; `cfg.kind` must not
  /// be kClosedLoop.
  ArrivalSequence(const ArrivalConfig& cfg, double rate_tps, uint64_t seed);

  /// Absolute time of the next arrival.
  SimTime Next();

 private:
  /// Exponential inter-arrival draw, rate in arrivals per microsecond.
  double ExpGap(double rate_per_us);
  /// Instantaneous rate for the thinned processes (kDiurnal, kFlashCrowd).
  double RateAt(double t_us) const;

  ArrivalConfig cfg_;
  double base_rate_us_ = 0;  // arrivals per microsecond
  double peak_rate_us_ = 0;  // thinning envelope (>= RateAt everywhere)
  Rng rng_;
  double t_ = 0;

  // kBursty state machine.
  bool on_ = false;
  double state_end_us_ = 0;
};

}  // namespace hotstuff1

#endif  // HOTSTUFF1_CLIENT_ARRIVAL_H_
