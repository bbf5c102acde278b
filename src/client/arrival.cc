#include "client/arrival.h"

#include <cmath>

#include "common/logging.h"

namespace hotstuff1 {

const char* ArrivalKindName(ArrivalKind kind) {
  switch (kind) {
    case ArrivalKind::kClosedLoop: return "closed";
    case ArrivalKind::kPoisson: return "poisson";
    case ArrivalKind::kBursty: return "bursty";
    case ArrivalKind::kDiurnal: return "diurnal";
    case ArrivalKind::kFlashCrowd: return "flash";
  }
  return "?";
}

ArrivalSequence::ArrivalSequence(const ArrivalConfig& cfg, double rate_tps,
                                 uint64_t seed)
    : cfg_(cfg), rng_(seed) {
  HS1_CHECK(cfg.kind != ArrivalKind::kClosedLoop)
      << "closed-loop pools have no arrival sequence";
  HS1_CHECK(rate_tps > 0) << "arrival rate must be positive";
  base_rate_us_ = rate_tps / 1e6;
  switch (cfg_.kind) {
    case ArrivalKind::kBursty:
      HS1_CHECK(cfg_.burst_duty > 0 && cfg_.burst_duty <= 1.0);
      HS1_CHECK(cfg_.burst_on_mean > 0);
      break;
    case ArrivalKind::kDiurnal:
      HS1_CHECK(cfg_.diurnal_amplitude >= 0 && cfg_.diurnal_amplitude < 1.0);
      HS1_CHECK(cfg_.diurnal_period > 0);
      peak_rate_us_ = base_rate_us_ * (1.0 + cfg_.diurnal_amplitude);
      break;
    case ArrivalKind::kFlashCrowd:
      HS1_CHECK(cfg_.flash_peak >= 1.0);
      HS1_CHECK(cfg_.flash_rise > 0 && cfg_.flash_decay > 0);
      peak_rate_us_ = base_rate_us_ * cfg_.flash_peak;
      break;
    default:
      break;
  }
}

double ArrivalSequence::ExpGap(double rate_per_us) {
  // NextDouble() is uniform in [0, 1); 1-u is in (0, 1], so the log argument
  // never hits zero and the gap is finite.
  return -std::log(1.0 - rng_.NextDouble()) / rate_per_us;
}

double ArrivalSequence::RateAt(double t_us) const {
  switch (cfg_.kind) {
    case ArrivalKind::kDiurnal: {
      constexpr double kTwoPi = 6.283185307179586;
      const double phase = kTwoPi * t_us / static_cast<double>(cfg_.diurnal_period);
      return base_rate_us_ * (1.0 + cfg_.diurnal_amplitude * std::sin(phase));
    }
    case ArrivalKind::kFlashCrowd: {
      const double start = static_cast<double>(cfg_.flash_start);
      if (t_us < start) return base_rate_us_;
      const double rise_end = start + static_cast<double>(cfg_.flash_rise);
      const double extra = cfg_.flash_peak - 1.0;
      if (t_us < rise_end) {
        const double frac = (t_us - start) / static_cast<double>(cfg_.flash_rise);
        return base_rate_us_ * (1.0 + extra * frac);
      }
      const double decay =
          std::exp(-(t_us - rise_end) / static_cast<double>(cfg_.flash_decay));
      return base_rate_us_ * (1.0 + extra * decay);
    }
    default:
      return base_rate_us_;
  }
}

SimTime ArrivalSequence::Next() {
  switch (cfg_.kind) {
    case ArrivalKind::kPoisson:
      t_ += ExpGap(base_rate_us_);
      break;
    case ArrivalKind::kBursty: {
      // Alternating exponential ON/OFF sojourns; arrivals only while ON, at
      // rate lambda/duty. Crossing a state boundary redraws the pending gap,
      // which is statistically free by memorylessness.
      const double on_rate = base_rate_us_ / cfg_.burst_duty;
      const double on_mean = static_cast<double>(cfg_.burst_on_mean);
      const double off_mean = on_mean * (1.0 - cfg_.burst_duty) / cfg_.burst_duty;
      for (;;) {
        if (t_ >= state_end_us_) {
          on_ = !on_;
          const double mean = on_ ? on_mean : off_mean;
          state_end_us_ = t_ + ExpGap(1.0 / mean);
          continue;
        }
        if (!on_) {
          t_ = state_end_us_;
          continue;
        }
        const double gap = ExpGap(on_rate);
        if (t_ + gap >= state_end_us_) {
          t_ = state_end_us_;
          continue;
        }
        t_ += gap;
        break;
      }
      break;
    }
    case ArrivalKind::kDiurnal:
    case ArrivalKind::kFlashCrowd:
      // Lewis-Shedler thinning against the constant envelope peak_rate_us_.
      for (;;) {
        t_ += ExpGap(peak_rate_us_);
        if (rng_.NextDouble() * peak_rate_us_ <= RateAt(t_)) break;
      }
      break;
    case ArrivalKind::kClosedLoop:
      break;  // unreachable (checked in the constructor)
  }
  return static_cast<SimTime>(std::ceil(t_));
}

}  // namespace hotstuff1
