#include "runtime/adversary.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "common/parse.h"
#include "common/replica_set.h"

namespace hotstuff1 {

AdversarySpec AdversaryPlan::SpecFor(ReplicaId r) const {
  AdversarySpec spec;
  if (!faulty_mask || !(*faulty_mask)[r]) return spec;
  // The conflicting branch needs the coalition's votes, and slow or
  // tail-forking leaders are backed by their fellow members.
  spec.collude =
      schedule && schedule->HasAction(kActEquivocate | kActSlow | kActTailFork);
  spec.faulty = faulty_mask;
  spec.victims = victims;
  spec.schedule = schedule;
  return spec;
}

AdversaryPlan MakeAdversaryPlan(uint32_t n, uint32_t count,
                                uint32_t rollback_victims,
                                StrategySchedule schedule) {
  HS1_CHECK_LT(count, n);
  AdversaryPlan plan;
  auto mask = std::make_shared<std::vector<bool>>(n, false);
  for (uint32_t i = 1; i <= count; ++i) (*mask)[i] = true;
  if (!schedule.empty()) {
    HS1_CHECK_GE(schedule.epoch_length, 1);  // callers resolve before planning
    if (schedule.HasAction(kActEquivocate)) {
      // |S| <= f (see header): over-asking for victims silently models a
      // different, client-safety-breaking adversary, so clamp instead.
      uint32_t left = std::min(rollback_victims, (n - 1) / 3);
      auto victims = std::make_shared<std::vector<bool>>(n, false);
      for (ReplicaId r = 0; r < n && left > 0; ++r) {
        if ((*mask)[r]) continue;
        (*victims)[r] = true;
        --left;
      }
      plan.victims = std::move(victims);
    }
    plan.schedule = std::make_shared<const StrategySchedule>(std::move(schedule));
  }
  plan.faulty_mask = std::move(mask);
  return plan;
}

namespace {

bool Fail(std::string* error, std::string msg) {
  if (error != nullptr) *error = std::move(msg);
  return false;
}

// Durations end up in a SimTime (int64); epochs stay below the open-ended
// sentinel; partition ids fit the quorum bitset and outage regions the
// paper's five regions, which also bounds what an id range expands to.
constexpr uint64_t kMaxNumber = std::numeric_limits<SimTime>::max();
constexpr uint64_t kMaxEpoch = kEpochForever - 1;
constexpr uint64_t kMaxReplica = ReplicaSet::kCapacity - 1;
constexpr uint64_t kMaxRegion = 4;

bool ParseEntry(const std::string& segment, StrategyEntry* out,
                std::string* error) {
  const size_t colon = segment.find(':');
  if (colon == std::string::npos) {
    return Fail(error, "strategy entry '" + segment + "' lacks ':'");
  }
  const std::string range = segment.substr(0, colon);
  StrategyEntry entry;
  uint64_t from = 0, to = 0;
  const size_t dash = range.find('-');
  if (dash == std::string::npos) {
    if (!ParseUint(range, kMaxEpoch, &from)) {
      return Fail(error, "bad epoch '" + range + "'");
    }
    entry.from_epoch = static_cast<uint32_t>(from);
    entry.to_epoch = entry.from_epoch + 1;  // single epoch
  } else {
    if (!ParseUint(range.substr(0, dash), kMaxEpoch, &from)) {
      return Fail(error, "bad epoch range '" + range + "'");
    }
    entry.from_epoch = static_cast<uint32_t>(from);
    const std::string to_str = range.substr(dash + 1);
    if (to_str.empty()) {
      entry.to_epoch = kEpochForever;
    } else if (ParseUint(to_str, kMaxEpoch, &to) && to > from) {
      entry.to_epoch = static_cast<uint32_t>(to);
    } else {
      return Fail(error, "bad epoch range '" + range + "' (want to > from)");
    }
  }
  for (const std::string& action : Split(segment.substr(colon + 1), ',')) {
    if (action == "equivocate") {
      entry.actions |= kActEquivocate;
    } else if (action == "withhold") {
      entry.actions |= kActWithhold;
    } else if (action == "target-leader") {
      entry.actions |= kActTargetLeader;
    } else if (action == "slow") {
      entry.actions |= kActSlow;
    } else if (action == "tailfork") {
      entry.actions |= kActTailFork;
    } else if (action == "crash") {
      entry.actions |= kActCrash;
    } else if (action.rfind("delay=", 0) == 0) {
      uint64_t us = 0;
      if (!ParseUint(action.substr(6), kMaxNumber, &us) || us == 0) {
        return Fail(error, "bad '" + action + "' (want delay=<positive us>)");
      }
      entry.actions |= kActDelay;
      entry.delay = static_cast<SimTime>(us);
    } else if (action.rfind("partition=", 0) == 0) {
      std::vector<std::vector<uint32_t>> groups;
      std::vector<bool> seen;
      for (const std::string& g : Split(action.substr(10), '|')) {
        std::vector<uint32_t> ids;
        if (!ParseIdList(g, kMaxReplica, &ids)) {
          return Fail(error, "bad '" + action +
                                 "' (want partition=<ids>('|'<ids>)+, ids <= " +
                                 std::to_string(kMaxReplica) +
                                 " as <id> or <lo>-<hi> joined by '+')");
        }
        for (const uint32_t id : ids) {
          if (id >= seen.size()) seen.resize(id + 1, false);
          if (seen[id]) {
            return Fail(error, "bad '" + action + "' (replica " +
                                   std::to_string(id) + " in two groups)");
          }
          seen[id] = true;
        }
        groups.push_back(std::move(ids));
      }
      if (groups.size() < 2) {
        return Fail(error, "bad '" + action + "' (want >= 2 groups)");
      }
      entry.actions |= kActPartition;
      entry.partition = std::move(groups);
    } else if (action.rfind("outage=", 0) == 0) {
      std::vector<uint32_t> regions;
      if (!ParseIdList(action.substr(7), kMaxRegion, &regions)) {
        return Fail(error, "bad '" + action +
                               "' (want outage=<region>('+'<region>)*, regions 0-4)");
      }
      entry.actions |= kActOutage;
      entry.outage_regions = std::move(regions);
    } else if (action.rfind("jitter=", 0) == 0) {
      uint64_t pct = 0;
      if (!ParseUint(action.substr(7), kMaxNumber, &pct) || pct == 0 || pct > 1000) {
        return Fail(error, "bad '" + action + "' (want jitter=<pct in 1..1000>)");
      }
      entry.actions |= kActJitter;
      entry.jitter_pct = static_cast<uint32_t>(pct);
    } else {
      return Fail(error, "unknown strategy action '" + action +
                             "' (want equivocate|withhold|delay=<us>|"
                             "target-leader|slow|tailfork|crash|"
                             "partition=<groups>|outage=<regions>|jitter=<pct>)");
    }
  }
  if (entry.actions == kActNone) {
    return Fail(error, "strategy entry '" + segment + "' has no actions");
  }
  if ((entry.actions & kActCrash) &&
      (entry.actions != kActCrash || entry.from_epoch != 0 ||
       entry.to_epoch != kEpochForever)) {
    return Fail(error, "bad strategy entry '" + segment +
                           "' (crash is only accepted as '0-:crash': a "
                           "crashed coalition is down for the whole run)");
  }
  *out = entry;
  return true;
}

}  // namespace

bool ParseStrategySchedule(const std::string& text, StrategySchedule* out,
                           std::string* error) {
  StrategySchedule schedule;
  if (text.empty()) {
    *out = schedule;
    return true;
  }
  for (const std::string& segment : Split(text, ';')) {
    if (segment.empty()) continue;
    uint64_t v = 0;
    if (segment.rfind("epoch=", 0) == 0) {
      if (!ParseUint(segment.substr(6), kMaxNumber, &v) || v == 0) {
        return Fail(error, "bad '" + segment + "' (want epoch=<positive us>)");
      }
      schedule.epoch_length = static_cast<SimTime>(v);
    } else if (segment.rfind("gst=", 0) == 0) {
      if (!ParseUint(segment.substr(4), kMaxNumber, &v)) {
        return Fail(error, "bad '" + segment + "' (want gst=<us>)");
      }
      schedule.declared_gst = static_cast<SimTime>(v);
    } else {
      StrategyEntry entry;
      if (!ParseEntry(segment, &entry, error)) return false;
      schedule.entries.push_back(entry);
    }
  }
  if (schedule.entries.empty()) {
    return Fail(error, "strategy '" + text + "' has no entries");
  }
  *out = schedule;
  return true;
}

std::string FormatStrategySchedule(const StrategySchedule& schedule) {
  std::string out;
  for (const StrategyEntry& e : schedule.entries) {
    if (!out.empty()) out += ";";
    out += std::to_string(e.from_epoch);
    if (e.to_epoch == kEpochForever) {
      out += "-";
    } else if (e.to_epoch != e.from_epoch + 1) {
      out += "-" + std::to_string(e.to_epoch);
    }
    out += ":";
    bool first = true;
    const auto add = [&](const std::string& s) {
      if (!first) out += ",";
      out += s;
      first = false;
    };
    if (e.actions & kActEquivocate) add("equivocate");
    if (e.actions & kActWithhold) add("withhold");
    if (e.actions & kActDelay) add("delay=" + std::to_string(e.delay));
    if (e.actions & kActTargetLeader) add("target-leader");
    if (e.actions & kActSlow) add("slow");
    if (e.actions & kActTailFork) add("tailfork");
    if (e.actions & kActCrash) add("crash");
    if (e.actions & kActPartition) {
      std::string p = "partition=";
      for (size_t g = 0; g < e.partition.size(); ++g) {
        if (g > 0) p += "|";
        p += FormatIdList(e.partition[g]);
      }
      add(p);
    }
    if (e.actions & kActOutage) add("outage=" + FormatIdList(e.outage_regions));
    if (e.actions & kActJitter) add("jitter=" + std::to_string(e.jitter_pct));
  }
  if (schedule.epoch_length > 0) {
    out += ";epoch=" + std::to_string(schedule.epoch_length);
  }
  if (schedule.declared_gst != StrategySchedule::kGstAuto) {
    out += ";gst=" + std::to_string(schedule.declared_gst);
  }
  return out;
}

}  // namespace hotstuff1
