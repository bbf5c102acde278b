#include "consensus/committee.h"

#include <algorithm>

#include "common/logging.h"
#include "common/parse.h"
#include "common/replica_set.h"

namespace hotstuff1 {

bool Committee::Contains(ReplicaId r) const {
  return std::binary_search(members.begin(), members.end(), r);
}

const Committee& CommitteeSchedule::AtEpoch(uint32_t epoch) const {
  // Last step with from_epoch <= epoch; steps are strictly increasing and
  // steps[0].from_epoch == 0, so the scan lands on any resolved schedule.
  size_t i = steps.size();
  while (i > 0 && steps[i - 1].from_epoch > epoch) --i;
  HS1_CHECK_GE(i, 1u) << "committee schedule not resolved";
  return steps[i - 1].committee;
}

ReplicaId CommitteeSchedule::MaxMember() const {
  ReplicaId max = 0;
  for (const CommitteeStep& s : steps) {
    if (!s.committee.members.empty()) max = std::max(max, s.committee.members.back());
  }
  return max;
}

namespace {

bool Fail(std::string* error, const std::string& msg) {
  if (error) *error = msg;
  return false;
}

// Epochs stay below 10^9 to keep downstream arithmetic safe; member ids fit
// the quorum bitset, which also bounds what one "<lo>-<hi>" range expands to.
constexpr uint64_t kMaxEpoch = 999'999'999;
constexpr uint64_t kMaxId = ReplicaSet::kCapacity - 1;

}  // namespace

bool ParseCommitteeSchedule(const std::string& text, CommitteeSchedule* out,
                            std::string* error) {
  CommitteeSchedule sched;
  for (const std::string& seg : Split(text, ';')) {
    if (seg.empty()) continue;
    const size_t colon = seg.find(':');
    if (colon == std::string::npos) {
      return Fail(error, "committee step without ':': '" + seg + "'");
    }
    uint64_t epoch = 0;
    if (!ParseUint(seg.substr(0, colon), kMaxEpoch, &epoch)) {
      return Fail(error, "bad epoch in committee step: '" + seg + "'");
    }
    CommitteeStep step;
    step.from_epoch = static_cast<uint32_t>(epoch);
    if (!ParseIdList(seg.substr(colon + 1), kMaxId, &step.committee.members)) {
      return Fail(error, "bad member list in committee step: '" + seg +
                             "' (want <id> or <lo>-<hi> joined by '+', ids <= " +
                             std::to_string(kMaxId) + ")");
    }
    std::sort(step.committee.members.begin(), step.committee.members.end());
    if (std::adjacent_find(step.committee.members.begin(),
                           step.committee.members.end()) !=
        step.committee.members.end()) {
      return Fail(error, "duplicate member in committee step: '" + seg + "'");
    }
    if (step.committee.n() < 4) {
      return Fail(error, "committee needs >= 4 members: '" + seg + "'");
    }
    if (!sched.steps.empty() && step.from_epoch <= sched.steps.back().from_epoch) {
      return Fail(error, "committee step epochs must strictly increase: '" + seg + "'");
    }
    sched.steps.push_back(std::move(step));
  }
  if (!sched.steps.empty() && sched.steps.front().from_epoch != 0) {
    return Fail(error, "committee schedule must start at epoch 0");
  }
  *out = std::move(sched);
  return true;
}

CommitteeSchedule ResolveCommittee(CommitteeSchedule given, uint32_t n) {
  if (given.empty()) {
    CommitteeStep full;
    for (ReplicaId r = 0; r < n; ++r) full.committee.members.push_back(r);
    given.steps.push_back(std::move(full));
  }
  HS1_CHECK_LT(given.MaxMember(), n) << "committee member outside allocation";
  given.views_per_epoch = (n - 1) / 3 + 1;
  return given;
}

std::string FormatCommitteeSchedule(const CommitteeSchedule& s) {
  std::string text;
  for (const CommitteeStep& step : s.steps) {
    if (!text.empty()) text += ';';
    text += std::to_string(step.from_epoch);
    text += ':' + FormatIdList(step.committee.members);
  }
  return text;
}

}  // namespace hotstuff1
