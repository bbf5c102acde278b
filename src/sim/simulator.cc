#include "sim/simulator.h"

#include <limits>

#include "common/logging.h"
#include "common/replica_set.h"
#include "sim/parallel_executor.h"

namespace hotstuff1::sim {

Simulator::Simulator() = default;
Simulator::~Simulator() = default;

SimTime Simulator::NowInExecutor() const {
  // Under a lookahead window, concurrently running events sit at different
  // virtual times; each thread sees the timestamp of the event it executes.
  return ParallelExecutor::EffectiveNow(this, now_);
}

void Simulator::AtExec(SimTime t, Callback cb) {
  AtShardExec(t, ParallelExecutor::InheritedShard(), std::move(cb));
}

void Simulator::AtShardExec(SimTime t, ShardId shard, Callback cb) {
  // Clamp to the *executing event's* time (== now_ on the serial loop), so a
  // window event never schedules into its own past.
  const SimTime now = Now();
  if (t < now) t = now;
  // During a window, scheduling requests are staged per parent event and
  // committed in deterministic order after the window.
  if (ParallelExecutor::StageIfInWindow(this, t, shard, &cb)) return;
  PushEvent(t, shard, std::move(cb));
}

void Simulator::SetLookahead(SimTime window) {
  if (window < 0) window = 0;
  // Cap so `t + window` can never overflow the virtual clock.
  constexpr SimTime kMaxLookahead = 3600 * kSecond;
  if (window > kMaxLookahead) window = kMaxLookahead;
  lookahead_ = window;
}

void Simulator::SetJobs(int jobs) {
  // Clamp to the widest useful pool: a window runs at most one event per
  // shard at a time (<= ReplicaSet::kCapacity replicas + clients — the
  // committee-size ceiling every quorum structure shares), so more workers
  // can never help, and absurd values must not reach std::thread's
  // constructor (which throws).
  constexpr int kMaxJobs = static_cast<int>(ReplicaSet::kCapacity);
  if (jobs > kMaxJobs) jobs = kMaxJobs;
  if (jobs <= 1) {
    exec_.reset();
    return;
  }
  if (exec_ && exec_->jobs() == jobs) return;
  exec_ = std::make_unique<ParallelExecutor>(this, jobs);
}

int Simulator::jobs() const { return exec_ ? exec_->jobs() : 1; }

void Simulator::SetParallelism(int jobs, SimTime window) {
  SetLookahead(window);
  SetJobs(WindowsAllowed() ? jobs : 1);
}

void Simulator::SyncShared() {
  if (exec_) exec_->SyncShared();
}

bool Simulator::Step() {
  EventHandle h;
  if (!queue_.Peek(&h)) return false;
  if (events_processed_ >= event_cap_) {
    cap_hit_ = true;
    return false;
  }
  queue_.Pop();
  HS1_CHECK_GE(h.time, now_);
  now_ = h.time;
  ++events_processed_;
  // Run in the arena slot — no move-out. Nested scheduling may grow the
  // arena, but chunks have stable addresses, so the record stays put.
  EventRecord& rec = arena_.Get(h.idx);
  rec.cb();
  arena_.Free(h.idx);
  return true;
}

void Simulator::RunUntil(SimTime t) {
  if (Windowed()) {
    exec_->Drain(t);
  } else {
    EventHandle h;
    while (queue_.Peek(&h) && h.time <= t && Step()) {
    }
  }
  if (now_ < t) now_ = t;
}

void Simulator::Run() {
  if (Windowed()) {
    exec_->Drain(std::numeric_limits<SimTime>::max());
    return;
  }
  while (Step()) {
  }
}

}  // namespace hotstuff1::sim
