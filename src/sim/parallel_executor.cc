#include "sim/parallel_executor.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace hotstuff1::sim {

// Context of the window event the current thread is executing (if any). Used
// to inherit shards, stage scheduled events, resolve SyncShared waits, and
// report per-event virtual time.
struct ParallelExecutor::EventContext {
  ParallelExecutor* exec = nullptr;
  Simulator* sim = nullptr;
  WindowEvent* event = nullptr;
  SimTime time = 0;  // the event's own virtual timestamp
};
thread_local ParallelExecutor::EventContext ParallelExecutor::tls_ctx_;

ParallelExecutor::ParallelExecutor(Simulator* sim, int jobs) : sim_(sim) {
  HS1_CHECK_GE(jobs, 2);
  threads_.reserve(static_cast<size_t>(jobs - 1));
  for (int i = 0; i < jobs - 1; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ParallelExecutor::~ParallelExecutor() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

bool ParallelExecutor::StageIfInWindow(Simulator* sim, SimTime t, ShardId shard,
                                       Simulator::Callback* cb) {
  const EventContext& ctx = tls_ctx_;
  if (ctx.exec == nullptr || ctx.sim != sim) return false;
  ctx.exec->StageWindow(ctx.event, t, shard, cb);
  return true;
}

ShardId ParallelExecutor::InheritedShard() {
  const EventContext& ctx = tls_ctx_;
  if (ctx.exec == nullptr) return kShardSerial;
  return ctx.event->shard;
}

SimTime ParallelExecutor::EffectiveNow(const Simulator* sim, SimTime fallback) {
  const EventContext& ctx = tls_ctx_;
  if (ctx.exec == nullptr || ctx.sim != sim) return fallback;
  return ctx.time;
}

void ParallelExecutor::Drain(SimTime limit) {
  HS1_CHECK(!draining_) << "Simulator::Run/RunUntil is not reentrant";
  draining_ = true;
  const SimTime window = sim_->lookahead_;
  EventHandle h;
  ShardId shard = kShardSerial;
  while (sim_->PeekEvent(&h, &shard) && h.time <= limit) {
    if (shard == kShardSerial) {
      sim_->Step();  // a barrier runs alone, exactly as on the serial loop
      continue;
    }
    // Events eligible for the window: time <= limit and time < t + window.
    const SimTime span = std::min<SimTime>(window - 1, limit - h.time);
    PopWindow(/*horizon=*/h.time + span + 1);
    RunWindow();
  }
  draining_ = false;
}

void ParallelExecutor::PopWindow(SimTime horizon) {
  // The pop order is the serial execution order (time, seq); stopping at the
  // first barrier keeps the popped set a clean prefix of it.
  EventHandle h;
  ShardId shard = kShardSerial;
  while (sim_->PeekEvent(&h, &shard) && h.time < horizon &&
         shard != kShardSerial) {
    Simulator::Event ev = sim_->PopEvent();
    auto we = std::make_unique<WindowEvent>();
    we->time = ev.time;
    we->shard = ev.shard;
    we->cb = std::move(ev.cb);
    we->key = {static_cast<uint64_t>(ev.time), 0, ev.seq};
    win_pending_.insert(win_pending_.end(), we.get());
    win_shard_[we->shard].insert(we.get());
    win_events_.push_back(std::move(we));
  }
  win_outstanding_ = win_events_.size();
  // Initially claimable: each shard's first event.
  for (const auto& [s, events] : win_shard_) {
    win_ready_.insert(*events.begin());
  }
  win_horizon_ = horizon;
  // A follow-on may run inside the window only if the serial loop would
  // reach it before anything still queued: strictly before the first
  // unpopped event (a barrier, or the first event at/after the horizon) —
  // at equal timestamps the queued event's smaller sequence number wins.
  win_inline_ceiling_ = sim_->queue_.Peek(&h)
                            ? std::min<SimTime>(horizon, h.time)
                            : horizon;
}

void ParallelExecutor::RunWindow() {
  const bool parallel = win_outstanding_ > 1;
  {
    std::lock_guard<std::mutex> lk(mu_);
    window_active_ = true;
    ++window_gen_;
  }
  if (parallel) work_cv_.notify_all();
  {
    std::unique_lock<std::mutex> lk(mu_);
    WindowLoopLocked(lk);
    window_active_ = false;
    // Wait for every worker to leave the window loop before the commit
    // below mutates the window structures.
    done_cv_.wait(lk, [&] { return busy_workers_ == 0; });
  }
  CommitWindow();
}

void ParallelExecutor::WindowLoopLocked(std::unique_lock<std::mutex>& lk) {
  for (;;) {
    if (!win_ready_.empty()) {
      // Claim the smallest ready event: this keeps the globally smallest
      // incomplete event always claimed (or claimable), the progress
      // guarantee that makes SyncShared's global-minimum wait deadlock-free.
      WindowEvent* ev = *win_ready_.begin();
      win_ready_.erase(win_ready_.begin());
      // Successor continuation: when the finished event's shard successor is
      // smaller than everything in the ready set, it is exactly what the
      // loop would claim next — run it directly, skipping a wakeup.
      do {
        lk.unlock();
        RunWindowEvent(ev);
        lk.lock();
        ev = CompleteWindowEventLocked(ev);
      } while (ev != nullptr);
      continue;
    }
    if (win_outstanding_ == 0) return;
    win_ready_cv_.wait(lk);
  }
}

ParallelExecutor::WindowEvent* ParallelExecutor::CompleteWindowEventLocked(
    WindowEvent* ev) {
  const bool was_min = *win_pending_.begin() == ev;
  win_pending_.erase(ev);
  auto shard_it = win_shard_.find(ev->shard);
  shard_it->second.erase(ev);
  WindowEvent* next = nullptr;
  if (shard_it->second.empty()) {
    win_shard_.erase(shard_it);
  } else {
    // The shard's next event becomes claimable (only a head can have been
    // claimed, so the successor is necessarily unclaimed).
    WindowEvent* succ = *shard_it->second.begin();
    if (win_ready_.empty() || KeyOrder{}(succ, *win_ready_.begin())) {
      next = succ;  // caller continues with it directly
    } else {
      win_ready_.insert(succ);
      win_ready_cv_.notify_one();
    }
  }
  --win_outstanding_;
  if (win_outstanding_ == 0) {
    win_ready_cv_.notify_all();
    win_min_cv_.notify_all();
  } else if (was_min) {
    // A new global minimum: exactly what SyncShared waiters poll for.
    win_min_cv_.notify_all();
  }
  return next;
}

void ParallelExecutor::RunWindowEvent(WindowEvent* ev) {
  const EventContext saved = tls_ctx_;
  tls_ctx_ = EventContext{this, sim_, ev, ev->time};
  ev->cb();
  tls_ctx_ = saved;
}

void ParallelExecutor::StageWindow(WindowEvent* parent, SimTime t, ShardId shard,
                                   Simulator::Callback* cb) {
  if (shard == parent->shard && t < win_inline_ceiling_) {
    // The serial loop would execute this event inside the current window,
    // interleaved with its shard's remaining events. Register it as an
    // inline window event at its serial position; its parent's staged list
    // keeps a marker so the commit replay burns the matching seq.
    auto child = std::make_unique<WindowEvent>();
    child->time = t;
    child->shard = shard;
    child->cb = std::move(*cb);
    child->key.reserve(parent->key.size() + 3);
    child->key.push_back(static_cast<uint64_t>(t));
    child->key.push_back(1);
    child->key.insert(child->key.end(), parent->key.begin(), parent->key.end());
    child->key.push_back(parent->staged.size());
    WindowEvent* raw = child.get();
    parent->staged.push_back(StagedEvent{t, shard, {}, raw});
    {
      std::lock_guard<std::mutex> lk(mu_);
      win_events_.push_back(std::move(child));
      win_pending_.insert(raw);
      win_shard_[raw->shard].insert(raw);
      ++win_outstanding_;
      // No wakeups: the child sorts after its still-running parent (same
      // shard), so it cannot be claimable or the global minimum yet.
    }
    return;
  }
  // Cross-shard scheduling must land at or beyond the horizon — that is the
  // lookahead contract (Simulator::SetLookahead). Anything closer could be
  // ordered before an event another shard has already executed.
  HS1_CHECK(shard == parent->shard || t >= win_horizon_)
      << "cross-shard event scheduled inside the lookahead window (target t=" << t
      << ", horizon=" << win_horizon_
      << "): the configured lookahead exceeds the minimum cross-shard latency";
  parent->staged.push_back(StagedEvent{t, shard, std::move(*cb), nullptr});
}

void ParallelExecutor::CommitWindow() {
  // Replay the executed events in serial order, assigning the sequence
  // numbers the serial loop would have: each staged entry consumes one, and
  // only the non-inline ones actually enter the queue.
  std::vector<WindowEvent*> order;
  order.reserve(win_events_.size());
  for (const auto& ev : win_events_) order.push_back(ev.get());
  std::sort(order.begin(), order.end(),
            [](const WindowEvent* a, const WindowEvent* b) { return a->key < b->key; });
  SimTime last_time = sim_->now_;
  for (WindowEvent* ev : order) {
    if (ev->time > last_time) last_time = ev->time;
    for (StagedEvent& s : ev->staged) {
      if (s.inline_child != nullptr) {
        ++sim_->next_seq_;  // the serial loop numbered this push too
      } else {
        sim_->PushEvent(s.time, s.shard, std::move(s.cb));
      }
    }
  }
  sim_->events_processed_ += win_events_.size();
  sim_->now_ = last_time;
  win_events_.clear();
  win_outstanding_ = 0;
}

void ParallelExecutor::WorkerLoop() {
  uint64_t seen_gen = 0;
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    work_cv_.wait(lk, [&] {
      return stop_ || (window_active_ && window_gen_ != seen_gen);
    });
    if (stop_) return;
    seen_gen = window_gen_;
    ++busy_workers_;
    WindowLoopLocked(lk);
    --busy_workers_;
    if (busy_workers_ == 0) done_cv_.notify_all();
  }
}

void ParallelExecutor::SyncShared() {
  const EventContext& ctx = tls_ctx_;
  if (ctx.exec != this) return;  // not inside one of this executor's windows
  // Proceed once the caller is the globally smallest incomplete event —
  // every event the serial loop would have run first has completed, and
  // (children sorting after their incomplete parents) none can appear later.
  std::unique_lock<std::mutex> lk(mu_);
  win_min_cv_.wait(lk, [&] { return *win_pending_.begin() == ctx.event; });
}

}  // namespace hotstuff1::sim
