#include "src/sim/engine.h"

#include "src/common/check.h"

namespace tm2c {

size_t SimEngine::AddActor(std::function<void()> body, size_t stack_size) {
  TM2C_CHECK_MSG(!started_, "AddActor after Run()");
  auto actor = std::make_unique<Actor>();
  actor->index = actors_.size();
  actor->fiber = std::make_unique<Fiber>(std::move(body), stack_size);
  actors_.push_back(std::move(actor));
  return actors_.size() - 1;
}

void SimEngine::SetChaos(const ChaosConfig& chaos) {
  TM2C_CHECK_MSG(!started_, "SetChaos after Run()");
  shuffle_ties_ = chaos.shuffle_ties;
  tie_rng_.Seed(chaos.seed ^ 0xc4a05c75ull);
}

void SimEngine::Push(SimTime t, EventKind kind, Actor* actor, uint32_t slot) {
  TM2C_CHECK_MSG(t >= now_, "scheduling into the past");
  const uint64_t tie = shuffle_ties_ ? tie_rng_.Next() : 0;
  events_.push(Event{t, tie, next_seq_++, kind, slot, actor});
}

void SimEngine::ScheduleAt(SimTime t, std::function<void()> cb) {
  uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(callbacks_.size());
    callbacks_.push_back(std::move(cb));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    callbacks_[slot] = std::move(cb);
  }
  Push(t, EventKind::kCallback, nullptr, slot);
}

void SimEngine::Dispatch(const Event& ev) {
  switch (ev.kind) {
    case EventKind::kStart:
      if (!ev.actor->fiber->finished()) {
        ResumeActor(ev.actor);
      }
      return;
    case EventKind::kResume:
      ResumeActor(ev.actor);
      return;
    case EventKind::kWake:
      ev.actor->wake_pending = false;
      ev.actor->blocked = false;
      ResumeActor(ev.actor);
      return;
    case EventKind::kCallback: {
      // Move the closure out first: it may schedule further callbacks,
      // which can reuse its slot or reallocate callbacks_.
      std::function<void()> cb = std::move(callbacks_[ev.slot]);
      free_slots_.push_back(ev.slot);
      cb();
      return;
    }
  }
}

void SimEngine::ResumeActor(Actor* actor) {
  TM2C_CHECK(!actor->fiber->finished());
  Actor* prev = running_;
  running_ = actor;
  actor->fiber->Resume();
  running_ = prev;
}

SimTime SimEngine::Run(SimTime until) {
  if (!started_) {
    started_ = true;
    // Kick off every actor at time zero, in registration order.
    for (auto& actor : actors_) {
      Push(now_, EventKind::kStart, actor.get(), 0);
    }
  }
  stop_requested_ = false;
  while (!events_.empty() && !stop_requested_) {
    const Event ev = events_.top();
    if (ev.time > until) {
      break;
    }
    events_.pop();
    now_ = ev.time;
    ++events_executed_;
    Dispatch(ev);
  }
  return now_;
}

void SimEngine::Sleep(SimTime delay) {
  TM2C_CHECK_MSG(running_ != nullptr, "Sleep outside an actor fiber");
  Actor* self = running_;
  Push(now_ + delay, EventKind::kResume, self, 0);
  self->fiber->Yield();
}

SimTime SimEngine::BlockCurrent() {
  TM2C_CHECK_MSG(running_ != nullptr, "BlockCurrent outside an actor fiber");
  Actor* self = running_;
  TM2C_CHECK(!self->blocked);
  self->blocked = true;
  self->fiber->Yield();
  TM2C_CHECK(!self->blocked);
  return now_;
}

void SimEngine::WakeActor(size_t idx, SimTime delay) {
  TM2C_CHECK(idx < actors_.size());
  Actor* actor = actors_[idx].get();
  TM2C_CHECK_MSG(actor->blocked && !actor->wake_pending, "WakeActor on non-blocked actor");
  actor->wake_pending = true;
  Push(now_ + delay, EventKind::kWake, actor, 0);
}

bool SimEngine::ActorBlocked(size_t idx) const {
  TM2C_CHECK(idx < actors_.size());
  const Actor* actor = actors_[idx].get();
  return actor->blocked && !actor->wake_pending;
}

size_t SimEngine::CurrentActor() const {
  TM2C_CHECK_MSG(running_ != nullptr, "CurrentActor outside an actor fiber");
  return running_->index;
}

}  // namespace tm2c
