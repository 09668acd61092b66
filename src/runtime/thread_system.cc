#include "src/runtime/thread_system.h"

#include <condition_variable>
#include <deque>
#include <mutex>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "src/common/check.h"

namespace tm2c {
namespace {

// Slots per directed ring (a power of two). A sender that finds its ring
// full backs off until the receiver drains it.
constexpr uint32_t kChannelCapacity = 256;

}  // namespace

class ThreadSystem::Core final : public HostCore {
 public:
  Core(ThreadSystem* sys, uint32_t id, bool oversubscribed)
      : HostCore(sys, id, oversubscribed), sys_(sys) {}

  void Send(uint32_t dst, Message msg) override {
    TM2C_CHECK(dst < sys_->deployment().num_cores());
    msg.src = core_id();
    Core* receiver = sys_->cores_[dst].get();
    // SPSC ring: this thread is the only producer of ring(core_id(), dst).
    // A full ring back-pressures us until the receiver drains it.
    SpscChannel& ring = sys_->ring(core_id(), dst);
    Backoff backoff(oversubscribed());
    while (!ring.TryPush(msg)) {
      backoff.Pause();
      receiver->WakeIfParked();  // a parked receiver cannot drain the ring
    }
    receiver->WakeIfParked();
  }

  Message Recv() override {
    Message msg;
    Backoff backoff(oversubscribed());
    for (;;) {
      if (PollRings(&msg)) {
        return msg;
      }
      if (!backoff.Exhausted()) {
        backoff.Pause();
        continue;
      }
      // Park on the eventcount until a sender wakes us. Announce first,
      // re-poll second (mirroring the senders' push-then-check), so a
      // message that lands between the poll above and the wait below is
      // never missed. The acq_rel RMWs on park_fence_ pivot the two sides:
      // whichever RMW comes second in its modification order acquires the
      // other side's prior writes, so either the sender observes parked_
      // and notifies, or our re-poll observes the push. (A seq_cst fence
      // would do the same but is unsupported under TSan.)
      std::unique_lock<std::mutex> lock(park_mu_);
      parked_.store(true, std::memory_order_relaxed);
      park_fence_.fetch_add(1, std::memory_order_acq_rel);
      if (PollRings(&msg)) {
        parked_.store(false, std::memory_order_relaxed);
        return msg;
      }
      park_cv_.wait(lock);  // spurious wakeups just re-poll
      parked_.store(false, std::memory_order_relaxed);
      lock.unlock();
      backoff.Reset();  // fresh spin budget after a wake
    }
  }

  bool TryRecv(Message* out) override { return PollRings(out); }

  size_t InboxDepth() const override {
    size_t depth = 0;
    const uint32_t n = sys_->deployment().num_cores();
    for (uint32_t src = 0; src < n; ++src) {
      depth += sys_->ring(src, core_id()).ApproxSize();
    }
    return depth;
  }

  void Barrier() override {
    sys_->barrier_.Arrive(sys_->deployment().num_cores(), oversubscribed());
  }

 private:
  friend class ThreadSystem;

  // Scans this core's incoming rings round-robin from where the last scan
  // left off, so one chatty peer cannot starve the others. The injection
  // lane (SendShutdown from outside any core) is polled only when every
  // ring came up empty: protocol traffic drains before a shutdown lands.
  bool PollRings(Message* out) {
    const uint32_t n = sys_->deployment().num_cores();
    for (uint32_t i = 0; i < n; ++i) {
      const uint32_t src = next_poll_;
      next_poll_ = next_poll_ + 1 == n ? 0 : next_poll_ + 1;
      if (sys_->ring(src, core_id()).TryPop(out)) {
        return true;
      }
    }
    if (inject_pending_.load(std::memory_order_acquire) != 0) {
      std::lock_guard<std::mutex> lock(inject_mu_);
      if (!inject_.empty()) {
        *out = std::move(inject_.front());
        inject_.pop_front();
        inject_pending_.fetch_sub(1, std::memory_order_release);
        return true;
      }
    }
    return false;
  }

  void InjectPush(Message msg) {
    {
      std::lock_guard<std::mutex> lock(inject_mu_);
      inject_.push_back(std::move(msg));
    }
    inject_pending_.fetch_add(1, std::memory_order_release);
    WakeIfParked();
  }

  // Sender half of the eventcount handshake: pivot RMW, then notify only
  // when the receiver announced it is parked. The common case (receiver
  // polling hot on another CPU) costs one uncontended RMW and one load —
  // no syscall, no lock.
  void WakeIfParked() {
    park_fence_.fetch_add(1, std::memory_order_acq_rel);
    if (!parked_.load(std::memory_order_acquire)) {
      return;
    }
    // Taking the mutex orders us with the receiver's announce-then-wait
    // window, so the notify cannot fall between its re-poll and its wait.
    std::lock_guard<std::mutex> lock(park_mu_);
    park_cv_.notify_one();
  }

  ThreadSystem* sys_;
  uint32_t next_poll_ = 0;  // ring scan cursor, receiver thread only

  // Injection lane for messages produced outside any core thread
  // (SendShutdown).
  std::deque<Message> inject_;
  std::mutex inject_mu_;
  std::atomic<uint32_t> inject_pending_{0};

  // Eventcount the receiver parks on once its spin/yield budget runs out.
  // parked_ is the receiver's announcement; the mutex/condvar pair only
  // ever sees traffic while the receiver is parked or about to park.
  std::mutex park_mu_;
  std::condition_variable park_cv_;
  std::atomic<bool> parked_{false};
  // Dekker pivot for the announce/recheck vs push/check handshake; both
  // sides RMW it acq_rel in place of a seq_cst fence (see Recv).
  std::atomic<uint64_t> park_fence_{0};

  CoreMain main_;
};

ThreadSystem::ThreadSystem(SystemConfig sys_config)
    : SystemBackend(std::move(sys_config), /*interprocess=*/false) {
  const uint32_t n = deployment().num_cores();
  // More core threads than host CPUs: waits collapse their spin budgets and
  // long Compute busy-waits yield.
  const unsigned hw = std::thread::hardware_concurrency();
  const bool oversubscribed = hw != 0 && n > hw;
  for (uint32_t c = 0; c < n; ++c) {
    cores_.push_back(std::make_unique<Core>(this, c, oversubscribed));
  }
  rings_.reserve(static_cast<size_t>(n) * n);
  for (uint32_t src = 0; src < n; ++src) {
    for (uint32_t dst = 0; dst < n; ++dst) {
      rings_.push_back(std::make_unique<SpscChannel>(kChannelCapacity));
    }
  }
}

ThreadSystem::~ThreadSystem() = default;

void ThreadSystem::SetCoreMain(uint32_t core, CoreMain main) {
  TM2C_CHECK(core < cores_.size());
  cores_[core]->main_ = std::move(main);
}

void ThreadSystem::SendShutdown(uint32_t core) {
  TM2C_CHECK(core < cores_.size());
  Message msg;
  msg.type = MsgType::kShutdown;
  msg.src = core;
  cores_[core]->InjectPush(std::move(msg));
}

void ThreadSystem::RunToCompletion() {
  std::vector<std::thread> threads;
  threads.reserve(cores_.size());
  for (auto& core : cores_) {
    Core* c = core.get();
    threads.emplace_back([c]() {
      if (c->main_) {
        c->main_(*c);
      }
    });
#if defined(__linux__)
    if (config().pin_threads) {
      const unsigned hw = std::thread::hardware_concurrency();
      if (hw > 0) {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(c->core_id() % hw, &set);
        // Best effort: a restricted affinity mask (cgroups) may refuse.
        (void)pthread_setaffinity_np(threads.back().native_handle(), sizeof(set), &set);
      }
    }
#endif
  }
  for (auto& t : threads) {
    t.join();
  }
}

SimTime ThreadSystem::Run(SimTime /*until*/) {
  const SimTime start = HostNowPs();
  RunToCompletion();
  return HostNowPs() - start;
}

CoreEnv& ThreadSystem::env(uint32_t core) {
  TM2C_CHECK(core < cores_.size());
  return *cores_[core];
}

bool ThreadSystem::parked(uint32_t core) const {
  TM2C_CHECK(core < cores_.size());
  return cores_[core]->parked_.load(std::memory_order_acquire);
}

}  // namespace tm2c
