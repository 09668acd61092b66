// Host-side pieces shared by the two native backends: the clock, the
// Compute busy-wait and the mutex/condvar mailbox (the thread backend's
// kMutexMailbox transport, the process backend's app-core inbox).
#ifndef TM2C_SRC_RUNTIME_HOST_CORE_H_
#define TM2C_SRC_RUNTIME_HOST_CORE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>

#include "src/noc/platform.h"
#include "src/runtime/message.h"
#include "src/sim/time.h"

namespace tm2c {

inline SimTime HostNowPs() {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count();
  return static_cast<SimTime>(ns) * kPicosPerNano;
}

// Approximate Compute: a nanosecond-scale busy wait keeps relative costs
// well enough for functional tests. When `oversubscribed` it yields after
// a microsecond: long modelled computations (CM backoffs especially) must
// not starve the peers they wait for — two contenders busy-waiting their
// backoffs in lock-step on one CPU re-collide forever.
inline void ComputeSpin(const PlatformDesc& platform, uint64_t core_cycles, bool oversubscribed) {
  const SimTime deadline = HostNowPs() + platform.CoreCyclesToPs(core_cycles);
  const SimTime spin_until = oversubscribed ? HostNowPs() + kPicosPerMicro : deadline;
  while (HostNowPs() < deadline) {
    if (HostNowPs() >= spin_until) {
      std::this_thread::yield();
    }
  }
}

// Sense-reversing rendezvous of `parties` threads, lock-free on the fast
// path: the last arrival resets the count and bumps the generation; the
// others call pause() until the generation flips.
class HostBarrier {
 public:
  template <typename Pause>
  void Arrive(uint32_t parties, Pause&& pause) {
    const uint64_t generation = generation_.load(std::memory_order_acquire);
    if (waiting_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties) {
      waiting_.store(0, std::memory_order_relaxed);
      generation_.fetch_add(1, std::memory_order_release);
      return;
    }
    while (generation_.load(std::memory_order_acquire) == generation) {
      pause();
    }
  }

 private:
  std::atomic<uint32_t> waiting_{0};
  std::atomic<uint64_t> generation_{0};
};

// One core's inbox: any thread pushes, the owning core pops.
class MutexMailbox {
 public:
  void Push(Message msg) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(msg));
    }
    cv_.notify_one();
  }

  Message Pop() {  // blocks until a message arrives
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this]() { return !queue_.empty(); });
    Message msg = std::move(queue_.front());
    queue_.pop_front();
    return msg;
  }

  bool TryPop(Message* out) {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) {
      return false;
    }
    *out = std::move(queue_.front());
    queue_.pop_front();
    return true;
  }

  size_t Size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
  }

 private:
  mutable std::mutex mu_;  // Size() is a const observer
  std::condition_variable cv_;
  std::deque<Message> queue_;
};

}  // namespace tm2c

#endif  // TM2C_SRC_RUNTIME_HOST_CORE_H_
