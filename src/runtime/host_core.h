// Host-side pieces shared by the two native backends: HostCore (the
// CoreEnv half every native core implements alike: identity, clock,
// Compute, shared-memory words and handles), the escalating Backoff that
// paces their waits, the barrier, and the mutex/condvar mailbox (the
// process backend's app-core inbox).
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
#include "src/runtime/backend.h"
#include "src/runtime/core_env.h"
#include "src/runtime/message.h"
#include "src/sim/time.h"

namespace tm2c {

inline SimTime HostNowPs() {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count();
  return static_cast<SimTime>(ns) * kPicosPerNano;
}

// One spin-wait iteration that tells the CPU (and SMT sibling) we are in a
// busy-wait, without giving up the time slice.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

// Escalating wait policy shared by every blocking point of the native
// backends: pure spinning first (cheap if the peer is running on another
// CPU), yields next (mandatory on oversubscribed hosts — the peer may need
// this very CPU), then either parking (the thread backend's Recv) or short
// naps (send backpressure, the barriers) so a long-idle thread stops
// burning a host CPU. On an oversubscribed host (more core threads than
// CPUs) spinning only steals cycles from the peer being waited on, so the
// spin budget is dropped and the yield budget cut short.
class Backoff {
 public:
  static constexpr uint32_t kSpinRounds = 200;
  static constexpr uint32_t kYieldRounds = 4000;
  static constexpr uint32_t kOversubscribedYieldRounds = 16;
  static constexpr std::chrono::microseconds kNap{50};

  explicit Backoff(bool oversubscribed)
      : spin_limit_(oversubscribed ? 0 : kSpinRounds),
        yield_limit_(spin_limit_ + (oversubscribed ? kOversubscribedYieldRounds : kYieldRounds)) {}

  // True once the spin and yield budgets are exhausted: the caller should
  // fall through to its terminal wait (park or nap).
  bool Exhausted() const { return rounds_ >= yield_limit_; }

  void Pause() {
    ++rounds_;
    if (rounds_ <= spin_limit_) {
      CpuRelax();
    } else if (rounds_ <= yield_limit_) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(kNap);
    }
  }

  void Reset() { rounds_ = 0; }

 private:
  uint32_t spin_limit_;   // last round that spins
  uint32_t yield_limit_;  // last round that yields; naps after it
  uint32_t rounds_ = 0;
};

// Sense-reversing rendezvous of `parties` threads, lock-free on the fast
// path: the last arrival resets the count and bumps the generation; the
// others back off until the generation flips.
class HostBarrier {
 public:
  void Arrive(uint32_t parties, bool oversubscribed) {
    const uint64_t generation = generation_.load(std::memory_order_acquire);
    if (waiting_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties) {
      waiting_.store(0, std::memory_order_relaxed);
      generation_.fetch_add(1, std::memory_order_release);
      return;
    }
    Backoff backoff(oversubscribed);
    while (generation_.load(std::memory_order_acquire) == generation) {
      backoff.Pause();
    }
  }

 private:
  std::atomic<uint32_t> waiting_{0};
  std::atomic<uint64_t> generation_{0};
};

// The CoreEnv half shared by every native core: host identity and clock,
// a Compute that really waits, and direct word access to the backend's
// shared memory. Transport (Send/Recv) and Barrier stay per backend.
class HostCore : public CoreEnv {
 public:
  HostCore(SystemBackend* backend, uint32_t id, bool oversubscribed)
      : backend_(backend), id_(id), oversubscribed_(oversubscribed) {}

  uint32_t core_id() const override { return id_; }
  const DeploymentPlan& plan() const override { return backend_->deployment(); }
  const PlatformDesc& platform() const override { return backend_->config().platform; }

  SimTime LocalNow() const override { return HostNowPs(); }
  SimTime GlobalNow() const override { return HostNowPs(); }

  // Approximate Compute: a nanosecond-scale busy wait keeps relative costs
  // well enough for functional tests. When oversubscribed it yields after
  // a microsecond: long modelled computations (CM backoffs especially)
  // must not starve the peers they wait for — two contenders busy-waiting
  // their backoffs in lock-step on one CPU re-collide forever.
  void Compute(uint64_t core_cycles) override {
    const SimTime deadline = HostNowPs() + platform().CoreCyclesToPs(core_cycles);
    const SimTime spin_until = oversubscribed_ ? HostNowPs() + kPicosPerMicro : deadline;
    while (HostNowPs() < deadline) {
      if (HostNowPs() >= spin_until) {
        std::this_thread::yield();
      }
    }
  }

  uint64_t ShmemRead(uint64_t addr) override { return backend_->shmem().LoadWord(addr); }
  void ShmemWrite(uint64_t addr, uint64_t value) override {
    backend_->shmem().StoreWord(addr, value);
  }

  // Word-level CAS on the shared array: the modelled SCC test-and-set
  // register.
  bool ShmemTestAndSet(uint64_t addr) override { return backend_->shmem().CasWord(addr, 0, 1); }

  // The address range only matters to the simulated backend, which charges
  // DRAM/mesh time for it; on real memory there is nothing to charge and
  // the caller reads through shmem(), so both stay unnamed by design.
  void ShmemBulkAccess(uint64_t /*addr*/, uint64_t /*bytes*/) override {}

  SharedMemory& shmem() override { return backend_->shmem(); }
  ShmAllocator& allocator() override { return backend_->allocator(); }

 protected:
  bool oversubscribed() const { return oversubscribed_; }

 private:
  SystemBackend* backend_;
  uint32_t id_;
  // More core threads than host CPUs: waits yield early (set once).
  bool oversubscribed_;
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
