// Cooperative fibers (stackful coroutines) built on a register-only
// x86-64 context switch.
//
// Each simulated core runs its program on a fiber so that protocol and
// benchmark code can be written in plain blocking style (txread() blocks on
// a reply) while the single-threaded discrete-event engine interleaves
// cores at simulated-time granularity.
//
// Switch contract (see fiber.cc): a switch saves and restores exactly what
// the x86-64 SysV ABI makes callee-saved — rbx, rbp, r12-r15, the MXCSR and
// the x87 control word — so every fiber keeps its own SSE/x87 rounding and
// exception-mask state. The signal mask is deliberately NOT switched (no
// fiber changes it), which is what keeps a switch free of system calls.
// x86-64 only; other architectures fail to build.
//
// Stacks are mmap'd with a PROT_NONE guard page below them, so a fiber
// that overflows its stack faults instead of corrupting the heap. Pages are
// faulted in lazily: an untouched stack costs address space, not memory.
#ifndef TM2C_SRC_SIM_FIBER_H_
#define TM2C_SRC_SIM_FIBER_H_

#include <cstddef>
#include <functional>

namespace tm2c {

class Fiber {
 public:
  using Fn = std::function<void()>;

  // Creates a suspended fiber that will execute `fn` when first resumed.
  // `stack_size` is rounded up to page granularity.
  explicit Fiber(Fn fn, size_t stack_size = kDefaultStackSize);

  // Destroying a live suspended fiber first unwinds it (see Unwind) so the
  // objects on its stack are destructed; the engine relies on this when a
  // run ends with cores still blocked mid-protocol.
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  // Transfers control from the calling (scheduler) context into the fiber.
  // Returns when the fiber calls Yield() or its function returns. Must not
  // be called from inside any fiber.
  void Resume();

  // Transfers control from inside this fiber back to the context that
  // resumed it. Must be called from inside the fiber.
  void Yield();

  // True once fn has returned; a finished fiber must not be resumed.
  bool finished() const { return finished_; }

  // True while Unwind() is tearing this fiber down. Runtime code uses this
  // to detect application code that swallowed the Unwound exception with a
  // catch(...) and kept executing during teardown.
  bool unwinding() const { return unwinding_; }

  // Thrown through a suspended fiber's stack by Unwind(); must not be
  // swallowed by application code (catch TxAbortException and friends by
  // concrete type, never `...`).
  struct Unwound {};

  // Unwinds a suspended fiber: resumes it one last time with the unwind
  // flag set so the pending Yield() throws Unwound, running every
  // destructor on the fiber's stack on the way out. No-op for fibers that
  // never ran or already finished. Must be called from the scheduler
  // context; the destructor calls it automatically.
  void Unwind();

  // The fiber currently executing on this thread, or nullptr when running
  // in the scheduler context.
  static Fiber* Current();

  static constexpr size_t kDefaultStackSize = 256 * 1024;

 private:
  static void Trampoline(Fiber* self);

  Fn fn_;
  char* mapping_ = nullptr;  // guard page + stack, one mmap
  size_t mapping_size_ = 0;
  char* stack_ = nullptr;  // lowest usable stack byte, just above the guard
  size_t stack_size_ = 0;
  void* sp_ = nullptr;        // the fiber's saved stack pointer while suspended
  void* sched_sp_ = nullptr;  // the scheduler's saved stack pointer while inside
  bool began_ = false;        // first Resume happened: fn_ is on the stack
  bool finished_ = false;
  bool unwinding_ = false;

  // AddressSanitizer fiber-switch bookkeeping (see fiber.cc); unused in
  // non-sanitized builds. Each context saves its fake-stack handle when it
  // leaves and the stack bounds of the peer it switches to.
  void* sched_fake_stack_ = nullptr;
  void* fiber_fake_stack_ = nullptr;
  const void* sched_stack_bottom_ = nullptr;
  size_t sched_stack_size_ = 0;
};

}  // namespace tm2c

#endif  // TM2C_SRC_SIM_FIBER_H_
