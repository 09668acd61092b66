#include "src/sim/fiber.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <new>

#include "src/common/check.h"

#if !defined(__x86_64__) || !defined(__linux__)
#error "src/sim/fiber.cc: the fiber switch is written for x86-64 Linux (SysV ABI) only"
#endif

// AddressSanitizer keeps per-stack shadow state; every context switch must
// be bracketed with __sanitizer_start_switch_fiber (in the leaving context)
// and __sanitizer_finish_switch_fiber (first thing in the arriving one), or
// ASan misattributes frames and reports false stack-buffer errors after
// a switch.
#if defined(__SANITIZE_ADDRESS__)
#define TM2C_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TM2C_ASAN_FIBERS 1
#endif
#endif
#ifdef TM2C_ASAN_FIBERS
#include <sanitizer/common_interface_defs.h>
#endif

// tm2c_fiber_switch(save_sp, next_sp): pushes the callee-saved registers of
// the SysV ABI plus one slot holding the x87 control word (bytes 0-1) and
// the MXCSR (bytes 4-7), stores rsp into *save_sp, loads next_sp and pops
// the same frame from there. Everything caller-saved is already spilled by
// the compiler around the call. A suspended context is therefore exactly
// one 64-byte SwitchFrame (below) at its saved stack pointer.
//
// tm2c_fiber_entry is the return address of a fresh fiber's hand-built
// frame: it calls r13(r12), i.e. Fiber::Trampoline(fiber), which never
// returns. `.cfi_undefined rip` marks it as the outermost frame so the
// unwinder (exceptions, debuggers) stops here instead of walking off the
// top of the fiber stack.
//
// The switch does not track a CET shadow stack; fiber.cc is compiled with
// -fcf-protection=none (see CMakeLists.txt) so no binary linking it is
// marked shadow-stack compatible.
asm(R"(
  .text
  .globl tm2c_fiber_switch
  .hidden tm2c_fiber_switch
  .type tm2c_fiber_switch, @function
  .p2align 4
tm2c_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  fnstcw (%rsp)
  stmxcsr 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  fldcw (%rsp)
  ldmxcsr 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size tm2c_fiber_switch, .-tm2c_fiber_switch

  .globl tm2c_fiber_entry
  .hidden tm2c_fiber_entry
  .type tm2c_fiber_entry, @function
  .p2align 4
tm2c_fiber_entry:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  callq *%r13
  ud2
  .cfi_endproc
  .size tm2c_fiber_entry, .-tm2c_fiber_entry
)");

extern "C" void tm2c_fiber_switch(void** save_sp, void* next_sp);
extern "C" void tm2c_fiber_entry();

namespace tm2c {
namespace {

// Fibers never migrate across OS threads in this design (the simulator is
// single-threaded), so a plain thread_local tracks the running fiber.
thread_local Fiber* g_current_fiber = nullptr;

// What tm2c_fiber_switch leaves at a suspended context's stack pointer,
// lowest address first.
struct SwitchFrame {
  uint16_t x87_cw;
  uint16_t unused;
  uint32_t mxcsr;
  uint64_t r15, r14, r13, r12, rbx, rbp;
  uint64_t return_address;
};
static_assert(sizeof(SwitchFrame) == 64, "must match tm2c_fiber_switch");

size_t PageSize() {
  static const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

}  // namespace

Fiber* Fiber::Current() { return g_current_fiber; }

Fiber::Fiber(Fn fn, size_t stack_size) : fn_(std::move(fn)) {
  TM2C_CHECK(fn_ != nullptr);
  const size_t page = PageSize();
  stack_size_ = (stack_size + page - 1) / page * page;
  mapping_size_ = page + stack_size_;
  void* mapping = mmap(nullptr, mapping_size_, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  TM2C_CHECK_MSG(mapping != MAP_FAILED, "fiber stack mmap failed");
  mapping_ = static_cast<char*>(mapping);
  // The stack grows down: an overflow runs into this page and faults.
  TM2C_CHECK(mprotect(mapping_, page, PROT_NONE) == 0);
  stack_ = mapping_ + page;

  // Hand-build the frame tm2c_fiber_switch pops. Its `ret` lands in
  // tm2c_fiber_entry with rsp just above the frame; the frame ends 16 bytes
  // below the page-aligned stack top, so that rsp is 16-byte aligned and
  // the entry stub's `call` meets the ABI's alignment rule. A zero rbp ends
  // frame-pointer walks there; a new fiber starts with the creating
  // context's SSE/x87 control state.
  auto* frame = new (stack_ + stack_size_ - 16 - sizeof(SwitchFrame)) SwitchFrame{};
  asm volatile("fnstcw %0" : "=m"(frame->x87_cw));
  asm volatile("stmxcsr %0" : "=m"(frame->mxcsr));
  frame->r13 = reinterpret_cast<uint64_t>(&Fiber::Trampoline);
  frame->r12 = reinterpret_cast<uint64_t>(this);
  frame->return_address = reinterpret_cast<uint64_t>(&tm2c_fiber_entry);
  sp_ = frame;
}

Fiber::~Fiber() {
  Unwind();
  munmap(mapping_, mapping_size_);
}

void Fiber::Unwind() {
  if (!began_ || finished_) {
    return;  // nothing of fn_ is on the stack
  }
  TM2C_CHECK_MSG(g_current_fiber == nullptr, "Unwind() called from inside a fiber");
  unwinding_ = true;
  Resume();
  TM2C_CHECK_MSG(finished_, "fiber swallowed the unwind exception");
}

void Fiber::Trampoline(Fiber* self) {
#ifdef TM2C_ASAN_FIBERS
  // First entry into this fiber: no fake stack to restore yet; learn the
  // scheduler's stack bounds for the switches back.
  __sanitizer_finish_switch_fiber(nullptr, &self->sched_stack_bottom_,
                                  &self->sched_stack_size_);
#endif
  try {
    self->fn_();
  } catch (const Unwound&) {
    // Unwind(): the stack below fn_ has been cleanly destructed.
  }
  self->finished_ = true;
  g_current_fiber = nullptr;
#ifdef TM2C_ASAN_FIBERS
  // Terminal switch: a null save slot tells ASan this fiber's fake stack
  // can be destroyed.
  __sanitizer_start_switch_fiber(nullptr, self->sched_stack_bottom_, self->sched_stack_size_);
#endif
  tm2c_fiber_switch(&self->sp_, self->sched_sp_);
  // Unreachable: a finished fiber is never resumed.
  TM2C_FATAL("resumed a finished fiber");
}

void Fiber::Resume() {
  TM2C_CHECK_MSG(g_current_fiber == nullptr, "Resume() called from inside a fiber");
  TM2C_CHECK_MSG(!finished_, "Resume() on finished fiber");
  began_ = true;
  g_current_fiber = this;
#ifdef TM2C_ASAN_FIBERS
  __sanitizer_start_switch_fiber(&sched_fake_stack_, stack_, stack_size_);
#endif
  tm2c_fiber_switch(&sched_sp_, sp_);
#ifdef TM2C_ASAN_FIBERS
  // Back in the scheduler, via Yield() or the fiber finishing.
  __sanitizer_finish_switch_fiber(sched_fake_stack_, nullptr, nullptr);
#endif
  g_current_fiber = nullptr;
}

void Fiber::Yield() {
  TM2C_CHECK_MSG(g_current_fiber == this, "Yield() called from outside the fiber");
  g_current_fiber = nullptr;
#ifdef TM2C_ASAN_FIBERS
  __sanitizer_start_switch_fiber(&fiber_fake_stack_, sched_stack_bottom_, sched_stack_size_);
#endif
  tm2c_fiber_switch(&sp_, sched_sp_);
#ifdef TM2C_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(fiber_fake_stack_, &sched_stack_bottom_, &sched_stack_size_);
#endif
  g_current_fiber = this;
  if (unwinding_) {
    throw Unwound{};
  }
}

}  // namespace tm2c
