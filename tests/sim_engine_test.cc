#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <cfenv>
#include <cstdint>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/engine.h"
#include "src/sim/fiber.h"
#include "src/sim/time.h"

namespace tm2c {
namespace {

TEST(Fiber, RunsToCompletion) {
  int state = 0;
  Fiber f([&state]() { state = 1; });
  EXPECT_FALSE(f.finished());
  f.Resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(state, 1);
}

TEST(Fiber, YieldSuspendsAndResumes) {
  std::vector<int> trace;
  Fiber* handle = nullptr;
  Fiber f([&trace, &handle]() {
    trace.push_back(1);
    handle->Yield();
    trace.push_back(3);
  });
  handle = &f;
  f.Resume();
  trace.push_back(2);
  f.Resume();
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, CurrentTracksRunningFiber) {
  EXPECT_EQ(Fiber::Current(), nullptr);
  Fiber* observed = nullptr;
  Fiber f([&observed]() { observed = Fiber::Current(); });
  f.Resume();
  EXPECT_EQ(observed, &f);
  EXPECT_EQ(Fiber::Current(), nullptr);
}

uint32_t Mxcsr() {
  uint32_t v = 0;
  asm volatile("stmxcsr %0" : "=m"(v));
  return v;
}

uint16_t X87ControlWord() {
  uint16_t v = 0;
  asm volatile("fnstcw %0" : "=m"(v));
  return v;
}

// Rounding-control fields: x87 CW bits 10-11 (the FE_* constants' own
// position), MXCSR bits 13-14.
uint32_t MxcsrRounding() { return (Mxcsr() >> 3) & 0xc00; }
uint32_t X87Rounding() { return X87ControlWord() & 0xc00u; }

TEST(Fiber, FloatingPointControlWordsArePerContext) {
  const uint32_t sched_mxcsr = Mxcsr();
  const uint16_t sched_cw = X87ControlWord();
  ASSERT_EQ(MxcsrRounding(), static_cast<uint32_t>(FE_TONEAREST));

  Fiber* a_handle = nullptr;
  uint32_t a_mxcsr_rounding = 0;
  uint32_t a_x87_rounding = 0;
  Fiber a([&]() {
    std::fesetround(FE_DOWNWARD);
    a_handle->Yield();
    a_mxcsr_rounding = MxcsrRounding();
    a_x87_rounding = X87Rounding();
  });
  a_handle = &a;
  uint32_t b_mxcsr = 0;
  uint16_t b_cw = 0;
  Fiber b([&]() {
    b_mxcsr = Mxcsr();
    b_cw = X87ControlWord();
    std::fesetround(FE_UPWARD);  // finishes with it set
  });

  a.Resume();  // a switches to round-down, then yields
  EXPECT_EQ(Mxcsr(), sched_mxcsr);
  EXPECT_EQ(X87ControlWord(), sched_cw);
  b.Resume();  // the sibling starts with its creator's state, not a's
  EXPECT_EQ(b_mxcsr, sched_mxcsr);
  EXPECT_EQ(b_cw, sched_cw);
  EXPECT_EQ(Mxcsr(), sched_mxcsr);
  EXPECT_EQ(X87ControlWord(), sched_cw);
  a.Resume();  // a still sees its own mode after the round trip
  EXPECT_EQ(a_mxcsr_rounding, static_cast<uint32_t>(FE_DOWNWARD));
  EXPECT_EQ(a_x87_rounding, static_cast<uint32_t>(FE_DOWNWARD));
  EXPECT_EQ(Mxcsr(), sched_mxcsr);
  EXPECT_EQ(X87ControlWord(), sched_cw);
}

[[noreturn]] __attribute__((noinline)) void ThrowFrom(int depth) {
  if (depth > 0) {
    ThrowFrom(depth - 1);
  }
  throw std::runtime_error("deep");
}

TEST(Fiber, ExceptionThrownAndCaughtAcrossYield) {
  Fiber* handle = nullptr;
  std::vector<std::string> caught;
  Fiber f([&]() {
    try {
      handle->Yield();  // suspended inside the try block
      ThrowFrom(4);
    } catch (const std::runtime_error& e) {
      caught.push_back(e.what());
    }
    try {
      ThrowFrom(0);
    } catch (const std::runtime_error& e) {
      handle->Yield();  // suspended inside the handler
      caught.push_back(e.what());
    }
  });
  handle = &f;
  f.Resume();
  EXPECT_TRUE(caught.empty());
  f.Resume();
  EXPECT_EQ(caught, (std::vector<std::string>{"deep"}));
  f.Resume();
  EXPECT_EQ(caught, (std::vector<std::string>{"deep", "deep"}));
  EXPECT_TRUE(f.finished());
}

struct CountOnDestroy {
  int* count;
  ~CountOnDestroy() { ++*count; }
};

__attribute__((noinline)) void SuspendDeep(Fiber* f, int depth, int* destroyed) {
  CountOnDestroy guard{destroyed};
  if (depth == 0) {
    f->Yield();
    return;
  }
  SuspendDeep(f, depth - 1, destroyed);
}

TEST(Fiber, UnwindRunsEveryDestructorOfADeepStack) {
  int destroyed = 0;
  bool reached_end = false;
  Fiber* handle = nullptr;
  Fiber f([&]() {
    SuspendDeep(handle, 5, &destroyed);
    reached_end = true;
  });
  handle = &f;
  f.Resume();
  EXPECT_EQ(destroyed, 0);
  f.Unwind();
  EXPECT_EQ(destroyed, 6);  // depth 5..0
  EXPECT_TRUE(f.finished());
  EXPECT_FALSE(reached_end);
}

TEST(Fiber, NeverResumedFiberIsDestroyedCleanly) {
  auto token = std::make_shared<int>(0);
  bool ran = false;
  {
    Fiber f([token, &ran]() { ran = true; });
    EXPECT_EQ(token.use_count(), 2);
    f.Unwind();  // no-op: nothing of the body is on the stack
    EXPECT_FALSE(f.finished());
  }
  EXPECT_FALSE(ran);
  EXPECT_EQ(token.use_count(), 1);
}

// With a frame pointer, the callee's frame address is its entry rsp - 8:
// 16-byte aligned exactly when the caller's call site was.
__attribute__((noinline)) uintptr_t FrameMisalignment() {
  return reinterpret_cast<uintptr_t>(__builtin_frame_address(0)) % 16;
}

TEST(Fiber, StackIsSixteenByteAlignedAtEntryAndAfterResume) {
  std::vector<uintptr_t> misalignment;
  Fiber* handle = nullptr;
  Fiber f([&]() {
    misalignment.push_back(FrameMisalignment());
    handle->Yield();
    misalignment.push_back(FrameMisalignment());
  });
  handle = &f;
  f.Resume();
  f.Resume();
  EXPECT_EQ(misalignment, (std::vector<uintptr_t>{0, 0}));
}

TEST(Fiber, ManyFibersInterleaveReplayably) {
  constexpr int kFibers = 64;
  constexpr int kCycles = 10000;
  auto run = []() {
    std::vector<std::unique_ptr<Fiber>> fibers(kFibers);
    uint64_t trace = 0xcbf29ce484222325ull;  // FNV-1a over (fiber, cycle)
    bool all_current = true;
    for (int i = 0; i < kFibers; ++i) {
      fibers[i] = std::make_unique<Fiber>([&fibers, &trace, &all_current, i]() {
        for (int k = 0; k < kCycles; ++k) {
          const uint64_t step = (static_cast<uint64_t>(i) << 32) | static_cast<uint64_t>(k);
          trace = (trace ^ step) * 0x100000001b3ull;
          fibers[i]->Yield();
          all_current = all_current && Fiber::Current() == fibers[i].get();
        }
      });
    }
    std::vector<int> live(kFibers);
    std::iota(live.begin(), live.end(), 0);
    Rng rng(2024);
    uint64_t resumes = 0;
    while (!live.empty()) {
      const size_t pick = rng.NextBelow(live.size());
      Fiber* f = fibers[live[pick]].get();
      f->Resume();
      ++resumes;
      if (f->finished()) {
        live[pick] = live.back();
        live.pop_back();
      }
    }
    EXPECT_TRUE(all_current);
    EXPECT_EQ(resumes, static_cast<uint64_t>(kFibers) * (kCycles + 1));
    return trace;
  };
  const uint64_t trace = run();
  EXPECT_EQ(trace, run());
  // Pinned: the schedule depends only on the seed, never on the switch.
  EXPECT_EQ(trace, 0x1df05b2040b1bc67ull);
}

volatile int g_recursion_limit = 1 << 30;

__attribute__((noinline)) int Recurse(int depth) {
  volatile char pad[512];
  pad[0] = static_cast<char>(depth);
  if (depth >= g_recursion_limit) {
    return pad[0];
  }
  return Recurse(depth + 1) + pad[0];
}

constexpr size_t kOverflowStackSize = 64 * 1024;
uintptr_t g_overflow_stack_probe = 0;  // a frame address near the stack top

// SIGSEGV handler (run on an alternate stack): exits 42 only when the
// fault is a protection fault (a mapped page with no access, not an
// unmapped hole) right below the fiber's stack, i.e. the guard page.
void ExitOnGuardPageFault(int, siginfo_t* info, void*) {
  const uintptr_t depth = g_overflow_stack_probe - reinterpret_cast<uintptr_t>(info->si_addr);
  const bool in_guard = depth > kOverflowStackSize - 4096 && depth <= kOverflowStackSize + 4096;
  _exit(info->si_code == SEGV_ACCERR && in_guard ? 42 : 1);
}

TEST(FiberDeathTest, StackOverflowFaultsOnTheGuardPage) {
  // Runaway recursion must hit the PROT_NONE page below the stack rather
  // than silently scribbling over whatever the allocator put there.
  EXPECT_EXIT(
      {
        static char alt_stack[64 * 1024];
        stack_t ss = {};
        ss.ss_sp = alt_stack;
        ss.ss_size = sizeof(alt_stack);
        sigaltstack(&ss, nullptr);
        struct sigaction sa = {};
        sa.sa_sigaction = &ExitOnGuardPageFault;
        sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
        sigaction(SIGSEGV, &sa, nullptr);
        Fiber f(
            []() {
              g_overflow_stack_probe = reinterpret_cast<uintptr_t>(__builtin_frame_address(0));
              Recurse(0);
            },
            kOverflowStackSize);
        f.Resume();
      },
      ::testing::ExitedWithCode(42), "");
}

TEST(SimEngine, EventsRunInTimeOrder) {
  SimEngine engine;
  std::vector<int> order;
  engine.ScheduleAt(30, [&order]() { order.push_back(3); });
  engine.ScheduleAt(10, [&order]() { order.push_back(1); });
  engine.ScheduleAt(20, [&order]() { order.push_back(2); });
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), 30u);
}

TEST(SimEngine, EqualTimestampsRunFifo) {
  SimEngine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    engine.ScheduleAt(5, [&order, i]() { order.push_back(i); });
  }
  engine.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(SimEngine, CallbacksScheduledFromCallbacksReuseSlotsSafely) {
  // Each callback schedules two more at the same instant plus one later,
  // so the slot table both grows (reallocating under a running callback)
  // and recycles freed slots.
  SimEngine engine;
  std::vector<int> order;
  int next_id = 0;
  std::function<void(int)> spawn = [&](int depth) {
    const int id = next_id++;
    engine.ScheduleAfter(depth, [&, id, depth]() {
      order.push_back(id);
      if (depth < 6) {
        spawn(depth + 1);
        spawn(depth + 1);
      }
    });
  };
  spawn(0);
  engine.Run();
  EXPECT_EQ(order.size(), 127u);  // a full binary tree of depth 6
  EXPECT_EQ(engine.events_executed(), 127u);
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_LT(order[i - 1], order[i]);  // FIFO in scheduling order
  }
}

TEST(SimEngine, PendingCallbacksAreReleasedWithTheEngine) {
  auto token = std::make_shared<int>(0);
  {
    SimEngine engine;
    engine.ScheduleAt(10, [token]() {});
    engine.ScheduleAt(20, [token]() {});
    engine.Run(15);
    EXPECT_EQ(token.use_count(), 2);  // the executed one is gone already
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(SimEngine, SleepAdvancesTime) {
  SimEngine engine;
  SimTime woke_at = 0;
  engine.AddActor([&engine, &woke_at]() {
    engine.Sleep(100);
    woke_at = engine.now();
    engine.Sleep(50);
  });
  engine.Run();
  EXPECT_EQ(woke_at, 100u);
  EXPECT_EQ(engine.now(), 150u);
}

TEST(SimEngine, RunUntilStopsEarly) {
  SimEngine engine;
  int steps = 0;
  engine.AddActor([&engine, &steps]() {
    for (int i = 0; i < 100; ++i) {
      engine.Sleep(10);
      ++steps;
    }
  });
  engine.Run(55);
  EXPECT_EQ(steps, 5);
  // now() reflects the last executed event, not the horizon.
  EXPECT_EQ(engine.now(), 50u);
}

TEST(SimEngine, BlockAndWake) {
  SimEngine engine;
  SimTime woke_at = 0;
  const size_t sleeper = engine.AddActor([&engine, &woke_at]() {
    woke_at = engine.BlockCurrent();
  });
  engine.AddActor([&engine, sleeper]() {
    engine.Sleep(200);
    engine.WakeActor(sleeper, 25);
  });
  engine.Run();
  EXPECT_EQ(woke_at, 225u);
}

TEST(SimEngine, ActorBlockedReflectsState) {
  SimEngine engine;
  const size_t sleeper = engine.AddActor([&engine]() { engine.BlockCurrent(); });
  bool blocked_seen = false;
  engine.AddActor([&engine, sleeper, &blocked_seen]() {
    engine.Sleep(10);
    blocked_seen = engine.ActorBlocked(sleeper);
    engine.WakeActor(sleeper);
  });
  engine.Run();
  EXPECT_TRUE(blocked_seen);
  EXPECT_FALSE(engine.ActorBlocked(sleeper));
}

TEST(SimEngine, CurrentActorIdentifiesCaller) {
  SimEngine engine;
  std::vector<size_t> seen;
  for (int i = 0; i < 3; ++i) {
    engine.AddActor([&engine, &seen]() { seen.push_back(engine.CurrentActor()); });
  }
  engine.Run();
  EXPECT_EQ(seen, (std::vector<size_t>{0, 1, 2}));
}

TEST(SimEngine, RequestStopHaltsLoop) {
  SimEngine engine;
  int ticks = 0;
  engine.AddActor([&engine, &ticks]() {
    for (int i = 0; i < 1000; ++i) {
      engine.Sleep(1);
      if (++ticks == 10) {
        engine.RequestStop();
        // The actor keeps running after the stop request until it yields.
      }
    }
  });
  engine.Run();
  EXPECT_EQ(ticks, 10);
}

TEST(SimEngineChaos, ShuffleTiesIsSeededAndDeterministic) {
  auto run = [](uint64_t seed, bool shuffle) {
    SimEngine engine;
    ChaosConfig chaos;
    chaos.seed = seed;
    chaos.shuffle_ties = shuffle;
    engine.SetChaos(chaos);
    std::vector<int> order;
    for (int i = 0; i < 16; ++i) {
      engine.ScheduleAt(5, [&order, i]() { order.push_back(i); });
    }
    engine.Run();
    return order;
  };
  std::vector<int> fifo(16);
  for (int i = 0; i < 16; ++i) {
    fifo[i] = i;
  }
  // Chaos off: the explicit sequence-number tie-break keeps FIFO order
  // regardless of the seed.
  EXPECT_EQ(run(7, false), fifo);
  EXPECT_EQ(run(8, false), fifo);
  // Chaos on: a seed is one deterministic permutation; different seeds
  // explore different ones.
  EXPECT_EQ(run(7, true), run(7, true));
  EXPECT_NE(run(7, true), fifo);
  EXPECT_NE(run(7, true), run(8, true));
}

TEST(SimEngineChaos, ShuffledEventsStillRespectTimeOrder) {
  SimEngine engine;
  ChaosConfig chaos;
  chaos.seed = 42;
  chaos.shuffle_ties = true;
  engine.SetChaos(chaos);
  std::vector<int> order;
  // Ties only exist within one instant: cross-instant order is inviolable.
  for (int i = 0; i < 8; ++i) {
    engine.ScheduleAt(20, [&order, i]() { order.push_back(100 + i); });
    engine.ScheduleAt(10, [&order, i]() { order.push_back(i); });
  }
  engine.Run();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_LT(order[i], 100);
    EXPECT_GE(order[8 + i], 100);
  }
}

TEST(SimEngine, ManyActorsInterleaveDeterministically) {
  // Two identical engines must produce identical interleavings.
  auto run_once = []() {
    SimEngine engine;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i) {
      engine.AddActor([&engine, &order, i]() {
        for (int k = 0; k < 5; ++k) {
          engine.Sleep(static_cast<SimTime>(7 * (i + 1)));
          order.push_back(i);
        }
      });
    }
    engine.Run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(SimTime, ConversionsRoundTrip) {
  EXPECT_EQ(MicrosToSim(5), 5u * kPicosPerMicro);
  EXPECT_DOUBLE_EQ(SimToMicros(MicrosToSim(5)), 5.0);
  // 533 MHz -> ~1876 ps period.
  const SimTime period = PeriodPsFromMhz(533);
  EXPECT_NEAR(static_cast<double>(period), 1876.0, 1.0);
  EXPECT_EQ(CyclesToSim(10, period), 10 * period);
}

}  // namespace
}  // namespace tm2c
