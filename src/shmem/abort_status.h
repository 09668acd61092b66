// Per-core abort-status words (TmConfig::abort_status_base).
//
// A DS-Lock service publishes a revocation by storing the victim's epoch in
// the victim core's status word — the paper's "status atomically switched
// from pending to aborted" — and the victim checks the word at its commit
// point. On the simulator the check and the write-set stores happen at one
// instant, so a revocation lands either before (the victim aborts) or after
// (the victim is fully persisted). On real threads and processes the two
// can interleave, so the committer brackets its stores with a persisting
// marker: BeginPersist swaps the word to PersistingMarker(epoch), and a
// publisher waits the marker out before storing. A revocation therefore
// still lands wholly before or wholly after the stores, and the grant it
// pays for is sent only once the old values are gone.
#ifndef TM2C_SRC_SHMEM_ABORT_STATUS_H_
#define TM2C_SRC_SHMEM_ABORT_STATUS_H_

#include <cstdint>
#include <thread>

#include "src/shmem/allocator.h"
#include "src/shmem/shared_memory.h"

namespace tm2c {

// Epochs are (core << 32) | attempt, so the top bit is never an epoch's.
constexpr uint64_t kPersistingBit = uint64_t{1} << 63;

constexpr uint64_t PersistingMarker(uint64_t epoch) { return kPersistingBit | epoch; }

// Allocates one zeroed status word per core and returns the base address
// (TmConfig::abort_status_base).
inline uint64_t AllocAbortStatusWords(ShmAllocator& allocator, SharedMemory& shmem,
                                      uint32_t num_cores) {
  const uint64_t base = allocator.AllocGlobal(uint64_t{num_cores} * kWordBytes);
  for (uint32_t c = 0; c < num_cores; ++c) {
    shmem.StoreWord(base + c * kWordBytes, 0);
  }
  return base;
}

// Committer side: claims the persist window for `epoch`. Returns false,
// leaving the word untouched, when it already names `epoch` (revoked);
// otherwise installs the marker and stores the word's prior value in
// `*prior` for EndPersist.
inline bool BeginPersist(SharedMemory& shmem, uint64_t addr, uint64_t epoch, uint64_t* prior) {
  for (;;) {
    const uint64_t current = shmem.LoadWord(addr);
    if (current == epoch) {
      return false;
    }
    if (shmem.CasWord(addr, current, PersistingMarker(epoch))) {
      *prior = current;
      return true;
    }
  }
}

// Closes the persist window. Publishers wait while the marker is up, so
// nothing else can have written the word since BeginPersist.
inline void EndPersist(SharedMemory& shmem, uint64_t addr, uint64_t prior) {
  shmem.StoreWord(addr, prior);
}

// Publisher side: stores the revoked `epoch`, first waiting out a persist
// window the owner holds open. The window never spans a simulator yield,
// so on the simulator this is a single store.
inline void PublishRevocation(SharedMemory& shmem, uint64_t addr, uint64_t epoch) {
  for (;;) {
    const uint64_t current = shmem.LoadWord(addr);
    if ((current & kPersistingBit) != 0) {
      std::this_thread::yield();
      continue;
    }
    if (shmem.CasWord(addr, current, epoch)) {
      return;
    }
  }
}

}  // namespace tm2c

#endif  // TM2C_SRC_SHMEM_ABORT_STATUS_H_
