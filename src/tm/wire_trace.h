// The process backend's kTrace* frame format: WireTraceSink encodes on the
// partition server, ReplayWireTraceFrame decodes on the host.
//
// A forked partition server cannot call into the host's TxTraceSink — the
// sink object in its address space is an inert copy-on-write duplicate. Its
// durability events (WAL appends, acks, flushes, checkpoints, the restart
// truncate) instead ride the partition's socket as kTrace* messages
// addressed to wire.h's kWireHostDst; the host-side router replays them
// into the real sink. The socket FIFO preserves per-partition order, which
// is all the crash-restart oracle needs.
//
// The transaction-level hooks are no-ops: a partition server never runs
// application transactions. Service-side revocation events are dropped too
// — they are human-readable dump context, and no process-backend oracle
// consumes them. The partition id is not encoded: the host knows it from
// which socket the frame arrived on.
#ifndef TM2C_SRC_TM_WIRE_TRACE_H_
#define TM2C_SRC_TM_WIRE_TRACE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/runtime/core_env.h"
#include "src/runtime/wire.h"
#include "src/tm/trace.h"

namespace tm2c {

class WireTraceSink : public TxTraceSink {
 public:
  explicit WireTraceSink(CoreEnv* env) : env_(env) {}

  void OnTxBegin(uint32_t, uint64_t, SimTime) override {}
  void OnTxRead(uint32_t, uint64_t, uint64_t) override {}
  void OnTxPersist(uint32_t, uint64_t, uint64_t) override {}
  void OnTxCommit(uint32_t, SimTime) override {}
  void OnTxAbort(uint32_t, SimTime, ConflictKind) override {}
  void OnRevocation(uint32_t, uint32_t, uint64_t, ConflictKind) override {}

  void OnWalAppend(uint32_t /*partition*/, uint32_t core, uint64_t epoch,
                   uint64_t record_index,
                   const std::vector<std::pair<uint64_t, uint64_t>>& pairs) override {
    Message msg;
    msg.type = MsgType::kTraceWalAppend;
    msg.w0 = record_index;
    msg.w1 = epoch;
    msg.w2 = core;
    msg.extra.reserve(2 * pairs.size());
    for (const auto& [addr, value] : pairs) {
      msg.extra.push_back(addr);
      msg.extra.push_back(value);
    }
    env_->Send(kWireHostDst, std::move(msg));
  }

  void OnCommitLogAck(uint32_t /*partition*/, uint32_t core, uint64_t epoch,
                      uint64_t record_index) override {
    Message msg;
    msg.type = MsgType::kTraceCommitLogAck;
    msg.w0 = record_index;
    msg.w1 = epoch;
    msg.w2 = core;
    env_->Send(kWireHostDst, std::move(msg));
  }

  void OnWalFlush(uint32_t /*partition*/, uint64_t durable_records,
                  uint64_t durable_bytes) override {
    Message msg;
    msg.type = MsgType::kTraceWalFlush;
    msg.w0 = durable_records;
    msg.w1 = durable_bytes;
    env_->Send(kWireHostDst, std::move(msg));
  }

  void OnCheckpoint(uint32_t /*partition*/, uint64_t checkpoint_index,
                    uint64_t records_covered) override {
    Message msg;
    msg.type = MsgType::kTraceCheckpoint;
    msg.w0 = checkpoint_index;
    msg.w1 = records_covered;
    env_->Send(kWireHostDst, std::move(msg));
  }

  void OnWalTruncate(uint32_t /*partition*/, uint64_t records_remaining,
                     uint64_t valid_bytes) override {
    Message msg;
    msg.type = MsgType::kTraceWalTruncate;
    msg.w0 = records_remaining;
    msg.w1 = valid_bytes;
    env_->Send(kWireHostDst, std::move(msg));
  }

 private:
  CoreEnv* env_;
};

// Host side: replays one kTrace* frame from `partition`'s server into
// `sink`. Any other frame type is fatal.
inline void ReplayWireTraceFrame(uint32_t partition, const Message& msg, TxTraceSink* sink) {
  switch (msg.type) {
    case MsgType::kTraceWalAppend: {
      TM2C_CHECK(msg.extra.size() % 2 == 0);
      std::vector<std::pair<uint64_t, uint64_t>> pairs;
      pairs.reserve(msg.extra.size() / 2);
      for (size_t i = 0; i + 1 < msg.extra.size(); i += 2) {
        pairs.emplace_back(msg.extra[i], msg.extra[i + 1]);
      }
      sink->OnWalAppend(partition, static_cast<uint32_t>(msg.w2), msg.w1, msg.w0, pairs);
      return;
    }
    case MsgType::kTraceCommitLogAck:
      sink->OnCommitLogAck(partition, static_cast<uint32_t>(msg.w2), msg.w1, msg.w0);
      return;
    case MsgType::kTraceWalFlush:
      sink->OnWalFlush(partition, msg.w0, msg.w1);
      return;
    case MsgType::kTraceCheckpoint:
      sink->OnCheckpoint(partition, msg.w0, msg.w1);
      return;
    case MsgType::kTraceWalTruncate:
      sink->OnWalTruncate(partition, msg.w0, msg.w1);
      return;
    default:
      TM2C_FATAL("unexpected host-bound frame type");
  }
}

}  // namespace tm2c

#endif  // TM2C_SRC_TM_WIRE_TRACE_H_
