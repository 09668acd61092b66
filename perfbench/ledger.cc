#include "perfbench/ledger.h"

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "src/cm/contention_manager.h"
#include "src/durability/wal.h"
#include "src/dslock/lock_table.h"
#include "src/runtime/spsc_channel.h"
#include "src/runtime/wire.h"

namespace tm2c {
namespace perfbench {
namespace {

constexpr int kBatches = 7;

// Runs `op` (which performs `per_call` units of work) in kBatches timed
// batches of `calls` calls after one warm-up batch, and returns the
// median per-unit time in ns.
template <typename Op>
double MedianNsPerUnit(uint64_t calls, uint64_t per_call, Op op) {
  for (uint64_t i = 0; i < calls; ++i) {
    op();
  }
  std::vector<double> per_unit;
  for (int b = 0; b < kBatches; ++b) {
    const uint64_t t0 = NowNs();
    for (uint64_t i = 0; i < calls; ++i) {
      op();
    }
    per_unit.push_back(static_cast<double>(NowNs() - t0) /
                       static_cast<double>(calls * per_call));
  }
  return Median(per_unit);
}

TxInfo Info(uint32_t core, uint64_t metric) {
  TxInfo info;
  info.core = core;
  info.epoch = (static_cast<uint64_t>(core) << 32) | 1;
  info.metric = metric;
  return info;
}

// One-way message hop between two threads over a pair of SPSC rings: a
// ping-pong round trip is two hops.
double SpscHopNs(uint64_t round_trips) {
  SpscChannel ping(256);
  SpscChannel pong(256);
  std::atomic<bool> stop{false};
  std::thread echo([&]() {
    Message m;
    while (!stop.load(std::memory_order_relaxed)) {
      if (ping.TryPop(&m)) {
        while (!pong.TryPush(m)) {
        }
      }
    }
  });
  const double ns = MedianNsPerUnit(round_trips, 2, [&]() {
    Message m;
    m.type = MsgType::kEcho;
    while (!ping.TryPush(m)) {
    }
    Message r;
    while (!pong.TryPop(&r)) {
    }
  });
  stop.store(true);
  echo.join();
  return ns;
}

Message BatchFrameMessage(uint32_t entries) {
  Message m;
  m.type = MsgType::kBatchAcquire;
  m.src = 1;
  m.w1 = (uint64_t{1} << 32) | 7;
  m.w2 = 42;
  for (uint32_t i = 0; i < entries; ++i) {
    m.extra.push_back(0x10000 + 8 * uint64_t{i});
  }
  return m;
}

// EncodeFrame + incremental WireDecoder decode of one batch frame.
double WireFrameNs(uint32_t entries, uint64_t calls, Result* result) {
  const Message msg = BatchFrameMessage(entries);
  std::vector<uint8_t> bytes;
  WireDecoder decoder;
  bool ok = true;
  const double ns = MedianNsPerUnit(calls, 1, [&]() {
    bytes.clear();
    EncodeFrame(0, msg, &bytes);
    decoder.Feed(bytes.data(), bytes.size());
    uint32_t dst = 0;
    Message out;
    ok = ok && decoder.TryNext(&dst, &out) == WireDecodeStatus::kOk &&
         out.extra.size() == entries;
  });
  if (!ok) {
    result->Fail("wire probe: a frame did not decode to its message");
  }
  return ns;
}

bool WriteAllBytes(int fd, const std::vector<uint8_t>& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

// Reads from `fd` until `decoder` yields one frame; false on EOF/corrupt.
bool ReadFrame(int fd, WireDecoder* decoder, Message* out) {
  uint8_t buf[4096];
  for (;;) {
    uint32_t dst = 0;
    const WireDecodeStatus st = decoder->TryNext(&dst, out);
    if (st == WireDecodeStatus::kOk) {
      return true;
    }
    if (st == WireDecodeStatus::kCorrupt) {
      return false;
    }
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    decoder->Feed(buf, static_cast<uint64_t>(n));
  }
}

// Framed request/reply round trip over a Unix socketpair with an echo
// thread on the far end, as the process backend's router and partition
// server exchange them.
double SocketRttUs(uint32_t entries, uint64_t calls, Result* result) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    result->Fail("socket probe: socketpair failed");
    return 0.0;
  }
  std::thread echo([fd = fds[1]]() {
    WireDecoder decoder;
    Message m;
    std::vector<uint8_t> reply;
    while (ReadFrame(fd, &decoder, &m)) {
      m.type = MsgType::kBatchReply;
      reply.clear();
      EncodeFrame(m.src, m, &reply);
      if (!WriteAllBytes(fd, reply)) {
        return;
      }
    }
  });
  const Message msg = BatchFrameMessage(entries);
  std::vector<uint8_t> request;
  EncodeFrame(0, msg, &request);
  WireDecoder decoder;
  bool ok = true;
  const double ns = MedianNsPerUnit(calls, 1, [&]() {
    Message reply;
    ok = ok && WriteAllBytes(fds[0], request) && ReadFrame(fds[0], &decoder, &reply) &&
         reply.type == MsgType::kBatchReply;
  });
  ::shutdown(fds[0], SHUT_RDWR);
  echo.join();
  ::close(fds[0]);
  ::close(fds[1]);
  if (!ok) {
    result->Fail("socket probe: a round trip lost or garbled its frame");
  }
  return ns / 1000.0;
}

// ReadLock + ReleaseRead of one stripe, walking the workload's addresses.
double ReadAcqRelNs(const std::vector<uint64_t>& addrs, Result* result) {
  LockTable table;
  const auto cm = MakeContentionManager(CmKind::kFairCm);
  const TxInfo me = Info(1, 0);
  size_t i = 0;
  bool ok = true;
  const double ns = MedianNsPerUnit(addrs.size(), 1, [&]() {
    const uint64_t addr = addrs[i];
    i = i + 1 == addrs.size() ? 0 : i + 1;
    ok = ok && table.ReadLock(me, addr, *cm).refused == ConflictKind::kNone;
    table.ReleaseRead(1, addr);
  });
  if (!ok || table.NumEntries() != 0) {
    result->Fail("dslock probe: an uncontended read lock was refused or leaked");
  }
  return ns;
}

// TryAcquireMany of 16 read locks plus their releases, per batch.
double Batch16AcqRelNs(const std::vector<uint64_t>& addrs, Result* result) {
  constexpr uint32_t kSpan = 16;
  LockTable table;
  const auto cm = MakeContentionManager(CmKind::kFairCm);
  const TxInfo me = Info(1, 0);
  const size_t spans = addrs.size() / kSpan;
  size_t s = 0;
  bool ok = true;
  const double ns = MedianNsPerUnit(spans, 1, [&]() {
    const uint64_t* span = addrs.data() + s * kSpan;
    s = s + 1 == spans ? 0 : s + 1;
    ok = ok && table.TryAcquireMany(me, span, kSpan, 0, *cm).granted_count == kSpan;
    for (uint32_t k = 0; k < kSpan; ++k) {
      table.ReleaseRead(1, span[k]);
    }
  });
  if (!ok || table.NumEntries() != 0) {
    result->Fail("dslock probe: an uncontended batch was not fully granted or leaked");
  }
  return ns;
}

// FairCM's decision against ten readers.
double CmDecideNs(uint64_t calls) {
  const auto cm = MakeContentionManager(CmKind::kFairCm);
  std::vector<TxInfo> holders;
  for (uint32_t r = 0; r < 10; ++r) {
    holders.push_back(Info(r + 2, 50 + r));
  }
  uint64_t metric = 0;
  uint64_t sink = 0;
  const double ns = MedianNsPerUnit(calls, 1, [&]() {
    metric = (metric + 7) & 127;
    sink += static_cast<uint64_t>(
        cm->Decide(Info(1, metric), holders, ConflictKind::kWriteAfterRead));
  });
  // Keeps the decisions observable so the calls cannot be elided.
  if (sink == UINT64_MAX) {
    std::abort();
  }
  return ns;
}

// In-memory Wal::Append of one workload-sized record; the log is
// restarted every `calls` appends so memory stays bounded.
double WalAppendNs(uint32_t record_words, uint64_t calls) {
  std::vector<uint64_t> payload(record_words);
  for (uint32_t i = 0; i < record_words; ++i) {
    payload[i] = 0x9e3779b97f4a7c15ull * (i + 1);
  }
  std::vector<double> per_op;
  for (int b = 0; b <= kBatches; ++b) {
    Wal wal(Wal::Options{});
    const uint64_t t0 = NowNs();
    for (uint64_t i = 0; i < calls; ++i) {
      payload[0] = i;
      wal.Append(payload.data(), record_words);
    }
    if (b > 0) {  // batch 0 warms up
      per_op.push_back(static_cast<double>(NowNs() - t0) / static_cast<double>(calls));
    }
  }
  return Median(per_op);
}

// Append + fsync'd Flush of one record to a file-backed Wal; the median
// flush time.
double FsyncFlushUs(const std::string& dir, uint32_t record_words, uint64_t flushes,
                    Result* result) {
  const std::string path = dir + "/fsync_probe.wal";
  std::vector<double> flush_us;
  {
    Wal::Options options;
    options.fsync_on_flush = true;
    options.path = path;
    Wal wal(options);
    std::vector<uint64_t> payload(record_words, 1);
    for (uint64_t i = 0; i < flushes; ++i) {
      payload[0] = i;
      wal.Append(payload.data(), record_words);
      const uint64_t t0 = NowNs();
      wal.Flush();
      flush_us.push_back(static_cast<double>(NowNs() - t0) / 1000.0);
    }
    if (wal.durable_records() != flushes) {
      result->Fail("wal probe: durable records differ from appended records");
    }
  }
  const WalReadResult back = ReadWalFile(path);
  if (!back.clean() || back.records.size() != flushes) {
    result->Fail("wal probe: the fsync'd file does not hold every flushed record");
  }
  std::filesystem::remove(path);
  return Median(flush_us);
}

}  // namespace

void RunLedgerProbes(const LedgerInputs& in, Result* result) {
  const uint64_t scale = in.tiny ? 20 : 1;
  result->Add("runtime.spsc_hop_ns", SpscHopNs(40000 / scale), "ns");
  result->Add("runtime.wire_frame_ns", WireFrameNs(in.batch_entries, 40000 / scale, result),
              "ns");
  result->Add("runtime.socket_rtt_us", SocketRttUs(in.batch_entries, 4000 / scale, result),
              "us");
  result->Add("dslock.read_acq_rel_ns", ReadAcqRelNs(in.lock_addrs, result), "ns");
  result->Add("dslock.batch16_acq_rel_ns", Batch16AcqRelNs(in.lock_addrs, result), "ns");
  result->Add("cm.decide_ns", CmDecideNs(40000 / scale), "ns");
  result->Add("wal.append_ns", WalAppendNs(in.record_words, 20000 / scale), "ns");
  result->Add("wal.fsync_flush_us",
              FsyncFlushUs(in.probe_dir, in.record_words, in.tiny ? 8 : 64, result), "us");
}

}  // namespace perfbench
}  // namespace tm2c
