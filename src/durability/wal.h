// Append-only write-ahead log with length+CRC framed records.
//
// A log is a byte image that starts with an 8-byte magic header and is
// followed by zero or more frames:
//
//   [u32 payload_len_bytes][u32 crc32(payload)][payload: len/8 u64 words]
//
// The writer (Wal) always maintains the image in memory, in fixed-size
// segments (WalImage); an optional file sink mirrors every append so the
// fsync path can be exercised for real.
// Flush() advances the durable watermark (durable_records / durable_bytes):
// everything at or below the watermark is what a crash is allowed to keep,
// everything above it is what a crash may lose. In fsync mode Flush() also
// fsyncs the backing file.
//
// The reader (ReadWal / ReadWalFile) scans frames until the first problem
// and classifies it: an incomplete header or payload at the end of the
// image is a torn tail (the expected shape after a crash mid-append); a
// CRC or length-field mismatch on a complete frame is corruption. Both
// stop the scan — recovery replays exactly the valid prefix.
#ifndef TM2C_SRC_DURABILITY_WAL_H_
#define TM2C_SRC_DURABILITY_WAL_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

namespace tm2c {

// Bytes of the magic header at the start of every log image.
constexpr uint64_t kWalHeaderBytes = 8;

// Bytes of framing (length + CRC) preceding every record payload.
constexpr uint64_t kWalFrameOverheadBytes = 8;

// CRC-32 (IEEE 802.3 polynomial, reflected), over a byte range.
uint32_t Crc32(const uint8_t* data, uint64_t size);

struct WalRecord {
  std::vector<uint64_t> payload;
};

struct WalReadResult {
  std::vector<WalRecord> records;
  // Bytes of the valid prefix: magic header plus every complete,
  // CRC-clean frame before the first problem.
  uint64_t valid_bytes = 0;
  // Trailing bytes formed an incomplete frame (crash mid-append).
  bool torn_tail = false;
  // A complete frame failed its CRC or carried an impossible length.
  bool crc_mismatch = false;
  // The image is shorter than the magic header or the magic differs.
  bool bad_magic = false;

  bool clean() const { return !crc_mismatch && !bad_magic; }
};

// A log image held in fixed-size segments. Growing it allocates one more
// segment and never copies or frees what is already written, so a long
// log neither doubles its footprint at a reallocation nor leaves freed
// multi-megabyte buffers behind. A frame may straddle two segments.
class WalImage {
 public:
  static constexpr uint64_t kSegmentBytes = 64 * 1024;
  static_assert(kSegmentBytes % sizeof(uint64_t) == 0, "a segment holds whole words");

  uint64_t size() const { return size_; }

  // Copies bytes [offset, offset + n) of the image into `out`.
  void CopyOut(uint64_t offset, uint64_t n, uint8_t* out) const;

  // Calls fn(const uint8_t* data, uint64_t len) on each contiguous piece
  // of bytes [offset, offset + n), in order.
  template <typename Fn>
  void ForEachPiece(uint64_t offset, uint64_t n, Fn&& fn) const {
    while (n > 0) {
      const uint64_t in_segment = offset % kSegmentBytes;
      const uint64_t len = std::min(n, kSegmentBytes - in_segment);
      fn(segments_[offset / kSegmentBytes].get() + in_segment, len);
      offset += len;
      n -= len;
    }
  }

  // Appends 8 bytes and returns where they live. The image size must be a
  // multiple of 8, as a writer's always is (header and frames are whole
  // words): a segment holds whole words, so they are contiguous.
  uint8_t* AppendWord();

  // Appends the rest of `file`'s contents.
  void AppendFile(std::FILE* file);

  void Clear();

 private:
  // Room at the tail for at least one byte (a fresh segment when full).
  uint8_t* Tail();

  std::vector<std::unique_ptr<uint8_t[]>> segments_;
  uint64_t size_ = 0;
};

// Scans a log image (see the framing above). Stops at the first torn or
// corrupt frame; the records vector holds the valid prefix. The flat-bytes
// entry is for hand-made (torn or corrupted) images; both share one frame
// loop.
WalReadResult ReadWal(const WalImage& image);
WalReadResult ReadWal(const std::vector<uint8_t>& bytes);

// Reads `path` fully into a WalImage and scans it. A missing/unreadable
// file reads as an empty image (bad_magic = true).
WalReadResult ReadWalFile(const std::string& path);

class Wal {
 public:
  struct Options {
    // fsync the backing file on every Flush() (no-op without a path).
    bool fsync_on_flush = false;
    // Mirror the image into this file; empty = in-memory only.
    std::string path;
    // Reopen an existing backing file instead of truncating it: scan it,
    // keep the valid prefix (ReadWal semantics — every complete CRC-clean
    // frame), truncate any torn tail off the file, and continue appending
    // after it. The kept records count as already durable. A missing or
    // magic-less file falls back to a fresh log. Used by a restarted
    // partition server recovering its WAL after the previous server
    // process was killed.
    bool recover_existing = false;
  };

  explicit Wal(Options options);
  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  // Appends one framed record whose payload is `head` followed by `body`
  // (gathered straight into the image, so a caller with a separate header
  // copies nothing); returns its zero-based record index.
  uint64_t Append(const uint64_t* head, uint64_t head_words, const uint64_t* body = nullptr,
                  uint64_t body_words = 0);

  // Makes every appended record durable: flushes (and in fsync mode syncs)
  // the backing file and advances the durable watermark.
  void Flush();

  // Flushes the backing file's stdio buffer WITHOUT advancing the durable
  // watermark. The process backend calls this on every log before forking
  // partition servers: buffered bytes sitting in the parent's stdio buffer
  // would otherwise be duplicated into the file by every child's exit.
  void FlushFile();

  // Records recovered from an existing backing file (recover_existing);
  // zero for a fresh log.
  uint64_t recovered_records() const { return recovered_records_; }

  // Reinitializes this log from its backing file (recover_existing
  // semantics): closes the current handle, keeps the file's valid prefix,
  // truncates any torn tail off the file, and continues appending after
  // it. A restarted partition server calls this on the Wal it inherited
  // at fork time, after its predecessor died mid-run.
  void RecoverBackingFile();

  uint64_t appended_records() const { return appended_records_; }
  uint64_t durable_records() const { return durable_records_; }
  uint64_t durable_bytes() const { return durable_bytes_; }
  uint64_t unflushed_records() const { return appended_records_ - durable_records_; }

  // The full appended image, including not-yet-flushed frames. A crash at
  // the current moment keeps only the first durable_bytes() of it.
  const WalImage& image() const { return image_; }

 private:
  void Init();

  Options options_;
  WalImage image_;
  std::FILE* file_ = nullptr;
  uint64_t appended_records_ = 0;
  uint64_t durable_records_ = 0;
  uint64_t durable_bytes_ = kWalHeaderBytes;
  uint64_t recovered_records_ = 0;
};

}  // namespace tm2c

#endif  // TM2C_SRC_DURABILITY_WAL_H_
