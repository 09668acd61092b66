#include "src/durability/wal.h"

#include <unistd.h>

#include <cstring>

#include "src/common/check.h"

namespace tm2c {
namespace {

// "TM2CWAL" plus a format version byte.
constexpr uint8_t kWalMagic[kWalHeaderBytes] = {'T', 'M', '2', 'C', 'W', 'A', 'L', 0x01};

uint32_t LoadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

void StoreU32(uint8_t* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

uint64_t LoadU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = v << 8 | p[i];
  }
  return v;
}

void StoreU64(uint8_t* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

constexpr uint32_t kCrc32Init = 0xFFFFFFFFu;

// Table-driven CRC-32 (IEEE, reflected polynomial 0xEDB88320), continued
// over one more byte range; Crc32 is Init, Update..., then XOR with Init.
uint32_t Crc32Update(uint32_t crc, const uint8_t* data, uint64_t size) {
  static const auto table = [] {
    std::vector<uint32_t> t(256);
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  for (uint64_t i = 0; i < size; ++i) {
    crc = table[(crc ^ data[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc;
}

// The one frame loop behind every ReadWal entry. `copy_out(offset, n, out)`
// copies n image bytes starting at `offset` into `out`.
template <typename CopyOut>
WalReadResult ScanFrames(uint64_t size, CopyOut&& copy_out) {
  WalReadResult result;
  if (size < kWalHeaderBytes) {
    result.bad_magic = true;
    return result;
  }
  uint8_t magic[kWalHeaderBytes];
  copy_out(0, kWalHeaderBytes, magic);
  if (std::memcmp(magic, kWalMagic, kWalHeaderBytes) != 0) {
    result.bad_magic = true;
    return result;
  }
  uint64_t offset = kWalHeaderBytes;
  result.valid_bytes = offset;
  std::vector<uint8_t> payload;
  while (offset < size) {
    const uint64_t remaining = size - offset;
    if (remaining < kWalFrameOverheadBytes) {
      result.torn_tail = true;
      break;
    }
    uint8_t header[kWalFrameOverheadBytes];
    copy_out(offset, kWalFrameOverheadBytes, header);
    const uint64_t len = LoadU32(header);
    const uint32_t crc = LoadU32(header + 4);
    if (len == 0 || len % sizeof(uint64_t) != 0) {
      // A complete header with an impossible length: corruption, not a
      // torn append (the writer never frames such a payload).
      result.crc_mismatch = true;
      break;
    }
    if (remaining < kWalFrameOverheadBytes + len) {
      result.torn_tail = true;
      break;
    }
    payload.resize(len);
    copy_out(offset + kWalFrameOverheadBytes, len, payload.data());
    if (Crc32(payload.data(), len) != crc) {
      result.crc_mismatch = true;
      break;
    }
    WalRecord record;
    record.payload.reserve(len / sizeof(uint64_t));
    for (uint64_t w = 0; w < len / sizeof(uint64_t); ++w) {
      record.payload.push_back(LoadU64(payload.data() + w * sizeof(uint64_t)));
    }
    result.records.push_back(std::move(record));
    offset += kWalFrameOverheadBytes + len;
    result.valid_bytes = offset;
  }
  return result;
}

}  // namespace

uint32_t Crc32(const uint8_t* data, uint64_t size) {
  return Crc32Update(kCrc32Init, data, size) ^ kCrc32Init;
}

void WalImage::CopyOut(uint64_t offset, uint64_t n, uint8_t* out) const {
  TM2C_CHECK(offset + n <= size_);
  ForEachPiece(offset, n, [&out](const uint8_t* data, uint64_t len) {
    std::memcpy(out, data, len);
    out += len;
  });
}

uint8_t* WalImage::Tail() {
  if (size_ == segments_.size() * kSegmentBytes) {
    // Uninitialized on purpose: every byte is written before it is read.
    segments_.emplace_back(new uint8_t[kSegmentBytes]);
  }
  return segments_[size_ / kSegmentBytes].get() + size_ % kSegmentBytes;
}

uint8_t* WalImage::AppendWord() {
  TM2C_DCHECK(size_ % sizeof(uint64_t) == 0);
  uint8_t* word = Tail();
  size_ += sizeof(uint64_t);
  return word;
}

void WalImage::AppendFile(std::FILE* file) {
  for (;;) {
    uint8_t* tail = Tail();
    const uint64_t room = kSegmentBytes - size_ % kSegmentBytes;
    const size_t n = std::fread(tail, 1, room, file);
    size_ += n;
    if (n < room) {
      return;
    }
  }
}

void WalImage::Clear() {
  segments_.clear();
  size_ = 0;
}

WalReadResult ReadWal(const WalImage& image) {
  return ScanFrames(image.size(), [&image](uint64_t offset, uint64_t n, uint8_t* out) {
    image.CopyOut(offset, n, out);
  });
}

WalReadResult ReadWal(const std::vector<uint8_t>& bytes) {
  return ScanFrames(bytes.size(), [&bytes](uint64_t offset, uint64_t n, uint8_t* out) {
    std::memcpy(out, bytes.data() + offset, n);
  });
}

WalReadResult ReadWalFile(const std::string& path) {
  WalImage image;
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    image.AppendFile(f);
    std::fclose(f);
  }
  return ReadWal(image);
}

Wal::Wal(Options options) : options_(std::move(options)) { Init(); }

void Wal::RecoverBackingFile() {
  TM2C_CHECK_MSG(!options_.path.empty(), "wal: recovery needs a backing file");
  if (file_ != nullptr) {
    // A restarted server's inherited handle: its stdio buffer is empty
    // (the parent flushed before forking), so closing only drops this
    // process's view of the descriptor.
    std::fclose(file_);
    file_ = nullptr;
  }
  options_.recover_existing = true;
  image_.Clear();
  appended_records_ = 0;
  durable_records_ = 0;
  durable_bytes_ = kWalHeaderBytes;
  recovered_records_ = 0;
  Init();
}

void Wal::Init() {
  if (options_.recover_existing && !options_.path.empty()) {
    const WalReadResult existing = ReadWalFile(options_.path);
    if (!existing.bad_magic) {
      TM2C_CHECK_MSG(!existing.crc_mismatch,
                     "wal: refusing to recover over a corrupt (non-torn) log");
      // Keep exactly the valid prefix: rebuild the in-memory image from it
      // and cut any torn tail off the file before appending after it.
      std::memcpy(image_.AppendWord(), kWalMagic, kWalHeaderBytes);
      for (const WalRecord& record : existing.records) {
        Append(record.payload.data(), record.payload.size());
      }
      TM2C_CHECK(image_.size() == existing.valid_bytes);
      TM2C_CHECK(::truncate(options_.path.c_str(),
                            static_cast<off_t>(existing.valid_bytes)) == 0);
      file_ = std::fopen(options_.path.c_str(), "ab");
      TM2C_CHECK_MSG(file_ != nullptr, "wal: could not reopen backing file");
      recovered_records_ = existing.records.size();
      durable_records_ = appended_records_;
      durable_bytes_ = image_.size();
      return;
    }
  }
  std::memcpy(image_.AppendWord(), kWalMagic, kWalHeaderBytes);
  if (!options_.path.empty()) {
    file_ = std::fopen(options_.path.c_str(), "wb");
    TM2C_CHECK_MSG(file_ != nullptr, "wal: could not open backing file");
    TM2C_CHECK(std::fwrite(kWalMagic, 1, kWalHeaderBytes, file_) == kWalHeaderBytes);
  }
}

Wal::~Wal() {
  if (file_ != nullptr) {
    std::fclose(file_);
  }
}

uint64_t Wal::Append(const uint64_t* head, uint64_t head_words, const uint64_t* body,
                     uint64_t body_words) {
  const uint64_t words = head_words + body_words;
  TM2C_CHECK(words > 0);
  const uint64_t frame_start = image_.size();
  // The frame is encoded in place at the image's tail; the header's CRC
  // half is filled in once the payload words are in.
  uint8_t* header = image_.AppendWord();
  StoreU32(header, static_cast<uint32_t>(words * sizeof(uint64_t)));
  uint32_t crc = kCrc32Init;
  const auto append_words = [this, &crc](const uint64_t* src, uint64_t n) {
    for (uint64_t w = 0; w < n; ++w) {
      uint8_t* word = image_.AppendWord();
      StoreU64(word, src[w]);
      crc = Crc32Update(crc, word, sizeof(uint64_t));
    }
  };
  append_words(head, head_words);
  append_words(body, body_words);
  StoreU32(header + 4, crc ^ kCrc32Init);
  if (file_ != nullptr) {
    image_.ForEachPiece(frame_start, image_.size() - frame_start,
                        [this](const uint8_t* data, uint64_t len) {
                          TM2C_CHECK(std::fwrite(data, 1, len, file_) == len);
                        });
  }
  return appended_records_++;
}

void Wal::Flush() {
  if (file_ != nullptr) {
    TM2C_CHECK(std::fflush(file_) == 0);
    if (options_.fsync_on_flush) {
      TM2C_CHECK(::fsync(::fileno(file_)) == 0);
    }
  }
  durable_records_ = appended_records_;
  durable_bytes_ = image_.size();
}

void Wal::FlushFile() {
  if (file_ != nullptr) {
    TM2C_CHECK(std::fflush(file_) == 0);
  }
}

}  // namespace tm2c
