// Counter structs declared from one field list.
//
// A stats struct lists each field once, one X(kind, type, name) line per
// counter (TM2C_TX_STATS_FIELDS in src/tm/stats.h is one), and expands
// TM2C_COUNTERS(Struct, LIST) in its body. That generates the members
// (each starting at 0), ForEachField, ==/!=, Merge, an operator<< naming
// every field (so a failed EXPECT_EQ stays readable) and kNumWords, the
// length of the EncodeCounters/DecodeCounters word form. The kind says how
// Merge combines a field: Sum adds and Max keeps the larger of two
// uint64_t (SimTime included); Hist adds two CounterHist<N> element by
// element. A kind that does not fit its type fails to compile.
//
// The list is a macro: a comment inside it must be a /* */ comment, since
// a // comment would swallow the line-continuation backslash.
#ifndef TM2C_SRC_COMMON_COUNTERS_H_
#define TM2C_SRC_COMMON_COUNTERS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <vector>

#include "src/common/check.h"

namespace tm2c {

template <size_t N>
using CounterHist = std::array<uint64_t, N>;

namespace counters {

struct Sum {};
struct Max {};
struct Hist {};

inline void MergeField(Sum, uint64_t& into, uint64_t from) { into += from; }
inline void MergeField(Max, uint64_t& into, uint64_t from) { into = from > into ? from : into; }
template <size_t N>
void MergeField(Hist, CounterHist<N>& into, const CounterHist<N>& from) {
  for (size_t i = 0; i < N; ++i) {
    into[i] += from[i];
  }
}

inline void PrintField(std::ostream& os, uint64_t value) { os << value; }
template <size_t N>
void PrintField(std::ostream& os, const CounterHist<N>& hist) {
  for (size_t i = 0; i < N; ++i) {
    os << (i == 0 ? "[" : ",") << hist[i];
  }
  os << ']';
}

template <typename S>
bool Equal(const S& a, const S& b) {
  bool equal = true;
  S::ForEachField([&](const char*, auto, auto field) { equal = equal && a.*field == b.*field; });
  return equal;
}

template <typename S>
void Merge(S* into, const S& from) {
  S::ForEachField(
      [&](const char*, auto kind, auto field) { MergeField(kind, into->*field, from.*field); });
}

template <typename S>
std::ostream& Print(std::ostream& os, const S& s) {
  const char* sep = "{";
  S::ForEachField([&](const char* name, auto, auto field) {
    os << sep << name << '=';
    PrintField(os, s.*field);
    sep = ", ";
  });
  return os << '}';
}

}  // namespace counters

// Appends every field of `s` to `out` in list order, a histogram as its N
// elements: S::kNumWords words in all.
template <typename S>
void EncodeCounters(const S& s, std::vector<uint64_t>* out) {
  S::ForEachField([&](const char*, auto, auto field) {
    const size_t at = out->size();
    out->resize(at + sizeof(s.*field) / sizeof(uint64_t));
    std::memcpy(out->data() + at, &(s.*field), sizeof(s.*field));
  });
}

// The inverse of EncodeCounters. `n` must be exactly S::kNumWords.
template <typename S>
S DecodeCounters(const uint64_t* words, size_t n) {
  TM2C_CHECK_MSG(n == S::kNumWords, "counter report has the wrong length");
  S s;
  S::ForEachField([&](const char*, auto, auto field) {
    std::memcpy(&(s.*field), words, sizeof(s.*field));
    words += sizeof(s.*field) / sizeof(uint64_t);
  });
  return s;
}

}  // namespace tm2c

#define TM2C_COUNTER_MEMBER_(kind, type, name) type name{};
#define TM2C_COUNTER_VISIT_(kind, type, name) f(#name, ::tm2c::counters::kind{}, &Self::name);
#define TM2C_COUNTER_WORDS_(kind, type, name) +sizeof(type) / sizeof(uint64_t)

#define TM2C_COUNTERS(Type, FIELDS)                                                  \
  FIELDS(TM2C_COUNTER_MEMBER_)                                                       \
  /* Calls f(name, kind tag, member pointer) for every field, in list order. */      \
  template <typename F>                                                              \
  static void ForEachField(F&& f) {                                                  \
    using Self = Type;                                                               \
    FIELDS(TM2C_COUNTER_VISIT_)                                                      \
  }                                                                                  \
  static constexpr size_t kNumWords = 0 FIELDS(TM2C_COUNTER_WORDS_);                 \
  bool operator==(const Type& o) const { return ::tm2c::counters::Equal(*this, o); } \
  bool operator!=(const Type& o) const { return !(*this == o); }                     \
  void Merge(const Type& o) { ::tm2c::counters::Merge(this, o); }                    \
  friend std::ostream& operator<<(std::ostream& os, const Type& s) {                 \
    return ::tm2c::counters::Print(os, s);                                           \
  }

#endif  // TM2C_SRC_COMMON_COUNTERS_H_
