// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code, around public calls into
// each layer (the source hook, the OpenFlow agent, the datapath entry points);
// the library itself is not instrumented.  Each recording thread owns one
// SpanBuffer, so recording takes no lock; buffers are merged and written out
// once the run has ended.  A span carries a name, TSC start/end, the index of
// its parent span in the same buffer, the id shared by every span of one burst
// or batch, and the number of packets (or mods) it covered.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  uint32_t name = 0;
  uint32_t parent = kNoParent;
  uint64_t id = 0;
  uint64_t t0 = 0;
  uint64_t t1 = 0;
  uint32_t n = 1;

  static constexpr uint32_t kNoParent = UINT32_MAX;
};

/// Span names are interned once, before the recording threads start.
class SpanNames {
 public:
  uint32_t intern(const std::string& name) {
    for (uint32_t i = 0; i < names_.size(); ++i)
      if (names_[i] == name) return i;
    names_.push_back(name);
    return static_cast<uint32_t>(names_.size() - 1);
  }
  const std::string& at(uint32_t i) const { return names_[i]; }

 private:
  std::vector<std::string> names_;
};

/// One thread's spans.  Bounded: past `cap` spans further ones are counted
/// in dropped() and not kept, so a long run cannot grow memory without limit.
class SpanBuffer {
 public:
  explicit SpanBuffer(size_t cap = size_t{1} << 16) : cap_(cap) { spans_.reserve(cap); }

  /// Records a finished span; returns its index (kNoParent when dropped).
  uint32_t add(uint32_t name, uint64_t id, uint64_t t0, uint64_t t1, uint32_t n = 1,
               uint32_t parent = Span::kNoParent) {
    if (spans_.size() >= cap_) {
      ++dropped_;
      return Span::kNoParent;
    }
    spans_.push_back({name, parent, id, t0, t1, n});
    return static_cast<uint32_t>(spans_.size() - 1);
  }
  /// Re-parents a recorded span (children are often timed before the parent
  /// span is closed).
  void set_parent(uint32_t child, uint32_t parent) {
    if (child != Span::kNoParent && child < spans_.size()) spans_[child].parent = parent;
  }
  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  size_t cap_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

}  // namespace perfbench
