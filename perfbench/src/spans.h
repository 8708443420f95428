// In-memory span recorder for the traced run. Spans are taken around
// calls into each layer's public functions from the benchmark's own
// files; nothing inside the library is instrumented. Each thread records
// into its own buffer, and the buffers are written out once, when the run
// ends.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = root
  uint64_t request = 0;  ///< shared by the spans of one request
};

class SpanRecorder {
 public:
  /// One thread's span list. Only its owning thread appends to it.
  class Buffer {
   public:
    explicit Buffer(SpanRecorder* owner) : owner_(owner) {}
    /// Opens a span; returns its id. Close it with End().
    uint64_t Begin(const char* name, uint64_t parent, uint64_t request) {
      Span s;
      s.name = name;
      s.id = owner_->next_id_.fetch_add(1, std::memory_order_relaxed);
      s.parent = parent;
      s.request = request;
      s.start_ns = NowNs();
      open_.push_back(spans_.size());
      spans_.push_back(s);
      return s.id;
    }
    void End() {
      spans_[open_.back()].end_ns = NowNs();
      open_.pop_back();
    }
    const std::vector<Span>& spans() const { return spans_; }

   private:
    SpanRecorder* owner_;
    std::vector<Span> spans_;
    std::vector<size_t> open_;
  };

  /// A new buffer for the calling thread; stable until the recorder dies.
  Buffer* NewBuffer() {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.emplace_back(this);
    return &buffers_.back();
  }
  /// A fresh request id.
  uint64_t NewRequest() { return NewRequests(1); }
  /// The first of `count` consecutive fresh request ids.
  uint64_t NewRequests(uint64_t count) {
    return next_request_.fetch_add(count, std::memory_order_relaxed);
  }

  /// Every span of every buffer (call after recording threads joined).
  std::vector<Span> Collect() const;
  /// Writes the spans as JSON lines to `path`.
  bool WriteJsonLines(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::deque<Buffer> buffers_;  // deque: Buffer addresses stay stable
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> next_request_{1};
};

/// RAII span on a buffer; a null buffer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder::Buffer* buffer, const char* name, uint64_t parent,
             uint64_t request)
      : buffer_(buffer),
        id_(buffer ? buffer->Begin(name, parent, request) : 0) {}
  ~ScopedSpan() {
    if (buffer_) buffer_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  SpanRecorder::Buffer* buffer_;
  uint64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
