// In-memory span recorder for the traced benchmark run.
//
// A span is (id, parent, name, start, end) on one steady clock. Spans are
// recorded from benchmark code only: around calls into the program's public
// functions and inside the forwarding decorators. Nothing is written while
// the run measures; write_jsonl dumps the whole store when the run ends.
//
// Parents come from a per-thread stack of open spans. Worker threads of the
// program start with an empty stack, so their spans fall back to the
// store's current root (the episode span that issued the work).
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace paperbench {

struct Span {
  std::int64_t id = 0;
  std::int64_t parent = 0;  ///< 0 = no parent
  std::string name;
  double start_s = 0.0;  ///< seconds since the store was created
  double end_s = 0.0;

  double seconds() const { return end_s - start_s; }
};

class SpanStore {
 public:
  /// A disabled store records nothing; ScopedSpan then costs one branch.
  explicit SpanStore(bool enabled);
  SpanStore(const SpanStore&) = delete;
  SpanStore& operator=(const SpanStore&) = delete;

  bool enabled() const { return enabled_; }
  double now() const;

  /// Reserves an id for a span that is about to open.
  std::int64_t next_id();
  void add(Span span);

  /// Parent for spans opened on a thread with no open span of its own.
  void set_root(std::int64_t id);
  std::int64_t root() const;

  /// Snapshot of every closed span, in completion order.
  std::vector<Span> spans() const;

  /// Summed duration / count of the spans called `name`.
  double total_seconds(const std::string& name) const;
  std::size_t count(const std::string& name) const;
  /// Durations of the spans called `name`, in completion order.
  std::vector<double> durations(const std::string& name) const;

  /// One JSON object per line: id, parent, name, start_us, end_us.
  void write_jsonl(const std::string& path) const;

 private:
  const bool enabled_;
  const std::chrono::steady_clock::time_point t0_;
  mutable std::mutex mu_;  // guards spans_, next_id_, root_
  std::vector<Span> spans_;
  std::int64_t next_id_ = 1;
  std::int64_t root_ = 0;
};

/// Records one span over its own lifetime; nests through a thread-local
/// stack. Does nothing when the store is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanStore& store, std::string name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t id() const { return span_.id; }

 private:
  SpanStore& store_;
  Span span_;
};

}  // namespace paperbench
