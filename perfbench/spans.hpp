// The benchmark's own spans: wall-clock intervals recorded around calls into
// the program's public functions, never inside them.
//
// A span has a name, a start, an end, the span that was open when it began
// (its parent) and an operation id (the round, lookup or message it serves).
// Every span feeds a per-name aggregate: count, total time, self time (the
// duration minus what its child spans cover) and every duration, for
// quantiles. Spans opened with `kFold` — the per-call ones such as a single
// route or publish, of which a run makes hundreds of thousands — live only in
// that aggregate; all others are also kept as records. Everything stays in
// memory until write_json() at the end of the run.
//
// A disabled recorder makes every Span a no-op that takes no clock reads, so
// the untraced runs that produce the end-to-end figures pay one branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  struct Aggregate {
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
    std::vector<double> durations_s;
  };

  struct Record {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = top level
    std::uint64_t op = 0;
    std::string name;
    double start_s = 0.0;  ///< seconds since the recorder was created
    double end_s = 0.0;
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Aggregate for `name`; an empty one when no such span closed.
  [[nodiscard]] const Aggregate& aggregate(const std::string& name) const;

  [[nodiscard]] const std::map<std::string, Aggregate>& aggregates()
      const noexcept {
    return aggregates_;
  }
  [[nodiscard]] const std::vector<Record>& records() const noexcept {
    return records_;
  }

  /// Writes {"spans": [...], "aggregates": {...}} to `path`. Returns false
  /// when the file cannot be written.
  bool write_json(const std::string& path) const;

 private:
  friend class Span;
  using Clock = std::chrono::steady_clock;

  struct Open {
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t op;
    const char* name;
    bool fold;
    Clock::time_point start;
    double child_s = 0.0;
  };

  void open(const char* name, std::uint64_t op, bool fold);
  void close();

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::uint64_t next_id_ = 1;
  std::vector<Open> stack_;
  std::map<std::string, Aggregate> aggregates_;
  std::vector<Record> records_;
};

/// RAII span. Spans nest strictly (each closes before its parent does).
class Span {
 public:
  enum Mode : bool { kKeep = false, kFold = true };

  Span(SpanRecorder& rec, const char* name, std::uint64_t op = 0,
       Mode mode = kKeep)
      : rec_(rec.enabled() ? &rec : nullptr) {
    if (rec_ != nullptr) rec_->open(name, op, mode == kFold);
  }
  ~Span() {
    if (rec_ != nullptr) rec_->close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder* rec_;
};

}  // namespace perfbench
