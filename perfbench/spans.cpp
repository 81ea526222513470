#include "spans.hpp"

#include <cstdio>

namespace perfbench {

const SpanRecorder::Aggregate& SpanRecorder::aggregate(
    const std::string& name) const {
  static const Aggregate kEmpty;
  const auto it = aggregates_.find(name);
  return it == aggregates_.end() ? kEmpty : it->second;
}

void SpanRecorder::open(const char* name, std::uint64_t op, bool fold) {
  const std::uint64_t parent = stack_.empty() ? 0 : stack_.back().id;
  stack_.push_back(Open{next_id_++, parent, op, name, fold, Clock::now()});
}

void SpanRecorder::close() {
  const auto end = Clock::now();
  const Open span = stack_.back();
  stack_.pop_back();
  const double dur = std::chrono::duration<double>(end - span.start).count();
  if (!stack_.empty()) stack_.back().child_s += dur;
  auto& agg = aggregates_[span.name];
  ++agg.count;
  agg.total_s += dur;
  agg.self_s += dur - span.child_s;
  agg.durations_s.push_back(dur);
  if (!span.fold) {
    records_.push_back(Record{
        span.id, span.parent, span.op, span.name,
        std::chrono::duration<double>(span.start - origin_).count(),
        std::chrono::duration<double>(end - origin_).count()});
  }
}

bool SpanRecorder::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [");
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f,
                 "%s\n{\"id\": %llu, \"parent\": %llu, \"op\": %llu, "
                 "\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f}",
                 i == 0 ? "" : ",", static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent),
                 static_cast<unsigned long long>(r.op), r.name.c_str(),
                 r.start_s, r.end_s);
  }
  std::fprintf(f, "\n], \"aggregates\": {");
  bool first = true;
  for (const auto& [name, agg] : aggregates_) {
    std::fprintf(f,
                 "%s\n\"%s\": {\"count\": %zu, \"total_s\": %.9f, "
                 "\"self_s\": %.9f}",
                 first ? "" : ",", name.c_str(), agg.count, agg.total_s,
                 agg.self_s);
    first = false;
  }
  std::fprintf(f, "\n}}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
