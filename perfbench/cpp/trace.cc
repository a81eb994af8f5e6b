#include "trace.h"

#include <algorithm>
#include <ostream>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

std::uint32_t Tracer::begin(const char* name) {
  Span s;
  s.op = op_;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = open_.empty() ? 0 : open_.back();
  s.name = name;
  s.start_ns = now_ns();
  spans_.push_back(s);
  open_.push_back(s.id);
  return s.id;
}

void Tracer::end(std::uint32_t id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("trace: spans must close innermost first");
  }
  open_.pop_back();
  spans_[id - 1].end_ns = now_ns();
}

void Tracer::write(std::ostream& os) const {
  for (const Span& s : spans_) {
    os << s.op << '\t' << s.id << '\t' << s.parent << '\t' << s.name << '\t'
       << s.start_ns << '\t' << s.end_ns << '\n';
  }
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  // Span ids are not required to be dense here (tests build span sets by
  // hand), so children are grouped through an id -> index map.
  std::unordered_map<std::uint32_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto it = index.find(spans[i].parent);
    if (spans[i].parent != 0 && it != index.end()) {
      children[it->second].push_back(i);
    }
  }

  std::vector<std::int64_t> self(spans.size(), 0);
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns;
    const std::int64_t hi = spans[i].end_ns;
    cover.clear();
    for (const std::size_t c : children[i]) {
      const std::int64_t a = std::max(lo, spans[c].start_ns);
      const std::int64_t b = std::min(hi, spans[c].end_ns);
      if (a < b) cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t reach = lo;
    for (const auto& [a, b] : cover) {
      const std::int64_t from = std::max(a, reach);
      if (b > from) {
        covered += b - from;
        reach = b;
      }
    }
    self[i] = std::max<std::int64_t>(0, hi - lo) - covered;
  }
  return self;
}

std::map<std::string, SpanTotals> totals_by_name(
    const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times(spans);
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = out[spans[i].name];
    t.self_ns += self[i];
    t.total_ns += spans[i].end_ns - spans[i].start_ns;
    ++t.count;
  }
  return out;
}

}  // namespace perfbench
