// In-memory span recorder for the traced run.
//
// Spans are recorded by the benchmark's own code around each call into a
// program layer: name, start, end, the enclosing span, and the operation
// id shared by every span of one operation. They stay in memory and are
// written once, when the run ends. Per-layer times are self times — a
// span's duration minus the part of it that its children cover — so
// nested layers are never counted twice.
//
// A Tracer is used from one thread only (the benchmark's main thread).
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::uint64_t op = 0;
  std::uint32_t id = 0;      // 1-based; 0 means "no span"
  std::uint32_t parent = 0;  // enclosing span's id, 0 at the root
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}

  /// Starts a new operation: later spans share a fresh op id.
  void new_op() { ++op_; }

  std::uint32_t begin(const char* name);
  void end(std::uint32_t id);

  const std::vector<Span>& spans() const { return spans_; }

  /// One tab-separated line per span: op, id, parent, name, start, end.
  void write(std::ostream& os) const;

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
  std::uint64_t op_ = 0;
};

/// RAII span; a null tracer records nothing, so untraced code pays one
/// branch per boundary.
class Scoped {
 public:
  Scoped(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->begin(name) : 0) {}
  ~Scoped() {
    if (tracer_) tracer_->end(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t id_;
};

/// Self time of every span, indexed like `spans`: its duration minus the
/// union of its children's intervals clipped to it. Children may overlap
/// each other (parallel children), and the overlap is counted once.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

struct SpanTotals {
  std::int64_t self_ns = 0;
  std::int64_t total_ns = 0;
  std::uint64_t count = 0;
};

std::map<std::string, SpanTotals> totals_by_name(
    const std::vector<Span>& spans);

}  // namespace perfbench
