#include "obs/events.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <sstream>

#include "obs/json.h"

namespace paai::obs {
namespace {

constexpr const char* kKindNames[kEventKindCount] = {
    "run-start",    "run-end",      "data-send",     "sample-select",
    "probe-send",   "ack-recv",     "ack-timeout",   "onion-decode",
    "score-clean",  "score-blame",  "conviction",    "packet-send",
    "packet-recv",  "packet-fwd",   "node-crash",    "node-restart",
    "run-config",   "fl-count",
};

// Exact total order for the merged export; seq breaks ties within a node
// (two nodes never share a seq collision at the same ts because node is
// compared first).
bool event_before(const Event& x, const Event& y) {
  if (x.ts_ns != y.ts_ns) return x.ts_ns < y.ts_ns;
  if (x.node != y.node) return x.node < y.node;
  return x.seq < y.seq;
}

bool parse_u64_field(const JsonValue& v, std::uint64_t* out) {
  if (!v.is_string()) return false;
  // Digits only: strtoull alone would accept a sign ("-1" wraps to
  // 2^64-1) and leading whitespace.
  if (v.string.empty() || v.string[0] < '0' || v.string[0] > '9') {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v.string.c_str(), &end, 10);
  if (errno != 0 || end != v.string.c_str() + v.string.size()) return false;
  *out = parsed;
  return true;
}

/// Largest magnitude a JSON number carries exactly with no neighbour
/// rounding onto it: 2^53 - 1 (2^53 + 1 already parses as 2^53).
constexpr double kMaxExactInt = 9007199254740991.0;

/// Reads an integer-valued JSON number in [lo, hi]. Fractional, out-of-
/// range and non-numeric values fail, so no double ever reaches an integer
/// cast it does not fit.
bool parse_int_field(const JsonValue* v, double lo, double hi,
                     std::int64_t* out) {
  if (v == nullptr || !v->is_number()) return false;
  const double x = v->number;
  if (!(x >= lo && x <= hi) || std::trunc(x) != x) return false;
  *out = static_cast<std::int64_t>(x);
  return true;
}

}  // namespace

const char* event_kind_name(EventKind kind) {
  return kKindNames[static_cast<std::size_t>(kind)];
}

std::optional<EventKind> event_kind_from_name(std::string_view name) {
  for (std::size_t i = 0; i < kEventKindCount; ++i) {
    if (name == kKindNames[i]) return static_cast<EventKind>(i);
  }
  return std::nullopt;
}

EventLog::EventLog(std::size_t per_node_capacity)
    : capacity_(per_node_capacity == 0 ? 1 : per_node_capacity) {}

void EventLog::append(std::size_t node, EventKind kind, std::int64_t ts_ns,
                      std::int32_t link, std::uint64_t a, std::uint64_t b,
                      double value) {
  if (node >= rings_.size()) rings_.resize(node + 1);
  NodeRing& ring = rings_[node];
  if (ring.slots.empty()) ring.slots.reserve(std::min<std::size_t>(capacity_, 64));

  Event e;
  e.ts_ns = ts_ns;
  e.seq = ring.next_seq++;
  e.a = a;
  e.b = b;
  e.value = value;
  e.link = link;
  e.node = static_cast<std::uint16_t>(node);
  e.kind = kind;

  ++recorded_;
  if (ring.slots.size() < capacity_) {
    ring.slots.push_back(e);
  } else {
    ring.slots[static_cast<std::size_t>(e.seq % capacity_)] = e;
    ++dropped_;
  }
}

void EventLog::clear() {
  rings_.clear();
  recorded_ = 0;
  dropped_ = 0;
}

std::vector<Event> EventLog::merged() const {
  std::vector<Event> out;
  out.reserve(static_cast<std::size_t>(retained()));
  for (const NodeRing& ring : rings_) {
    out.insert(out.end(), ring.slots.begin(), ring.slots.end());
  }
  std::sort(out.begin(), out.end(), event_before);
  return out;
}

void EventLog::write_jsonl(std::ostream& os) const {
  for (const Event& e : merged()) {
    JsonWriter w(os);
    w.begin_object();
    w.key("ts_ns").value(e.ts_ns);
    w.key("node").value(static_cast<std::int64_t>(e.node));
    w.key("seq").value(e.seq);
    w.key("kind").value(event_kind_name(e.kind));
    if (e.link >= 0) w.key("link").value(static_cast<std::int64_t>(e.link));
    w.key("a").value(std::to_string(e.a));
    w.key("b").value(std::to_string(e.b));
    w.key("v").value(e.value);
    w.end_object();
    os << '\n';
  }
}

namespace {

/// Parses one JSONL line into an event. Returns false with a description
/// (no line prefix) on any malformed input.
bool parse_event_line(const std::string& line, Event* out,
                      std::string* what) {
  std::string parse_error;
  const auto doc = json_parse(line, &parse_error);
  if (!doc.has_value()) {
    *what = parse_error;
    return false;
  }
  if (!doc->is_object()) {
    *what = "not a JSON object";
    return false;
  }

  Event e;
  const JsonValue* kind = doc->find("kind");
  std::int64_t ts = 0, node = 0, seq = 0;
  if (!parse_int_field(doc->find("ts_ns"), -kMaxExactInt, kMaxExactInt,
                       &ts) ||
      !parse_int_field(doc->find("node"), 0.0, 65535.0, &node) ||
      !parse_int_field(doc->find("seq"), 0.0, kMaxExactInt, &seq) ||
      kind == nullptr || !kind->is_string()) {
    *what =
        "missing, mistyped or out-of-range ts_ns/node/seq/kind (integers: "
        "|ts_ns| and seq < 2^53, node <= 65535)";
    return false;
  }
  e.ts_ns = ts;
  e.node = static_cast<std::uint16_t>(node);
  e.seq = static_cast<std::uint64_t>(seq);
  const auto k = event_kind_from_name(kind->string);
  if (!k.has_value()) {
    *what = "unknown kind \"" + kind->string + "\"";
    return false;
  }
  e.kind = *k;

  if (const JsonValue* link = doc->find("link")) {
    std::int64_t l = 0;
    if (!parse_int_field(link, 0.0, 2147483647.0, &l)) {
      *what = "mistyped link (want an integer in [0, 2^31 - 1])";
      return false;
    }
    e.link = static_cast<std::int32_t>(l);
  }
  if (const JsonValue* a = doc->find("a")) {
    if (!parse_u64_field(*a, &e.a)) {
      *what = "mistyped a";
      return false;
    }
  }
  if (const JsonValue* b = doc->find("b")) {
    if (!parse_u64_field(*b, &e.b)) {
      *what = "mistyped b";
      return false;
    }
  }
  if (const JsonValue* v = doc->find("v")) {
    // Non-finite doubles are emitted as null; map them back to 0.
    if (!v->is_number() && !v->is_null()) {
      *what = "mistyped v";
      return false;
    }
    e.value = v->is_number() ? v->number : 0.0;
  }
  *out = e;
  return true;
}

}  // namespace

EventReader::Status EventReader::next(Event* out, std::string* error) {
  const auto report = [&](const std::string& what) {
    ++errors_;
    if (error != nullptr) {
      *error = "line " + std::to_string(line_no_) + ": " + what;
    }
    return Status::kError;
  };

  for (;;) {
    // Bounded read: never store more than kMaxLineBytes of one line, so a
    // newline-free garbage stream cannot balloon the buffer.
    buf_.clear();
    bool terminated = false;
    bool oversized = false;
    std::streambuf* const sb = is_->rdbuf();
    std::streambuf::int_type ch;
    while ((ch = sb->sbumpc()) != std::streambuf::traits_type::eof()) {
      ++bytes_;
      if (ch == '\n') {
        terminated = true;
        break;
      }
      if (buf_.size() >= kMaxLineBytes) {
        oversized = true;
        // Skip (unstored) to the end of the offending line so the reader
        // stays usable for count-and-continue callers.
        while ((ch = sb->sbumpc()) != std::streambuf::traits_type::eof()) {
          ++bytes_;
          if (ch == '\n') break;
        }
        break;
      }
      buf_.push_back(static_cast<char>(ch));
    }
    if (!terminated && !oversized && buf_.empty()) {
      return Status::kEof;  // clean EOF: the last line had its newline
    }
    ++line_no_;
    if (oversized) {
      return report("exceeds maximum line length (" +
                    std::to_string(kMaxLineBytes) + " bytes)");
    }
    if (!terminated) {
      // The stream died mid-line (pipe truncation, torn tail). The
      // fragment may even parse as JSON; fail instead of trusting it.
      return report("unterminated line (truncated stream?)");
    }
    if (buf_.empty()) continue;
    std::string what;
    if (!parse_event_line(buf_, out, &what)) return report(what);
    ++events_;
    return Status::kEvent;
  }
}

std::vector<Event> EventLog::read_jsonl(std::istream& is, std::string* error) {
  std::vector<Event> out;
  EventReader reader(is);
  Event e;
  for (;;) {
    switch (reader.next(&e, error)) {
      case EventReader::Status::kEvent:
        out.push_back(e);
        break;
      case EventReader::Status::kEof:
        return out;
      case EventReader::Status::kError:
        out.clear();
        return out;
    }
  }
}

}  // namespace paai::obs
