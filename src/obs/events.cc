#include "obs/events.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>

#include "obs/json.h"

namespace paai::obs {
namespace {

constexpr std::string_view kKindNames[kEventKindCount] = {
    "run-start",    "run-end",      "data-send",     "sample-select",
    "probe-send",   "ack-recv",     "ack-timeout",   "onion-decode",
    "score-clean",  "score-blame",  "conviction",    "packet-send",
    "packet-recv",  "packet-fwd",   "node-crash",    "node-restart",
    "run-config",   "fl-count",
};

/// Slot of a kind name in kKindSlots: collision-free over the 18 names
/// (checked at compile time below), so a lookup is one hash and one
/// compare.
constexpr std::size_t kind_slot(std::string_view name) {
  return (name.size() + 2 * static_cast<unsigned char>(name[1]) +
          3 * static_cast<unsigned char>(name.back())) &
         63;
}

constexpr std::array<std::uint8_t, 64> make_kind_slots() {
  std::array<std::uint8_t, 64> slots{};
  for (std::uint8_t& s : slots) s = kEventKindCount;
  for (std::size_t i = 0; i < kEventKindCount; ++i) {
    std::uint8_t& s = slots[kind_slot(kKindNames[i])];
    s = s == kEventKindCount ? static_cast<std::uint8_t>(i) : 0xff;
  }
  return slots;
}

constexpr std::array<std::uint8_t, 64> kKindSlots = make_kind_slots();
static_assert(std::find(kKindSlots.begin(), kKindSlots.end(), 0xff) ==
                  kKindSlots.end(),
              "two event kind names share a kind_slot()");

// Exact total order for the merged export; seq breaks ties within a node
// (two nodes never share a seq collision at the same ts because node is
// compared first).
bool event_before(const Event& x, const Event& y) {
  if (x.ts_ns != y.ts_ns) return x.ts_ns < y.ts_ns;
  if (x.node != y.node) return x.node < y.node;
  return x.seq < y.seq;
}

// ------------------------------------------------------------ the layout

// One table lays out an event line in both directions: write_jsonl emits
// the fields in this order, and scan_event_line decodes them (in any
// order) against the same keys, syntaxes and ranges.
enum class Syntax : std::uint8_t {
  kInt,     // JSON integer (no fraction or exponent) in [lo, hi]
  kKind,    // an event_kind_name(), written without escapes
  kDigits,  // u64 as a decimal digit string
  kNumber,  // double as %.17g; null stands for a non-finite value (read as 0)
};

struct FieldSpec {
  std::string_view key;
  Syntax syntax;
  bool required;
  // kInt range. An optional kInt field holding a value below lo is unset
  // and left out by the writer (link = -1).
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};

enum Field : std::size_t { kTs, kNode, kSeq, kKind, kLink, kA, kB, kV, kFields };

constexpr FieldSpec kLayout[kFields] = {
    {"ts_ns", Syntax::kInt, true, -kJsonMaxExactInt, kJsonMaxExactInt},
    {"node", Syntax::kInt, true, 0, 65535},
    {"seq", Syntax::kInt, true, 0, kJsonMaxExactInt},
    {"kind", Syntax::kKind, true},
    {"link", Syntax::kInt, false, 0, 2147483647},
    {"a", Syntax::kDigits, false},
    {"b", Syntax::kDigits, false},
    {"v", Syntax::kNumber, false},
};

// The kInt fields of an event, by table index (kind has none).
std::int64_t int_field(const Event& e, std::size_t f) {
  const std::int64_t values[] = {e.ts_ns, e.node,
                                 static_cast<std::int64_t>(e.seq), 0, e.link};
  return values[f];
}

void set_int_field(Event& e, std::size_t f, std::int64_t x) {
  if (f == kTs) e.ts_ns = x;
  if (f == kNode) e.node = static_cast<std::uint16_t>(x);
  if (f == kSeq) e.seq = static_cast<std::uint64_t>(x);
  if (f == kLink) e.link = static_cast<std::int32_t>(x);
}

// A written line stays under 260 bytes: 8 quoted keys with separators
// (~60), four integers of at most 20 characters, a kind name of at most 13,
// two 20-digit strings, and a %.17g double of at most 24.
constexpr std::size_t kLineCapacity = 320;

char* put(char* p, std::string_view s) { return std::copy(s.begin(), s.end(), p); }

/// Formats one event as a JSONL line (newline included) into `line`, which
/// holds kLineCapacity bytes; returns the length.
std::size_t format_event(const Event& e, char* const line) {
  char* const end = line + kLineCapacity;
  char* p = line;
  *p++ = '{';
  for (std::size_t f = 0; f < kFields; ++f) {
    const FieldSpec& field = kLayout[f];
    if (field.syntax == Syntax::kInt && !field.required &&
        int_field(e, f) < field.lo) {
      continue;
    }
    if (p != line + 1) *p++ = ',';
    *p++ = '"';
    p = put(p, field.key);
    p = put(p, "\":");
    switch (field.syntax) {
      case Syntax::kInt:
        p = std::to_chars(p, end, int_field(e, f)).ptr;
        break;
      case Syntax::kKind:
        *p++ = '"';
        p = put(p, kKindNames[static_cast<std::size_t>(e.kind)]);
        *p++ = '"';
        break;
      case Syntax::kDigits:
        *p++ = '"';
        p = std::to_chars(p, end, f == kA ? e.a : e.b).ptr;
        *p++ = '"';
        break;
      case Syntax::kNumber:
        // to_chars(general, 17) is specified as printf's %.17g.
        p = std::isfinite(e.value)
                ? std::to_chars(p, end, e.value, std::chars_format::general,
                                17)
                      .ptr
                : put(p, "null");
        break;
    }
  }
  *p++ = '}';
  *p++ = '\n';
  return static_cast<std::size_t>(p - line);
}

// ------------------------------------------------------------ the scanner

/// Bytes that end the unescaped run of a string: the closing quote, the
/// start of an escape, and the control characters JSON forbids raw.
constexpr std::array<bool, 256> kStringStop = [] {
  std::array<bool, 256> stop{};
  for (std::size_t c = 0; c < 0x20; ++c) stop[c] = true;
  stop['"'] = true;
  stop['\\'] = true;
  return stop;
}();

bool is_ws(char c) { return c == ' ' || c == '\t' || c == '\n' || c == '\r'; }
bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// Index of `key` in kLayout (kFields when unknown).
std::size_t find_field(std::string_view key) {
  for (std::size_t f = 0; f < kFields; ++f) {
    if (kLayout[f].key == key) return f;
  }
  return kFields;
}

/// One left-to-right pass over one line. Each step advances p_ and, on a
/// defect, records it through fail() (the only place that allocates).
class Scanner {
 public:
  Scanner(std::string_view line, std::string* what)
      : p_(line.data()), end_(line.data() + line.size()), what_(what) {}

  bool object(Event* out) {
    Event e;
    unsigned seen = 0;
    std::size_t hint = 0;
    skip_ws();
    if (!eat('{')) return fail("not a JSON object");
    skip_ws();
    if (!eat('}')) {
      for (;;) {
        std::size_t f = hint;
        std::string_view key;
        if (!quoted_key(hint)) {
          if (!string(&key, "object key")) return false;
          f = find_field(key);
        }
        if (f == kFields) return fail("unknown key \"", key, "\"");
        key = kLayout[f].key;
        if ((seen >> f) & 1u) return fail("duplicate key \"", key, "\"");
        seen |= 1u << f;
        hint = f + 1;
        skip_ws();
        if (!eat(':')) return fail("expected ':' after \"", key, "\"");
        skip_ws();
        if (!value(f, e)) return false;
        skip_ws();
        if (eat(',')) {
          skip_ws();
          continue;
        }
        if (eat('}')) break;
        return fail("expected ',' or '}' after \"", key, "\"");
      }
    }
    skip_ws();
    if (p_ != end_) return fail("trailing bytes after the object");
    for (std::size_t f = 0; f < kFields; ++f) {
      if (kLayout[f].required && ((seen >> f) & 1u) == 0) {
        return fail("missing ", kLayout[f].key);
      }
    }
    *out = e;
    return true;
  }

 private:
  template <typename... Parts>
  bool fail(const Parts&... parts) {
    if (what_ != nullptr) {
      what_->clear();
      (what_->append(parts), ...);
    }
    return false;
  }

  void skip_ws() {
    while (p_ != end_ && is_ws(*p_)) ++p_;
  }

  bool eat(char c) {
    if (p_ == end_ || *p_ != c) return false;
    ++p_;
    return true;
  }

  /// Consumes `"<key of field f>"` if that is what comes next: written
  /// lines follow the table, so the field after the previous key (`f`) is
  /// tried before a general string scan.
  bool quoted_key(std::size_t f) {
    if (f >= kFields) return false;
    const std::string_view key = kLayout[f].key;
    if (static_cast<std::size_t>(end_ - p_) < key.size() + 2 || p_[0] != '"' ||
        p_[key.size() + 1] != '"' ||
        std::string_view(p_ + 1, key.size()) != key) {
      return false;
    }
    p_ += key.size() + 2;
    return true;
  }

  /// A string without escapes (write_jsonl emits none); `role` names the
  /// expected token in the error.
  bool string(std::string_view* out, std::string_view role) {
    if (!eat('"')) return fail("expected ", role, " (a string)");
    const char* const begin = p_;
    while (p_ != end_ && !kStringStop[static_cast<unsigned char>(*p_)]) ++p_;
    if (p_ == end_) return fail("unterminated string");
    if (*p_ == '\\') {
      return fail("escape sequence in a string (keys, kind, a and b are "
                  "written without escapes)");
    }
    if (*p_ != '"') return fail("unescaped control character in a string");
    *out = std::string_view(begin, static_cast<std::size_t>(p_ - begin));
    ++p_;
    return true;
  }

  bool value(std::size_t f, Event& e) {
    const FieldSpec& field = kLayout[f];
    switch (field.syntax) {
      case Syntax::kInt: {
        std::int64_t x = 0;
        if (!integer(field, &x)) return false;
        set_int_field(e, f, x);
        return true;
      }
      case Syntax::kKind: {
        std::string_view name;
        if (!string(&name, "kind")) return false;
        const std::optional<EventKind> kind = event_kind_from_name(name);
        if (!kind.has_value()) return fail("unknown kind \"", name, "\"");
        e.kind = *kind;
        return true;
      }
      case Syntax::kDigits:
        return digits(field, f == kA ? &e.a : &e.b);
      case Syntax::kNumber:
        return number(&e.value);
    }
    return false;
  }

  /// The digits of an RFC 8259 int: "0" or a run not led by 0.
  bool int_part(std::string_view key) {
    if (p_ == end_ || !is_digit(*p_)) return fail(key, ": want a number");
    if (*p_ == '0' && p_ + 1 != end_ && is_digit(p_[1])) {
      return fail(key, ": leading zero in a number");
    }
    while (p_ != end_ && is_digit(*p_)) ++p_;
    return true;
  }

  /// RFC 8259 int (no fraction, no exponent), decoded with an overflow
  /// check, then held to [field.lo, field.hi].
  bool integer(const FieldSpec& field, std::int64_t* out) {
    const bool negative = eat('-');
    const char* const digits = p_;
    if (!int_part(field.key)) return false;
    std::uint64_t mag = 0;
    const auto ec = std::from_chars(digits, p_, mag).ec;
    if (p_ != end_ && (*p_ == '.' || *p_ == 'e' || *p_ == 'E')) {
      return fail(field.key, ": integer written with a fraction or exponent");
    }
    // The table's bounds lie within +-(2^53 - 1), so a larger magnitude is
    // out of range and a smaller one converts exactly.
    const bool exact = ec == std::errc() &&
                       mag <= static_cast<std::uint64_t>(kJsonMaxExactInt);
    const auto x = static_cast<std::int64_t>(exact ? mag : 0);
    if (!exact || (negative ? -x : x) < field.lo ||
        (negative ? -x : x) > field.hi) {
      return fail(field.key, ": out of range [", std::to_string(field.lo),
                  ", ", std::to_string(field.hi), "]");
    }
    *out = negative ? -x : x;
    return true;
  }

  /// A non-empty decimal digit string holding a u64 (leading zeros allowed).
  bool digits(const FieldSpec& field, std::uint64_t* out) {
    std::string_view s;
    if (!string(&s, field.key)) return false;
    const char* const end = s.data() + s.size();
    const auto [next, ec] = std::from_chars(s.data(), end, *out);
    if (s.empty() || next != end || ec == std::errc::invalid_argument) {
      return fail(field.key, ": want a decimal digit string");
    }
    if (ec != std::errc()) return fail(field.key, ": exceeds 2^64 - 1");
    return true;
  }

  /// `null` (a non-finite value, read as 0) or an RFC 8259 number,
  /// decoded with from_chars: correctly rounded, as strtod is.
  bool number(double* out) {
    if (end_ - p_ >= 4 && std::string_view(p_, 4) == "null") {
      p_ += 4;
      *out = 0.0;
      return true;
    }
    const char* const start = p_;
    const bool negative = eat('-');
    if (!int_part("v")) return false;
    const char* const int_end = p_;
    const char* frac_begin = p_;
    if (eat('.')) {
      frac_begin = p_;
      if (p_ == end_ || !is_digit(*p_)) return fail("v: truncated fraction");
      while (p_ != end_ && is_digit(*p_)) ++p_;
    }
    const char* const frac_end = p_;
    std::int64_t exp10 = 0;
    if (p_ != end_ && (*p_ == 'e' || *p_ == 'E')) {
      ++p_;
      bool exp_negative = false;
      if (p_ != end_ && (*p_ == '+' || *p_ == '-')) exp_negative = *p_++ == '-';
      if (p_ == end_ || !is_digit(*p_)) return fail("v: truncated exponent");
      for (; p_ != end_ && is_digit(*p_); ++p_) {
        if (exp10 < 100000000) exp10 = exp10 * 10 + (*p_ - '0');
      }
      if (exp_negative) exp10 = -exp10;
    }
    const auto [end, ec] = std::from_chars(start, p_, *out);
    if (ec == std::errc::result_out_of_range) {
      // from_chars leaves a magnitude beyond double's range undecoded;
      // strtod, which every log has been read with, gives +-HUGE_VAL on
      // overflow and +-0 on underflow. The decimal exponent of the leading
      // significant digit tells the two apart: out of range means at
      // least 1e308 or below 1e-323. (An all-zero significand is never
      // out of range.)
      std::int64_t lead = 0;
      const char* d = start + (negative ? 1 : 0);
      while (d != int_end && *d == '0') ++d;
      if (d != int_end) {
        lead = int_end - d - 1;
      } else {
        d = frac_begin;
        while (d != frac_end && *d == '0') ++d;
        lead = frac_begin - d - 1;
      }
      const double magnitude = lead + exp10 > 0 ? HUGE_VAL : 0.0;
      *out = negative ? -magnitude : magnitude;
      return true;
    }
    if (ec != std::errc() || end != p_) return fail("v: malformed number");
    return true;
  }

  const char* p_;
  const char* const end_;
  std::string* const what_;
};

}  // namespace

const char* event_kind_name(EventKind kind) {
  return kKindNames[static_cast<std::size_t>(kind)].data();
}

std::optional<EventKind> event_kind_from_name(std::string_view name) {
  if (name.size() < 2) return std::nullopt;
  const std::size_t i = kKindSlots[kind_slot(name)];
  if (i == kEventKindCount || kKindNames[i] != name) return std::nullopt;
  return static_cast<EventKind>(i);
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
  char line[kLineCapacity];
  for (const Event& e : merged()) {
    os.write(line, static_cast<std::streamsize>(format_event(e, line)));
  }
}

bool scan_event_line(std::string_view line, Event* out, std::string* what) {
  return Scanner(line, what).object(out);
}

EventReader::Status EventReader::next(Event* out, std::string* error) {
  const auto report = [&](const std::string& what) {
    ++errors_;
    if (error != nullptr) {
      *error = "line " + std::to_string(line_no_) + ": " + what;
    }
    return Status::kError;
  };

  if (!buf_) buf_ = std::make_unique_for_overwrite<char[]>(kMaxLineBytes + 1);
  char* const line = buf_.get();
  for (;;) {
    // Only badbit survives: eof/fail are the previous read's framing.
    if (!is_->good()) is_->clear(is_->rdstate() & std::ios_base::badbit);
    is_->getline(line, static_cast<std::streamsize>(kMaxLineBytes + 1));
    const auto got = static_cast<std::size_t>(is_->gcount());  // '\n' too
    bytes_ += got;
    if (got == 0) return Status::kEof;  // clean EOF: the last line had its newline
    ++line_no_;
    const std::ios_base::iostate state = is_->rdstate();
    if ((state & std::ios_base::failbit) != 0) {
      // kMaxLineBytes stored and the line goes on: skip (unstored) to its
      // end so the reader stays usable for count-and-continue callers.
      is_->clear(state & std::ios_base::badbit);
      is_->ignore(std::numeric_limits<std::streamsize>::max(), '\n');
      bytes_ += static_cast<std::uint64_t>(is_->gcount());
      return report("exceeds maximum line length (" +
                    std::to_string(kMaxLineBytes) + " bytes)");
    }
    if ((state & std::ios_base::eofbit) != 0) {
      // The stream died mid-line (pipe truncation, torn tail). The
      // fragment may even parse as JSON; fail instead of trusting it.
      return report("unterminated line (truncated stream?)");
    }
    if (got == 1) continue;  // blank line
    std::string what;
    if (!scan_event_line(std::string_view(line, got - 1), out, &what)) {
      return report(what);
    }
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
