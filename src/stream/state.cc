#include "stream/state.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "obs/json.h"

namespace paai::stream {

namespace {

/// The configuration members: the reader needs them before it can build
/// the engine whose state_io() names the rest of the document.
template <class Io>
void config_io(Io& io, EngineConfig& cfg) {
  io.fixed("schema", kStateSchema);
  auto protocol = static_cast<std::size_t>(cfg.protocol);
  io.integer("protocol", protocol, 0,
             static_cast<std::size_t>(protocols::ProtocolKind::kSigAck));
  cfg.protocol = static_cast<protocols::ProtocolKind>(protocol);
  io.fixed("protocol_name", protocols::protocol_name(cfg.protocol));
  io.integer("links", cfg.num_links, 1, kMaxLinks);
  io.field("threshold", cfg.threshold);
  io.field("blame", cfg.blame);
}

/// Emits the members a state_io() list names, in its order: u64s as
/// decimal strings, doubles as JSON numbers.
class Writer {
 public:
  explicit Writer(std::ostream& os) : w_(os) { w_.begin_object(); }
  void finish() { w_.end_object(); }

  template <class T>
  void field(std::string_view key, const T& v) {
    w_.key(key);
    put(v);
  }
  void integer(std::string_view key, std::size_t v, std::size_t,
               std::size_t) {
    w_.key(key).value(static_cast<std::int64_t>(v));
  }
  void fixed(std::string_view key, std::string_view v) {
    w_.key(key).value(v);
  }
  void fixed(std::string_view key, std::uint64_t v) { field(key, v); }
  template <class Row, class T>
  void column(std::string_view key, const std::vector<Row>& rows, T Row::*m,
              std::size_t /*ring cap*/ = 0) {
    w_.key(key).begin_array();
    for (const Row& r : rows) put(r.*m);
    w_.end_array();
  }
  template <class F>
  void object(std::string_view key, F&& body) {
    w_.key(key).begin_object();
    body();
    w_.end_object();
  }
  template <class T, class F>
  void objects(std::string_view key, std::vector<T>& items, F&& body) {
    w_.key(key).begin_array();
    for (T& item : items) {
      w_.begin_object();
      body(item);
      w_.end_object();
    }
    w_.end_array();
  }

 private:
  void put(std::uint64_t v) { w_.value(std::to_string(v)); }
  void put(double v) { w_.value(v); }
  void put(bool v) { w_.value(v); }
  void put(const protocols::BlameSpec& v) { w_.value(v.to_string()); }
  template <class T>
  void put(const std::vector<T>& v) {
    w_.begin_array();
    for (const T& x : v) put(x);
    w_.end_array();
  }

  obs::JsonWriter w_;
};

/// u64: a canonical decimal string (digits only, no leading zero).
bool get(const obs::JsonValue& x, std::uint64_t& v) {
  const std::string& s = x.string;
  if (!x.is_string() || s.empty() || (s.size() > 1 && s[0] == '0')) {
    return false;
  }
  std::uint64_t out = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (out > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      return false;
    }
    out = out * 10 + digit;
  }
  v = out;
  return true;
}

/// double: a finite JSON number (the writer cannot emit anything else).
bool get(const obs::JsonValue& x, double& v) {
  if (!x.is_number() || !std::isfinite(x.number)) return false;
  v = x.number;
  return true;
}

bool get(const obs::JsonValue& x, bool& v) {
  if (x.kind != obs::JsonValue::Kind::kBool) return false;
  v = x.boolean;
  return true;
}

bool get(const obs::JsonValue& x, protocols::BlameSpec& v) {
  if (!x.is_string()) return false;
  try {
    v = protocols::BlameSpec::parse(x.string);
  } catch (const std::invalid_argument&) {
    return false;
  }
  return true;
}

/// Fills the members a state_io() list names from a parsed document,
/// walking each object's members in the list's order, so a missing,
/// extra, duplicate or reordered key fails. The first violation is kept
/// and every later call is a no-op.
class Reader {
 public:
  explicit Reader(const obs::JsonValue& root) {
    frames_.push_back({&root, 0, ""});
  }

  const std::string& error() const { return error_; }
  bool ok() const { return error_.empty(); }

  /// Requires the current object to have no members left.
  void finish() {
    const Frame& f = frames_.back();
    if (ok() && f.next != f.object->object.size()) {
      fail(f.object->object[f.next].first, "unexpected member");
    }
  }

  template <class T>
  void field(std::string_view key, T& v) {
    const obs::JsonValue* x = next(key);
    if (x != nullptr && !get(*x, v)) fail(key, "mistyped");
  }
  /// A vector keeps the length the configured engine gave it.
  template <class T>
  void field(std::string_view key, std::vector<T>& v) {
    each(key, v.size(), [&](const obs::JsonValue& x, std::size_t i) {
      return get(x, v[i]);
    });
  }
  void integer(std::string_view key, std::size_t& v, std::size_t lo,
               std::size_t hi) {
    const obs::JsonValue* x = next(key);
    if (x == nullptr) return;
    std::int64_t got = 0;
    if (!obs::json_integer(x, static_cast<std::int64_t>(lo),
                           static_cast<std::int64_t>(hi), &got)) {
      return fail(key, "want an integer in [" + std::to_string(lo) + ", " +
                           std::to_string(hi) + "]");
    }
    v = static_cast<std::size_t>(got);
  }
  void fixed(std::string_view key, std::string_view want) {
    const obs::JsonValue* x = next(key);
    if (x != nullptr && (!x->is_string() || x->string != want)) {
      fail(key, "want \"" + std::string(want) + "\"");
    }
  }
  /// Configuration, not state: must equal the configured value.
  void fixed(std::string_view key, std::uint64_t want) {
    std::uint64_t got = want;
    field(key, got);
    if (ok() && got != want) {
      fail(key, "contradicts the configuration (want \"" +
                    std::to_string(want) + "\")");
    }
  }
  template <class Row, class T>
  void column(std::string_view key, std::vector<Row>& rows, T Row::*m) {
    each(key, rows.size(), [&](const obs::JsonValue& x, std::size_t i) {
      return get(x, rows[i].*m);
    });
  }
  /// A column of rings, each holding at most `cap` doubles.
  template <class Row>
  void column(std::string_view key, std::vector<Row>& rows,
              std::vector<double> Row::*m, std::size_t cap) {
    each(key, rows.size(), [&](const obs::JsonValue& x, std::size_t i) {
      std::vector<double>& ring = rows[i].*m;
      if (!x.is_array() || x.array.size() > cap) return false;
      ring.resize(x.array.size());
      for (std::size_t j = 0; j < ring.size(); ++j) {
        if (!get(x.array[j], ring[j])) return false;
      }
      return true;
    });
  }
  template <class F>
  void object(std::string_view key, F&& body) {
    const obs::JsonValue* x = next(key);
    if (x == nullptr) return;
    if (!x->is_object()) return fail(key, "not an object");
    enter(*x, key);
    body();
    leave();
  }
  /// A variable-length array of objects.
  template <class T, class F>
  void objects(std::string_view key, std::vector<T>& items, F&& body) {
    const obs::JsonValue* x = next(key);
    if (x == nullptr) return;
    if (!x->is_array()) return fail(key, "not an array");
    items.assign(x->array.size(), T{});
    for (std::size_t i = 0; i < items.size() && ok(); ++i) {
      const std::string name = std::string(key) + "[" + std::to_string(i) + "]";
      if (!x->array[i].is_object()) return fail(name, "not an object");
      enter(x->array[i], name);
      body(items[i]);
      leave();
    }
  }

 private:
  struct Frame {
    const obs::JsonValue* object;
    std::size_t next = 0;
    std::string path;  // "table.window." — prefixes member names in errors
  };

  const obs::JsonValue* next(std::string_view key) {
    if (!ok()) return nullptr;
    Frame& f = frames_.back();
    const auto& members = f.object->object;
    if (f.next == members.size()) {
      fail(key, "missing");
      return nullptr;
    }
    if (members[f.next].first != key) {
      fail(key, "missing here (found \"" + members[f.next].first + "\")");
      return nullptr;
    }
    return &members[f.next++].second;
  }

  /// An array of exactly `n` cells, each accepted by `cell(value, index)`.
  template <class F>
  void each(std::string_view key, std::size_t n, F&& cell) {
    const obs::JsonValue* x = next(key);
    if (x == nullptr) return;
    if (!x->is_array() || x->array.size() != n) {
      return fail(key, "shape (want an array of " + std::to_string(n) + ")");
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (!cell(x->array[i], i)) {
        return fail(key, "mistyped element " + std::to_string(i));
      }
    }
  }

  void enter(const obs::JsonValue& object, std::string_view name) {
    frames_.push_back(
        {&object, 0, frames_.back().path + std::string(name) + "."});
  }
  void leave() {
    finish();
    frames_.pop_back();
  }

  void fail(std::string_view key, const std::string& what) {
    if (ok()) error_ = frames_.back().path + std::string(key) + ": " + what;
  }

  std::vector<Frame> frames_;
  std::string error_;
};

bool fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = std::string(kStateSchema) + ": " + what;
  return false;
}

}  // namespace

void write_state(std::ostream& os, const ScoreEngine& engine) {
  if (!engine.configured()) {
    throw std::logic_error("write_state: the engine is not configured");
  }
  Writer w(os);
  EngineConfig cfg = engine.config();
  config_io(w, cfg);
  // One state_io() serves both directions; the Writer only reads.
  const_cast<ScoreEngine&>(engine).state_io(w);
  w.finish();
}

std::string state_to_string(const ScoreEngine& engine) {
  std::ostringstream os;
  write_state(os, engine);
  return os.str();
}

bool load_state(std::string_view json, ScoreEngine* engine,
                std::string* error) {
  std::string parse_error;
  const auto doc = obs::json_parse(json, &parse_error);
  if (!doc.has_value()) return fail(error, parse_error);
  if (!doc->is_object()) return fail(error, "not a JSON object");

  Reader r(*doc);
  EngineConfig cfg;
  config_io(r, cfg);
  if (!r.ok()) return fail(error, r.error());
  // Every table array holds `links` entries, so a count larger than the
  // document is a lie — refuse it before configure() allocates.
  if (cfg.num_links > json.size()) {
    return fail(error, "links: more than the document can hold");
  }
  engine->configure(cfg);
  engine->state_io(r);
  r.finish();
  if (!r.ok()) return fail(error, r.error());
  engine->rebaseline_convictions();
  return true;
}

}  // namespace paai::stream
