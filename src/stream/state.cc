#include "stream/state.h"

#include <cerrno>
#include <cstdlib>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "obs/json.h"

namespace paai::stream {

namespace {

/// Path length cap: links are indexed by the event stream's int32 field.
constexpr std::int64_t kMaxLinks = std::int64_t{1} << 31;

void write_u64(obs::JsonWriter& w, std::uint64_t v) {
  w.value(std::to_string(v));
}

bool parse_u64(const obs::JsonValue* v, std::uint64_t* out) {
  if (v == nullptr || !v->is_string() || v->string.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v->string.c_str(), &end, 10);
  if (errno != 0 || end != v->string.c_str() + v->string.size()) return false;
  *out = parsed;
  return true;
}

bool parse_u64_array(const obs::JsonValue* v, std::vector<std::uint64_t>* out) {
  if (v == nullptr || !v->is_array()) return false;
  out->clear();
  out->reserve(v->array.size());
  for (const obs::JsonValue& item : v->array) {
    std::uint64_t x = 0;
    if (!parse_u64(&item, &x)) return false;
    out->push_back(x);
  }
  return true;
}

bool parse_double_array(const obs::JsonValue* v, std::vector<double>* out) {
  if (v == nullptr || !v->is_array()) return false;
  out->clear();
  out->reserve(v->array.size());
  for (const obs::JsonValue& item : v->array) {
    if (!item.is_number()) return false;
    out->push_back(item.number);
  }
  return true;
}

bool fail(std::string* error, const char* what) {
  if (error != nullptr) *error = std::string("paai.state.v1: ") + what;
  return false;
}

/// Emits the WindowLedger counters into the already-open "window" object
/// (the caller writes the table-specific current-window bins first).
void write_ledger(obs::JsonWriter& w, const protocols::WindowLedger& led) {
  w.key("v").value(std::int64_t{1});
  w.key("w");
  write_u64(w, led.width());
  w.key("completed");
  write_u64(w, led.completed());
  w.key("cur_streak").begin_array();
  for (std::size_t i = 0; i < led.num_links(); ++i) {
    write_u64(w, led.cur_streak(i));
  }
  w.end_array();
  w.key("max_streak").begin_array();
  for (std::size_t i = 0; i < led.num_links(); ++i) {
    write_u64(w, led.max_streak(i));
  }
  w.end_array();
  w.key("flagrant").begin_array();
  for (std::size_t i = 0; i < led.num_links(); ++i) {
    write_u64(w, led.flagrant_windows(i));
  }
  w.end_array();
  w.key("max_theta_w").begin_array();
  for (std::size_t i = 0; i < led.num_links(); ++i) {
    w.value(led.max_theta_w(i));
  }
  w.end_array();
  w.key("recent").begin_array();
  for (std::size_t i = 0; i < led.num_links(); ++i) {
    w.begin_array();
    for (const double tw : led.recent(i)) w.value(tw);
    w.end_array();
  }
  w.end_array();
}

/// Parsed WindowLedger counters from a snapshot's "window" object.
struct LedgerDoc {
  std::uint64_t width = 0;
  std::uint64_t completed = 0;
  std::vector<std::uint64_t> cur_streak, max_streak, flagrant;
  std::vector<double> max_theta_w;
  std::vector<std::vector<double>> recent;
};

/// Fail-closed parse of the ledger half of a "window" object: every
/// field must be present, well-typed, and num_links-shaped.
bool parse_ledger(const obs::JsonValue* win, std::size_t num_links,
                  std::uint64_t expect_width, LedgerDoc* out,
                  std::string* error) {
  std::int64_t version = 0;
  if (!obs::json_integer(win->find("v"), 1, 1, &version)) {
    return fail(error, "unsupported window state version");
  }
  if (!parse_u64(win->find("w"), &out->width) ||
      !parse_u64(win->find("completed"), &out->completed)) {
    return fail(error, "mistyped window counters");
  }
  if (out->width != expect_width) {
    return fail(error, "window width contradicts the blame spec");
  }
  if (!parse_u64_array(win->find("cur_streak"), &out->cur_streak) ||
      !parse_u64_array(win->find("max_streak"), &out->max_streak) ||
      !parse_u64_array(win->find("flagrant"), &out->flagrant) ||
      !parse_double_array(win->find("max_theta_w"), &out->max_theta_w)) {
    return fail(error, "mistyped window counters");
  }
  const obs::JsonValue* recent = win->find("recent");
  if (recent == nullptr || !recent->is_array()) {
    return fail(error, "mistyped window counters");
  }
  out->recent.clear();
  out->recent.reserve(recent->array.size());
  for (const obs::JsonValue& ring : recent->array) {
    std::vector<double> values;
    if (!parse_double_array(&ring, &values) ||
        values.size() > protocols::kWindowRingCap) {
      return fail(error, "mistyped window counters");
    }
    out->recent.push_back(std::move(values));
  }
  if (out->cur_streak.size() != num_links ||
      out->max_streak.size() != num_links ||
      out->flagrant.size() != num_links ||
      out->max_theta_w.size() != num_links ||
      out->recent.size() != num_links) {
    return fail(error, "window state shape");
  }
  return true;
}

}  // namespace

void write_state(std::ostream& os, const ScoreEngine& engine) {
  const EngineConfig& cfg = engine.config();
  const protocols::ScoreLedger* ledger =
      engine.configured() ? &engine.ledger() : nullptr;
  obs::JsonWriter w(os);
  w.begin_object();
  w.key("schema").value(kStateSchema);
  w.key("protocol").value(static_cast<std::int64_t>(cfg.protocol));
  w.key("protocol_name").value(protocols::protocol_name(cfg.protocol));
  w.key("links").value(static_cast<std::int64_t>(cfg.num_links));
  w.key("threshold").value(cfg.threshold);
  // "persistence" is the legacy field (pre-window readers); "blame" is
  // the full spec. They agree by construction for margin/persistent.
  w.key("persistence");
  write_u64(w, cfg.blame.mode == protocols::BlameSpec::Mode::kPersistent
                   ? cfg.blame.k
                   : 0);
  w.key("blame").value(cfg.blame.to_string());
  w.key("events_seen");
  write_u64(w, engine.events_seen());
  w.key("events_applied");
  write_u64(w, engine.events_applied());
  w.key("packets_sent");
  write_u64(w, engine.packets_sent());
  w.key("delivered");
  write_u64(w, ledger != nullptr ? ledger->delivered() : 0);
  w.key("run_ended").value(engine.run_ended());

  w.key("recorded_convictions").begin_array();
  for (const ConvictionRecord& rec : engine.recorded_convictions()) {
    w.begin_object();
    w.key("link").value(static_cast<std::int64_t>(rec.link));
    w.key("packets");
    write_u64(w, rec.packets);
    w.key("observations");
    write_u64(w, rec.observations);
    w.key("theta").value(rec.theta);
    w.key("line");
    write_u64(w, rec.line);
    w.end_object();
  }
  w.end_array();

  w.key("table").begin_object();
  if (ledger == nullptr) {
    w.key("kind").value("none");
  } else if (const auto* t = ledger->table<protocols::ScoreTable>()) {
    w.key("kind").value("onion");
    w.key("s").begin_array();
    for (std::size_t i = 0; i < t->num_links(); ++i) write_u64(w, t->score(i));
    w.end_array();
    w.key("n");
    write_u64(w, t->observations());
    w.key("probes");
    write_u64(w, t->probes());
    w.key("window").begin_object();
    w.key("bins").begin_array();
    for (const std::uint64_t b : t->window_bins()) write_u64(w, b);
    w.end_array();
    write_ledger(w, t->windows());
    w.end_object();
  } else if (const auto* t2 = ledger->table<protocols::Paai2ScoreTable>()) {
    w.key("kind").value("prefix");
    w.key("s").begin_array();
    for (std::size_t i = 0; i < t2->num_links(); ++i) {
      write_u64(w, t2->interval_score(i));
    }
    w.end_array();
    w.key("sel_n").begin_array();
    for (std::size_t e = 0; e <= t2->num_links(); ++e) {
      write_u64(w, t2->selections(e));
    }
    w.end_array();
    w.key("sel_f").begin_array();
    for (std::size_t e = 0; e <= t2->num_links(); ++e) {
      write_u64(w, t2->selection_failures(e));
    }
    w.end_array();
    w.key("data_packets");
    write_u64(w, t2->data_packets());
    w.key("probes");
    write_u64(w, t2->probes());
    w.key("window").begin_object();
    w.key("sel_n_bins").begin_array();
    for (const std::uint64_t b : t2->window_sel_n()) write_u64(w, b);
    w.end_array();
    w.key("sel_f_bins").begin_array();
    for (const std::uint64_t b : t2->window_sel_f()) write_u64(w, b);
    w.end_array();
    write_ledger(w, t2->windows());
    w.end_object();
  } else {
    const auto* tf = ledger->table<protocols::FlScoreTable>();
    w.key("kind").value("fl");
    w.key("acc").begin_array();
    for (std::size_t i = 0; i <= tf->num_links(); ++i) {
      w.value(tf->accumulated(i));
    }
    w.end_array();
    w.key("intervals_reported");
    write_u64(w, tf->intervals_reported());
    w.key("intervals_lost");
    write_u64(w, tf->intervals_lost());
    w.key("window").begin_object();
    w.key("counts").begin_array();
    for (const double c : tf->window_counts()) w.value(c);
    w.end_array();
    write_ledger(w, tf->windows());
    w.end_object();
  }
  w.end_object();
  w.end_object();
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
  if (!doc.has_value()) return fail(error, parse_error.c_str());
  if (!doc->is_object()) return fail(error, "not a JSON object");

  const obs::JsonValue* schema = doc->find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->string != kStateSchema) {
    return fail(error, "missing or unsupported schema (want paai.state.v1)");
  }

  std::int64_t kind_value = 0, links = 0;
  const obs::JsonValue* threshold = doc->find("threshold");
  if (!obs::json_integer(
          doc->find("protocol"), 0,
          static_cast<std::int64_t>(protocols::ProtocolKind::kSigAck),
          &kind_value) ||
      !obs::json_integer(doc->find("links"), 1, kMaxLinks, &links) ||
      threshold == nullptr || !threshold->is_number()) {
    return fail(error,
                "missing, mistyped or out-of-range protocol/links/threshold");
  }

  EngineConfig cfg;
  cfg.protocol = static_cast<protocols::ProtocolKind>(kind_value);
  cfg.num_links = static_cast<std::size_t>(links);
  cfg.threshold = threshold->number;
  std::uint64_t persistence = 0;
  if (!parse_u64(doc->find("persistence"), &persistence)) {
    return fail(error, "missing or mistyped persistence");
  }
  const obs::JsonValue* blame = doc->find("blame");
  if (blame != nullptr) {
    if (!blame->is_string()) return fail(error, "mistyped blame spec");
    try {
      cfg.blame = protocols::BlameSpec::parse(blame->string);
    } catch (const std::invalid_argument&) {
      return fail(error, "malformed blame spec");
    }
  } else if (persistence > 0) {
    // Legacy (pre-window) snapshot: the persistence field IS the spec.
    cfg.blame.mode = protocols::BlameSpec::Mode::kPersistent;
    cfg.blame.k = persistence;
  }
  engine->configure(cfg);

  std::uint64_t events_seen = 0, events_applied = 0;
  std::uint64_t packets_sent = 0, delivered = 0;
  if (!parse_u64(doc->find("events_seen"), &events_seen) ||
      !parse_u64(doc->find("events_applied"), &events_applied) ||
      !parse_u64(doc->find("packets_sent"), &packets_sent) ||
      !parse_u64(doc->find("delivered"), &delivered)) {
    return fail(error, "missing or mistyped counters");
  }
  const obs::JsonValue* run_ended = doc->find("run_ended");
  if (run_ended == nullptr || run_ended->kind != obs::JsonValue::Kind::kBool) {
    return fail(error, "missing or mistyped run_ended");
  }

  std::vector<ConvictionRecord> recorded;
  const obs::JsonValue* recs = doc->find("recorded_convictions");
  if (recs == nullptr || !recs->is_array()) {
    return fail(error, "missing recorded_convictions");
  }
  for (const obs::JsonValue& item : recs->array) {
    const obs::JsonValue* theta = item.find("theta");
    ConvictionRecord rec;
    std::int64_t link = 0;
    if (!obs::json_integer(item.find("link"), 0, kMaxLinks - 1, &link) ||
        theta == nullptr || !theta->is_number() ||
        !parse_u64(item.find("packets"), &rec.packets) ||
        !parse_u64(item.find("observations"), &rec.observations)) {
      return fail(error, "mistyped conviction record");
    }
    rec.link = static_cast<std::size_t>(link);
    rec.theta = theta->number;
    // Optional in legacy documents; rejected when present-but-mistyped.
    const obs::JsonValue* line = item.find("line");
    if (line != nullptr && !parse_u64(line, &rec.line)) {
      return fail(error, "mistyped conviction record");
    }
    recorded.push_back(rec);
  }

  const obs::JsonValue* table = doc->find("table");
  if (table == nullptr || !table->is_object()) {
    return fail(error, "missing table");
  }
  const obs::JsonValue* table_kind = table->find("kind");
  if (table_kind == nullptr || !table_kind->is_string()) {
    return fail(error, "missing table.kind");
  }

  protocols::ScoreLedger* ledger = engine->mutable_ledger();
  if (auto* t = ledger->table<protocols::ScoreTable>()) {
    if (table_kind->string != "onion") {
      return fail(error, "table.kind does not match the protocol");
    }
    std::vector<std::uint64_t> s;
    std::uint64_t n = 0, probes = 0;
    if (!parse_u64_array(table->find("s"), &s) ||
        !parse_u64(table->find("n"), &n) ||
        !parse_u64(table->find("probes"), &probes)) {
      return fail(error, "mistyped onion table");
    }
    if (s.size() != cfg.num_links) return fail(error, "onion table shape");
    t->restore(s, n, probes);
    if (const obs::JsonValue* win = table->find("window")) {
      if (!win->is_object()) return fail(error, "mistyped window state");
      std::vector<std::uint64_t> bins;
      LedgerDoc led;
      if (!parse_u64_array(win->find("bins"), &bins)) {
        return fail(error, "mistyped window counters");
      }
      if (bins.size() != cfg.num_links) {
        return fail(error, "window state shape");
      }
      if (!parse_ledger(win, cfg.num_links, cfg.blame.w, &led, error)) {
        return false;
      }
      t->restore_window(bins, led.completed, led.cur_streak, led.max_streak,
                        led.flagrant, led.max_theta_w, led.recent);
    }
  } else if (auto* t2 = ledger->table<protocols::Paai2ScoreTable>()) {
    if (table_kind->string != "prefix") {
      return fail(error, "table.kind does not match the protocol");
    }
    std::vector<std::uint64_t> s, sel_n, sel_f;
    std::uint64_t data_packets = 0, probes = 0;
    if (!parse_u64_array(table->find("s"), &s) ||
        !parse_u64_array(table->find("sel_n"), &sel_n) ||
        !parse_u64_array(table->find("sel_f"), &sel_f) ||
        !parse_u64(table->find("data_packets"), &data_packets) ||
        !parse_u64(table->find("probes"), &probes)) {
      return fail(error, "mistyped prefix table");
    }
    if (s.size() != cfg.num_links || sel_n.size() != cfg.num_links + 1 ||
        sel_f.size() != cfg.num_links + 1) {
      return fail(error, "prefix table shape");
    }
    t2->restore(s, sel_n, sel_f, data_packets, probes);
    if (const obs::JsonValue* win = table->find("window")) {
      if (!win->is_object()) return fail(error, "mistyped window state");
      std::vector<std::uint64_t> sel_n_bins, sel_f_bins;
      LedgerDoc led;
      if (!parse_u64_array(win->find("sel_n_bins"), &sel_n_bins) ||
          !parse_u64_array(win->find("sel_f_bins"), &sel_f_bins)) {
        return fail(error, "mistyped window counters");
      }
      if (sel_n_bins.size() != cfg.num_links + 1 ||
          sel_f_bins.size() != cfg.num_links + 1) {
        return fail(error, "window state shape");
      }
      if (!parse_ledger(win, cfg.num_links, cfg.blame.w, &led, error)) {
        return false;
      }
      t2->restore_window(sel_n_bins, sel_f_bins, led.completed,
                         led.cur_streak, led.max_streak, led.flagrant,
                         led.max_theta_w, led.recent);
    }
  } else {
    auto* tf = ledger->table<protocols::FlScoreTable>();
    if (table_kind->string != "fl") {
      return fail(error, "table.kind does not match the protocol");
    }
    const obs::JsonValue* acc_value = table->find("acc");
    if (acc_value == nullptr || !acc_value->is_array()) {
      return fail(error, "mistyped fl table");
    }
    std::vector<double> acc;
    acc.reserve(acc_value->array.size());
    for (const obs::JsonValue& item : acc_value->array) {
      if (!item.is_number()) return fail(error, "mistyped fl table");
      acc.push_back(item.number);
    }
    std::uint64_t reported = 0, lost = 0;
    if (!parse_u64(table->find("intervals_reported"), &reported) ||
        !parse_u64(table->find("intervals_lost"), &lost)) {
      return fail(error, "mistyped fl table");
    }
    if (acc.size() != cfg.num_links + 1) return fail(error, "fl table shape");
    tf->restore(acc, reported, lost);
    if (const obs::JsonValue* win = table->find("window")) {
      if (!win->is_object()) return fail(error, "mistyped window state");
      std::vector<double> counts;
      LedgerDoc led;
      if (!parse_double_array(win->find("counts"), &counts)) {
        return fail(error, "mistyped window counters");
      }
      if (counts.size() != cfg.num_links + 1) {
        return fail(error, "window state shape");
      }
      if (!parse_ledger(win, cfg.num_links, cfg.blame.w, &led, error)) {
        return false;
      }
      tf->restore_window(counts, led.completed, led.cur_streak,
                         led.max_streak, led.flagrant, led.max_theta_w,
                         led.recent);
    }
  }

  ledger->restore_counters(packets_sent, delivered);
  engine->restore_counters(events_seen, events_applied, run_ended->boolean,
                           std::move(recorded));
  engine->rebaseline_convictions();
  return true;
}

}  // namespace paai::stream
