// Deterministic snapshot/restore of the streaming scoring state — the
// `paai.state.v2` JSON document.
//
// A snapshot captures everything apply() can mutate: the engine
// configuration, the active score table's counters, the derived counters
// (packets sent, delivered, events seen/applied), and the batch
// conviction records observed so far. Integer counters are emitted as
// decimal strings (like the event stream's a/b fields) so 64-bit values
// survive double-typed JSON parsers; doubles go through json_number's
// %.17g, which round-trips bit-exactly. Consequence: serve → snapshot →
// restore → continue produces the same final state as an uninterrupted
// pass over the same events — tests/stream_test.cc and the check.sh serve
// and detector legs hold the repo to that.
//
// One codec: each class that owns snapshot state names it once, in a
// `template <class Io> state_io(Io&)` member (ScoreEngine, the
// ScoreLedger's counters_io/table_io, the three score tables and
// WindowLedger). state.cc drives those lists with a writer over
// obs::JsonWriter and a reader over the obs::JsonValue DOM. The reader
// fails closed: it walks each object's members in the writer's order, so
// a missing, extra, duplicate or reordered key is an error; u64 fields
// must be canonical decimal strings and doubles finite JSON numbers;
// every array must have the length the configured engine already has,
// except that a "recent" ring holds at most kWindowRingCap values and
// "recorded_convictions" any number of records; and the window "w" must
// equal the blame spec's width.
//
// Schema (paai.state.v2), every member required, in this order:
//   {
//     "schema": "paai.state.v2",
//     "protocol": <ProtocolKind int>, "protocol_name": "<display>",
//     "links": <int>, "threshold": <double>,
//     "blame": "<BlameSpec::to_string()>",
//     "events_seen": "<u64>", "events_applied": "<u64>",
//     "packets_sent": "<u64>", "delivered": "<u64>", "run_ended": <bool>,
//     "recorded_convictions": [
//       {"link": <int>, "packets": "<u64>", "observations": "<u64>",
//        "theta": <double>, "line": "<u64>"}, ...],
//     "table":
//       {"kind": "onion", "s": ["<u64>", ...], "n": "<u64>",
//        "probes": "<u64>", "window": {"bins": [...], LEDGER}}
//     | {"kind": "prefix", "s": [...], "sel_n": [...], "sel_f": [...],
//        "data_packets": "<u64>", "probes": "<u64>",
//        "window": {"sel_n_bins": [...], "sel_f_bins": [...], LEDGER}}
//     | {"kind": "fl", "acc": [<double>, ...],
//        "intervals_reported": "<u64>", "intervals_lost": "<u64>",
//        "window": {"counts": [<double>, ...], LEDGER}}
//   }
//   LEDGER = "v": 1, "w": "<u64>", "completed": "<u64>",
//            "cur_streak": [...], "max_streak": [...], "flagrant": [...],
//            "max_theta_w": [<double>, ...], "recent": [[<double>...], ...]
//
// v2 is v1 without the legacy "persistence" member (the "blame" spec
// carries the mode) and with every member required. v1 documents are
// rejected: the event log is the durable record, and
// `paai replay LOG --state-out=F` rebuilds a snapshot from it.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "stream/engine.h"

namespace paai::stream {

inline constexpr std::string_view kStateSchema = "paai.state.v2";

/// Writes the engine's state as one paai.state.v2 document (no trailing
/// newline). Throws std::logic_error when the engine is unconfigured.
void write_state(std::ostream& os, const ScoreEngine& engine);

std::string state_to_string(const ScoreEngine& engine);

/// Parses a paai.state.v2 document and installs it into `engine`
/// (reconfiguring it from the document). Returns false and a description
/// via `error` on schema violations; the engine is left unusable
/// (unconfigured or partially restored) on failure — discard it.
bool load_state(std::string_view json, ScoreEngine* engine,
                std::string* error = nullptr);

}  // namespace paai::stream
