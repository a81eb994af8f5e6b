// Streaming engine throughput & latency (src/stream).
//
// Measures the three costs that size a `paai serve` deployment, one
// stream per score-table family (PAAI-1 = onion ScoreTable, PAAI-2 =
// prefix Paai2ScoreTable, statistical-FL = FlScoreTable):
//
//   parse    events/s through obs::EventReader alone (JSONL decode);
//   apply    events/s through ScoreEngine::apply on pre-parsed events
//            (the pure scoring cost);
//   serve    events/s through serve_stream (reader + engine, the real
//            ingest path);
//   snapshot paai.state.v2 write and restore latency (the cost of
//            --snapshot-every and of a --state-in restart).
//
// Every timing metric here measures the machine, not the protocols —
// cross-snapshot gates ignore this bench (like bench_micro). The
// deterministic shape metrics (events, bytes per event, snapshot bytes)
// are stable and diffable.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "runner/producer.h"
#include "stream/engine.h"
#include "stream/service.h"
#include "stream/state.h"
#include "util/csv.h"

using namespace paai;
using namespace paai::runner;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  const auto dt = Clock::now() - t0;
  const double s =
      std::chrono::duration_cast<std::chrono::duration<double>>(dt).count();
  return s > 1e-9 ? s : 1e-9;
}

struct StreamFixture {
  std::string jsonl;
  std::vector<obs::Event> events;
  ExperimentResult batch;
};

StreamFixture produce(protocols::ProtocolKind kind, std::uint64_t packets) {
  std::ostringstream os;
  const StreamProduceResult r =
      run_experiment_to_stream(paper_config(kind, packets, 7), os);
  if (r.events_dropped != 0) {
    std::fprintf(stderr, "bench_stream: producer dropped %llu events\n",
                 static_cast<unsigned long long>(r.events_dropped));
    std::exit(2);
  }
  StreamFixture fx;
  fx.jsonl = os.str();
  fx.batch = r.result;
  std::istringstream is(fx.jsonl);
  std::string error;
  fx.events = obs::EventLog::read_jsonl(is, &error);
  if (fx.events.empty()) {
    std::fprintf(stderr, "bench_stream: reparse failed: %s\n", error.c_str());
    std::exit(2);
  }
  return fx;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchSession session("bench_stream", argc, argv);
  const auto& args = session.args;
  bench::print_header("Streaming engine — ingest throughput and "
                      "snapshot latency",
                      "src/stream: paai serve / paai replay costs");

  const std::uint64_t packets = args.scaled(20000);
  const std::size_t reps = args.runs_or(5);

  const struct {
    protocols::ProtocolKind kind;
    const char* family;
  } cases[] = {
      {protocols::ProtocolKind::kPaai1, "onion"},
      {protocols::ProtocolKind::kPaai2, "prefix"},
      {protocols::ProtocolKind::kStatisticalFl, "fl"},
  };

  Table t({"protocol", "events", "parse_Mev_s", "apply_Mev_s",
           "serve_Mev_s", "snap_write_us", "snap_restore_us",
           "snap_bytes"});
  for (const auto& c : cases) {
    std::fprintf(stderr, "[stream] %s (%llu packets)...\n",
                 protocols::protocol_name(c.kind),
                 static_cast<unsigned long long>(packets));
    const StreamFixture fx = produce(c.kind, packets);
    const double n_events = static_cast<double>(fx.events.size());
    const std::string prefix =
        std::string("stream.") + protocols::protocol_name(c.kind);
    session.metric(prefix + ".events", n_events);
    session.metric(prefix + ".bytes_per_event",
                   static_cast<double>(fx.jsonl.size()) / n_events);

    // parse: JSONL decode alone.
    auto t0 = Clock::now();
    for (std::size_t rep = 0; rep < reps; ++rep) {
      std::istringstream is(fx.jsonl);
      obs::EventReader reader(is);
      obs::Event e;
      while (reader.next(&e) == obs::EventReader::Status::kEvent) {
      }
    }
    const double parse_eps =
        n_events * static_cast<double>(reps) / seconds_since(t0);

    // apply: scoring alone, on pre-parsed events.
    t0 = Clock::now();
    for (std::size_t rep = 0; rep < reps; ++rep) {
      stream::ScoreEngine engine;
      for (const obs::Event& e : fx.events) engine.apply(e);
    }
    const double apply_eps =
        n_events * static_cast<double>(reps) / seconds_since(t0);

    // serve: the composed ingest path, announcements off.
    stream::ServeConfig serve_cfg;
    serve_cfg.announce = false;
    std::ostringstream sink;
    t0 = Clock::now();
    for (std::size_t rep = 0; rep < reps; ++rep) {
      std::istringstream is(fx.jsonl);
      stream::ScoreEngine engine;
      const stream::ServeReport r =
          serve_stream(engine, is, sink, serve_cfg);
      if (r.failed) {
        std::fprintf(stderr, "bench_stream: serve failed: %s\n",
                     r.error.c_str());
        return 2;
      }
    }
    const double serve_eps =
        n_events * static_cast<double>(reps) / seconds_since(t0);

    // snapshot: write and restore a warm (fully-absorbed) engine.
    stream::ScoreEngine warm;
    for (const obs::Event& e : fx.events) warm.apply(e);
    const std::string snapshot = stream::state_to_string(warm);
    const std::size_t snap_reps = reps * 100;
    t0 = Clock::now();
    for (std::size_t rep = 0; rep < snap_reps; ++rep) {
      const std::string s = stream::state_to_string(warm);
      if (s.size() != snapshot.size()) return 2;  // defeat optimizer
    }
    const double write_us =
        seconds_since(t0) * 1e6 / static_cast<double>(snap_reps);
    t0 = Clock::now();
    for (std::size_t rep = 0; rep < snap_reps; ++rep) {
      stream::ScoreEngine restored;
      std::string error;
      if (!stream::load_state(snapshot, &restored, &error)) {
        std::fprintf(stderr, "bench_stream: restore failed: %s\n",
                     error.c_str());
        return 2;
      }
    }
    const double restore_us =
        seconds_since(t0) * 1e6 / static_cast<double>(snap_reps);

    session.metric(prefix + ".parse_events_per_sec", parse_eps);
    session.metric(prefix + ".apply_events_per_sec", apply_eps);
    session.metric(prefix + ".serve_events_per_sec", serve_eps);
    session.metric(prefix + ".snapshot_write_us", write_us);
    session.metric(prefix + ".snapshot_restore_us", restore_us);
    session.metric(prefix + ".snapshot_bytes",
                   static_cast<double>(snapshot.size()));

    t.row()
        .cell(protocols::protocol_name(c.kind))
        .integer(static_cast<long long>(fx.events.size()))
        .num(parse_eps / 1e6, 3)
        .num(apply_eps / 1e6, 3)
        .num(serve_eps / 1e6, 3)
        .num(write_us, 1)
        .num(restore_us, 1)
        .integer(static_cast<long long>(snapshot.size()));
  }
  t.print(std::cout, args.csv);
  std::printf(
      "\nserve throughput is the deployable number: a paper-rate source "
      "(100 pps, ~16 events/packet) needs ~1.6 kev/s — margin is the "
      "ratio above that\n");
  return 0;
}
