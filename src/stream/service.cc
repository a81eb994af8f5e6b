#include "stream/service.h"

#include <chrono>
#include <exception>
#include <filesystem>
#include <fstream>
#include <ostream>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/telemetry.h"
#include "stream/state.h"

namespace paai::stream {

namespace {

bool write_snapshot(const ScoreEngine& engine, const std::string& path,
                    std::string* error) {
  // Write "<path>.tmp" in the same directory, then rename it over `path`:
  // a serve killed mid-write leaves the previous snapshot intact, never a
  // torn one. No fsync: perfbench's stream-replay workload writes ~11
  // snapshots per serve inside its timed loop, where a disk flush could
  // move the measured serve time; a power loss can therefore still lose
  // the newest snapshot. The trailing newline makes the file a valid
  // JSONL single-document too.
  const obs::ScopedPhase phase(obs::Phase::kSnapshot);
  const std::string tmp = path + ".tmp";
  std::error_code ec;
  std::ofstream out(tmp, std::ios::trunc);
  if (!out) {
    *error = "cannot open state file '" + tmp + "' for writing";
    return false;
  }
  write_state(out, engine);
  out << '\n';
  out.close();
  if (!out) {
    *error = "short write to state file '" + tmp + "'";
    std::filesystem::remove(tmp, ec);
    return false;
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    *error = "cannot rename '" + tmp + "' over '" + path + "': " + ec.message();
    std::filesystem::remove(tmp, ec);
    return false;
  }
  return true;
}

void announce_conviction(std::ostream& log, const ScoreEngine& engine,
                         std::size_t link) {
  const std::vector<double> thetas = engine.thetas();
  obs::JsonWriter w(log);
  w.begin_object();
  w.key("kind").value("conviction");
  w.key("link").value(static_cast<std::int64_t>(link));
  w.key("theta").value(link < thetas.size() ? thetas[link] : 0.0);
  w.key("observations").value(std::to_string(engine.observations()));
  w.key("packets_sent").value(std::to_string(engine.packets_sent()));
  w.key("events").value(std::to_string(engine.events_seen()));
  w.end_object();
  log << '\n';
  log.flush();
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ServeReport serve_stream(ScoreEngine& engine, std::istream& in,
                         std::ostream& log, const ServeConfig& config,
                         const volatile std::sig_atomic_t* stop) {
  ServeReport report;
  obs::EventReader reader(in);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  obs::PhaseProfiler& profiler = obs::PhaseProfiler::global();
  obs::Counter snapshots_counter = registry.counter("stream.snapshots");
  obs::Counter events_read_counter = registry.counter("stream.serve.events_read");
  obs::Counter events_applied_counter =
      registry.counter("stream.serve.events_applied");
  obs::Counter parse_errors_counter =
      registry.counter("stream.serve.parse_errors");
  obs::Counter bytes_read_counter = registry.counter("stream.serve.bytes_read");
  obs::Counter parse_stall_counter =
      registry.counter("stream.serve.parse_stall_ns");
  obs::Counter apply_stall_counter =
      registry.counter("stream.serve.apply_stall_ns");
  obs::Gauge backlog_gauge = registry.gauge("stream.serve.backlog_bytes");
  obs::Gauge lag_gauge = registry.gauge("stream.serve.lag_events");
  std::uint64_t next_snapshot =
      config.snapshot_every > 0 ? config.snapshot_every : 0;

  // Stall timers cost two clock reads per event, so only run them when
  // someone can observe the result. The counters themselves are cheap.
  const bool timing = config.telemetry != nullptr || profiler.enabled() ||
                      registry.enabled();
  std::uint64_t prev_bytes = 0;

  const auto probe_backlog = [&] {
    if (!config.backlog_bytes) return;
    const std::int64_t backlog = config.backlog_bytes();
    report.final_backlog_bytes = backlog;
    if (backlog > report.peak_backlog_bytes) {
      report.peak_backlog_bytes = backlog;
    }
    backlog_gauge.set(backlog);
  };

  const auto wall_start = std::chrono::steady_clock::now();
  obs::Event event;
  std::string error;
  for (;;) {
    if (stop != nullptr && *stop != 0) {
      report.interrupted = true;
      break;
    }
    const std::uint64_t parse_start = timing ? now_ns() : 0;
    const obs::EventReader::Status status = reader.next(&event, &error);
    if (timing) {
      const std::uint64_t dt = now_ns() - parse_start;
      report.parse_stall_ns += dt;
      parse_stall_counter.add(dt);
      profiler.add(obs::Phase::kStreamParse, dt);
    }
    {
      const std::uint64_t bytes = reader.bytes();
      if (bytes > prev_bytes) {
        bytes_read_counter.add(bytes - prev_bytes);
        prev_bytes = bytes;
      }
    }
    if (status == obs::EventReader::Status::kEof) break;
    if (status == obs::EventReader::Status::kError) {
      ++report.parse_errors;
      parse_errors_counter.add();
      if (config.fail_fast) {
        report.failed = true;
        report.error = error;
        break;
      }
      continue;
    }

    ++report.events;
    events_read_counter.add();
    const std::uint64_t applied_before = engine.events_applied();
    engine.set_stream_line(reader.line());
    const std::uint64_t apply_start = timing ? now_ns() : 0;
    try {
      engine.apply(event);
    } catch (const std::exception& e) {
      report.failed = true;
      report.error = "line " + std::to_string(reader.line()) + ": " + e.what();
      break;
    }
    if (timing) {
      const std::uint64_t dt = now_ns() - apply_start;
      report.apply_stall_ns += dt;
      apply_stall_counter.add(dt);
      profiler.add(obs::Phase::kStreamApply, dt);
    }
    if (engine.events_applied() == applied_before) continue;
    ++report.applied;
    events_applied_counter.add();
    const std::uint64_t lag = report.events - report.applied;
    if (lag > report.peak_lag_events) report.peak_lag_events = lag;
    lag_gauge.set(static_cast<std::int64_t>(lag));

    // The backlog probe can stat the filesystem, so sample it at a
    // coarse cadence plus at every telemetry tick boundary.
    if ((report.applied & 0xff) == 0) probe_backlog();

    if (config.telemetry != nullptr) {
      config.telemetry->tick(report.applied,
                             static_cast<std::uint64_t>(event.ts_ns));
    }

    for (const std::size_t link : engine.take_new_convictions()) {
      report.new_convictions.push_back(link);
      if (config.announce) announce_conviction(log, engine, link);
    }

    if (next_snapshot != 0 && report.applied >= next_snapshot) {
      next_snapshot += config.snapshot_every;
      if (!config.state_out.empty()) {
        std::string snap_error;
        if (!write_snapshot(engine, config.state_out, &snap_error)) {
          report.failed = true;
          report.error = snap_error;
          break;
        }
        ++report.snapshots;
        snapshots_counter.add();
      }
    }
  }

  report.lines = reader.line();
  probe_backlog();
  {
    const std::uint64_t lag = report.events - report.applied;
    if (lag > report.peak_lag_events) report.peak_lag_events = lag;
    lag_gauge.set(static_cast<std::int64_t>(lag));
  }
  // Exit snapshot on every path — a drained serve must be resumable.
  if (!config.state_out.empty() && engine.configured()) {
    std::string snap_error;
    if (write_snapshot(engine, config.state_out, &snap_error)) {
      ++report.snapshots;
      snapshots_counter.add();
    } else if (!report.failed) {
      report.failed = true;
      report.error = snap_error;
    }
  }
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  if (config.telemetry != nullptr) {
    config.telemetry->sample_now(report.applied,
                                 static_cast<std::uint64_t>(event.ts_ns));
  }
  return report;
}

}  // namespace paai::stream
