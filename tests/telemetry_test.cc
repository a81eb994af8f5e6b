// Tests for the live telemetry plane (obs/telemetry.h, obs/profile.h):
// schema round-trip through the strict parser (write -> parse -> rewrite
// must be byte-identical), fail-closed rejection of malformed lines,
// delta encoding across registry resets, tick cadence, the observational
// guarantee (profiler on/off and telemetry attached/detached never change
// simulation results, bit for bit, for all seven protocols), and serve
// lag/back-pressure gauges under a throttled consumer. The concurrency
// test at the bottom races producers against the sampler and runs under
// TSan in tools/check.sh.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/telemetry.h"
#include "runner/experiment.h"
#include "stream/engine.h"
#include "stream/service.h"

namespace paai::obs {
namespace {

struct RegistryGuard {
  RegistryGuard() {
    MetricsRegistry::global().reset();
    MetricsRegistry::global().set_enabled(true);
  }
  ~RegistryGuard() {
    MetricsRegistry::global().set_enabled(false);
    MetricsRegistry::global().reset();
  }
};

struct ProfilerGuard {
  ProfilerGuard() {
    PhaseProfiler::global().reset();
    PhaseProfiler::global().set_enabled(true);
  }
  ~ProfilerGuard() {
    PhaseProfiler::global().set_enabled(false);
    PhaseProfiler::global().reset();
  }
};

TelemetrySample make_sample() {
  TelemetrySample s;
  s.sample = 3;
  s.wall_ns = 123456789;
  s.virt_ns = 5000000000ull;
  s.units = 499;
  s.counters.push_back({"proto.score.updates", 496});
  s.counters.push_back({"sim.link.0.tx_bytes", 18446744073709551615ull});
  GaugeSnapshot g;
  g.name = "stream.serve.lag_events";
  g.value = -7;
  g.high = 98326;
  s.gauges.push_back(g);
  s.phases.push_back({"sim-loop", PhaseDelta{910618953, 9209, 442848}});
  s.phases.push_back({"crypto", PhaseDelta{616254, 3370, 0}});
  s.queues.push_back({"sim-queue", 30});
  return s;
}

std::string to_line(const TelemetrySample& s) {
  std::ostringstream os;
  write_telemetry_line(os, s);
  return os.str();
}

TEST(TelemetrySchema, RoundTripByteIdentical) {
  const std::string first = to_line(make_sample());
  ASSERT_FALSE(first.empty());
  ASSERT_EQ(first.back(), '\n');

  TelemetrySample parsed;
  std::string error;
  ASSERT_TRUE(parse_telemetry_line(
      std::string_view(first).substr(0, first.size() - 1), &parsed, &error))
      << error;
  EXPECT_EQ(parsed.sample, 3u);
  EXPECT_EQ(parsed.units, 499u);
  ASSERT_EQ(parsed.counters.size(), 2u);
  EXPECT_EQ(parsed.counters[1].second, 18446744073709551615ull);
  ASSERT_EQ(parsed.gauges.size(), 1u);
  EXPECT_EQ(parsed.gauges[0].value, -7);
  EXPECT_EQ(parsed.gauges[0].high, 98326);
  ASSERT_EQ(parsed.phases.size(), 2u);
  EXPECT_EQ(parsed.phases[0].second.ns, 910618953u);

  EXPECT_EQ(to_line(parsed), first);  // byte-identical rewrite
}

TEST(TelemetrySchema, EmptyContainersStillRoundTrip) {
  TelemetrySample s;
  s.sample = 0;
  const std::string line = to_line(s);
  EXPECT_NE(line.find("\"counters\":{}"), std::string::npos);
  EXPECT_NE(line.find("\"queues\":{}"), std::string::npos);
  TelemetrySample parsed;
  ASSERT_TRUE(parse_telemetry_line(
      std::string_view(line).substr(0, line.size() - 1), &parsed));
  EXPECT_EQ(to_line(parsed), line);
}

TEST(TelemetrySchema, FailClosed) {
  const auto rejects = [](const std::string& line) {
    TelemetrySample out;
    std::string error;
    const bool ok = parse_telemetry_line(line, &out, &error);
    EXPECT_FALSE(ok) << line;
    EXPECT_FALSE(error.empty());
  };
  const std::string good = to_line(make_sample());
  const std::string bare = good.substr(0, good.size() - 1);

  rejects("");
  rejects("not json");
  rejects("[1,2,3]");
  // Unknown top-level key.
  rejects("{\"schema\":\"paai.telemetry.v1\",\"sample\":0,\"wall_ns\":\"0\","
          "\"virt_ns\":\"0\",\"units\":\"0\",\"counters\":{},\"gauges\":{},"
          "\"phases\":{},\"queues\":{},\"extra\":1}");
  // Wrong schema string.
  rejects("{\"schema\":\"paai.telemetry.v2\",\"sample\":0,\"wall_ns\":\"0\","
          "\"virt_ns\":\"0\",\"units\":\"0\",\"counters\":{},\"gauges\":{},"
          "\"phases\":{},\"queues\":{}}");
  // Missing required member (no units).
  rejects("{\"schema\":\"paai.telemetry.v1\",\"sample\":0,\"wall_ns\":\"0\","
          "\"virt_ns\":\"0\",\"counters\":{},\"gauges\":{},"
          "\"phases\":{},\"queues\":{}}");
  // Counter as a JSON number instead of a decimal string.
  rejects("{\"schema\":\"paai.telemetry.v1\",\"sample\":0,\"wall_ns\":\"0\","
          "\"virt_ns\":\"0\",\"units\":\"0\",\"counters\":{\"x\":5},"
          "\"gauges\":{},\"phases\":{},\"queues\":{}}");
  // Gauge above 2^53 cannot rewrite exactly: fail closed.
  rejects("{\"schema\":\"paai.telemetry.v1\",\"sample\":0,\"wall_ns\":\"0\","
          "\"virt_ns\":\"0\",\"units\":\"0\",\"counters\":{},"
          "\"gauges\":{\"g\":[9007199254740993,0]},\"phases\":{},"
          "\"queues\":{}}");
  // Non-integral gauge.
  rejects("{\"schema\":\"paai.telemetry.v1\",\"sample\":0,\"wall_ns\":\"0\","
          "\"virt_ns\":\"0\",\"units\":\"0\",\"counters\":{},"
          "\"gauges\":{\"g\":[1.5,2]},\"phases\":{},\"queues\":{}}");
  // Phase tuple with the wrong arity.
  rejects("{\"schema\":\"paai.telemetry.v1\",\"sample\":0,\"wall_ns\":\"0\","
          "\"virt_ns\":\"0\",\"units\":\"0\",\"counters\":{},\"gauges\":{},"
          "\"phases\":{\"p\":[\"1\",\"2\"]},\"queues\":{}}");
  // A good line with a trailing character is not a valid document.
  rejects(bare + "x");
}

std::vector<TelemetrySample> parse_all(const std::string& text) {
  std::vector<TelemetrySample> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    TelemetrySample s;
    std::string error;
    EXPECT_TRUE(parse_telemetry_line(line, &s, &error)) << error;
    out.push_back(std::move(s));
  }
  return out;
}

std::uint64_t counter_delta(const TelemetrySample& s, const std::string& n) {
  for (const auto& [name, delta] : s.counters) {
    if (name == n) return delta;
  }
  return 0;
}

TEST(TelemetrySink, DeltaEncodingAcrossResets) {
  RegistryGuard guard;
  auto& reg = MetricsRegistry::global();
  std::ostringstream os;
  TelemetrySink sink(os, 1);

  reg.counter("tele.test.delta").add(100);
  sink.sample_now(1);
  reg.counter("tele.test.delta").add(50);
  sink.sample_now(2);
  // Registry reset: the counter restarts below its previous total; the
  // delta must restart from the current value, not wrap around.
  reg.reset();
  reg.counter("tele.test.delta").add(30);
  sink.sample_now(3);

  const auto samples = parse_all(os.str());
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(counter_delta(samples[0], "tele.test.delta"), 100u);
  EXPECT_EQ(counter_delta(samples[1], "tele.test.delta"), 50u);
  EXPECT_EQ(counter_delta(samples[2], "tele.test.delta"), 30u);
  // Monotone sample indices.
  EXPECT_EQ(samples[0].sample, 0u);
  EXPECT_EQ(samples[1].sample, 1u);
  EXPECT_EQ(samples[2].sample, 2u);
}

TEST(TelemetrySink, TickCadence) {
  RegistryGuard guard;
  std::ostringstream os;
  TelemetrySink sink(os, 10);
  for (std::uint64_t u = 1; u <= 35; ++u) sink.tick(u);
  // Thresholds crossed at units 10, 20, 30 -> exactly three samples.
  EXPECT_EQ(sink.samples(), 3u);
  const auto samples = parse_all(os.str());
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].units, 10u);
  EXPECT_EQ(samples[1].units, 20u);
  EXPECT_EQ(samples[2].units, 30u);
}

// --- the observational guarantee ------------------------------------

void expect_identical(const runner::ExperimentResult& a,
                      const runner::ExperimentResult& b) {
  EXPECT_EQ(a.final_thetas, b.final_thetas);
  EXPECT_EQ(a.final_convicted, b.final_convicted);
  EXPECT_EQ(a.observations, b.observations);
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.observed_e2e_rate, b.observed_e2e_rate);
  EXPECT_EQ(a.ground_truth_delivery, b.ground_truth_delivery);
  EXPECT_EQ(a.true_link_loss, b.true_link_loss);
  EXPECT_EQ(a.overhead_bytes_ratio, b.overhead_bytes_ratio);
  EXPECT_EQ(a.overhead_packets_ratio, b.overhead_packets_ratio);
  EXPECT_EQ(a.data_link_crossings, b.data_link_crossings);
  EXPECT_EQ(a.events_processed, b.events_processed);
  ASSERT_EQ(a.checkpoints.size(), b.checkpoints.size());
  for (std::size_t i = 0; i < a.checkpoints.size(); ++i) {
    EXPECT_EQ(a.checkpoints[i].packets, b.checkpoints[i].packets);
    EXPECT_EQ(a.checkpoints[i].convicted, b.checkpoints[i].convicted);
  }
}

constexpr protocols::ProtocolKind kAllProtocols[] = {
    protocols::ProtocolKind::kFullAck,
    protocols::ProtocolKind::kPaai1,
    protocols::ProtocolKind::kPaai2,
    protocols::ProtocolKind::kCombination1,
    protocols::ProtocolKind::kCombination2,
    protocols::ProtocolKind::kStatisticalFl,
    protocols::ProtocolKind::kSigAck,
};

TEST(Integration, ProfilerNeverAffectsResults) {
  for (const auto kind : kAllProtocols) {
    runner::ExperimentConfig cfg = runner::paper_config(kind, 1200, 42);
    cfg.checkpoints = {400, 1200};

    const runner::ExperimentResult off = runner::run_experiment(cfg);
    runner::ExperimentResult on;
    {
      ProfilerGuard prof;
      on = runner::run_experiment(cfg);
      // The profiler actually saw the run (the guarantee is about
      // results, not about the profiler being a no-op).
      EXPECT_GT(
          PhaseProfiler::global().totals(Phase::kSimLoop).calls, 0u)
          << protocols::protocol_name(kind);
    }
    SCOPED_TRACE(protocols::protocol_name(kind));
    expect_identical(off, on);
  }
}

TEST(Integration, TelemetryNeverAffectsResults) {
  RegistryGuard guard;
  for (const auto kind : kAllProtocols) {
    runner::ExperimentConfig cfg = runner::paper_config(kind, 1200, 7);
    cfg.checkpoints = {600};

    const runner::ExperimentResult without = runner::run_experiment(cfg);

    std::ostringstream os;
    TelemetrySink sink(os, 100);
    runner::ExperimentConfig with_sink = cfg;
    with_sink.telemetry = &sink;
    const runner::ExperimentResult with = runner::run_experiment(with_sink);
    EXPECT_GT(sink.samples(), 0u) << protocols::protocol_name(kind);

    SCOPED_TRACE(protocols::protocol_name(kind));
    // events_processed included: the sampler's own fires are subtracted.
    expect_identical(without, with);
  }
}

// W-OTS runs outside CryptoProvider, so its own kCrypto scopes are what
// book sig-ack's hashing to crypto rather than to the enclosing sim-loop
// handler. Phases nest: crypto ns is a share of sim-loop ns.
TEST(Integration, SigAckProfileAttributesCrypto) {
  runner::ExperimentConfig cfg =
      runner::paper_config(protocols::ProtocolKind::kSigAck, 300, 11);
  ProfilerGuard prof;
  runner::run_experiment(cfg);
  const PhaseTotals crypto = PhaseProfiler::global().totals(Phase::kCrypto);
  const PhaseTotals sim = PhaseProfiler::global().totals(Phase::kSimLoop);
  ASSERT_GT(sim.ns, 0u);
  EXPECT_GE(2 * crypto.ns, sim.ns)
      << "crypto " << crypto.ns << " ns vs sim-loop " << sim.ns << " ns";
}

// --- serve lag / back-pressure --------------------------------------

TEST(ServeLag, ThrottledConsumerShowsBacklogAndLag) {
  RegistryGuard guard;

  // Record a real event stream.
  runner::ExperimentConfig cfg =
      runner::paper_config(protocols::ProtocolKind::kPaai1, 2000, 3);
  EventLog log(1 << 18);
  cfg.path.events = &log;
  runner::run_experiment(cfg);
  std::stringstream wire;
  log.write_jsonl(wire);
  const std::int64_t total_bytes =
      static_cast<std::int64_t>(wire.str().size());
  ASSERT_GT(total_bytes, 0);

  std::ostringstream tele;
  TelemetrySink sink(tele, 200);

  stream::ScoreEngine engine;
  stream::ServeConfig serve_cfg;
  serve_cfg.announce = false;
  serve_cfg.telemetry = &sink;
  // Throttled-consumer probe: everything the producer wrote that the
  // loop has not consumed yet counts as backlog. Mid-stream this is
  // large; at EOF it is zero.
  serve_cfg.backlog_bytes = [&wire, total_bytes]() -> std::int64_t {
    const auto pos = wire.tellg();
    if (pos < 0) return 0;
    return total_bytes - static_cast<std::int64_t>(pos);
  };
  std::ostringstream sink_log;
  const stream::ServeReport report =
      stream::serve_stream(engine, wire, sink_log, serve_cfg, nullptr);

  ASSERT_FALSE(report.failed) << report.error;
  EXPECT_GT(report.applied, 0u);
  // Forensic logs carry many more wire events than score-relevant ones,
  // so the ingest/apply lag is structurally nonzero.
  EXPECT_GT(report.peak_lag_events, 0u);
  EXPECT_GT(report.peak_backlog_bytes, 0);
  EXPECT_EQ(report.final_backlog_bytes, 0);
  EXPECT_GT(report.parse_stall_ns, 0u);
  EXPECT_GT(report.apply_stall_ns, 0u);

  // The telemetry stream saw the lag gauges with nonzero values.
  const auto samples = parse_all(tele.str());
  ASSERT_GE(samples.size(), 2u);
  bool lag_seen = false;
  bool backlog_seen = false;
  for (const auto& s : samples) {
    for (const auto& g : s.gauges) {
      if (g.name == "stream.serve.lag_events" && g.high > 0) lag_seen = true;
      if (g.name == "stream.serve.backlog_bytes" && g.high > 0) {
        backlog_seen = true;
      }
    }
  }
  EXPECT_TRUE(lag_seen);
  EXPECT_TRUE(backlog_seen);
}

// --- concurrency (runs under TSan in tools/check.sh) -----------------

TEST(Concurrency, SamplerRacesProducers) {
  RegistryGuard guard;
  ProfilerGuard prof;
  std::ostringstream os;
  TelemetrySink sink(os, 1);

  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&stop, t] {
      auto counter = MetricsRegistry::global().counter("tele.race.counter");
      auto gauge = MetricsRegistry::global().gauge("tele.race.gauge");
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        counter.add();
        gauge.set(static_cast<std::int64_t>(i % 1000));
        PhaseProfiler::global().add(Phase::kExecTask, 5);
        PhaseProfiler::global().record_queue_depth(QueueId::kExecQueue,
                                                   (t + i) % 64);
        ++i;
      }
    });
  }
  for (std::uint64_t u = 1; u <= 200; ++u) sink.sample_now(u);
  stop.store(true);
  for (auto& w : workers) w.join();

  const auto samples = parse_all(os.str());
  ASSERT_EQ(samples.size(), 200u);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].sample, i);  // monotone under contention
  }
}

}  // namespace
}  // namespace paai::obs
