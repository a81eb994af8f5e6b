// Micro-benchmarks (google-benchmark): crypto primitive throughput, onion
// report build/verify, event-queue operations, and whole-simulation
// packet throughput. Not a paper figure — these bound how far the
// Monte-Carlo sweeps can be scaled on one core.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench_common.h"
#include "crypto/hmac.h"
#include "crypto/keystore.h"
#include "crypto/provider.h"
#include "crypto/sha256.h"
#include "crypto/sha256_kernels.h"
#include "crypto/siphash.h"
#include "crypto/wots.h"
#include "net/onion.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "runner/experiment.h"
#include "sim/simulator.h"

namespace {

using namespace paai;

void BM_Sha256_1KB(benchmark::State& state) {
  Bytes data(1024, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::Sha256::digest(ByteView(data.data(), data.size())));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256_1KB);

// The W-OTS chaining function: SHA-256 of one 32-byte value.
void BM_Sha256_32B(benchmark::State& state) {
  crypto::Digest32 value{};
  for (auto _ : state) {
    crypto::detail::hash32_iterate(value.data(), 1);
    benchmark::DoNotOptimize(value);
  }
}
BENCHMARK(BM_Sha256_32B);

void BM_HmacSha256_64B(benchmark::State& state) {
  Bytes key(32, 0x11), msg(64, 0x22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::hmac_sha256(ByteView(key.data(), key.size()),
                            ByteView(msg.data(), msg.size())));
  }
}
BENCHMARK(BM_HmacSha256_64B);

// One W-OTS operation per iteration, on a fresh key index each time as
// sig-ack uses them (index = packet sequence number).
void BM_WotsSign(benchmark::State& state) {
  const crypto::Key seed = crypto::test_master_key(3);
  const Bytes msg(33, 0x5a);
  std::uint64_t index = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::wots_sign(seed, index++, ByteView(msg.data(), msg.size())));
  }
}
BENCHMARK(BM_WotsSign);

void BM_WotsVerify(benchmark::State& state) {
  const crypto::Key seed = crypto::test_master_key(3);
  const Bytes msg(33, 0x5a);
  const crypto::WotsPublicKey pk = crypto::wots_public_key(seed, 0);
  const ByteView m(msg.data(), msg.size());
  const Bytes sig = crypto::wots_sign(seed, 0, m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::wots_verify(pk, m, ByteView(sig.data(), sig.size())));
  }
}
BENCHMARK(BM_WotsVerify);

void BM_WotsPublicKey(benchmark::State& state) {
  const crypto::Key seed = crypto::test_master_key(3);
  std::uint64_t index = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::wots_public_key(seed, index++));
  }
}
BENCHMARK(BM_WotsPublicKey);

void BM_SipHash_64B(benchmark::State& state) {
  crypto::Key128 key{};
  Bytes msg(64, 0x33);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::siphash24(key, ByteView(msg.data(), msg.size())));
  }
}
BENCHMARK(BM_SipHash_64B);

void BM_ProviderMac(benchmark::State& state) {
  const auto kind = state.range(0) == 0 ? crypto::CryptoKind::kReal
                                        : crypto::CryptoKind::kFast;
  const auto provider = crypto::make_crypto(kind);
  const crypto::Key key = crypto::test_master_key(1);
  Bytes msg(40, 0x44);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        provider->mac(key, ByteView(msg.data(), msg.size())));
  }
  state.SetLabel(kind == crypto::CryptoKind::kReal ? "real" : "fast");
}
BENCHMARK(BM_ProviderMac)->Arg(0)->Arg(1);

void BM_OnionBuildVerify(benchmark::State& state) {
  const std::size_t d = static_cast<std::size_t>(state.range(0));
  const auto provider = crypto::make_fast_crypto();
  const crypto::KeyStore ks(crypto::test_master_key(2), d);
  std::vector<crypto::Key> keys(d + 1);
  for (std::size_t i = 1; i <= d; ++i) keys[i] = ks.node_key(i);
  const Bytes report = {0x01, 0x02, 0x03, 0x04, 0x05};

  for (auto _ : state) {
    Bytes onion = net::onion_originate(*provider, keys[d],
                                       static_cast<std::uint8_t>(d),
                                       ByteView(report.data(), report.size()));
    for (std::size_t i = d; i-- > 1;) {
      onion = net::onion_wrap(*provider, keys[i],
                              static_cast<std::uint8_t>(i),
                              ByteView(report.data(), report.size()),
                              ByteView(onion.data(), onion.size()));
    }
    const auto result = net::onion_verify(
        *provider, keys, d, ByteView(onion.data(), onion.size()),
        [](std::uint8_t, ByteView) { return true; });
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_OnionBuildVerify)->Arg(6)->Arg(12);

void BM_EventQueue(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator s;
    for (int i = 0; i < 1000; ++i) {
      s.after((i * 7919) % 1000, [] {});
    }
    s.run();
    benchmark::DoNotOptimize(s.events_processed());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_EventQueue);

void BM_EndToEndSimulation(benchmark::State& state) {
  const auto kind = static_cast<protocols::ProtocolKind>(state.range(0));
  std::uint64_t packets_total = 0;
  for (auto _ : state) {
    runner::ExperimentConfig cfg = runner::paper_config(kind, 2000, 1);
    cfg.params.send_rate_pps = 1000.0;
    const auto result = runner::run_experiment(cfg);
    benchmark::DoNotOptimize(result.observations);
    packets_total += result.packets_sent;
  }
  state.SetItemsProcessed(static_cast<int64_t>(packets_total));
  state.SetLabel(protocols::protocol_name(kind));
}
BENCHMARK(BM_EndToEndSimulation)
    ->Arg(static_cast<int>(protocols::ProtocolKind::kFullAck))
    ->Arg(static_cast<int>(protocols::ProtocolKind::kPaai1))
    ->Arg(static_cast<int>(protocols::ProtocolKind::kPaai2))
    ->Unit(benchmark::kMillisecond);

// --- src/obs overhead: the disabled registry must cost ~one relaxed
// load + branch per call site (the <3% budget of the sim hot paths). ---

void BM_CounterAddDisabled(benchmark::State& state) {
  auto& reg = obs::MetricsRegistry::global();
  reg.reset();
  reg.set_enabled(false);
  const obs::Counter c = reg.counter("micro.counter");
  for (auto _ : state) c.add();
}
BENCHMARK(BM_CounterAddDisabled);

void BM_CounterAddEnabled(benchmark::State& state) {
  auto& reg = obs::MetricsRegistry::global();
  reg.reset();
  reg.set_enabled(true);
  const obs::Counter c = reg.counter("micro.counter");
  for (auto _ : state) c.add();
  reg.set_enabled(false);
}
BENCHMARK(BM_CounterAddEnabled);

// The forensic event log's disabled path is a null-pointer test at the
// ProtocolContext::log_event call site — model it exactly.
void BM_EventLogAppendDisabled(benchmark::State& state) {
  obs::EventLog* log = nullptr;
  benchmark::DoNotOptimize(log);
  std::uint64_t v = 1;
  for (auto _ : state) {
    if (log != nullptr) {
      log->append(0, obs::EventKind::kScoreClean,
                  static_cast<std::int64_t>(v), -1, v, v, 0.0);
    }
    v = v * 2862933555777941757ULL + 3037000493ULL;  // cheap lcg
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_EventLogAppendDisabled);

void BM_EventLogAppendEnabled(benchmark::State& state) {
  obs::EventLog log(/*per_node_capacity=*/1 << 12);
  std::uint64_t v = 1;
  for (auto _ : state) {
    log.append(static_cast<std::uint16_t>(v & 7), obs::EventKind::kScoreClean,
               static_cast<std::int64_t>(v), static_cast<std::int32_t>(v & 3),
               v, v, 0.5);
    v = v * 2862933555777941757ULL + 3037000493ULL;  // cheap lcg
  }
  benchmark::DoNotOptimize(log.recorded());
}
BENCHMARK(BM_EventLogAppendEnabled);

void BM_HistogramObserveEnabled(benchmark::State& state) {
  auto& reg = obs::MetricsRegistry::global();
  reg.reset();
  reg.set_enabled(true);
  const obs::Histogram h = reg.histogram("micro.histogram");
  std::uint64_t v = 1;
  for (auto _ : state) {
    h.observe(v);
    v = v * 2862933555777941757ULL + 3037000493ULL;  // cheap lcg
  }
  reg.set_enabled(false);
}
BENCHMARK(BM_HistogramObserveEnabled);

/// Console reporter that additionally records every benchmark's adjusted
/// real time into the --metrics-out document.
class RecordingReporter : public benchmark::ConsoleReporter {
 public:
  explicit RecordingReporter(paai::bench::BenchSession& session)
      : session_(session) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      session_.metric(run.benchmark_name() + ".real_ns",
                      run.GetAdjustedRealTime());
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  paai::bench::BenchSession& session_;
};

}  // namespace

int main(int argc, char** argv) {
  // The shared bench flags are ours, not google-benchmark's: consume them
  // before Initialize() sees (and rejects) them.
  paai::bench::BenchSession session("bench_micro", argc, argv);
  std::vector<char*> remaining;
  remaining.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--metrics-out", 0) == 0 ||
        arg.rfind("--trace-out", 0) == 0 || arg.rfind("--runs", 0) == 0 ||
        arg.rfind("--scale", 0) == 0 || arg.rfind("--jobs", 0) == 0 ||
        arg == "--csv") {
      // "--flag value" two-token form: swallow the value too.
      if ((arg == "--metrics-out" || arg == "--trace-out") && i + 1 < argc) {
        ++i;
      }
      continue;
    }
    remaining.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(remaining.size());
  benchmark::Initialize(&filtered_argc, remaining.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc,
                                             remaining.data())) {
    return 1;
  }
  RecordingReporter reporter(session);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
