#include "workloads.h"

#include <algorithm>
#include <malloc.h>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <istream>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <thread>

#include "alloc.h"
#include "crypto/keystore.h"
#include "crypto/provider.h"
#include "crypto/sha256.h"
#include "crypto/wots.h"
#include "mesh/runner.h"
#include "mesh/topology.h"
#include "net/onion.h"
#include "obs/events.h"
#include "runner/experiment.h"
#include "runner/montecarlo.h"
#include "runner/producer.h"
#include "sim/simulator.h"
#include "stream/engine.h"
#include "stream/service.h"
#include "stream/state.h"

namespace perfbench {

namespace {

using namespace paai;
using Clock = std::chrono::steady_clock;
using protocols::ProtocolKind;

// A run measures at least this many operations, so that the op-time tail
// (the highest percentile with ten samples beyond it) is at or above the
// median.
constexpr std::size_t kMinOps = 2 * kTailBeyond;
constexpr int kSetupRepeats = 3;

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

const char* short_name(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kFullAck: return "full-ack";
    case ProtocolKind::kPaai1: return "paai1";
    case ProtocolKind::kPaai2: return "paai2";
    case ProtocolKind::kCombination1: return "comb1";
    case ProtocolKind::kCombination2: return "comb2";
    case ProtocolKind::kStatisticalFl: return "statfl";
    case ProtocolKind::kSigAck: return "sigack";
  }
  return "unknown";
}

std::string hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Exact digest of everything a Monte-Carlo result derives from its runs.
std::string digest(const runner::MonteCarloResult& r) {
  std::string d = std::to_string(r.runs) + ";" + std::to_string(r.total_events);
  for (const auto& p : r.curve) {
    d += ";" + std::to_string(p.packets) + "," + hex(p.fp) + "," + hex(p.fn);
  }
  for (const double s : r.detection_samples) d += ";" + hex(s);
  d += ";" + hex(r.final_e2e_rate.mean()) + ";" +
       hex(r.overhead_bytes_ratio.mean()) + ";" +
       hex(r.overhead_packets_ratio.mean());
  for (const auto& t : r.final_thetas) d += ";" + hex(t.mean());
  for (const auto& t : r.true_link_loss) d += ";" + hex(t.mean());
  return d;
}

/// Exact digest of a mesh verdict (the bench_mesh prologue's contract).
std::string digest(const mesh::MeshResult& r) {
  std::string d;
  for (const auto& row : r.links) {
    d += std::to_string(row.units) + "," + std::to_string(row.blames) + "," +
         std::to_string(row.solo_convictions) + "," +
         std::to_string(row.first_convicted_units) + "," +
         (row.convicted ? "C" : ".") + ";";
  }
  return d + hex(r.total_damage);
}

/// Sums ExecTelemetry over the parallel sections of one pass.
struct ExecTotals {
  double busy_s = 0.0;
  double capacity_s = 0.0;
  double wait_s = 0.0;
  std::uint64_t tasks = 0;

  void add(const exec::ExecTelemetry& e) {
    const auto n = static_cast<double>(e.task_seconds.count());
    busy_s += e.task_seconds.mean() * n;
    wait_s += e.queue_wait_seconds.mean() *
              static_cast<double>(e.queue_wait_seconds.count());
    capacity_s += static_cast<double>(e.jobs) * e.wall_seconds;
    tasks += e.task_seconds.count();
  }
  double utilization() const {
    return capacity_s > 0.0 ? busy_s / capacity_s : 0.0;
  }
  double task_s_mean() const {
    return tasks ? busy_s / static_cast<double>(tasks) : 0.0;
  }
  double queue_wait_ms_mean() const {
    return tasks ? 1e3 * wait_s / static_cast<double>(tasks) : 0.0;
  }
};

void add_exec_metrics(MetricSet& m, const std::string& pass,
                      const ExecTotals& e) {
  m.add("exec.utilization." + pass, e.utilization(), "ratio");
  m.add("exec.queue_wait_ms_mean." + pass, e.queue_wait_ms_mean(), "ms");
  m.add("exec.task_s_mean." + pass, e.task_s_mean(), "s");
}

struct OpResult {
  double work = 0.0;
  bool ok = true;
  std::string error;
  /// Durations of the op's layer calls when it makes several at once;
  /// empty means one call, timed by the op itself.
  std::vector<double> call_s;
};

/// Timings of one closed loop.
struct Loop {
  std::vector<double> op_s;
  std::vector<std::vector<double>> call_s;  // per op, as in OpResult
  std::size_t cycle_ops = 1;  // op i sits at cycle position i % cycle_ops
  double work = 0.0;
  double wall_s = 0.0;
  std::size_t cycles = 0;

  /// Median op time at one cycle position.
  double median_at(std::size_t k) const {
    std::vector<double> at_k;
    for (std::size_t i = k; i < op_s.size(); i += cycle_ops) {
      at_k.push_back(op_s[i]);
    }
    return median(at_k);
  }
  /// The median cycle: each cycle position's median op time, summed. It
  /// is what a cycle costs with bursts of host noise voted out.
  double median_cycle_s() const {
    double sum = 0.0;
    for (std::size_t k = 0; k < cycle_ops; ++k) sum += median_at(k);
    return sum;
  }
  /// The typical layer-call time: each cycle position's median call
  /// time, then the median across positions (calls of different kinds
  /// form separate modes, and a plain median would sit on the boundary
  /// between two of them).
  double call_s_p50() const {
    std::vector<double> medians;
    for (std::size_t k = 0; k < cycle_ops; ++k) {
      std::vector<double> at_k;
      for (std::size_t i = k; i < call_s.size(); i += cycle_ops) {
        at_k.insert(at_k.end(), call_s[i].begin(), call_s[i].end());
      }
      medians.push_back(median(at_k));
    }
    return median(medians);
  }
  /// Work per second at the median cycle.
  double work_per_s() const {
    return work / static_cast<double>(cycles) / median_cycle_s();
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  /// What work_per_s counts.
  virtual const char* work_unit() const = 0;
  /// Builds every input the timed loop needs; repeatable.
  virtual void setup(Tracer* tracer) = 0;
  virtual std::size_t cycle_ops() const = 0;
  virtual OpResult run_op(std::size_t cycle, std::size_t k,
                          Tracer* tracer) = 0;
  /// Oracles beyond the per-op checks; each is one attempted operation.
  virtual void check(Outcome& out) { (void)out; }
  /// The workload's own figures, under the names the README gives them.
  virtual void details(MetricSet& d, const Loop& loop) const = 0;

 protected:
  explicit Workload(const Options& o) : opt_(o) {}
  const Options opt_;
};

void record_failure(Outcome& out, const std::string& what) {
  ++out.failed;
  if (out.failed <= 5) {
    out.notes.push_back("{\"failure\": " + json_escape(what) + "}");
  }
}

Loop timed_loop(Workload& w, double seconds, std::size_t min_ops,
                std::size_t max_cycles, Tracer* tracer, Outcome& out) {
  Loop loop;
  loop.cycle_ops = w.cycle_ops();
  const auto t0 = Clock::now();
  for (std::size_t c = 0;; ++c) {
    for (std::size_t k = 0; k < w.cycle_ops(); ++k) {
      if (tracer) tracer->new_op();
      const auto t = Clock::now();
      OpResult r;
      try {
        Scoped span(tracer, "op");
        r = w.run_op(c, k, tracer);
      } catch (const std::exception& e) {
        r.ok = false;
        r.error = e.what();
      }
      loop.op_s.push_back(seconds_since(t));
      loop.call_s.push_back(r.call_s.empty() ? std::vector<double>{loop.op_s.back()}
                                             : r.call_s);
      // Untimed: every op starts from a trimmed heap, as a fresh process
      // would. Otherwise the memory peak depends on which worker arenas
      // happened to retain what from earlier ops.
      malloc_trim(0);
      loop.work += r.work;
      ++out.attempted;
      if (!r.ok) {
        record_failure(out, std::string(w.name()) + " op " +
                                std::to_string(c) + "." + std::to_string(k) +
                                ": " + r.error);
      }
    }
    ++loop.cycles;
    loop.wall_s = seconds_since(t0);
    if (loop.cycles >= max_cycles) break;
    if (loop.wall_s >= seconds && loop.op_s.size() >= min_ops) break;
  }
  return loop;
}

// ---------------------------------------------------------------------------
// Monte-Carlo passes (paper-mc and real-crypto): each op is one
// run_monte_carlo call of `jobs` seeded runs of one protocol.

struct McSlot {
  ProtocolKind kind;
  std::uint64_t packets;
};

class MonteCarloPass : public Workload {
 public:
  /// `oracle_k`: the cycle position whose first op the serial recompute
  /// checks (a cheap one; the check runs outside the timed loop).
  MonteCarloPass(const Options& o, std::vector<McSlot> slots,
                 crypto::CryptoKind crypto, std::size_t oracle_k)
      : Workload(o),
        slots_(std::move(slots)),
        crypto_(crypto),
        oracle_k_(oracle_k) {}

  void setup(Tracer*) override {
    bases_.clear();
    for (const McSlot& s : slots_) {
      runner::ExperimentConfig base =
          runner::paper_config(s.kind, s.packets, 0);
      base.crypto = crypto_;
      base.checkpoints =
          runner::log_checkpoints(std::min<std::uint64_t>(1000, s.packets),
                                  s.packets, 24);
      bases_.push_back(base);
    }
    // Warm-up: one short fan-out per protocol (thread start-up, first-touch
    // of the allocator arenas, code paths).
    for (const runner::ExperimentConfig& base : bases_) {
      runner::MonteCarloConfig mc = config(base, mix(opt_.seed, 999));
      mc.base.params.total_packets =
          std::max<std::uint64_t>(1, base.params.total_packets / 10);
      mc.base.checkpoints.clear();
      runner::run_monte_carlo(mc);
    }
  }

  std::size_t cycle_ops() const override { return slots_.size(); }

  OpResult run_op(std::size_t cycle, std::size_t k, Tracer* tracer) override {
    const runner::MonteCarloConfig mc =
        config(bases_[k], mix(opt_.seed, cycle * 64 + k));
    runner::MonteCarloResult r;
    {
      Scoped span(tracer, "runner.run_monte_carlo");
      r = runner::run_monte_carlo(mc);
    }
    exec_.add(r.exec);
    observe(cycle, k, r);
    if (cycle == 0 && k == oracle_k_) {
      oracle_config_ = mc;
      oracle_digest_ = digest(r);
    }
    OpResult out;
    out.work = work(k, r);
    out.ok = r.runs == opt_.jobs;
    if (!out.ok) out.error = "run count mismatch";
    return out;
  }

  /// An op recomputed serially must equal the fan-out bit for bit.
  void check(Outcome& out) override {
    ++out.attempted;
    runner::MonteCarloConfig serial = oracle_config_;
    serial.jobs = 1;
    if (digest(runner::run_monte_carlo(serial)) != oracle_digest_) {
      record_failure(out, std::string(name()) +
                              ": jobs=1 recompute differs from the fan-out");
    }
  }

  const ExecTotals& exec_totals() const { return exec_; }

 protected:
  runner::MonteCarloConfig config(const runner::ExperimentConfig& base,
                                  std::uint64_t seed0) const {
    runner::MonteCarloConfig mc;
    mc.base = base;
    mc.runs = opt_.jobs;
    mc.jobs = opt_.jobs;
    mc.seed0 = seed0;
    mc.malicious_links = {4};
    return mc;
  }
  virtual double work(std::size_t k, const runner::MonteCarloResult& r) const = 0;
  virtual void observe(std::size_t, std::size_t,
                       const runner::MonteCarloResult&) {}

  std::vector<McSlot> slots_;
  crypto::CryptoKind crypto_;
  std::size_t oracle_k_;
  std::vector<runner::ExperimentConfig> bases_;
  ExecTotals exec_;
  runner::MonteCarloConfig oracle_config_;
  std::string oracle_digest_;
};

// paper-mc: the simulator and protocol handlers do nearly all the work.
class PaperMc final : public MonteCarloPass {
 public:
  static constexpr std::uint64_t kPackets = 60000;
  // Behaviour figures come from the first cycles only, which every run
  // completes (kMinOps ops are at least this many cycles), so they are a
  // function of the seed alone.
  static constexpr std::size_t kBehaviourCycles = 3;

  explicit PaperMc(const Options& o)
      : MonteCarloPass(o,
                       {{ProtocolKind::kPaai1, kPackets},
                        {ProtocolKind::kFullAck, kPackets},
                        {ProtocolKind::kPaai2, kPackets},
                        {ProtocolKind::kCombination1, kPackets},
                        {ProtocolKind::kCombination2, kPackets},
                        {ProtocolKind::kStatisticalFl, kPackets}},
                       crypto::CryptoKind::kFast, 0) {}

  const char* name() const override { return "paper-mc"; }
  const char* work_unit() const override { return "60k-packet runs"; }

  void details(MetricSet& d, const Loop& loop) const override {
    d.add("mc.runs_per_s", loop.work_per_s(), "runs/s");
    d.add("mc.run_s_p50", median(loop.op_s), "s");
    if (const auto tail = tail_percentile(loop.op_s)) {
      d.add("mc.run_s_tail", tail->value, "s");
    }
    d.add("mc.detect_pkts_p50", median(detection_), "packets");
    d.add("mc.overhead_bytes_ratio",
          overhead_n_ ? overhead_sum_ / static_cast<double>(overhead_n_) : 0.0,
          "ctrl_B/data_B");
  }

 private:
  double work(std::size_t, const runner::MonteCarloResult& r) const override {
    return static_cast<double>(r.runs);
  }
  void observe(std::size_t cycle, std::size_t k,
               const runner::MonteCarloResult& r) override {
    if (cycle >= kBehaviourCycles || k != 0) return;  // PAAI-1 only
    detection_.insert(detection_.end(), r.detection_samples.begin(),
                      r.detection_samples.end());
    overhead_sum_ += r.overhead_bytes_ratio.mean();
    ++overhead_n_;
  }

  std::vector<double> detection_;
  double overhead_sum_ = 0.0;
  std::size_t overhead_n_ = 0;
};

// real-crypto: SHA-256 compressions and W-OTS chains dominate sig-ack;
// HMAC/ChaCha20 dominate the MAC protocols.
class RealCrypto final : public MonteCarloPass {
 public:
  static constexpr std::uint64_t kSigAckPackets = 300;
  static constexpr std::uint64_t kMacPackets = 20000;
  static constexpr std::size_t kWotsProbes = 8;

  explicit RealCrypto(const Options& o)
      : MonteCarloPass(o,
                       {{ProtocolKind::kSigAck, kSigAckPackets},
                        {ProtocolKind::kPaai1, kMacPackets},
                        {ProtocolKind::kFullAck, kMacPackets},
                        {ProtocolKind::kPaai2, kMacPackets}},
                       crypto::CryptoKind::kReal, 1) {}

  const char* name() const override { return "real-crypto"; }
  const char* work_unit() const override { return "data packets"; }

  /// Every W-OTS signature in the probe verifies, and a tampered message
  /// does not; then the serial recompute of the first PAAI-1 op.
  void check(Outcome& out) override {
    for (std::size_t i = 0; i < kWotsProbes; ++i) {
      ++out.attempted;
      const crypto::Key seed = crypto::test_master_key(mix(opt_.seed, i));
      Bytes msg(32);
      for (std::size_t j = 0; j < msg.size(); ++j) {
        msg[j] = static_cast<std::uint8_t>(mix(opt_.seed + i, j));
      }
      const crypto::WotsPublicKey pk = crypto::wots_public_key(seed, i);
      const Bytes sig = crypto::wots_sign(seed, i, msg);
      Bytes tampered = msg;
      tampered[0] ^= 1;
      if (!crypto::wots_verify(pk, msg, sig) ||
          crypto::wots_verify(pk, tampered, sig)) {
        record_failure(out, "real-crypto: W-OTS probe " + std::to_string(i) +
                                " failed sign/verify");
      }
    }
    MonteCarloPass::check(out);
  }

  void details(MetricSet& d, const Loop& loop) const override {
    const double runs = static_cast<double>(opt_.jobs);
    const double mac_s =
        loop.median_at(1) + loop.median_at(2) + loop.median_at(3);
    d.add("sigack.pkts_per_s", runs * kSigAckPackets / loop.median_at(0),
          "packets/s");
    d.add("realmac.pkts_per_s", runs * 3 * kMacPackets / mac_s, "packets/s");
  }

 private:
  double work(std::size_t k, const runner::MonteCarloResult& r) const override {
    return static_cast<double>(r.runs * slots_[k].packets);
  }
};

// ---------------------------------------------------------------------------
// stream-replay

/// Read-only streambuf over a string the caller keeps alive.
class ViewBuf : public std::streambuf {
 public:
  explicit ViewBuf(const std::string& s) {
    char* p = const_cast<char*>(s.data());
    setg(p, p, p + s.size());
  }
};

struct ProducedLog {
  std::string jsonl;
  runner::StreamProduceResult produced;
};

/// What the explicit (traced) replay loop saw.
struct ReplayCounts {
  std::uint64_t events = 0;
  std::uint64_t bytes = 0;
  std::uint64_t parse_allocs = 0;
  std::string last_state;
  std::string error;
};

/// serve_stream's loop spelled out — EventReader::next, ScoreEngine::apply,
/// and a periodic state_to_string — so each gets its own span.
ReplayCounts replay_explicit(const std::string& jsonl,
                             std::uint64_t snapshot_every,
                             stream::ScoreEngine& engine, Tracer* tracer) {
  ReplayCounts c;
  ViewBuf buf(jsonl);
  std::istream in(&buf);
  obs::EventReader reader(in);
  obs::Event event;
  std::uint64_t applied = 0;
  std::uint64_t next_snapshot = snapshot_every;
  for (;;) {
    obs::EventReader::Status status;
    {
      Scoped span(tracer, "stream.parse");
      const std::uint64_t before = thread_alloc_count().calls;
      status = reader.next(&event, &c.error);
      c.parse_allocs += thread_alloc_count().calls - before;
    }
    if (status != obs::EventReader::Status::kEvent) break;
    ++c.events;
    const std::uint64_t applied_before = engine.events_applied();
    engine.set_stream_line(reader.line());
    {
      Scoped span(tracer, "stream.apply");
      engine.apply(event);
    }
    if (engine.events_applied() == applied_before) continue;
    ++applied;
    engine.take_new_convictions();
    if (applied >= next_snapshot) {
      next_snapshot += snapshot_every;
      Scoped span(tracer, "stream.snapshot_write");
      c.last_state = stream::state_to_string(engine);
    }
  }
  c.bytes = reader.bytes();
  return c;
}

class StreamReplay final : public Workload {
 public:
  // ~1M events over the three logs (PAAI-1 ~13, PAAI-2 ~28, stat-FL ~13
  // events per packet).
  static constexpr std::uint64_t kPackets = 18000;
  // ~20k of each log's events are score-relevant (applied): about ten
  // snapshots per log.
  static constexpr std::uint64_t kSnapshotEvery = 2000;

  explicit StreamReplay(const Options& o)
      : Workload(o),
        state_path_(o.scratch_dir + "/perfbench-replay-state.json") {}

  const char* name() const override { return "stream-replay"; }
  const char* work_unit() const override { return "events"; }

  void setup(Tracer*) override {
    const ProtocolKind kinds[] = {ProtocolKind::kPaai1, ProtocolKind::kPaai2,
                                  ProtocolKind::kStatisticalFl};
    // One producer at a time, so the set-up's memory peak is a function of
    // the seed and not of how concurrent producers happen to overlap.
    logs_.clear();
    logs_.resize(3);
    for (std::size_t i = 0; i < 3; ++i) {
      std::ostringstream os;
      logs_[i].produced = runner::run_experiment_to_stream(
          runner::paper_config(kinds[i], kPackets, mix(opt_.seed, i)), os);
      logs_[i].jsonl = std::move(os).str();
      if (logs_[i].produced.events_dropped != 0) {
        throw std::runtime_error("stream-replay: producer dropped events");
      }
    }
  }

  std::size_t cycle_ops() const override { return logs_.size(); }

  OpResult run_op(std::size_t, std::size_t k, Tracer*) override {
    const ProducedLog& log = logs_[k];
    // `jobs` independent serves of the same log at once (closed loop,
    // `jobs` clients), each with one reader, its own engine and its own
    // snapshot file. One serve alone swings by a quarter with host noise.
    std::vector<OpResult> results(opt_.jobs);
    std::vector<std::thread> clients;
    for (std::size_t t = 0; t < opt_.jobs; ++t) {
      clients.emplace_back([&, t] {
        OpResult& out = results[t];
        try {
          stream::ScoreEngine engine;
          ViewBuf buf(log.jsonl);
          std::istream in(&buf);
          std::ostream sink(nullptr);
          stream::ServeConfig cfg;
          cfg.snapshot_every = kSnapshotEvery;
          cfg.state_out = state_path_ + "." + std::to_string(t);
          cfg.announce = false;
          const auto start = Clock::now();
          const stream::ServeReport report =
              stream::serve_stream(engine, in, sink, cfg);
          out.call_s.push_back(seconds_since(start));
          if (report.failed) {
            out.ok = false;
            out.error = report.error;
          }
          out.work = static_cast<double>(report.events);
          verify(engine, log, report.events, out);
        } catch (const std::exception& e) {
          out.ok = false;
          out.error = e.what();
        }
      });
    }
    for (std::thread& t : clients) t.join();
    OpResult out;
    for (const OpResult& r : results) {
      out.work += r.work;
      out.call_s.insert(out.call_s.end(), r.call_s.begin(), r.call_s.end());
      if (!r.ok && out.ok) {
        out.ok = false;
        out.error = r.error;
      }
    }
    return out;
  }

  void details(MetricSet& d, const Loop& loop) const override {
    d.add("replay.events_per_s", loop.work_per_s(), "events/s");
  }

  const ProducedLog& log(std::size_t i) const { return logs_[i]; }

  /// The replay --verify contract: final thetas and conviction set equal
  /// the producing batch run's, and every recorded event was read.
  static void verify(const stream::ScoreEngine& engine, const ProducedLog& log,
                     std::uint64_t events, OpResult& out) {
    if (!out.ok) return;
    const runner::ExperimentResult& batch = log.produced.result;
    if (events != log.produced.events_recorded) {
      out.ok = false;
      out.error = "event count differs from the producer's";
    } else if (!same_bits(engine.thetas(), batch.final_thetas)) {
      out.ok = false;
      out.error = "final thetas differ from the batch run";
    } else if (engine.convicted() != batch.final_convicted) {
      out.ok = false;
      out.error = "conviction set differs from the batch run";
    }
  }

 private:
  std::string state_path_;
  std::vector<ProducedLog> logs_;
};

// ---------------------------------------------------------------------------
// mesh

class Mesh final : public Workload {
 public:
  static constexpr std::size_t kStatPaths = 1000000;
  static constexpr std::size_t kPacketPaths = 150;
  static constexpr std::uint64_t kPacketUnits = 3000;
  static constexpr std::size_t kProloguePaths = 20000;

  explicit Mesh(const Options& o) : Workload(o) {}

  const char* name() const override { return "mesh"; }
  const char* work_unit() const override { return "paths"; }

  void setup(Tracer* tracer) override {
    Scoped span(tracer, "mesh.path_set");
    stat_ = mesh::MeshConfig{};
    stat_.topo = mesh::Topology::parse("fattree@8");
    stat_.engine = mesh::MeshEngine::kStat;
    stat_.units_per_path = 2000;
    stat_.rounds = 8;
    stat_.natural_loss = 0.01;
    stat_.decision_threshold = 0.02;
    // One compromised core straddling many inter-pod paths.
    stat_.adversaries = adversary::AdversaryPlan::parse("uniform@0:rate=0.03");
    stat_.jobs = opt_.jobs;
    stat_.paths = stat_.topo.enumerate_paths(kStatPaths, mix(opt_.seed, 1));

    packet_ = stat_;
    packet_.engine = mesh::MeshEngine::kPacket;
    packet_.units_per_path = kPacketUnits;
    packet_.paths = stat_.topo.enumerate_paths(kPacketPaths, mix(opt_.seed, 2));
    // Full-ack observes every packet, so 3000 units per path separate an
    // honest link (~rho) from a malicious one (~rho + 0.03) on every seed.
    packet_.packet_base =
        runner::paper_config(ProtocolKind::kFullAck, kPacketUnits, 0);
    packet_.packet_base.link_faults.clear();
    packet_.packet_base.path.natural_loss = packet_.natural_loss;
    packet_.packet_base.decision_threshold = packet_.decision_threshold;
  }

  std::size_t cycle_ops() const override { return 2; }

  OpResult run_op(std::size_t cycle, std::size_t k, Tracer* tracer) override {
    mesh::MeshConfig& cfg = k == 0 ? stat_ : packet_;
    cfg.seed0 = mix(opt_.seed, 100 + cycle * 2 + k);
    mesh::MeshResult r;
    {
      Scoped span(tracer, k == 0 ? "mesh.run_mesh.stat" : "mesh.run_mesh.packet");
      r = mesh::run_mesh(cfg);
    }
    (k == 0 ? stat_exec_ : packet_exec_).add(r.exec);
    if (k == 0) last_stat_ = r;
    OpResult out;
    out.work = static_cast<double>(r.paths);
    // Zero false accusations, and no malicious link that carried traffic
    // left unconvicted.
    std::size_t missed = 0;
    for (const auto& row : r.links) {
      if (row.malicious && row.paths > 0 && !row.convicted) ++missed;
    }
    if (r.false_accusations != 0 || missed != 0) {
      out.ok = false;
      out.error = std::to_string(r.false_accusations) +
                  " false accusations, " + std::to_string(missed) +
                  " missed malicious links";
    }
    return out;
  }

  /// jobs=1 vs jobs=N digests of a trimmed copy of the stat scenario.
  void check(Outcome& out) override {
    ++out.attempted;
    mesh::MeshConfig probe = stat_;
    probe.paths = probe.topo.enumerate_paths(kProloguePaths, mix(opt_.seed, 1));
    probe.seed0 = mix(opt_.seed, 3);
    probe.jobs = 1;
    const mesh::MeshResult serial = mesh::run_mesh(probe);
    probe.jobs = opt_.jobs;
    const mesh::MeshResult pooled = mesh::run_mesh(probe);
    if (digest(serial) != digest(pooled) || serial.false_accusations != 0 ||
        serial.missed_malicious != 0) {
      record_failure(out, "mesh: jobs=1 vs jobs=N digest check failed");
    }
  }

  void details(MetricSet& d, const Loop& loop) const override {
    d.add("mesh.stat_paths_per_s", kStatPaths / loop.median_at(0), "paths/s");
    d.add("mesh.packet_paths_per_s", kPacketPaths / loop.median_at(1),
          "paths/s");
  }

  const ExecTotals& stat_exec() const { return stat_exec_; }
  const ExecTotals& packet_exec() const { return packet_exec_; }
  const mesh::MeshResult& last_stat() const { return last_stat_; }

 private:
  mesh::MeshConfig stat_;
  mesh::MeshConfig packet_;
  ExecTotals stat_exec_;
  ExecTotals packet_exec_;
  mesh::MeshResult last_stat_;
};

std::unique_ptr<Workload> make_workload(const Options& o) {
  if (o.workload == "paper-mc") return std::make_unique<PaperMc>(o);
  if (o.workload == "real-crypto") return std::make_unique<RealCrypto>(o);
  if (o.workload == "stream-replay") return std::make_unique<StreamReplay>(o);
  if (o.workload == "mesh") return std::make_unique<Mesh>(o);
  throw std::invalid_argument("unknown workload '" + o.workload + "'");
}

std::string loop_note(const Workload& w, const Loop& loop, bool traced) {
  std::string s = "{\"note\": {\"pass\": ";
  s += traced ? "\"traced\"" : "\"untraced\"";
  s += ", \"work_unit\": " + json_escape(w.work_unit());
  s += ", \"work_per_s\": " + json_number(loop.work_per_s());
  s += ", \"wall_s\": " + json_number(loop.wall_s);
  s += ", \"cycles\": " + std::to_string(loop.cycles);
  s += ", \"ops\": " + std::to_string(loop.op_s.size());
  if (const auto tail = tail_percentile(loop.op_s)) {
    s += ", \"tail_s\": " + json_number(tail->value);
    s += ", \"tail_percentile\": " + json_number(tail->percentile);
    s += ", \"tail_beyond\": " + std::to_string(tail->beyond);
  }
  s += ", \"op_s\": [";
  for (std::size_t i = 0; i < loop.op_s.size(); ++i) {
    s += (i ? ", " : "") + json_number(loop.op_s[i]);
  }
  return s + "]}}";
}

// ---------------------------------------------------------------------------
// Per-layer probes (traced run only).

/// Runs `f` under a span and returns the span's self time in ns.
template <class F>
double span_ns(Tracer& tracer, const char* name, F&& f) {
  const std::size_t first = tracer.spans().size();
  {
    Scoped span(&tracer, name);
    f();
  }
  const std::vector<Span> slice(tracer.spans().begin() + first,
                                tracer.spans().end());
  return static_cast<double>(self_times(slice).front());
}

Bytes pattern(std::size_t n, std::uint64_t seed) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>(mix(seed, i));
  }
  return b;
}

volatile std::uint64_t g_sink = 0;

void probe_crypto(const Options& o, Tracer& tr, MetricSet& m, Outcome& out) {
  {
    const Bytes buf = pattern(64 * 1024, o.seed);
    constexpr int kDigests = 200;
    const double ns = span_ns(tr, "crypto.sha256", [&] {
      for (int i = 0; i < kDigests; ++i) {
        crypto::Sha256 h;
        h.update(buf);
        g_sink = g_sink + h.finish()[0];
      }
    });
    // 1024 message blocks plus one padding block per digest.
    m.add("crypto.sha256_ns_per_block", ns / (kDigests * 1025.0), "ns");
  }
  const Bytes msg64 = pattern(64, o.seed + 1);
  {
    constexpr int kN = 100000;
    const double ns = span_ns(tr, "crypto.sha256_64B", [&] {
      for (int i = 0; i < kN; ++i) {
        g_sink = g_sink + crypto::Sha256::digest(msg64)[0];
      }
    });
    m.add("crypto.sha256_64B_ns", ns / kN, "ns");
  }
  {
    constexpr std::size_t kN = 24;
    const crypto::Key seed = crypto::test_master_key(o.seed);
    std::vector<crypto::WotsPublicKey> pks(kN);
    std::vector<Bytes> sigs(kN);
    const Bytes msg = pattern(32, o.seed + 2);
    const double pk_ns = span_ns(tr, "crypto.wots_pk", [&] {
      for (std::size_t i = 0; i < kN; ++i) pks[i] = crypto::wots_public_key(seed, i);
    });
    const double sign_ns = span_ns(tr, "crypto.wots_sign", [&] {
      for (std::size_t i = 0; i < kN; ++i) sigs[i] = crypto::wots_sign(seed, i, msg);
    });
    std::size_t verified = 0;
    const double verify_ns = span_ns(tr, "crypto.wots_verify", [&] {
      for (std::size_t i = 0; i < kN; ++i) {
        verified += crypto::wots_verify(pks[i], msg, sigs[i]) ? 1 : 0;
      }
    });
    out.attempted += kN;
    if (verified != kN) {
      record_failure(out, "probe: " + std::to_string(kN - verified) +
                              " W-OTS signatures failed to verify");
    }
    m.add("crypto.wots_sign_us", sign_ns / kN / 1e3, "us");
    m.add("crypto.wots_verify_us", verify_ns / kN / 1e3, "us");
    m.add("crypto.wots_pk_us", pk_ns / kN / 1e3, "us");
  }
  const crypto::Key key = crypto::test_master_key(o.seed + 3);
  const auto provider_probe = [&](crypto::CryptoKind kind, const char* prefix,
                                  int n, bool encrypt) {
    const auto c = crypto::make_crypto(kind);
    const std::string p = prefix;
    m.add(p + "_mac_ns", span_ns(tr, "crypto.mac", [&] {
            for (int i = 0; i < n; ++i) g_sink = g_sink + c->mac(key, msg64)[0];
          }) / n,
          "ns");
    m.add(p + "_prf_ns", span_ns(tr, "crypto.prf", [&] {
            for (int i = 0; i < n; ++i) g_sink = g_sink + c->prf(key, msg64);
          }) / n,
          "ns");
    if (encrypt) {
      m.add(p + "_encrypt_64B_ns", span_ns(tr, "crypto.encrypt", [&] {
              for (int i = 0; i < n; ++i) {
                g_sink = g_sink + c->encrypt(key, i, msg64)[0];
              }
            }) / n,
            "ns");
    }
  };
  provider_probe(crypto::CryptoKind::kReal, "crypto.real", 50000, true);
  provider_probe(crypto::CryptoKind::kFast, "crypto.fast", 1000000, false);
}

void probe_net(const Options& o, Tracer& tr, MetricSet& m, Outcome& out) {
  constexpr std::size_t kDepth = 6;
  constexpr int kN = 5000;
  const auto c = crypto::make_crypto(crypto::CryptoKind::kReal);
  const crypto::KeyStore keys(crypto::test_master_key(o.seed + 4), kDepth);
  std::vector<crypto::Key> key_vec(kDepth + 1);
  for (std::size_t i = 1; i <= kDepth; ++i) key_vec[i] = keys.node_key(i);
  std::vector<Bytes> reports(kDepth + 1);
  for (std::size_t i = 1; i <= kDepth; ++i) {
    reports[i] = pattern(5, o.seed + i);
    reports[i][0] = static_cast<std::uint8_t>(i);
  }
  Bytes onion;
  const double wrap_ns = span_ns(tr, "net.onion_wrap", [&] {
    for (int n = 0; n < kN; ++n) {
      onion = net::onion_originate(*c, key_vec[kDepth], kDepth,
                                   reports[kDepth]);
      for (std::size_t i = kDepth; i-- > 1;) {
        onion = net::onion_wrap(*c, key_vec[i], static_cast<std::uint8_t>(i),
                                reports[i], onion);
      }
    }
  });
  std::size_t complete = 0;
  const double verify_ns = span_ns(tr, "net.onion_verify", [&] {
    for (int n = 0; n < kN; ++n) {
      const net::OnionVerifyResult r = net::onion_verify(
          *c, key_vec, kDepth, onion, [](std::uint8_t i, ByteView rep) {
            return rep.size() == 5 && rep[0] == i;
          });
      complete += (r.complete && r.valid_layers == kDepth) ? 1 : 0;
    }
  });
  ++out.attempted;
  if (complete != static_cast<std::size_t>(kN)) {
    record_failure(out, "probe: 6-layer onion failed to verify");
  }
  m.add("net.onion_wrap_ns", wrap_ns / kN, "ns");
  m.add("net.onion_verify_ns", verify_ns / kN, "ns");
}

void probe_sim_and_runner(const Options& o, Tracer& tr, MetricSet& m,
                          Outcome& out) {
  {
    // Empty handlers at a fixed queue depth: one at() plus one step() per
    // event, so the queue's own cost is all that is timed.
    constexpr std::size_t kDepth = 1024;
    constexpr std::size_t kEvents = 2000000;
    std::vector<sim::SimDuration> delays(1 << 16);
    for (std::size_t i = 0; i < delays.size(); ++i) {
      delays[i] = 1 + static_cast<sim::SimDuration>(mix(o.seed, i) % 1000000);
    }
    sim::Simulator s;
    for (std::size_t i = 0; i < kDepth; ++i) s.at(delays[i], [] {});
    const double ns = span_ns(tr, "sim.queue", [&] {
      for (std::size_t i = 0; i < kEvents; ++i) {
        s.after(delays[i & (delays.size() - 1)], [] {});
        s.step();
      }
    });
    m.add("sim.queue_ns_per_event", ns / kEvents, "ns");
    out.notes.push_back("{\"note\": {\"sim_queue_depth\": " +
                        std::to_string(kDepth) + "}}");
  }

  const ProtocolKind kinds[] = {
      ProtocolKind::kFullAck,      ProtocolKind::kPaai1,
      ProtocolKind::kPaai2,        ProtocolKind::kCombination1,
      ProtocolKind::kCombination2, ProtocolKind::kStatisticalFl,
      ProtocolKind::kSigAck};
  for (const ProtocolKind kind : kinds) {
    const bool sig = kind == ProtocolKind::kSigAck;
    runner::ExperimentConfig cfg = runner::paper_config(
        kind, sig ? 100 : 10000, mix(o.seed, static_cast<std::uint64_t>(kind)));
    if (sig) cfg.crypto = crypto::CryptoKind::kReal;
    runner::ExperimentResult r;
    const AllocCount a0 = thread_alloc_count();
    const double ns =
        span_ns(tr, "runner.run_experiment", [&] { r = runner::run_experiment(cfg); });
    const AllocCount a1 = thread_alloc_count();
    const double events = static_cast<double>(r.events_processed);
    const std::string p = short_name(kind);
    m.add("runner.ns_per_event." + p, ns / events, "ns");
    m.add("runner.events_per_pkt." + p,
          events / static_cast<double>(r.packets_sent), "events/pkt");
    if (kind == ProtocolKind::kPaai1) {
      m.add("sim.allocs_per_event",
            static_cast<double>(a1.calls - a0.calls) / events, "allocs/event");
      m.add("sim.alloc_bytes_per_event",
            static_cast<double>(a1.bytes - a0.bytes) / events, "B/event");
    }
  }
  {
    std::vector<double> ms;
    for (std::uint64_t i = 0; i < 21; ++i) {
      const runner::ExperimentConfig cfg =
          runner::paper_config(ProtocolKind::kPaai1, 1, mix(o.seed, 50 + i));
      ms.push_back(span_ns(tr, "runner.run_setup",
                           [&] { runner::run_experiment(cfg); }) / 1e6);
    }
    m.add("runner.run_setup_ms", median(ms), "ms");
  }
}

void probe_passes(const Options& o, Tracer& tr, MetricSet& m, Outcome& out) {
  {
    PaperMc mc(o);
    mc.setup(nullptr);
    timed_loop(mc, 0.0, 0, 1, &tr, out);
    add_exec_metrics(m, "paper-mc", mc.exec_totals());
  }
  {
    RealCrypto rc(o);
    rc.setup(nullptr);
    timed_loop(rc, 0.0, 0, 1, &tr, out);
    add_exec_metrics(m, "real-crypto", rc.exec_totals());
  }
  {
    Mesh mesh(o);
    const std::size_t first = tr.spans().size();
    mesh.setup(&tr);
    const Span& path_set = tr.spans()[first];
    m.add("mesh.path_set_ms",
          static_cast<double>(path_set.end_ns - path_set.start_ns) / 1e6, "ms");
    timed_loop(mesh, 0.0, 0, 1, &tr, out);
    add_exec_metrics(m, "mesh-stat", mesh.stat_exec());
    add_exec_metrics(m, "mesh-packet", mesh.packet_exec());
    m.add("mesh.stat_task_ms_mean", 1e3 * mesh.stat_exec().task_s_mean(), "ms");
    m.add("mesh.store_bytes", static_cast<double>(mesh.last_stat().store_bytes),
          "B");
    m.add("mesh.shard_bytes", static_cast<double>(mesh.last_stat().shard_bytes),
          "B");
    m.add("mesh.packet_path_ms_mean",
          1e3 * mesh.packet_exec().busy_s / Mesh::kPacketPaths, "ms");
  }
  {
    StreamReplay replay(o);
    replay.setup(nullptr);
    const ProducedLog& log = replay.log(0);
    stream::ScoreEngine engine;
    const std::size_t first = tr.spans().size();
    ReplayCounts c;
    {
      Scoped span(&tr, "probe.stream");
      c = replay_explicit(log.jsonl, StreamReplay::kSnapshotEvery, engine, &tr);
    }
    const std::vector<Span> slice(tr.spans().begin() + first, tr.spans().end());
    const auto totals = totals_by_name(slice);
    ++out.attempted;
    OpResult verdict;
    verdict.ok = c.error.empty();
    verdict.error = c.error;
    StreamReplay::verify(engine, log, c.events, verdict);
    if (!verdict.ok) record_failure(out, "probe: replay " + verdict.error);
    const double events = static_cast<double>(c.events);
    m.add("stream.parse_ns_per_event",
          static_cast<double>(totals.at("stream.parse").self_ns) / events, "ns");
    m.add("stream.parse_allocs_per_event",
          static_cast<double>(c.parse_allocs) / events, "allocs/event");
    m.add("stream.bytes_per_event", static_cast<double>(c.bytes) / events,
          "B/event");
    m.add("stream.apply_ns_per_event",
          static_cast<double>(totals.at("stream.apply").self_ns) / events, "ns");
    const SpanTotals& snap = totals.at("stream.snapshot_write");
    m.add("stream.snapshot_write_us",
          static_cast<double>(snap.self_ns) / static_cast<double>(snap.count) /
              1e3,
          "us");
    constexpr int kRestores = 50;
    bool restored = true;
    const double restore_ns = span_ns(tr, "stream.snapshot_restore", [&] {
      for (int i = 0; i < kRestores; ++i) {
        stream::ScoreEngine fresh;
        restored = stream::load_state(c.last_state, &fresh) && restored;
      }
    });
    ++out.attempted;
    if (!restored) record_failure(out, "probe: snapshot failed to restore");
    m.add("stream.snapshot_restore_us", restore_ns / kRestores / 1e3, "us");
    m.add("stream.snapshot_bytes", static_cast<double>(c.last_state.size()),
          "B");
  }
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper-mc", "real-crypto",
                                                 "stream-replay", "mesh"};
  return names;
}

Outcome run_end_to_end(const Options& options) {
  Outcome out;
  std::unique_ptr<Workload> w = make_workload(options);
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto t = Clock::now();
    w->setup(nullptr);
    setup_s.push_back(seconds_since(t));
  }
  const Loop loop =
      timed_loop(*w, options.seconds, kMinOps, SIZE_MAX, nullptr, out);
  w->check(out);

  MetricSet details;
  w->details(details, loop);
  out.notes.push_back(loop_note(*w, loop, false));
  out.notes.push_back("{\"detail\": " + metrics_json(details) + "}");

  out.metrics.add("setup_s", median(setup_s), "s");
  out.metrics.add("peak_rss_mib", peak_rss_mib(), "MiB");
  out.metrics.add("work_per_s", loop.work_per_s(), "1/s");
  out.metrics.add("op_s_p50", loop.call_s_p50(), "s");
  return out;
}

Outcome run_traced(const Options& options, Tracer& tracer) {
  Outcome out;
  {
    std::unique_ptr<Workload> w = make_workload(options);
    w->setup(nullptr);
    const Loop loop =
        timed_loop(*w, options.seconds, kMinOps, SIZE_MAX, &tracer, out);
    out.notes.push_back(loop_note(*w, loop, true));
  }
  probe_crypto(options, tracer, out.metrics, out);
  probe_net(options, tracer, out.metrics, out);
  probe_sim_and_runner(options, tracer, out.metrics, out);
  probe_passes(options, tracer, out.metrics, out);
  return out;
}

}  // namespace perfbench
