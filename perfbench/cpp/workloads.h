// The benchmark's four workloads and the per-layer probes.
//
// Every workload is a closed loop of operations: each operation calls a
// public layer function (run_monte_carlo, run_mesh; serve_stream once per
// client), and the next starts when the previous returns. Operations
// come in fixed cycles (one per protocol, log or engine) and the loop
// stops only at a cycle boundary, so every run measures the same mix.
//
//   paper-mc       §8.1 path, six MAC protocols, FastCrypto, fanned out
//   real-crypto    sig-ack plus three MAC protocols under real crypto
//   stream-replay  JSONL logs of three score-table families through
//                  serve_stream, `jobs` clients, periodic snapshots
//   mesh           fattree@8: stat engine at 1M paths, packet engine on
//                  150 short paths
//
// See perfbench/README.md for why each exists and what it should move.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"
#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 12.0;
  /// Worker threads for every fan-out; fixed per host, never 0.
  std::size_t jobs = 4;
  /// Directory for the files the program writes (serve snapshots).
  std::string scratch_dir = ".";
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// JSON lines printed before the result line.
  std::vector<std::string> notes;
  MetricSet metrics;
};

const std::vector<std::string>& workload_names();

/// End-to-end run: set-up three times (median is setup_s), the timed
/// loop, then the correctness oracles. Throws std::invalid_argument for
/// an unknown workload.
Outcome run_end_to_end(const Options& options);

/// Traced run: the workload's timed loop with spans around every layer
/// call (its headline is the traced side of the tracing overhead), then
/// every layer probe. Emits the per-layer metric set.
Outcome run_traced(const Options& options, Tracer& tracer);

}  // namespace perfbench
