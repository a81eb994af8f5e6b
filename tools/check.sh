#!/usr/bin/env bash
# Sanitizer checks, two legs, plus the bench_diff self-check:
#
#   1. ThreadSanitizer — exec + runner + fleet + mesh + obs + faults +
#      telemetry test suites. Catches data races in the parallel execution
#      engine (src/exec), in anything run_experiment touches, in the mesh
#      runner's sharded score accumulation (src/mesh), in the
#      lock-free metrics/tracer
#      shards (src/obs) that runs write concurrently, and in the telemetry
#      sampler racing registry/profiler writers
#      (Concurrency.SamplerRacesProducers). faults_test runs the
#      injector's schedule machinery and crash hooks under the Monte-Carlo
#      fan-out (BitIdenticalAcrossJobs). The other half of the determinism
#      story (the jobs=1 vs jobs=8 bit-identity test in exec_test) runs in
#      the normal config via ctest.
#
#   2. AddressSanitizer + UBSan (hard-fail, -fno-sanitize-recover=all) —
#      the memory-facing suites: obs (JSON parser on hostile input, ring
#      indexing), util (wire codec fuzz loop), sim, exec, faults (plan
#      parser on malformed specs, loss-process state machines, crash-time
#      pending-table teardown), crypto and wots (the SHA-NI kernel
#      intrinsics, the padding edges, the fixed-32-byte chain step and
#      the HMAC midstates).
#
#   The 60k-packet ChaosPaperScale sweep is excluded under sanitizers for
#   runtime; ChaosSmoke is its in-sanitizer representative.
#
#   3. bench_diff — self-test fixtures, then a same-file diff against the
#      committed snapshot (must report zero drift against itself).
#
#   4. forensics smoke — a small PAAI-1 run (adversary at l_3) with
#      --events-out, replayed through `paai explain`; the audit trail must
#      name the planted link, and the emitted paai.bench.v1 report must
#      diff cleanly against itself.
#
#   5. colluder forensics smoke — a full-ack run against the adaptive
#      fault colluder (collude@4:rate=1 hiding inside the calibrated
#      Gilbert-Elliott burst plan on honest l_2); `paai explain` must
#      convict the true adversarial link l_4 and must NOT name the bursty
#      honest l_2. Full-ack is the leg's protocol because its per-hop acks
#      localise in-window drops; PAAI-1's blame-to-first-failing-hop
#      heuristic measurably under-attributes here (bench_robustness C).
#
#   6. serve-mode smoke — stream engine replay + snapshot/restore.
#
#   7. mesh smoke — a compromised fat-tree core straddling ~100 paths per
#      out-link; the aggregated cross-path score store (paai mesh) must
#      convict exactly the core's out-links with witness provenance and
#      exonerate every honest link.
#
#   8. detector smoke — the multi-level blame modes (docs/DETECTORS.md):
#      the fault-colluding adversary (collude@4:rate=1 under the
#      calibrated GE burst cover) must be CONVICTED by PAAI-1 under
#      --blame=hybrid at the paper's 60k-packet horizon, and the same
#      hybrid detector must convict nobody on an honest path under every
#      shipped benign fault plan — the windowed clauses must not reopen
#      the Theorem 2 false-accusation door.
#
#   9. telemetry smoke — `paai serve` with --telemetry-out over the leg-6
#      reference stream must emit >= 2 paai.telemetry.v1 lines that the
#      strict consumer (tools/telemetry_report) validates with zero parse
#      errors and monotone sample indices, including nonzero
#      back-pressure gauges; `paai top --once` must render the file;
#      `replay --verify` must stay bit-identical with telemetry +
#      profiling enabled; and a sig-ack run's profile must book at least
#      half of its sim-loop time to the (nested) crypto phase — W-OTS
#      opens its own crypto scopes, so the hashing cannot hide in
#      sim-loop.
#
# Usage: tools/check.sh [tsan-build-dir [asan-build-dir]]
#        (defaults: build-tsan build-asan)
set -euo pipefail

cd "$(dirname "$0")/.."
TSAN_DIR="${1:-build-tsan}"
ASAN_DIR="${2:-build-asan}"
CHAOS_FILTER="--gtest_filter=-*ChaosPaperScale*"

echo "== leg 1: ThreadSanitizer =="
cmake -B "$TSAN_DIR" -S . -DPAAI_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$TSAN_DIR" --target exec_test runner_test fleet_test mesh_test obs_test faults_test telemetry_test -j "$(nproc)"

# TSAN_OPTIONS makes races hard failures rather than log noise.
export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"
"$TSAN_DIR/tests/exec_test"
"$TSAN_DIR/tests/runner_test"
"$TSAN_DIR/tests/fleet_test"
"$TSAN_DIR/tests/mesh_test"
"$TSAN_DIR/tests/obs_test"
"$TSAN_DIR/tests/faults_test" "$CHAOS_FILTER"
# The Integration.* bit-identity sweeps (14 full runs) are excluded here
# for runtime, like ChaosPaperScale; they run in the normal ctest config.
# The race-facing tests (sampler vs. registry/profiler writers, serve
# lag) are what TSan is for.
"$TSAN_DIR/tests/telemetry_test" "--gtest_filter=-Integration.*"

echo "== leg 2: AddressSanitizer + UBSan =="
cmake -B "$ASAN_DIR" -S . -DPAAI_SANITIZE=address -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$ASAN_DIR" --target obs_test util_test sim_test exec_test faults_test crypto_test wots_test bench_diff -j "$(nproc)"

export ASAN_OPTIONS="halt_on_error=1 detect_leaks=1 ${ASAN_OPTIONS:-}"
export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1 ${UBSAN_OPTIONS:-}"
"$ASAN_DIR/tests/obs_test"
"$ASAN_DIR/tests/util_test"
"$ASAN_DIR/tests/sim_test"
"$ASAN_DIR/tests/exec_test"
"$ASAN_DIR/tests/faults_test" "$CHAOS_FILTER"
"$ASAN_DIR/tests/crypto_test"
"$ASAN_DIR/tests/wots_test"

echo "== leg 3: bench_diff =="
"$ASAN_DIR/tools/bench_diff" --self-test
# A snapshot diffed against itself must be drift-free.
"$ASAN_DIR/tools/bench_diff" BENCH_pr3.json BENCH_pr3.json
# Cross-snapshot regression gate: the protocol metrics shared by the pr3
# and pr6 snapshots must agree; bench_micro is ignored because its
# wall-clock timings measure the machine the snapshot ran on.
"$ASAN_DIR/tools/bench_diff" --ignore=bench_micro \
    BENCH_pr3.json BENCH_pr6.json
# pr6 -> pr7 adds the bench_stream section; its throughput/latency numbers
# measure the machine (like bench_micro), so both are ignored.
"$ASAN_DIR/tools/bench_diff" --ignore=bench_micro --ignore=bench_stream \
    BENCH_pr6.json BENCH_pr7.json
# pr7 -> pr8 adds the bench_mesh section (one-sided benches diff as
# notes); bench_mesh's paths/s throughput measures the machine, so it
# joins the ignore list alongside the other timing benches.
"$ASAN_DIR/tools/bench_diff" --ignore=bench_micro --ignore=bench_stream \
    --ignore=bench_mesh BENCH_pr7.json BENCH_pr8.json
# pr8 -> pr9 adds the windowed/hybrid frontier rows to bench_robustness;
# the shared protocol metrics must not drift.
"$ASAN_DIR/tools/bench_diff" --ignore=bench_micro --ignore=bench_stream \
    --ignore=bench_mesh BENCH_pr8.json BENCH_pr9.json
"$ASAN_DIR/tools/bench_diff" BENCH_pr9.json BENCH_pr9.json

echo "== leg 4: forensics smoke (paai run --events-out -> paai explain) =="
cmake --build "$ASAN_DIR" --target paai -j "$(nproc)"
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
"$ASAN_DIR/tools/paai" run --protocol=paai1 --packets=20000 --seed=1 \
    --fault=3:0.02 --events-out="$SMOKE_DIR/events.jsonl" \
    --events-cap=65536 --metrics-out="$SMOKE_DIR/run.json" \
    > "$SMOKE_DIR/run.stdout"
"$ASAN_DIR/tools/paai" explain "$SMOKE_DIR/events.jsonl" \
    > "$SMOKE_DIR/explain.stdout"
grep -q "CONVICTED l_3" "$SMOKE_DIR/explain.stdout" || {
  echo "leg 4 FAILED: audit trail did not convict l_3:" >&2
  cat "$SMOKE_DIR/explain.stdout" >&2
  exit 1
}
# The run's verdict table and the replayed audit trail must agree.
grep -q "CONVICTED" "$SMOKE_DIR/run.stdout" || {
  echo "leg 4 FAILED: run verdict table has no conviction" >&2
  exit 1
}
# The emitted paai.bench.v1 report must be valid (self-diff is clean).
"$ASAN_DIR/tools/bench_diff" "$SMOKE_DIR/run.json" "$SMOKE_DIR/run.json"

echo "== leg 5: colluder forensics smoke (fault-colluding adversary) =="
"$ASAN_DIR/tools/paai" run --protocol=fullack --packets=20000 --seed=1 \
    --adversary='collude@4:rate=1' \
    --faults='ge@2:pg=0.005,pb=0.3,g2b=0.003,b2g=0.15' \
    --events-out="$SMOKE_DIR/collude.jsonl" --events-cap=65536 \
    > "$SMOKE_DIR/collude.stdout"
"$ASAN_DIR/tools/paai" explain "$SMOKE_DIR/collude.jsonl" \
    > "$SMOKE_DIR/collude_explain.stdout"
grep -q "CONVICTED l_4" "$SMOKE_DIR/collude_explain.stdout" || {
  echo "leg 5 FAILED: colluder's true link l_4 not convicted:" >&2
  cat "$SMOKE_DIR/collude_explain.stdout" >&2
  exit 1
}
if grep -q "CONVICTED l_2" "$SMOKE_DIR/collude_explain.stdout"; then
  echo "leg 5 FAILED: bursty honest l_2 falsely convicted:" >&2
  cat "$SMOKE_DIR/collude_explain.stdout" >&2
  exit 1
fi

echo "== leg 6: serve-mode smoke (stream engine replay + snapshot/restore) =="
# A batch run's event stream replayed through the online engine must
# reproduce the batch verdict bit-identically (`replay --verify` diffs the
# engine's conviction set, thetas, and observation counts against the
# stream's own kConviction records), including when the stream is cut in
# half and the engine round-trips through a paai.state.v1 snapshot.
"$ASAN_DIR/tools/paai" run --protocol=paai1 --packets=8000 --seed=1 \
    --fault=4:0.02 --events-out="$SMOKE_DIR/stream.jsonl" \
    --events-cap=200000 > "$SMOKE_DIR/stream_run.stdout"
"$ASAN_DIR/tools/paai" replay "$SMOKE_DIR/stream.jsonl" --verify \
    > "$SMOKE_DIR/replay.stdout" || {
  echo "leg 6 FAILED: replay --verify diverged from the batch run:" >&2
  cat "$SMOKE_DIR/replay.stdout" >&2
  exit 1
}
# Snapshot mid-stream, restore, and finish: same verdict.
split -l 6000 "$SMOKE_DIR/stream.jsonl" "$SMOKE_DIR/stream_part."
"$ASAN_DIR/tools/paai" serve --in="$SMOKE_DIR/stream_part.aa" \
    --state-out="$SMOKE_DIR/state.json" > "$SMOKE_DIR/serve.stdout"
cat "$SMOKE_DIR/stream_part."a[b-z] > "$SMOKE_DIR/stream_rest.jsonl"
"$ASAN_DIR/tools/paai" replay "$SMOKE_DIR/stream_rest.jsonl" \
    --state-in="$SMOKE_DIR/state.json" --verify \
    > "$SMOKE_DIR/replay_resumed.stdout" || {
  echo "leg 6 FAILED: snapshot/restore replay diverged:" >&2
  cat "$SMOKE_DIR/replay_resumed.stdout" >&2
  exit 1
}
grep -q "verify: OK" "$SMOKE_DIR/replay_resumed.stdout" || {
  echo "leg 6 FAILED: resumed replay did not report verify: OK" >&2
  exit 1
}

echo "== leg 7: mesh smoke (fat-tree colluder convicted from cross-path evidence) =="
# A compromised core switch (node 0) straddles ~100 paths per out-link on
# a k=4 fat-tree; the aggregated score store must convict exactly its
# out-links — [malicious] lines with witness-path provenance — and never
# an honest link. Exit status enforces zero missed / zero false. The TSan
# leg above already runs mesh_test (sharded store + jobs bit-identity).
"$ASAN_DIR/tools/paai" mesh --topo=fattree@4 --paths=2000 --units=1500 \
    --adversary='uniform@0:rate=0.05' --threshold=0.02 --seed=9000 \
    --metrics-out="$SMOKE_DIR/mesh.json" > "$SMOKE_DIR/mesh.stdout" || {
  echo "leg 7 FAILED: paai mesh exited nonzero (missed or false conviction):" >&2
  cat "$SMOKE_DIR/mesh.stdout" >&2
  exit 1
}
grep -q 'CONVICTED l_.* \[malicious\]' "$SMOKE_DIR/mesh.stdout" || {
  echo "leg 7 FAILED: no malicious link convicted:" >&2
  cat "$SMOKE_DIR/mesh.stdout" >&2
  exit 1
}
if grep -q '\[HONEST\]' "$SMOKE_DIR/mesh.stdout"; then
  echo "leg 7 FAILED: honest link falsely convicted:" >&2
  cat "$SMOKE_DIR/mesh.stdout" >&2
  exit 1
fi
grep -q 'witnesses=p' "$SMOKE_DIR/mesh.stdout" || {
  echo "leg 7 FAILED: conviction lines carry no witness provenance" >&2
  exit 1
}
# The emitted paai.bench.v1 report must be valid (self-diff is clean).
"$ASAN_DIR/tools/bench_diff" "$SMOKE_DIR/mesh.json" "$SMOKE_DIR/mesh.json"

echo "== leg 8: detector smoke (multi-level blame modes) =="
# The hybrid detector's target scenario: the r=1 fault colluder hiding in
# the calibrated GE burst plan evades the margin rule at the paper's 60k
# packets (theta_4 ~ 0.015-0.017, sd margin not cleared) but keeps a
# >= 4-window hot streak the honest churn cannot — hybrid must convict.
"$ASAN_DIR/tools/paai" run --protocol=paai1 --packets=60000 --seed=900 \
    --blame=hybrid --adversary='collude@4:rate=1' \
    --faults='ge@2:pg=0.005,pb=0.3,g2b=0.003,b2g=0.15' \
    > "$SMOKE_DIR/hybrid.stdout"
grep -q "CONVICTED" "$SMOKE_DIR/hybrid.stdout" || {
  echo "leg 8 FAILED: hybrid blame mode did not convict the colluder:" >&2
  cat "$SMOKE_DIR/hybrid.stdout" >&2
  exit 1
}
grep "CONVICTED" "$SMOKE_DIR/hybrid.stdout" | grep -q "l_4" || {
  echo "leg 8 FAILED: hybrid conviction names the wrong link:" >&2
  cat "$SMOKE_DIR/hybrid.stdout" >&2
  exit 1
}
# The other side of the bargain: on an honest path, hybrid's extra
# clauses must convict nobody under ANY shipped benign fault plan
# (specs mirror faults::benign_plans() — bench_robustness section A runs
# the same sweep across all protocols and blame-free configs).
BENIGN_PLANS=(
  'ge@2:pg=0.005,pb=0.3,g2b=0.003,b2g=0.15'
  'set@1:t=0,loss=0.002;set@1:t=150,loss=0.02;set@1:t=300,loss=0.002;set@1:t=450,loss=0.02;set@1:t=550,loss=0.002'
  'set@3:t=60,lat=4.5,jitter=0.5;set@3:t=240,lat=1;set@3:t=420,lat=4.8,jitter=1'
  'outage@3:t=120,dur=1.5;outage@2:t=360,dur=1'
  'reorder@1:p=0.05,delay=2;dup@4:p=0.01'
  'ge@2:pg=0.004,pb=0.2,g2b=0.002,b2g=0.2;set@1:t=100,loss=0.015;set@1:t=250,loss=0.002;outage@4:t=180,dur=1;reorder@5:p=0.02,delay=1;dup@0:p=0.005'
)
for plan in "${BENIGN_PLANS[@]}"; do
  # `paai run` exits 1 when nobody is convicted — the *expected* outcome
  # here; 0 means a conviction and >= 2 means the run itself errored.
  rc=0
  "$ASAN_DIR/tools/paai" run --protocol=paai1 --packets=60000 --seed=900 \
      --blame=hybrid --faults="$plan" > "$SMOKE_DIR/benign.stdout" || rc=$?
  if [[ $rc -ne 1 ]] || grep -q "CONVICTED" "$SMOKE_DIR/benign.stdout"; then
    echo "leg 8 FAILED: hybrid falsely convicted (or errored, rc=$rc)" \
         "under benign plan '$plan':" >&2
    cat "$SMOKE_DIR/benign.stdout" >&2
    exit 1
  fi
done

echo "== leg 9: telemetry smoke (live paai.telemetry.v1 plane) =="
cmake --build "$ASAN_DIR" --target telemetry_report -j "$(nproc)"
# Serve the leg-6 reference stream with telemetry on. telemetry_report IS
# the strict parser: exit 2 on any malformed line or non-monotone sample
# index, so schema validity and monotonicity ride on its exit status.
"$ASAN_DIR/tools/paai" serve --in="$SMOKE_DIR/stream.jsonl" \
    --telemetry-out="$SMOKE_DIR/serve_tele.jsonl" --telemetry-every=2000 \
    > "$SMOKE_DIR/serve_tele.stdout" 2> "$SMOKE_DIR/serve_tele.stderr"
[[ "$(wc -l < "$SMOKE_DIR/serve_tele.jsonl")" -ge 2 ]] || {
  echo "leg 9 FAILED: serve emitted fewer than 2 telemetry lines" >&2
  cat "$SMOKE_DIR/serve_tele.jsonl" >&2
  exit 1
}
"$ASAN_DIR/tools/telemetry_report" "$SMOKE_DIR/serve_tele.jsonl" \
    > "$SMOKE_DIR/serve_tele.report" || {
  echo "leg 9 FAILED: telemetry_report rejected the serve stream:" >&2
  cat "$SMOKE_DIR/serve_tele.report" >&2
  exit 1
}
grep -q 'gauge stream\.serve\.lag_events .*peak=[1-9]' \
    "$SMOKE_DIR/serve_tele.report" || {
  echo "leg 9 FAILED: serve telemetry has no nonzero lag gauge:" >&2
  cat "$SMOKE_DIR/serve_tele.report" >&2
  exit 1
}
grep -q 'gauge stream\.serve\.backlog_bytes .*peak=[1-9]' \
    "$SMOKE_DIR/serve_tele.report" || {
  echo "leg 9 FAILED: serve telemetry has no nonzero backlog gauge:" >&2
  cat "$SMOKE_DIR/serve_tele.report" >&2
  exit 1
}
# The exit summary (satellite of the same PR) prints throughput and peak
# lag on stderr even when telemetry is off; with it on, same line.
grep -q 'events/s applied' "$SMOKE_DIR/serve_tele.stderr" || {
  echo "leg 9 FAILED: serve exit summary missing throughput line:" >&2
  cat "$SMOKE_DIR/serve_tele.stderr" >&2
  exit 1
}
# The live dashboard must render the file in --once mode.
"$ASAN_DIR/tools/paai" top "$SMOKE_DIR/serve_tele.jsonl" --once \
    > "$SMOKE_DIR/top.stdout"
grep -q 'paai top' "$SMOKE_DIR/top.stdout" || {
  echo "leg 9 FAILED: paai top --once rendered nothing" >&2
  exit 1
}
# Telemetry + profiling must stay strictly observational: the replayed
# verdict is still bit-identical to the batch run.
"$ASAN_DIR/tools/paai" replay "$SMOKE_DIR/stream.jsonl" --verify \
    --telemetry-out="$SMOKE_DIR/replay_tele.jsonl" --telemetry-every=2000 \
    > "$SMOKE_DIR/replay_tele.stdout" || {
  echo "leg 9 FAILED: replay --verify diverged with telemetry enabled:" >&2
  cat "$SMOKE_DIR/replay_tele.stdout" >&2
  exit 1
}
grep -q "verify: OK" "$SMOKE_DIR/replay_tele.stdout" || {
  echo "leg 9 FAILED: telemetry-enabled replay did not report verify: OK" >&2
  exit 1
}
# A sig-ack run's self-profile must book at least half of its sim-loop
# time to the crypto phase, which nests inside it (rc 1 = no conviction,
# acceptable for this packet budget).
rc=0
"$ASAN_DIR/tools/paai" run --protocol=sigack --packets=2000 --seed=1 \
    --fault=4:0.02 --telemetry-out="$SMOKE_DIR/sigack_tele.jsonl" \
    --telemetry-every=500 > "$SMOKE_DIR/sigack_tele.stdout" || rc=$?
[[ $rc -le 1 ]] || {
  echo "leg 9 FAILED: sig-ack telemetry run errored (rc=$rc)" >&2
  exit 1
}
"$ASAN_DIR/tools/telemetry_report" "$SMOKE_DIR/sigack_tele.jsonl" \
    > "$SMOKE_DIR/sigack_tele.report"
awk '$1 == "phase" { for (i = 3; i <= NF; ++i) if ($i ~ /^ns=/) ns[$2] = substr($i, 4) + 0 }
     END { exit !(ns["crypto"] > 0 && 2 * ns["crypto"] >= ns["sim-loop"]) }' \
    "$SMOKE_DIR/sigack_tele.report" || {
  echo "leg 9 FAILED: sig-ack crypto phase is under half of sim-loop:" >&2
  cat "$SMOKE_DIR/sigack_tele.report" >&2
  exit 1
}

echo "check.sh: TSan (exec/runner/fleet/mesh/obs/faults/telemetry), ASan+UBSan (obs/util/sim/exec/faults/crypto/wots), bench_diff clean, forensics smoke clean, colluder forensics clean, serve smoke clean, mesh smoke clean, detector smoke clean, telemetry smoke clean"
