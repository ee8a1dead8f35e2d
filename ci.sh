#!/usr/bin/env bash
# Hermetic CI: proves the workspace builds, tests, and reports with NO
# network and NO registry. Any reintroduced external dependency fails here
# at resolution time, before a single test runs.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

# Bench profile: quick (3 samples) by default, so the smoke stays fast;
# CI_BENCH_FULL=1 runs the full sample counts — slower, steadier medians.
# The regression check at the bottom keys off the same knob.
if [ "${CI_BENCH_FULL:-0}" = "1" ]; then
  unset GOC_BENCH_QUICK
else
  export GOC_BENCH_QUICK=1
fi

echo "== engine knob inventory =="
# Every environment variable the engine reads, by its quoted name. A new
# knob is a second code path plus more CI runs, so adding one must show up
# as a diff to this list.
knobs=$(grep -rhoE '"GOC_[A-Z0-9_]+"' crates/{core,vm,goals,learning,serve}/src src | tr -d '"' | sort -u | xargs)
expected_knobs="GOC_THREADS GOC_TRACE"
[ "$knobs" = "$expected_knobs" ] \
  || { echo "CI FAIL: engine knobs are [$knobs], expected [$expected_knobs]"; exit 1; }
echo "$knobs"

echo "== build (release, offline) =="
cargo build --release --offline --workspace

echo "== tests (offline, sequential: GOC_THREADS=1) =="
GOC_THREADS=1 cargo test -q --offline --workspace

echo "== tests (offline, parallel trial engine: GOC_THREADS=4) =="
GOC_THREADS=4 cargo test -q --offline --workspace

echo "== warning-free build (every test target) =="
# Cargo replays the cached diagnostics of the builds above, so this
# rebuilds nothing; any warning line fails the step.
warnings=$(cargo test --offline --workspace --no-run 2>&1 | grep '^warning' || true)
[ -z "$warnings" ] || { printf '%s\n' "$warnings"; echo "CI FAIL: the workspace build prints warnings"; exit 1; }

echo "== bench harness smoke (${GOC_BENCH_QUICK:+quick, }offline) =="
rm -f target/goc-bench.jsonl  # JSON lines append; start the smoke run clean
cargo bench --offline -p goc-bench --bench e9_substrate
# e13 prices the zero-copy round loop: its settle12@t1 arm feeds the
# normalised settle gate below, divided by e9's exec_rounds/10000 from just
# before it; the count-allocs feature makes the steady arms record
# allocations per iteration for the zero-alloc gate.
cargo bench --offline -p goc-bench --bench e13_zero_copy --features count-allocs
# e4 carries the sequential-vs-parallel @tN pairs, so the summary below can
# show the speedup section.
cargo bench --offline -p goc-bench --bench e4_enumeration_overhead
# e12 exercises the channel layer (noisy links + scheduled outage recovery).
cargo bench --offline -p goc-bench --bench e12_noise_sweep
# e2 carries the finite-Levin settle medians the BENCH_*.json regression
# compare below watches across PRs.
cargo bench --offline -p goc-bench --bench e2_finite_levin
# e16 prices the predecoded fast core: both arms force their core
# in-process (with_dispatch); the match and table medians of the
# instruction micro-bench feed the >= 1.3x gate below, and those of the
# finite-Levin settle pair feed the >= 2x gate.
cargo bench --offline -p goc-bench --bench e16_dispatch

echo "== E13 gate: pooled steady loop is allocation-free =="
pooled_line=$(grep '"id":"steady_pooled"' target/goc-bench.jsonl | tail -n 1)
printf '%s\n' "$pooled_line"
grep -q '"allocs":0' <<<"$pooled_line" \
  || { echo "CI FAIL: steady_pooled must record 0 allocs/iter"; exit 1; }
# The same batch through run_for: the transcript it returns shares the
# recorded history, so handing it back must not allocate either.
run_line=$(grep '"id":"steady_run"' target/goc-bench.jsonl | tail -n 1)
printf '%s\n' "$run_line"
grep -q '"allocs":0' <<<"$run_line" \
  || { echo "CI FAIL: steady_run must record 0 allocs/iter (run_for copied the history)"; exit 1; }

echo "== experiment report smoke (quick) =="
rep=$(cargo run --release --offline -p goc-bench --bin goc-report -- --quick)
printf '%s\n' "$rep"

echo "== obs gate: traces are byte-identical across thread counts =="
# With GOC_TRACE set, the observability layer records spans/events per
# trial and flushes them in task-index order, so the JSONL trace must be
# byte-for-byte identical at any GOC_THREADS. (The disabled-path cost is
# covered by the E13 allocs:0 gate above: obs is compiled in there, and
# the steady loop still records zero allocations per iteration.)
rm -f target/goc-trace-t1.jsonl target/goc-trace-t4.jsonl
GOC_TRACE=target/goc-trace-t1.jsonl GOC_THREADS=1 \
  cargo run --release --offline -p goc-bench --bin goc-report -- --quick > /dev/null
GOC_TRACE=target/goc-trace-t4.jsonl GOC_THREADS=4 \
  cargo run --release --offline -p goc-bench --bin goc-report -- --quick > /dev/null
[ -s target/goc-trace-t1.jsonl ] || { echo "CI FAIL: GOC_TRACE produced an empty trace"; exit 1; }
cmp target/goc-trace-t1.jsonl target/goc-trace-t4.jsonl \
  || { echo "CI FAIL: GOC_TRACE output differs between GOC_THREADS=1 and 4"; exit 1; }
# The same stream with the round_match spec mounted in place of the fast
# VM core is checked in-process (traces_are_identical_on_either_core in
# crates/vm/tests/dispatch_equivalence.rs), at one thread; the cmp above
# carries it to four.
echo "traces identical ($(wc -l < target/goc-trace-t1.jsonl) records, threads)"

echo "== obs gate: trace readers consume the file =="
tsum=$(cargo run --release --offline -p goc-bench --bin goc-report -- --trace-summary target/goc-trace-t1.jsonl)
printf '%s\n' "$tsum"
grep -q "spans" <<<"$tsum" || { echo "CI FAIL: trace summary missing spans section"; exit 1; }
ttree=$(cargo run --release --offline -p goc-bench --bin goc-trace -- target/goc-trace-t1.jsonl)
grep -q "exec.run" <<<"$ttree" || { echo "CI FAIL: goc-trace tree missing exec.run spans"; exit 1; }

echo "== conformance sweep (two seeds x GOC_THREADS=1/4, reproducible) =="
# The metamorphic sweep must (a) report zero safety violations and (b)
# render byte-identically across thread counts — any failing schedule must
# shrink to the same replayable counterexample regardless of parallelism.
for seed in 0x5EED 42; do
  out1=$(GOC_THREADS=1 cargo run --release --offline -p goc-bench --bin goc-conformance -- --quick --seed "$seed")
  out4=$(GOC_THREADS=4 cargo run --release --offline -p goc-bench --bin goc-conformance -- --quick --seed "$seed")
  if [ "$out1" != "$out4" ]; then
    echo "CI FAIL: conformance sweep not reproducible across thread counts (seed $seed)"
    diff <(printf '%s\n' "$out1") <(printf '%s\n' "$out4") || true
    exit 1
  fi
  printf '%s\n' "$out1"
  grep -q "safety violations: 0" <<<"$out1" || { echo "CI FAIL: safety violation in conformance sweep (seed $seed)"; exit 1; }
done

echo "== snap gate: golden vectors pin the wire format =="
# The committed tests/golden/*.snap files are byte-exact encodings of two
# canonical checkpoints. Any layout change fails this suite until
# SNAP_VERSION is bumped and the vectors re-blessed — format drift is a
# decision, not an accident.
cargo test -q --offline --test snap_golden

echo "== snap gate: save/resume is observationally invisible (stdout + trace) =="
# `goc resume <scenario> --checkpoint N` steps a session to round N,
# serializes it, restores the bytes into a fresh skeleton, and finishes
# the run; --checkpoint 0 wraps the whole session in the same save/restore
# pair. Interrupting at any round may only change wall-clock: stdout and
# the deterministic GOC_TRACE stream must match byte-for-byte, at both
# thread counts and for both universal-user flavours.
for threads in 1 4; do
  for scen in "magic 7 50 20000" "magic-compact 9 1234 2000"; do
    read -r name seed ckpt horizon <<<"$scen"
    rm -f target/goc-snap-base.jsonl target/goc-snap-ckpt.jsonl
    base=$(GOC_TRACE=target/goc-snap-base.jsonl GOC_THREADS=$threads \
      cargo run --release --offline -- resume "$name" --seed "$seed" --checkpoint 0 --horizon "$horizon")
    ckpt_out=$(GOC_TRACE=target/goc-snap-ckpt.jsonl GOC_THREADS=$threads \
      cargo run --release --offline -- resume "$name" --seed "$seed" --checkpoint "$ckpt" --horizon "$horizon")
    if [ "$base" != "$ckpt_out" ]; then
      echo "CI FAIL: resume $name differs at checkpoint 0 vs $ckpt (GOC_THREADS=$threads)"
      diff <(printf '%s\n' "$base") <(printf '%s\n' "$ckpt_out") || true
      exit 1
    fi
    [ -s target/goc-snap-base.jsonl ] || { echo "CI FAIL: snap gate produced an empty trace"; exit 1; }
    cmp target/goc-snap-base.jsonl target/goc-snap-ckpt.jsonl \
      || { echo "CI FAIL: GOC_TRACE differs for $name at checkpoint 0 vs $ckpt (GOC_THREADS=$threads)"; exit 1; }
    printf 'resume %s: checkpoint 0 == checkpoint %s (t%s): %s\n' "$name" "$ckpt" "$threads" "$base"
  done
done

echo "== snap gate: snapshot files round-trip through disk =="
# The file-based pair: `goc snapshot` writes the bytes, `goc resume --snap`
# reads them back into a fresh process — the finished session must match
# the in-process checkpoint path exactly.
cargo run --release --offline -- snapshot magic --seed 7 --round 50 --out target/goc-ci.snap > /dev/null
from_file=$(cargo run --release --offline -- resume magic --seed 7 --snap target/goc-ci.snap)
uninterrupted=$(cargo run --release --offline -- resume magic --seed 7 --checkpoint 0)
if [ "$from_file" != "$uninterrupted" ]; then
  echo "CI FAIL: resume from snapshot file differs from the uninterrupted run"
  diff <(printf '%s\n' "$from_file") <(printf '%s\n' "$uninterrupted") || true
  exit 1
fi
printf 'snapshot file round-trip: %s\n' "$from_file"

echo "== serve gate: 10k sessions over a real socket settle byte-identically =="
# goc-serve hosts sessions behind the snap-disciplined wire format; goc-load
# drives 10,000 of them (fixed seed, pipelined over 8 connections) and writes
# one sorted outcome line per session. The same fleet run in-process must
# produce the *same bytes* — the socket boundary, the shard scheduler, and
# the connection pipelining are all observationally inert. --shutdown also
# exercises the daemon's teardown path (shards joined).
serve_sock="target/goc-ci-serve.sock"
rm -f "$serve_sock" target/goc-serve-socket.txt target/goc-serve-inproc.txt \
      target/goc-serve-load.jsonl
./target/release/goc-serve --listen "unix:$serve_sock" --shards 4 --quiet &
serve_pid=$!
for _ in $(seq 1 100); do [ -S "$serve_sock" ] && break; sleep 0.1; done
[ -S "$serve_sock" ] || { echo "CI FAIL: goc-serve never bound $serve_sock"; kill "$serve_pid" 2>/dev/null || true; exit 1; }
./target/release/goc-load --mode socket --connect "unix:$serve_sock" \
  --sessions 10000 --conns 8 --seed 42 --scenario mix \
  --out target/goc-serve-socket.txt --json target/goc-serve-load.jsonl --shutdown \
  || { echo "CI FAIL: goc-load reported session failures over the socket"; kill "$serve_pid" 2>/dev/null || true; exit 1; }
wait "$serve_pid" || { echo "CI FAIL: goc-serve exited non-zero"; exit 1; }
./target/release/goc-load --mode inproc \
  --sessions 10000 --seed 42 --scenario mix \
  --out target/goc-serve-inproc.txt --json target/goc-serve-load.jsonl \
  || { echo "CI FAIL: goc-load in-process arm reported failures"; exit 1; }
cmp target/goc-serve-socket.txt target/goc-serve-inproc.txt \
  || { echo "CI FAIL: socket settle differs from in-process settle"; exit 1; }
serve_sum=$(cargo run --release --offline -p goc-bench --bin goc-report -- \
  --serve-summary target/goc-serve-load.jsonl)
printf '%s\n' "$serve_sum"
grep -q "failures 0" <<<"$serve_sum" \
  || { echo "CI FAIL: serve summary reports session failures"; exit 1; }
! grep -Eq "failures [1-9]" <<<"$serve_sum" \
  || { echo "CI FAIL: serve summary reports session failures"; exit 1; }
grep -q "p99" <<<"$serve_sum" \
  || { echo "CI FAIL: serve summary missing latency percentiles"; exit 1; }
echo "10000 sessions settle byte-identically over unix:$serve_sock (0 failures)"

echo "== bench summary consumes the JSON lines =="
summary=$(cargo run --release --offline -p goc-bench --bin goc-report -- --bench-summary)
printf '%s\n' "$summary"
# The summary must surface the parallel speedup section — its absence
# means the bench metadata plumbing broke.
grep -q "parallel speedup" <<<"$summary" || { echo "CI FAIL: speedup section missing from bench summary"; exit 1; }

echo "== E13 gate: shipped settle time, normalised, within 10% of the committed snapshot (t1) =="
# A recording's ratio is settle12@t1's fastest sample over the fastest
# sample of e9_substrate/exec_rounds/10000 recorded just before it, so a
# host that is uniformly slower or faster cancels out. On a shared 2-vCPU
# host single ratios still scatter by about +-15%, so the gate takes the
# median of five recordings: the smoke run above and four more e9+e13
# pairs. That median may exceed the newest BENCH_*.json's ratio by at most
# 10%; an excess must reproduce on five fresh pairs before it fails.
e13_ratio() {
  awk -F'"min_ns":' '
    /"group":"e9_substrate","id":"exec_rounds\/10000"/ { split($2, a, ","); base = a[1] }
    /"group":"e13_zero_copy","id":"settle12@t1"/ { split($2, a, ","); settle = a[1] }
    END { if (base > 0 && settle > 0) printf "%.3f\n", settle / base }' "$1"
}
e13_median() {
  for f in "$@"; do e13_ratio "$f"; done | sort -n \
    | awk '{ r[NR] = $1 } END { if (NR == 5) print r[3] }'
}
e13_pairs() {
  for i in $(seq 1 "$1"); do
    f="target/goc-bench-e13-$2-$i.jsonl"
    rm -f "$f"
    GOC_BENCH_JSON="$PWD/$f" cargo bench --offline -p goc-bench --bench e9_substrate > /dev/null
    GOC_BENCH_JSON="$PWD/$f" cargo bench --offline -p goc-bench --bench e13_zero_copy --features count-allocs > /dev/null
    echo "$f"
  done
}
e13_snap=$(ls BENCH_*.json 2>/dev/null | sort -V | tail -n 1)
e13_base=$(e13_ratio "$e13_snap")
[ -n "$e13_base" ] || { echo "CI FAIL: $e13_snap lacks settle12@t1 or exec_rounds/10000"; exit 1; }
e13_now=$(e13_median target/goc-bench.jsonl $(e13_pairs 4 run))
[ -n "$e13_now" ] || { echo "CI FAIL: an E13 recording lacks settle12@t1 or exec_rounds/10000"; exit 1; }
echo "settle12@t1 / exec_rounds/10000, median of 5: ${e13_now} (${e13_snap}: ${e13_base})"
if ! awk -v r="$e13_now" -v b="$e13_base" 'BEGIN { exit !(r <= b * 1.10) }'; then
  echo "possible E13 settle regression; re-recording five e9+e13 pairs to confirm"
  e13_now=$(e13_median $(e13_pairs 5 recheck))
  echo "re-recorded median: ${e13_now}"
  awk -v r="$e13_now" -v b="$e13_base" 'BEGIN { exit !(r <= b * 1.10) }' \
    || { echo "CI FAIL: E13 settle ratio ${e13_now} exceeds ${e13_snap}'s ${e13_base} by more than 10% (reproduced on re-run)"; exit 1; }
fi

echo "== E16 gate: dispatch-table improvement >= 1.3x (match vs table core, micro) =="
# The E16 line reads "x dispatch improvement"; the section's settle line
# reads "x settle win", so neither grep matches the other's line.
ratio16=$(grep -o '[0-9.]*x dispatch improvement' <<<"$summary" | tail -n 1 | grep -o '^[0-9.]*')
[ -n "$ratio16" ] || { echo "CI FAIL: E16 improvement line missing from bench summary"; exit 1; }
echo "measured dispatch improvement: ${ratio16}x"
awk -v r="$ratio16" 'BEGIN { exit !(r >= 1.3) }' \
  || { echo "CI FAIL: E16 dispatch improvement ${ratio16}x is below the 1.3x gate"; exit 1; }

echo "== E16 gate: settle improvement >= 2x (match vs table core, finite-Levin VM settle, t1) =="
ratio_settle=$(grep -o '[0-9.]*x settle win' <<<"$summary" | tail -n 1 | grep -o '^[0-9.]*')
[ -n "$ratio_settle" ] || { echo "CI FAIL: E16 settle line missing from bench summary"; exit 1; }
echo "measured settle win: ${ratio_settle}x"
awk -v r="$ratio_settle" 'BEGIN { exit !(r >= 2.0) }' \
  || { echo "CI FAIL: E16 settle win ${ratio_settle}x is below the 2x gate"; exit 1; }

echo "== bench regression check against the committed snapshot =="
# BENCH_<n>.json is the quick-mode JSONL snapshot committed with PR <n>;
# the newest one is the baseline. The settle benches backing the
# E2/E13 claims are compared like-for-like — the default quick
# profile against the quick snapshot — so a >10% regression FAILs. Two
# noise defenses keep that gate honest on shared/throttled CI hosts, whose
# wall-clock throughput can swing ±30% with machine load: goc-report
# --compare flags REGRESSION on the *fastest sample* (interference only
# adds time, so the min tracks the code's true cost where a 3-sample
# median cannot), and sub-millisecond rows (µs-scale, where even the min
# sits below the host noise floor) are excluded from the gate. A flagged
# regression must also reproduce on a fresh re-recording of the gated
# benches before it fails the build. A CI_BENCH_FULL=1 run compares
# full-mode numbers against the quick snapshot (different sample counts,
# different noise floor), so it only WARNs. Refresh the snapshot
# (tools/bench quick) when a PR legitimately moves the numbers.
snap=$(ls BENCH_*.json 2>/dev/null | sort -V | tail -n 1)
if [ -n "$snap" ]; then
  cmp_out=$(cargo run --release --offline -p goc-bench --bin goc-report -- \
    --compare "$snap" target/goc-bench.jsonl)
  printf '%s\n' "$cmp_out"
  if grep -E 'e2_finite_levin|e13_zero_copy' <<<"$cmp_out" \
      | grep -v 'µs' | grep -q 'REGRESSION'; then
    if [ "${CI_BENCH_FULL:-0}" = "1" ]; then
      echo "CI WARN: settle bench regressed >10% vs $snap (full-mode medians vs quick snapshot; advisory)"
    else
      echo "possible settle regression; re-recording the gated benches to confirm"
      recheck=target/goc-bench-recheck.jsonl
      rm -f "$recheck"
      GOC_BENCH_JSON="$PWD/$recheck" cargo bench --offline -p goc-bench --bench e2_finite_levin
      GOC_BENCH_JSON="$PWD/$recheck" cargo bench --offline -p goc-bench --bench e13_zero_copy --features count-allocs
      cmp_out2=$(cargo run --release --offline -p goc-bench --bin goc-report -- \
        --compare "$snap" "$recheck")
      printf '%s\n' "$cmp_out2"
      if grep -E 'e2_finite_levin|e13_zero_copy' <<<"$cmp_out2" \
          | grep -v 'µs' | grep -q 'REGRESSION'; then
        echo "CI FAIL: settle bench regressed >10% vs $snap (reproduced on re-run; see tables above)"
        exit 1
      fi
      echo "settle regression did not reproduce on re-run; treating the first recording as scheduler noise"
    fi
  else
    echo "settle benches within 10% of the committed snapshot ($snap)"
  fi
else
  echo "CI WARN: no BENCH_*.json snapshot; skipping regression check"
fi

echo "CI OK"
