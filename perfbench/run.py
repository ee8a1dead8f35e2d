#!/usr/bin/env python3
"""Build and run the goc end-to-end benchmark.

One run, from the root of a checkout:

    python3 perfbench/run.py --workload levin_vm_cold --seed 1 --seconds 25 --trace 0

builds `goc-serve` and the measuring program (`perfbench/src`) from
source, runs the workload, and prints the run's metadata, a readable block
of metrics, and as its last line one JSON result. `--trace 0` reports the
end-to-end metrics of BENCHMARK.json; `--trace 1` the per-layer metrics and
the tracing overhead.

Steadiness mode runs every workload N times with seeds 1..N, alternating
the workload order, and prints each end-to-end metric's median and
quartile spread against its bound in BENCHMARK.json:

    python3 perfbench/run.py --steady 10 [--workloads a,b] [--seconds 25]

Builds go to $CARGO_TARGET_DIR, or `.bench_build` at the checkout root.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Workloads the measuring program runs that BENCHMARK.json leaves out,
# because their run-to-run spread is wider than any bound it may set.
# `levin_vm_warm` is memory-bound: on a shared 2-vCPU host its p50 moved
# by about 30% with the neighbours' load, against about 12% for the
# compute-bound `levin_vm_cold`. Run it by name to see the cold/warm pair.
ON_DEMAND = ["levin_vm_warm"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build():
    """Builds both binaries from source; returns their paths."""
    for rel in ("Cargo.toml", "Cargo.lock", "crates/serve/Cargo.toml", "perfbench/Cargo.lock"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            fail(f"not a goc checkout: {rel} is missing")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    common = ["cargo", "build", "--release", "--offline", "--locked", "--quiet", "--manifest-path"]
    for cmd in (
        common + [os.path.join(ROOT, "Cargo.toml"), "-p", "goc-serve", "--bin", "goc-serve"],
        common + [os.path.join(HERE, "Cargo.toml")],
    ):
        try:
            r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build failed: {e}")
        if r.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target, "release")
    return os.path.join(release, "goc-perfbench"), os.path.join(release, "goc-serve")


def source_digest():
    """A digest of the sources the run built, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("crates", "src", "perfbench/src"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    for rel in ("Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml", "perfbench/Cargo.lock"):
        with open(os.path.join(ROOT, rel), "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def git_rev():
    """HEAD when the checkout root is a git work tree's top, else unknown."""
    top = command_output(["git", "rev-parse", "--show-toplevel"])
    if top == "unknown" or os.path.realpath(top) != os.path.realpath(ROOT):
        return "unknown"
    return command_output(["git", "rev-parse", "HEAD"])


def loadavg():
    with open("/proc/loadavg") as f:
        return [float(x) for x in f.read().split()[:3]]


def run_once(bins, spec, workload, seed, seconds, trace):
    """Runs the measuring program once; returns (metadata, output lines, result)."""
    bench, serve = bins
    workdir = os.path.join(HERE, "out", f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    meta = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "git_rev": git_rev(),
        "src_sha256": source_digest(),
        "rustc": command_output(["rustc", "-V"]),
        "loadavg_start": loadavg(),
    }
    cmd = [bench, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--serve-bin", serve]
    # Its own process group, so a timeout also takes down the daemon it runs.
    proc = subprocess.Popen(cmd, cwd=workdir, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        for name in os.listdir(workdir):
            os.remove(os.path.join(workdir, name))
        os.rmdir(workdir)
    meta["loadavg_end"] = loadavg()
    if out is None:
        fail(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{workload}: measuring program exited with {proc.returncode}")
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{workload}: no result line")
    # Every metric of the mode, named and united as BENCHMARK.json says;
    # per-layer metrics of layers a workload does not run read 0.
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    extra = set(got) - {m["name"] for m in wanted}
    if extra:
        fail(f"{workload}: metrics not in BENCHMARK.json: {sorted(extra)}")
    metrics = {}
    for m in wanted:
        if m["name"] in got:
            if got[m["name"]]["unit"] != m["unit"]:
                fail(f"{workload}: {m['name']} has unit {got[m['name']]['unit']}, not {m['unit']}")
            metrics[m["name"]] = got[m["name"]]
        elif trace:
            metrics[m["name"]] = {"value": 0.0, "unit": m["unit"]}
        else:
            fail(f"{workload}: end-to-end metric {m['name']} missing")
    result["metrics"] = metrics
    return meta, lines[:-1], result


def steady(bins, spec, workloads, n, seconds, first_seed):
    """Runs each workload n times, alternating the order, and reports spreads."""
    runs = {w: [] for w in workloads}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    log = os.path.join(HERE, "out", time.strftime("steady-%Y%m%d-%H%M%S.jsonl"))
    for i in range(n):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for w in order:
            meta, _, result = run_once(bins, spec, w, first_seed + i, seconds, 0)
            runs[w].append(result)
            with open(log, "a") as f:
                f.write(json.dumps({"meta": meta, "result": result}) + "\n")
            print(f"  run {i + 1}/{n} {w} seed {first_seed + i}: correct {result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
    flagged = 0
    for w in workloads:
        print(f"\n{w} ({n} runs, {seconds} s each)")
        print(f"  {'metric':<22}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>8}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs[w]]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if n > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            # setup_s is held to its median shift, not its spread.
            flag = "" if m["name"] == "setup_s" or spread <= m["bound"] else "  WIDER THAN BOUND"
            flagged += bool(flag)
            print(f"  {m['name']:<22}{med:>14.4f}{q1:>14.4f}{q3:>14.4f}{spread:>9.3f}{m['bound']:>8}{flag}")
        bad = sum(r["failed"] for r in runs[w])
        print(f"  error_rate {bad}/{sum(r['attempted'] for r in runs[w])}")
    print(f"\nraw results: {os.path.relpath(log, ROOT)}")
    return flagged


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, default=0, metavar="N")
    ap.add_argument("--workloads", help="comma-separated subset for --steady")
    args = ap.parse_args()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    known = names + ON_DEMAND
    seconds = args.seconds or spec["run_seconds"]
    if args.steady:
        workloads = args.workloads.split(",") if args.workloads else names
        if any(w not in known for w in workloads):
            fail(f"workloads are {known}")
        bins = build()
        sys.exit(1 if steady(bins, spec, workloads, args.steady, seconds, args.seed) else 0)
    if args.workload not in known:
        fail(f"--workload must be one of {known}")
    bins = build()
    meta, lines, result = run_once(bins, spec, args.workload, args.seed, seconds, args.trace)
    print("perfbench-meta " + json.dumps(meta))
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
