#!/usr/bin/env python3
"""Cold-process benchmark of the TensorTEE reproduction.

    python3 perfbench/run.py --workload registry_fast --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py --record-goldens

Run from the repository root. The script builds the `perfbench` worker
(perfbench/Cargo.toml) into $CARGO_TARGET_DIR (default .bench_build) and
starts it once per pass, so every pass begins with cold process-wide memos.
With --trace 0 it repeats cold passes of the workload until --seconds have
passed and reports the end-to-end metrics; with --trace 1 it reports the
per-layer metrics (see perfbench/README.md). The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}. The exit code is
0 only when every output matched.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
GOLDENS = os.path.join(BENCH_DIR, "goldens")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ["registry_fast", "serve_trace", "fleet_trace"]
GOLDEN_SEED = 42
# Setup-only processes started before the passes; setup_s is the median of
# these and of every pass's own setup.
SETUP_SPAWNS = 20
FAILING = ("mismatch", "panic")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def build():
    """Builds the worker and returns the path of its executable."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        raise BenchError(f"{ROOT} holds no TensorTEE sources (crates/core/Cargo.toml)")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL).returncode != 0:
        raise BenchError("building the perfbench worker failed")
    return os.path.join(ROOT, target, "release", "perfbench")


def worker(exe, *args):
    """Runs the worker to completion; returns its JSON line and start time."""
    started = time.time()
    proc = subprocess.run([exe, *args], cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise BenchError(f"perfbench {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def setup_s(result, started):
    """Calibrated setup: process start to the first unit, where the process
    start is when this script launched it."""
    return (result["main_epoch"] - started + result["setup_in_s"]) * result["setup_factor"]


def run_pass(exe, workload, seed, goldens=GOLDENS, spans=None):
    args = ["pass", workload, "--seed", str(seed), "--goldens", goldens]
    if spans:
        args += ["--spans", spans]
    result, started = worker(exe, *args)
    result["setup_s"] = setup_s(result, started)
    return result


def setup_only(exe, workload, seed):
    result, started = worker(exe, "pass", workload, "--seed", str(seed),
                             "--goldens", GOLDENS, "--setup-only")
    return setup_s(result, started)


def percentile(values, q):
    """The q-quantile, refused (None) unless ten samples lie beyond it."""
    if len(values) * (1 - q) < 10 - 1e-9:
        return None
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def lower_quartile(values):
    """Contention from other tenants only ever adds time, so the lower
    quartile of the passes tracks the program more steadily than the
    median, which flips between the host's fast and slow phases."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def digests(result):
    return {u["id"]: u["digest"] for u in result["units"]}


def problems(passes, seed):
    """Why the passes' outputs are not correct (empty when they are)."""
    found = []
    for p in passes:
        bad = [u["id"] for u in p["units"] if u["status"] in FAILING]
        if bad:
            found.append(f"{p['workload']}: output differs from golden or panicked: {bad}")
        if seed == GOLDEN_SEED:
            unchecked = [u["id"] for u in p["units"] if u["status"] == "unchecked"]
            if unchecked:
                found.append(f"{p['workload']}: no golden for {unchecked}")
        if p["count_drift"]:
            found.append(f"{p['workload']}: exact counts drifted from golden: {p['counts']}")
    by_workload = {}
    for p in passes:
        first = by_workload.setdefault(p["workload"], p)
        if digests(p) != digests(first) or p["counts"] != first["counts"]:
            found.append(f"{p['workload']}: outputs or counts differ between passes")
    return found


def record_digests(passes, seed):
    """Writes the digests of a seed without goldens, for comparing commits."""
    os.makedirs(os.path.join(OUT, "digests"), exist_ok=True)
    for p in passes:
        path = os.path.join(OUT, "digests", f"{p['workload']}-seed{seed}.txt")
        with open(path, "w") as f:
            f.write(golden_lines(p, {}, seed))
        print(f"digests for seed {seed}: {os.path.relpath(path, ROOT)}", file=sys.stderr)


def golden_lines(result, other, seed):
    """Golden-file lines of `result`; entries equal in `other` (a pass at
    another seed) hold for any seed."""
    other_units = digests(other) if other else {}
    lines = []
    for u in result["units"]:
        scope = "any" if other_units.get(u["id"]) == u["digest"] else str(seed)
        lines.append(f"unit {u['id']} {u['digest']} {scope}")
    for name, value in result["counts"].items():
        scope = "any" if other and other["counts"].get(name) == value else str(seed)
        lines.append(f"count {name} {value} {scope}")
    return "\n".join(lines) + "\n"


def untraced(exe, workload, seed, seconds):
    """End-to-end metrics: cold passes until `seconds` have passed."""
    setups = [setup_only(exe, workload, seed) for _ in range(SETUP_SPAWNS)]
    passes = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        passes.append(run_pass(exe, workload, seed))
    setups += [p["setup_s"] for p in passes]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": lower_quartile([p["cal_s"] for p in passes]),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    print(f"{workload}: {len(passes)} cold passes; raw walls "
          f"{[round(p['wall_s'], 3) for p in passes]} s, calibrated "
          f"{[round(p['cal_s'], 3) for p in passes]} s", file=sys.stderr)
    return passes, metrics


def call_rows(prefix, result, per_iter_name, per_iter_scale):
    """Per-layer rows of a traced serve/fleet pass: exact counts, host time
    per simulated iteration per class, and call percentiles."""
    rows = {f"{prefix}.{k}": v for k, v in result["counts"].items()
            if prefix == "fleet" or k == "iterations"}
    for cls in dict.fromkeys(u["class"] for u in result["units"]):
        units = [u for u in result["units"] if u["class"] == cls]
        ms = sum(u["ms"] for u in units)
        rows[f"{prefix}.{per_iter_name}.{cls}"] = (
            ms * per_iter_scale / sum(u["iterations"] for u in units))
    calls = [u["ms"] for u in result["units"]]
    for name, q in (("call_ms_p50", 0.5), ("call_ms_p90", 0.9)):
        value = percentile(calls, q)
        if value is None:
            raise BenchError(f"{prefix}: {len(calls)} calls are too few for {name}")
        rows[f"{prefix}.{name}"] = value
    rows[f"{prefix}.sim_iters_per_s"] = result["counts"]["iterations"] / (sum(calls) / 1e3)
    return rows


def traced(exe, seed):
    """Per-layer metrics: an untraced and a traced cold pass of every
    workload, then the frozen-input layer rows, all with spans written to
    .bench_out/spans."""
    span_dir = os.path.join(OUT, "spans")
    os.makedirs(span_dir, exist_ok=True)
    passes, metrics = [], {}
    for w in WORKLOADS:
        plain = run_pass(exe, w, seed)
        spans = os.path.join(span_dir, f"{w}-seed{seed}.tsv")
        rec = run_pass(exe, w, seed, spans=spans)
        passes += [plain, rec]
        metrics[f"trace.overhead_frac.{w}"] = (rec["cal_s"] - plain["cal_s"]) / plain["cal_s"]
        if w == "registry_fast":
            metrics.update({f"core.artifact.{u['id']}_ms": u["ms"] for u in rec["units"]})
        elif w == "serve_trace":
            metrics.update(call_rows("serve", rec, "us_per_iter", 1e3))
        else:
            metrics.update(call_rows("fleet", rec, "ns_per_iter", 1e6))
    layers, _ = worker(exe, "layers", "--goldens", GOLDENS,
                       "--spans", os.path.join(span_dir, f"layers-seed{seed}.tsv"))
    metrics["host.probe_ms"] = statistics.median(p["probe_ms"] for p in passes)
    metrics.update(layers["rows"])
    metrics.update(layers["counts"])
    extra = ["layers: cpu.dram_reqs drifted from golden"] if layers["count_drift"] else []
    return passes, metrics, extra


def declared(trace):
    """(name → unit) of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(metrics, units, correct, attempted, failed):
    """The result object; refuses metrics that differ from the declared set."""
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    })


def record_goldens(exe):
    """Rewrites perfbench/goldens from passes at the golden seed and the next
    one (entries equal at both are marked as holding for any seed)."""
    empty = os.path.join(OUT, "empty-goldens")
    os.makedirs(empty, exist_ok=True)
    for name in WORKLOADS + ["layers"]:
        open(os.path.join(empty, f"{name}.txt"), "w").close()
    header = f"# Recorded by `python3 perfbench/run.py --record-goldens` at seed {GOLDEN_SEED}.\n"
    for w in WORKLOADS:
        at, other = (run_pass(exe, w, s, goldens=empty) for s in (GOLDEN_SEED, GOLDEN_SEED + 1))
        with open(os.path.join(GOLDENS, f"{w}.txt"), "w") as f:
            f.write(header + golden_lines(at, other, GOLDEN_SEED))
    layers, _ = worker(exe, "layers", "--goldens", empty)
    with open(os.path.join(GOLDENS, "layers.txt"), "w") as f:
        f.write(header + "".join(f"count {k} {v} any\n" for k, v in layers["counts"].items()))
    print(f"wrote goldens to {os.path.relpath(GOLDENS, ROOT)}", file=sys.stderr)


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=GOLDEN_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record-goldens", action="store_true")
    args = ap.parse_args(argv)
    if not args.record_goldens and args.workload is None:
        ap.error("--workload is required")
    try:
        exe = build()
        if args.record_goldens:
            record_goldens(exe)
            return 0
        if args.trace:
            passes, metrics, found = traced(exe, args.seed)
        else:
            passes, metrics = untraced(exe, args.workload, args.seed, args.seconds)
            found = []
        found += problems(passes, args.seed)
        if args.seed != GOLDEN_SEED:
            record_digests(passes[:1] if not args.trace else passes[1::2], args.seed)
        attempted = sum(p["attempted"] for p in passes)
        failed = sum(p["failed"] for p in passes)
        line = result_line(metrics, declared(args.trace), not found, attempted, failed)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    for problem in found:
        print(f"run.py: {problem}", file=sys.stderr)
    print(line)
    return 0 if not found else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
