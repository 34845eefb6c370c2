#!/usr/bin/env python3
"""tsncalc benchmark: one workload per run, closed loop, one process.

    python3 perfbench/run.py --workload analyze-event --seed 0 --seconds 50 --trace 0

Run from the root of a checkout; the program is imported from ./src.  With
--trace 0 the run measures the end-to-end metrics; with --trace 1 it
measures the per-layer metrics instead (see README.md).  Every op's output
is checked.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  Scratch files go to ./.perfbench/.
"""

from __future__ import annotations

import argparse
import collections
import concurrent.futures
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

DEFAULT_SEED = 0          # the seed the reference outputs were recorded with
SETUP_REPEATS = 3         # setup_s is the median of this many fresh-process setups
MIN_LATENCY_SAMPLES = 100  # so that at least 10 samples lie beyond op_p90_ms
HARD_DEADLINE_S = 120.0   # no new pass starts later than this after the start
BASELINE = BENCH_DIR / "baseline.json"

END_TO_END_UNITS = {
    "op_p50_ms": "ms", "op_p90_ms": "ms", "ops_per_s": "1/s", "ops_per_s_w2": "1/s",
    "setup_s": "s", "peak_rss_mb": "MB",
}
# Printed with the others but left out of the result, so they carry no
# bound: their spread across seeds exceeds the largest bound (README.md).
UNBOUNDED = ("ops_per_s_w2", "peak_rss_mb")

T_START = time.perf_counter()


def fail(msg: str, code: int = 2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def import_tsncalc() -> dict:
    """tsncalc's modules, imported from this checkout's src/ only."""
    if not (SRC / "tsncalc" / "__init__.py").is_file():
        fail(f"no tsncalc sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import tsncalc
    from tsncalc import cli, engine, minplus, netmodel, shapers, testgen
    if Path(tsncalc.__file__).resolve().parent != (SRC / "tsncalc").resolve():
        fail(f"imported tsncalc from {tsncalc.__file__}, not from {SRC}")
    return {"netmodel": netmodel, "testgen": testgen, "shapers": shapers,
            "minplus": minplus, "engine": engine, "cli": cli}


# ---------------------------------------------------------------------------
# Op execution
# ---------------------------------------------------------------------------

class Runner:
    """Runs and checks the ops of one workload; keeps the samples."""

    def __init__(self, workload, seed, mods, net_dir):
        self.workload = workload
        self.mods = mods
        self.net_dir = net_dir
        self.ops = wl.ops_for(workload, seed)
        self.ref = checks.load_reference(workload, seed)
        self.out_root = WORK / "out"
        self.flow_kinds = {}
        self.attempted = 0
        self.failed = 0
        self.refused = 0
        self.sweep_w1 = {}     # grid name -> CSV text of its first run

    def load_flow_kinds(self):
        for op in self.ops:
            name = op.network.name
            if name not in self.flow_kinds:
                doc = json.loads((self.net_dir / f"{name}.json").read_text())
                self.flow_kinds[name] = {f["id"]: f["kind"] for f in doc["flows"]}

    def _fail(self, op, msg):
        self.failed += 1
        if self.failed <= 5:
            print(f"perfbench: FAILED {op.name}: {msg}", file=sys.__stderr__)

    # -- analyze ------------------------------------------------------------

    def _out(self, i):
        return self.out_root / str(i)

    def _analyze(self, i, op, tr=None):
        if tr is not None:
            tr.op = op.name
        t0 = time.perf_counter()
        try:
            code = self.mods["cli"].main(op.argv(self.net_dir, self._out(i)))
        except Exception:  # a crash inside the program is a failed op
            return time.perf_counter() - t0, traceback.format_exc(limit=3)
        return time.perf_counter() - t0, code

    def _check_analyze(self, i, op, code):
        self.attempted += 1
        if isinstance(code, str):
            self._fail(op, code)
            return
        if code != 0:
            self.refused += 1
        ref = self.ref.get(op.name) if self.ref is not None else None
        if self.ref is not None and ref is None:
            self._fail(op, "no reference entry")
            return
        try:
            checks.check_analyze(code, self._out(i), op.arch,
                                 self.flow_kinds[op.network.name], ref)
        except (checks.CheckError, OSError, ValueError) as exc:
            self._fail(op, str(exc))

    def _clean(self):
        shutil.rmtree(self.out_root, ignore_errors=True)
        self.out_root.mkdir(parents=True)

    def analyze_pass(self, tr=None):
        """One closed-loop pass; returns per-op latencies."""
        self._clean()
        results = [self._analyze(i, op, tr) for i, op in enumerate(self.ops)]
        for i, (op, (_, code)) in enumerate(zip(self.ops, results)):
            self._check_analyze(i, op, code)
        return [dt for dt, _ in results]

    def analyze_pass_w2(self):
        """One pass over the two-client ops, issued by two client threads;
        returns its wall time."""
        self._clean()
        todo = wl.two_client_ops(self.ops)
        t0 = time.perf_counter()
        with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(lambda item: self._analyze(*item), todo))
        wall = time.perf_counter() - t0
        for (i, op), (_, code) in zip(todo, results):
            self._check_analyze(i, op, code)
        return wall

    # -- sweep ----------------------------------------------------------------

    def _grid(self, grid, workers, tr=None):
        cli = self.mods["cli"]
        if tr is not None:
            tr.op = grid.name
        t0 = time.perf_counter()
        try:
            rows, failures = cli.run_sweep(
                grid.template, list(grid.loads), wl.SWEEP_SEEDS, grid.arch, grid.arch2,
                tt_load=grid.tt_load, metrics=grid.metrics, workers=workers)
            text = cli.sweep_csv(rows, failures, grid.pair_label, list(grid.loads), grid.metrics)
        except Exception:
            return time.perf_counter() - t0, None, traceback.format_exc(limit=3)
        return time.perf_counter() - t0, text, None

    def sweep_pass(self, workers, tr=None):
        """Every grid once at the given worker count; returns grid latencies."""
        lat = []
        for grid in self.ops:
            if workers > 1 and tr is not None:
                tr.op = grid.name
                with tr.span("cli.run_sweep"):   # the pool's threads are not traced
                    dt, text, err = self._grid(grid, workers)
            else:
                dt, text, err = self._grid(grid, workers, tr)
            lat.append(dt)
            self.attempted += 1
            if err is not None:
                self._fail(grid, err)
                continue
            first = self.sweep_w1.setdefault(grid.name, text)
            try:
                ref = self.ref.get(grid.name) if self.ref is not None else None
                if self.ref is not None and ref is None:
                    raise checks.CheckError("no reference entry")
                checks.check_sweep(text, first, grid, ref)
            except (checks.CheckError, ValueError) as exc:
                self._fail(grid, str(exc))
        return lat

    # -- recording --------------------------------------------------------------

    def record_reference(self, seed):
        """Outputs of one pass, as the reference for this seed."""
        ops = {}
        if self.workload == "sweep-pairs":
            for grid in self.ops:
                _, text, err = self._grid(grid, 1)
                if err:
                    fail(f"{grid.name}: {err}")
                ops[grid.name] = {"sweep.csv": text}
        else:
            self._clean()
            for i, op in enumerate(self.ops):
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    _, code = self._analyze(i, op)
                if isinstance(code, str):
                    fail(f"{op.name}: {code}")
                entry = {"exit": code}
                if code == 0:
                    for name in ("flows.csv", "queues.csv"):
                        entry[name] = (self._out(i) / name).read_text()
                else:
                    entry["error"] = err.getvalue().strip()
                ops[op.name] = entry
        return {"workload": self.workload, "seed": seed, "ops": ops}


@contextlib.contextmanager
def quiet():
    """The CLI's own progress lines go nowhere; this script's stdout must end
    with the result line."""
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null), \
            contextlib.redirect_stderr(null):
        yield


def run_phase(run_pass, budget_s, min_passes=1):
    """Whole passes filling about budget_s: the first pass sets the count."""
    t0 = time.perf_counter()
    samples = [run_pass()]
    first = time.perf_counter() - t0
    more = max(min_passes - 1, round((budget_s - first) / max(first, 1e-9)))
    for _ in range(more):
        if time.perf_counter() - T_START > HARD_DEADLINE_S:
            break
        samples.append(run_pass())
    return samples


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def setup_only(workload, seed, net_dir):
    """What a fresh process does before its first op: import, make inputs."""
    mods = import_tsncalc()
    if workload != "sweep-pairs":
        shutil.rmtree(net_dir, ignore_errors=True)
        wl.make_networks(workload, seed, net_dir, mods["testgen"], mods["netmodel"])


def timed_setups(workload, seed, net_dir):
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only", str(net_dir)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            fail(f"set-up failed: {proc.stderr.strip()[-2000:]}")
    return times


# ---------------------------------------------------------------------------
# Statistics and output
# ---------------------------------------------------------------------------

def p90(samples):
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def print_baseline(workload, names):
    if not BASELINE.exists():
        return
    doc = json.loads(BASELINE.read_text())
    rows = doc["workloads"].get(workload, {})
    names = [name for name in names if name in rows]
    if names:
        print(f"baseline at commit {doc['commit']}, one run per seed:")
    for name in names:
        b = rows[name]
        print(f"  {name:36s} median {b['median']:.6g} {b['unit']}  "
              f"[q1 {b['q1']:.6g}, q3 {b['q3']:.6g}]  n={b['n']} (seeds {b['seeds']})")


def emit(correct, attempted, failed, metrics, units):
    print(json.dumps({
        "correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------

def end_to_end(args):
    net_dir = WORK / "networks"
    setups = timed_setups(args.workload, args.seed, net_dir)
    mods = import_tsncalc()
    run = Runner(args.workload, args.seed, mods, net_dir)
    sweep = args.workload == "sweep-pairs"
    with quiet():
        if sweep:
            w1 = run_phase(lambda: run.sweep_pass(1), args.seconds / 2)
            w2 = run_phase(lambda: run.sweep_pass(2), args.seconds / 2)
            w1_work = w2_work = sum(grid.cells for grid in run.ops)
            w1_time, w2_time = sum(map(sum, w1)), sum(map(sum, w2))
        else:
            run.load_flow_kinds()
            min_passes = math.ceil(MIN_LATENCY_SAMPLES / len(run.ops))
            w1 = run_phase(run.analyze_pass, args.seconds * 2 / 3, min_passes)
            w2 = run_phase(run.analyze_pass_w2, args.seconds / 3)
            w1_work, w2_work = len(run.ops), len(wl.two_client_ops(run.ops))
            w1_time, w2_time = sum(map(sum, w1)), sum(w2)
    lat = [x for p in w1 for x in p]
    metrics = {
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": p90(lat) * 1e3,
        "ops_per_s": w1_work * len(w1) / w1_time,
        "ops_per_s_w2": w2_work * len(w2) / w2_time,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    unit_op, unit_work = ("grids", "cells") if sweep else ("ops", "ops")
    beyond = sum(x > metrics["op_p90_ms"] / 1e3 for x in lat)
    notes = {
        "op_p50_ms": f"n={len(lat)} {unit_op}",
        "op_p90_ms": f"n={len(lat)} {unit_op}, {beyond} beyond",
        "ops_per_s": f"n={w1_work * len(w1)} {unit_work}, one client, {len(w1)} passes",
        "ops_per_s_w2": f"n={w2_work * len(w2)} {unit_work}, "
                        f"{'workers=2' if sweep else 'two client threads'}, {len(w2)} passes",
        "setup_s": f"n={len(setups)} fresh-process set-ups",
        "peak_rss_mb": "n=1 process tree",
    }
    print(f"perfbench {args.workload} seed={args.seed} trace=0: {len(run.ops)} "
          f"{unit_op} per pass, closed loop")
    for name, value in metrics.items():
        print(f"  {name:14s} {value:12.4f} {END_TO_END_UNITS[name]:4s} ({notes[name]})")
    share = run.failed / run.attempted
    print(f"  {'failed_ops':14s} {share:12.4f} {'share':4s} ({run.failed} of {run.attempted} "
          f"{unit_op}; {run.refused} ended with a documented error exit)")
    print_baseline(args.workload, list(metrics))
    bounded = {k: v for k, v in metrics.items() if k not in UNBOUNDED}
    emit(run.failed == 0, run.attempted, run.failed, bounded, END_TO_END_UNITS)


def traced(args):
    mods = import_tsncalc()
    sweep = args.workload == "sweep-pairs"
    tr = tracing.Tracer()

    def one_round(tag, trace):
        net_dir = WORK / f"networks-{tag}"
        run = Runner(args.workload, args.seed, mods, net_dir)
        tr.enabled = trace
        tr.op = tracing.SETUP_OP
        if not sweep:
            shutil.rmtree(net_dir, ignore_errors=True)
            wl.make_networks(args.workload, args.seed, net_dir, mods["testgen"], mods["netmodel"])
            run.load_flow_kinds()
        t_ops = time.perf_counter()
        if sweep:
            run.sweep_pass(1, tr)
        else:
            run.analyze_pass(tr)
        t_w1 = time.perf_counter() - t_ops
        tr.enabled = False
        if sweep and trace:
            run.sweep_pass(2, tr)
        return run, t_w1

    with quiet():
        base, base_w1 = one_round("untraced", False)
        tr.install(mods)
        rounds = []
        try:
            for tag in ("a", "b"):
                tr.reset()
                run, t_w1 = one_round(tag, True)
                rounds.append((run, tracing.layer_metrics(tr.snapshot()), t_w1, tr.spans))
        finally:
            tr.uninstall()

    (_, ma, wa, spans_a), (_, mb, wb, _) = rounds
    spans_path = WORK / "trace" / f"{args.workload}-seed{args.seed}.csv"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracing.write_spans(spans_a, spans_path)
    mismatched = [k for k in ma if tracing.is_count(k) and ma[k] != mb[k]]
    metrics = {k: (ma[k] + mb[k]) / 2 for k in ma}
    attempted = base.attempted + sum(r[0].attempted for r in rounds)
    failed = base.failed + sum(r[0].failed for r in rounds)
    units = {k: "ms" if k.endswith("_ms") else "count" for k in metrics}
    units.update({k: "ratio" for k in ("shapers.gate_builds_per_port",
                                       "minplus.breakpoints_per_call",
                                       "engine.deviations_per_queue")})
    print(f"perfbench {args.workload} seed={args.seed} trace=1: per-run totals of one "
          f"traced pass (mean of 2 traced passes; {len(spans_a)} spans of the first "
          f"in {spans_path.relative_to(ROOT)})")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.4f} {units[name]}")
    print(f"  tracing overhead: ops took {wa:.3f} s and {wb:.3f} s traced, "
          f"{base_w1:.3f} s untraced ({(wa + wb) / (2 * base_w1) - 1:+.1%})")
    if mismatched:
        print(f"  count metrics differ between the traced passes: {mismatched}")
    else:
        print(f"  all {sum(map(tracing.is_count, ma))} count metrics repeat exactly")
    print_baseline(args.workload, list(metrics))
    emit(failed == 0 and not mismatched, attempted, failed, metrics, units)


def record(args):
    """Write reference/<workload>.json from this checkout's outputs."""
    mods = import_tsncalc()
    net_dir = WORK / "networks"
    setup_only(args.workload, args.seed, net_dir)
    run = Runner(args.workload, args.seed, mods, net_dir)
    with quiet():
        doc = run.record_reference(args.seed)
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    path = checks.reference_path(args.workload)
    path.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")
    exits = collections.Counter(entry.get("exit", 0) for entry in doc["ops"].values())
    print(f"wrote {path}: {len(doc['ops'])} ops, exit codes {dict(exits)}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", dest="setup_only", default=None, help=argparse.SUPPRESS)
    p.add_argument("--record-reference", dest="record_reference", action="store_true",
                   help="write reference/<workload>.json for --seed instead of measuring")
    args = p.parse_args(argv)
    if args.setup_only:
        setup_only(args.workload, args.seed, Path(args.setup_only))
    elif args.record_reference:
        record(args)
    elif args.trace:
        traced(args)
    else:
        end_to_end(args)


if __name__ == "__main__":
    main()
