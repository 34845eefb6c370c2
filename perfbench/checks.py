"""Output checks for every op.

Any seed: analyze outputs must be well formed and internally consistent
(finite bounds, lb <= wcd, jitter = wcd - lb for event flows and 0 for
scheduled ones, backlog >= 0, one row per bounded flow); sweep CSVs must
be consistent with themselves and identical at one and two workers.  The default seed also compares bound values with
the reference recorded at the seed commit (reference/<workload>.json).

Values are compared within 1e-6 us / 1e-6 bit, widened to the 9 significant
digits the CSV files carry.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

FLOWS_HEADER = "id,priority,architecture,wcd_us,lb_us,jitter_us"
QUEUES_HEADER = "node,port,queue,backlog_bits"
SWEEP_HEADER = "load,seed,metric,architecture_pair,mean_ratio"
EXIT_OK = 0
EXIT_INSTABILITY = 3
DOCUMENTED_EXITS = (1, 2, 3, 4)   # tsncalc's documented error exit codes
BOUNDED_KINDS = ("TT", "SP", "AVB")
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


class CheckError(Exception):
    pass


def close(a: float, b: float) -> bool:
    return abs(a - b) <= max(1e-6, 2e-8 * max(abs(a), abs(b)))


def _number(text: str, what: str) -> float:
    try:
        x = float(text)
    except ValueError:
        raise CheckError(f"{what}: not a number: {text!r}") from None
    if not math.isfinite(x):
        raise CheckError(f"{what}: not finite: {text!r}")
    return x


def _rows(text: str, header: str, what: str) -> list:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise CheckError(f"{what}: bad header {lines[:1]}")
    rows = [line.split(",") for line in lines[1:]]
    width = header.count(",") + 1
    for row in rows:
        if len(row) != width:
            raise CheckError(f"{what}: bad row {row}")
    return rows


# ---------------------------------------------------------------------------
# analyze ops
# ---------------------------------------------------------------------------

def parse_analyze(flows_text: str, queues_text: str, arch: str, flow_kinds: dict) -> dict:
    """Bound values of one analysis, after the any-seed invariants."""
    flows = {}
    for fid, prio, row_arch, wcd, lb, jitter in _rows(flows_text, FLOWS_HEADER, "flows.csv"):
        what = f"flows.csv {fid}"
        if row_arch != arch:
            raise CheckError(f"{what}: architecture {row_arch}, expected {arch}")
        w, l, j = (_number(x, what) for x in (wcd, lb, jitter))
        if l > w and not close(l, w):
            raise CheckError(f"{what}: lb {l} > wcd {w}")
        # scheduled flows leave at fixed offsets: their jitter is zero
        want_j = 0.0 if flow_kinds.get(fid) == "TT" else w - l
        if not close(j, want_j):
            raise CheckError(f"{what}: jitter {j}, expected {want_j}")
        flows[fid] = (int(prio), w, l, j)
    expected = {fid for fid, kind in flow_kinds.items() if kind in BOUNDED_KINDS}
    if set(flows) != expected:
        raise CheckError(f"flows.csv covers {len(flows)} flows, expected {len(expected)}")
    queues = {}
    for node, port, queue, backlog in _rows(queues_text, QUEUES_HEADER, "queues.csv"):
        b = _number(backlog, f"queues.csv {port}/{queue}")
        if b < 0.0:
            raise CheckError(f"queues.csv {port}/{queue}: negative backlog {b}")
        queues[(node, port, queue)] = b
    return {"flows": flows, "queues": queues}


def check_analyze(code: int, out_dir: Path, arch: str, flow_kinds: dict, ref: dict | None):
    """Raise CheckError unless the op's outcome is correct.

    Nonzero documented exit codes are outcomes, not failures.  Against the
    reference: a recorded success must stay a success with the same bounds;
    a recorded instability (exit 3) must stay one.  Any other recorded
    refusal (at the seed commit, only an exhausted curve horizon) may turn
    into any documented outcome, since later work removes the horizon.
    """
    if code != EXIT_OK:
        if code not in DOCUMENTED_EXITS:
            raise CheckError(f"undocumented exit code {code}")
        if ref is not None and ref["exit"] in (EXIT_OK, EXIT_INSTABILITY) and code != ref["exit"]:
            raise CheckError(f"exit {code}, reference exit {ref['exit']}")
        return
    got = parse_analyze((out_dir / "flows.csv").read_text(),
                        (out_dir / "queues.csv").read_text(), arch, flow_kinds)
    if ref is None or ref["exit"] != EXIT_OK:
        if ref is not None and ref["exit"] == EXIT_INSTABILITY:
            raise CheckError("bounds for an op the reference found unstable")
        return
    want = parse_analyze(ref["flows.csv"], ref["queues.csv"], arch, flow_kinds)
    for part in ("flows", "queues"):
        if set(got[part]) != set(want[part]):
            raise CheckError(f"{part}: rows differ from the reference")
        for key, values in got[part].items():
            ref_values = want[part][key]
            pairs = zip(values, ref_values) if part == "flows" else [(values, ref_values)]
            if not all(close(a, b) for a, b in pairs):
                raise CheckError(f"{part} {key}: {values} vs reference {ref_values}")


# ---------------------------------------------------------------------------
# sweep grids
# ---------------------------------------------------------------------------

def parse_sweep(text: str, grid) -> dict:
    """Cell values and failures of one grid's CSV, keyed (load, seed), after
    the any-seed invariants: every cell present once, and each `all` row
    equal to the mean of its load's cells."""
    cells, failed, aggregates = {}, {}, {}
    for load_text, seed, metric, pair, value in _rows(text, SWEEP_HEADER, "sweep.csv"):
        if pair != grid.pair_label:
            raise CheckError(f"sweep.csv: pair {pair}, expected {grid.pair_label}")
        load = next((x for x in grid.loads if close(float(load_text), x)), None)
        if load is None:
            raise CheckError(f"sweep.csv: load {load_text} is not in {grid.loads}")
        if metric == "failed":
            failed[(load, int(seed))] = value.split(":")[0]
        elif metric not in grid.metrics:
            raise CheckError(f"sweep.csv: unexpected metric {metric}")
        elif seed == "all":
            aggregates[(load, metric)] = float(value)
        else:
            cells[(load, int(seed), metric)] = float(value)
    for load in grid.loads:
        for seed in range(grid.cells // len(grid.loads)):
            have = {m for (l, s, m) in cells if (l, s) == (load, seed)}
            if (load, seed) in failed and have:
                raise CheckError(f"sweep.csv: cell {load}/{seed} both failed and analysed")
            if (load, seed) not in failed and have != set(grid.metrics):
                raise CheckError(f"sweep.csv: cell {load}/{seed} missing metrics")
        for metric in grid.metrics:
            vals = [v for (l, _, m), v in cells.items() if (l, m) == (load, metric)]
            mean = aggregates.get((load, metric))
            if vals and not (mean is not None and close(mean, sum(vals) / len(vals))):
                raise CheckError(f"sweep.csv: `all` row of {load}/{metric} is not the cell mean")
    return {"cells": cells, "failed": failed}


def check_sweep(text: str, first_text: str, grid, ref: dict | None) -> None:
    """``first_text`` is the grid's CSV from its first run, at workers=1."""
    if text != first_text:
        raise CheckError("sweep CSV differs from the grid's first run at workers=1")
    got = parse_sweep(text, grid)
    if ref is None:
        return
    want = parse_sweep(ref["sweep.csv"], grid)
    for cell, cls in want["failed"].items():
        # an exhausted horizon may later succeed; any other failure stays
        if cls != "HorizonExceededError" and got["failed"].get(cell) != cls:
            raise CheckError(f"cell {cell}: reference failed with {cls}")
    for (load, seed, metric), value in want["cells"].items():
        if (load, seed) in got["failed"]:
            raise CheckError(f"cell {load}/{seed} failed, reference succeeded")
        if not close(got["cells"][(load, seed, metric)], value):
            raise CheckError(f"cell {load}/{seed} {metric}: "
                             f"{got['cells'][(load, seed, metric)]} vs reference {value}")


# ---------------------------------------------------------------------------
# reference files
# ---------------------------------------------------------------------------

def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str, seed: int) -> dict | None:
    path = reference_path(workload)
    if not path.exists():
        return None
    doc = json.loads(path.read_text())
    return doc["ops"] if doc["seed"] == seed else None
