"""The benchmark's three workloads: their inputs, made from the workload seed,
and the operations the timed loop issues.

Only the generated network files and the sweep load points depend on the
seed; the program never sees the seed itself.  See README.md for why each
workload looks the way it does.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("analyze-event", "analyze-gated", "sweep-pairs")
# The workloads BENCHMARK.json lists.  analyze-gated stays runnable but is
# left out: its spread across seeds exceeds the largest bound (README.md).
BENCHMARKED = ("analyze-event", "sweep-pairs")

# analyze-event: token-bucket and rate-latency curves only (no gates).
EVENT_TEMPLATES = ("MM", "MT")
EVENT_LOADS = (0.3, 0.7)
EVENT_PRIORITIES = ((5,), (6, 5, 4))
EVENT_DRAWS = 4                # networks per (template, load, priorities)
EVENT_ARCHS = (("SP", None), ("ATS", None), ("CBS", None))
# The cyclic template is analysed with --fixed-point at the low load only:
# one MR draw at load 0.7 takes up to 9 s, more than half of a pass.
CYCLIC_TEMPLATE = "MR"
CYCLIC_LOAD = 0.3
CYCLIC_DRAWS = 2

# analyze-gated: scheduled traffic under every gate-aware architecture.
GATED_TEMPLATES = ("MM", "MT", "SRM")
GATED_LOADS = (0.5, 0.6, 0.7)
GATED_TT_FRACTIONS = (0.3, 0.5)   # share of the load carried by scheduled flows
# Two flow periods keep the gate hyperperiod at 2 ms, so about a hundred
# analyses fit in one run; the default four periods make single analyses
# of tens of seconds.
GATED_PERIODS = (1000.0, 2000.0)
GATED_ARCHS = (
    ("TAS+SP", None),
    ("TAS+CBS", "frozen"), ("TAS+CBS", "nonfrozen"),
    ("TAS+ATS+SP", None),
    ("TAS+ATS+CBS", "frozen"), ("TAS+ATS+CBS", "nonfrozen"),
)

# Flow count per (template, load): the generator's median count for that
# spec over 12 seeds.  Left to the generator, the count varies threefold
# between draws (57 to 189 flows on MM at 0.7), and so does the cost of an
# analysis.  Pinned, draws differ in routes, sizes and periods.
EVENT_FLOWS = {("MM", 0.3): 36, ("MM", 0.7): 120, ("MT", 0.3): 25, ("MT", 0.7): 70,
               ("MR", 0.3): 32}
GATED_FLOWS = {("MM", 0.5): 49, ("MM", 0.6): 52, ("MM", 0.7): 72,
               ("MT", 0.5): 28, ("MT", 0.6): 33, ("MT", 0.7): 40,
               ("SRM", 0.5): 41, ("SRM", 0.6): 56, ("SRM", 0.7): 62}

GEN_RETRIES = 10
GEN_RETRY_STEP = 100

W2_STRIDE = 2        # the two-client pass issues every second op

# sweep-pairs: grids mirroring acceptance criteria 6a and 6b.  Each grid
# takes about a second, so that the grid times form one cluster and their
# median does not sit on the edge between two: a 6a grid pairs a low and a
# high load, a 6b grid (cells several times dearer) has one load.
SWEEP_PAIRS = (
    # label, template, arch, arch2, tt_load, metrics, load strata of each grid
    ("6a", "MM", "ATS", "SP", 0.0, ("delay",),
     ((0.2, 0.9), (0.3, 0.8), (0.4, 0.7), (0.5, 0.6))),
    # Criterion 6b also runs loads 0.6 and 0.7 (0.8 and 0.9 in total).
    # There one grid's cost swings between seeds, from instant instability
    # refusals to seconds of horizon doublings (1.9 s against 3.6 s at 0.6),
    # and that one grid would set the workload's spread.
    ("6b", "MM", "TAS+ATS+SP", "TAS+SP", 0.2, ("delay", "backlog"),
     ((0.1,), (0.15,), (0.2,), (0.25,), (0.3,), (0.35,), (0.4,), (0.45,), (0.5,))),
)
SWEEP_SEEDS = 2      # run_sweep numbers its network seeds 0..SWEEP_SEEDS-1
LOAD_JITTER = 0.02   # each load point moves by up to +/- half of this


@dataclass(frozen=True)
class NetworkSpec:
    name: str
    template: str
    load: float
    flows: int
    priorities: tuple = (5,)
    tt_fraction: float = 0.0
    periods: tuple | None = None
    seed: int = 0
    fixed_point: bool = False


@dataclass(frozen=True)
class AnalyzeOp:
    """One `tsncalc analyze` of one network under one architecture."""

    network: NetworkSpec
    arch: str
    credit_mode: str | None

    @property
    def name(self) -> str:
        mode = f"-{self.credit_mode}" if self.credit_mode else ""
        return f"{self.network.name}/{self.arch}{mode}"

    def argv(self, net_dir: Path, out_dir: Path) -> list:
        argv = ["analyze", "--network", str(net_dir / f"{self.network.name}.json"),
                "--arch", self.arch, "--out-dir", str(out_dir)]
        if self.credit_mode:
            argv += ["--credit-mode", self.credit_mode]
        if self.network.fixed_point:
            argv.append("--fixed-point")
        return argv


@dataclass(frozen=True)
class SweepGrid:
    """One `run_sweep` grid: its load points times SWEEP_SEEDS network seeds."""

    label: str
    template: str
    arch: str
    arch2: str
    tt_load: float
    metrics: tuple
    loads: tuple

    @property
    def name(self) -> str:
        return f"{self.label}@" + "+".join(f"{load:.3f}" for load in self.loads)

    @property
    def pair_label(self) -> str:
        return f"{self.arch}-vs-{self.arch2}"

    @property
    def cells(self) -> int:
        return len(self.loads) * SWEEP_SEEDS


def network_specs(workload: str, seed: int) -> list:
    """Networks the analyze workloads load; each draw has its own generator
    seed, derived from the workload seed and the network's position."""
    specs = []
    if workload == "analyze-event":
        for template, load, prios in itertools.product(
                EVENT_TEMPLATES, EVENT_LOADS, EVENT_PRIORITIES):
            for draw in range(EVENT_DRAWS):
                specs.append(dict(template=template, load=load, priorities=prios,
                                  flows=EVENT_FLOWS[(template, load)],
                                  tag=f"p{len(prios)}-d{draw}"))
        for prios, draw in itertools.product(EVENT_PRIORITIES, range(CYCLIC_DRAWS)):
            specs.append(dict(template=CYCLIC_TEMPLATE, load=CYCLIC_LOAD, priorities=prios,
                              flows=EVENT_FLOWS[(CYCLIC_TEMPLATE, CYCLIC_LOAD)],
                              tag=f"p{len(prios)}-d{draw}", fixed_point=True))
    elif workload == "analyze-gated":
        for template, load, ttf in itertools.product(
                GATED_TEMPLATES, GATED_LOADS, GATED_TT_FRACTIONS):
            specs.append(dict(template=template, load=load, tt_fraction=ttf,
                              flows=GATED_FLOWS[(template, load)],
                              periods=GATED_PERIODS, tag=f"tt{ttf}"))
    out = []
    for i, s in enumerate(specs):
        tag = s.pop("tag")
        out.append(NetworkSpec(name=f"{s['template']}-{s['load']}-{tag}",
                               seed=seed * 1000 + i, **s))
    return out


def analyze_ops(workload: str, seed: int) -> list:
    """The architectures of one network are adjacent, as a user comparing
    architectures would run them."""
    archs = EVENT_ARCHS if workload == "analyze-event" else GATED_ARCHS
    return [AnalyzeOp(net, arch, mode)
            for net in network_specs(workload, seed) for arch, mode in archs]


def two_client_ops(ops: list) -> list:
    """(index, op) of the ops the two-client pass issues: every
    W2_STRIDE-th architecture of every network, starting one architecture
    later on each network, so that all networks and architectures take
    part.  A whole pass at two clients would make the run half as long again."""
    names = list(dict.fromkeys(op.network.name for op in ops))
    position = {}
    out = []
    for i, op in enumerate(ops):
        k = position[op.network.name] = position.get(op.network.name, -1) + 1
        if (k + names.index(op.network.name)) % W2_STRIDE == 0:
            out.append((i, op))
    return out


def sweep_load_points(seed: int) -> dict:
    """Seed -> load points per grid: each stratum value moves by a uniform
    offset in [-LOAD_JITTER/2, +LOAD_JITTER/2), drawn in the order of
    SWEEP_PAIRS from numpy.random.default_rng(seed), and is rounded to 3
    decimals."""
    rng = np.random.default_rng(seed)
    points = {}
    for label, *_rest, grids in SWEEP_PAIRS:
        for strata in grids:
            jitter = rng.uniform(-LOAD_JITTER / 2, LOAD_JITTER / 2, size=len(strata))
            points[(label, strata)] = tuple(round(b + j, 3) for b, j in zip(strata, jitter))
    return points


def sweep_grids(seed: int) -> list:
    points = sweep_load_points(seed)
    return [SweepGrid(label, template, arch, arch2, tt_load, metrics, points[(label, strata)])
            for label, template, arch, arch2, tt_load, metrics, grids in SWEEP_PAIRS
            for strata in grids]


def ops_for(workload: str, seed: int) -> list:
    if workload == "sweep-pairs":
        return sweep_grids(seed)
    return analyze_ops(workload, seed)


def make_networks(workload: str, seed: int, net_dir: Path, tg, nm) -> None:
    """Generate the workload's networks and save them as network files.
    ``tg`` and ``nm`` are tsncalc's testgen and netmodel modules.  When the
    generator reports that it cannot meet a spec with one generator seed,
    the next draw uses the seed GEN_RETRY_STEP higher."""
    from tsncalc.errors import GenerationError, InfeasibleScheduleError

    net_dir.mkdir(parents=True, exist_ok=True)
    for spec in network_specs(workload, seed):
        for attempt in range(GEN_RETRIES):
            gen = tg.GenSpec(target_load=spec.load, flow_count=spec.flows,
                             priorities=spec.priorities, tt_load_fraction=spec.tt_fraction,
                             seed=spec.seed + attempt * GEN_RETRY_STEP,
                             **({"periods": spec.periods} if spec.periods else {}))
            try:
                net = tg.generate(spec.template, gen)
                break
            except (GenerationError, InfeasibleScheduleError):
                if attempt == GEN_RETRIES - 1:
                    raise
        nm.save(net, net_dir / f"{spec.name}.json")
