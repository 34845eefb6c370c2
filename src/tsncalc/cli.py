"""Command-line front end: validate/analyze networks, generate fixtures,
compare architectures and run load sweeps, whose (load, seed) cells run in
worker processes when ``--workers`` is above one.

Twelve flags default to an environment variable, ``TSNCALC_`` and the flag
in capitals with dashes as underscores: --network, --arch, --arch2,
--credit-mode, --out-dir, --horizon-us (``TSNCALC_HORIZON_US``), --template,
--load, --seed, --seeds, --workers and --out.  A number there that does not
parse is a usage error of the subcommand that takes the flag, and only of
it; the other flags read no variable.  ``main`` reuses its parser while
these twelve variables are unchanged, and builds a new one when one of
them changes.

Sweep workers run the cells of one ``run_sweep`` and exit once its process
is gone.

Every subcommand resolves --credit-mode with ``shapers.credit_modes``: an
architecture that combines gates and credit shaping takes it, "frozen" by
default, and any other takes none.  ``compare`` and ``sweep`` refuse a mode
that neither architecture takes as ``analyze`` refuses it for the first,
before any analysis runs.

Exit codes: 1 parse or generation error, any other analysis failure
(horizon of gated curves exhausted, fixed point not converged, missing
upstream dependency), and a sweep cell failed by an exception other than
tsncalc's own, once the CSV is written; 2 validation or configuration
error, such as a horizon that is not positive and finite, or a sweep with
fewer than one seed or worker or a negative --tt-load, and a usage error,
such as a missing --network, --arch or --arch2 that no variable supplies
or a malformed comma list; 3 instability/starvation; 4 dependency cycle.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import os
import sys
import threading
import time
from pathlib import Path

from . import engine
from . import netmodel as nm
from . import shapers as sh
from . import testgen as tg
from .errors import (
    ConfigurationError,
    CycleError,
    GenerationError,
    InfeasibleScheduleError,
    InstabilityError,
    ParseError,
    StarvationError,
    TsnCalcError,
)

EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_INSTABILITY = 3
EXIT_CYCLE = 4

WORKER_WATCH_S = 0.2  # how often a sweep worker checks that its sweep lives


#: The flags whose defaults ``build_parser`` reads from the environment.
ENV_FLAGS = ("network", "arch", "arch2", "credit_mode", "out_dir", "horizon_us",
             "template", "load", "seed", "seeds", "workers", "out")


def _env(name, default=None):
    return os.environ.get(f"TSNCALC_{name.upper()}", default)


def _err(msg):
    print(f"error: {msg}", file=sys.stderr)


def _exit_code(exc) -> int:
    if isinstance(exc, (ParseError, GenerationError)):
        return EXIT_PARSE
    if isinstance(exc, (engine.ValidationError, ConfigurationError, InfeasibleScheduleError)):
        return EXIT_VALIDATION
    if isinstance(exc, (InstabilityError, StarvationError)):
        return EXIT_INSTABILITY
    if isinstance(exc, CycleError):
        return EXIT_CYCLE
    return EXIT_PARSE


def _comma_list(item):
    """An argparse type: a comma list whose elements ``item`` converts."""
    def parse(text):
        try:
            return tuple(item(x) for x in text.split(","))
        except (ValueError, ConfigurationError) as exc:
            raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None
    return parse


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tsncalc", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--network", default=_env("network"), required=_env("network") is None,
                        help="network description JSON")
        sp.add_argument("--arch", default=_env("arch"), choices=sh.ARCHITECTURES,
                        required=_env("arch") is None)
        sp.add_argument("--credit-mode", default=_env("credit_mode"),
                        choices=sh.CREDIT_MODES, dest="credit_mode")
        sp.add_argument("--out-dir", default=_env("out_dir", "out"), dest="out_dir")
        sp.add_argument("--horizon-us", type=float, default=_env("horizon_us"), dest="horizon_us")
        sp.add_argument("--fixed-point", action="store_true", dest="fixed_point",
                        help="iterate cyclic dependencies instead of failing")

    sp = sub.add_parser("validate", help="check a network description")
    sp.add_argument("--network", default=_env("network"), required=_env("network") is None)

    sp = sub.add_parser("analyze", help="bounds for one architecture")
    add_common(sp)

    sp = sub.add_parser("compare", help="difference ratios of two architectures")
    add_common(sp)
    sp.add_argument("--arch2", default=_env("arch2"), choices=sh.ARCHITECTURES,
                    required=_env("arch2") is None)

    sp = sub.add_parser("generate", help="emit a random network fixture")
    sp.add_argument("--template", default=_env("template", "MM"), choices=tg.TOPOLOGY_KINDS)
    sp.add_argument("--load", type=float, default=_env("load", "0.3"))
    sp.add_argument("--flows", type=int, default=None)
    sp.add_argument("--tt-fraction", type=float, default=0.0, dest="tt_fraction",
                    help="share of the target load carried by scheduled flows")
    sp.add_argument("--priorities", type=_comma_list(int), default="5", help="comma list of priority values")
    sp.add_argument("--kind", default="SP", choices=nm.EVENT_KINDS)
    sp.add_argument("--sporadic-fraction", type=float, default=0.0, dest="sporadic_fraction")
    sp.add_argument("--be-interferer", action="store_true", dest="be_interferer")
    sp.add_argument("--seed", type=int, default=_env("seed", "0"))
    sp.add_argument("--flow-table", default=None, dest="flow_table",
                    help="external flow table CSV routed onto the template")
    sp.add_argument("--out", default=_env("out", "network.json"))

    sp = sub.add_parser("sweep", help="load sweep comparing two architectures")
    sp.add_argument("--template", default=_env("template", "MM"), choices=tg.TOPOLOGY_KINDS)
    sp.add_argument("--arch", default=_env("arch"), choices=sh.ARCHITECTURES, required=_env("arch") is None)
    sp.add_argument("--arch2", default=_env("arch2"), choices=sh.ARCHITECTURES, required=_env("arch2") is None)
    sp.add_argument("--credit-mode", default=_env("credit_mode"), choices=sh.CREDIT_MODES, dest="credit_mode")
    sp.add_argument("--loads", type=_comma_list(float), default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9")
    sp.add_argument("--tt-load", type=float, default=0.0, dest="tt_load",
                    help="scheduled load added on top of each sweep load")
    sp.add_argument("--seeds", type=int, default=_env("seeds", "20"))
    sp.add_argument("--kind", default="SP", choices=nm.EVENT_KINDS)
    sp.add_argument("--metrics", type=_comma_list(engine.check_metric), default="delay,backlog")
    sp.add_argument("--workers", type=int, default=_env("workers", "1"),
                    help="worker processes running the sweep cells")
    sp.add_argument("--out", default=_env("out", "sweep.csv"))
    return p


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    net = nm.load(args.network)
    violations = nm.validate(net)
    for v in violations:
        print(str(v))
    if violations:
        return EXIT_VALIDATION
    print(f"ok: {len(net.nodes)} nodes, {len(net.links)} links, {len(net.flows)} flows")
    return 0


def cmd_analyze(args) -> int:
    net = nm.load(args.network)
    report = engine.analyze(net, args.arch, credit_mode=args.credit_mode,
                            horizon=args.horizon_us, fixed_point=args.fixed_point)
    files = engine.write_report(report, net, args.out_dir)
    for f in files:
        print(f"wrote {f}")
    return 0


def cmd_compare(args) -> int:
    archs = (args.arch, args.arch2)
    modes = sh.credit_modes(archs, args.credit_mode)
    net = nm.load(args.network).indexed()  # both analyses share its memos
    r1, r2 = (engine.analyze(net, arch, credit_mode=mode,
                             horizon=args.horizon_us, fixed_point=args.fixed_point)
              for arch, mode in zip(archs, modes))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["metric,item,ratio"]
    for metric in engine.METRICS:
        ratios, mean = engine.difference_ratio(r1, r2, metric)
        for key in sorted(ratios):
            item = key if isinstance(key, str) else ":".join(str(k) for k in key)
            lines.append(f"{metric},{item},{ratios[key]:.9g}")
        lines.append(f"{metric},mean,{mean:.9g}")
        print(f"{metric}: mean ratio {mean:+.4f} over {len(ratios)} items")
    path = out / "compare.csv"
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote {path}")
    return 0


def cmd_generate(args) -> int:
    if args.flow_table:
        net = tg.build_topology(args.template)
        rows = tg.load_flow_table(args.flow_table)
        net = tg.attach_flow_table(net, rows)
    else:
        spec = tg.GenSpec(
            target_load=args.load,
            flow_count=args.flows,
            priorities=args.priorities,
            tt_load_fraction=args.tt_fraction,
            sporadic_fraction=args.sporadic_fraction,
            kind=args.kind,
            be_interferer=args.be_interferer,
            seed=args.seed,
        )
        net = tg.generate(args.template, spec)
    nm.save(net, args.out)
    print(f"wrote {args.out}: {len(net.flows)} flows, "
          f"busiest link {tg.max_link_load(net):.1%}")
    return 0


class CellFailure(str):
    """A failed sweep cell's "Class: message"; ``typed`` is whether its
    exception was a TsnCalcError."""

    def __new__(cls, text: str, typed: bool):
        failure = super().__new__(cls, text)
        failure.typed = typed
        return failure


def _sweep_point(template, load, tt_load, kind, seed, arch1, arch2, credit_mode, metrics):
    """One (load, seed) cell: generate, analyze both, per-seed mean ratios."""
    total = load + tt_load
    try:
        spec = tg.GenSpec(target_load=total,
                          tt_load_fraction=tt_load / total if total > 0 else 0.0,
                          kind=kind, seed=seed)
        net = tg.generate(template, spec).indexed()  # both analyses share its memos
        archs = (arch1, arch2)
        r1, r2 = (engine.analyze(net, arch, credit_mode=mode)
                  for arch, mode in zip(archs, sh.credit_modes(archs, credit_mode)))
        return {m: engine.difference_ratio(r1, r2, m)[1] for m in metrics}
    except Exception as exc:  # one failed cell must not lose the grid
        return {"error": f"{type(exc).__name__}: {exc}", "typed": isinstance(exc, TsnCalcError)}


def _exit_with_parent(sweep_pid) -> None:
    """Sweep worker initializer: a daemon thread ends the worker once its
    sweep is gone.  A forked or spawned worker sees that as a change of its
    parent's pid.  The parent of a fork server's worker is the server,
    which lives as long as its workers, so such a worker checks that the
    sweep's pid still names a process (on POSIX only, where signal 0 tests
    for one).  A forked worker holds the write end of its own call queue,
    so it would otherwise wait for cells forever after a SIGTERM to the
    sweep."""
    parent = os.getppid()
    probe = parent != sweep_pid and os.name == "posix"

    def sweep_lives():
        if os.getppid() != parent:
            return False
        try:
            if probe:
                os.kill(sweep_pid, 0)
        except OSError:
            return False
        return True

    def watch():
        while sweep_lives():
            time.sleep(WORKER_WATCH_S)
        os._exit(1)
    threading.Thread(target=watch, name="exit-with-parent", daemon=True).start()


def run_sweep(template, loads, seeds, arch1, arch2, credit_mode=None, tt_load=0.0,
              kind="SP", metrics=("delay", "backlog"), workers=1):
    """Ratio table over (load, seed); a failed cell, whatever its exception,
    is recorded as a CellFailure and skipped.  Returns (rows, failures) with
    rows keyed (load, seed, metric) and failures (load, seed).  An unknown
    architecture, an unknown or repeated metric, a credit mode that
    ``shapers.credit_modes`` refuses, fewer than one seed or worker, or a
    negative scheduled load raises ConfigurationError before any cell runs."""
    sh.credit_modes((arch1, arch2), credit_mode)
    for label, value, least in (("seed count", seeds, 1), ("worker count", workers, 1),
                                ("scheduled load", tt_load, 0)):
        if not value >= least:
            raise ConfigurationError(f"{label} {value} below {least}")
    for metric in metrics:
        engine.check_metric(metric)
    if len(set(metrics)) < len(metrics):
        raise ConfigurationError(f"repeated metric in {','.join(metrics)}")
    cells = [(load, seed) for load in loads for seed in range(seeds)]
    results = {}
    if workers > 1:
        # processes, not threads: a cell is pure Python, which the
        # interpreter lock would run one thread at a time
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=workers, initializer=_exit_with_parent, initargs=(os.getpid(),)) as pool:
            futs = {
                pool.submit(_sweep_point, template, load, tt_load, kind, seed,
                            arch1, arch2, credit_mode, metrics): (load, seed)
                for load, seed in cells
            }
            for fut in concurrent.futures.as_completed(futs):
                results[futs[fut]] = fut.result()
    else:
        for load, seed in cells:
            results[(load, seed)] = _sweep_point(
                template, load, tt_load, kind, seed, arch1, arch2, credit_mode, metrics)
    rows = {}
    failures = {}
    for (load, seed), res in sorted(results.items()):
        if "error" in res:
            failures[(load, seed)] = CellFailure(res["error"], res["typed"])
            continue
        for metric, ratio in res.items():
            rows[(load, seed, metric)] = ratio
    return rows, failures


def sweep_csv(rows, failures, pair_label, loads, metrics) -> str:
    lines = ["load,seed,metric,architecture_pair,mean_ratio"]
    for (load, seed, metric), ratio in sorted(rows.items()):
        lines.append(f"{load:.9g},{seed},{metric},{pair_label},{ratio:.9g}")
    for load in loads:
        for metric in metrics:
            vals = [r for (l, _, m), r in rows.items() if l == load and m == metric]
            if vals:
                lines.append(f"{load:.9g},all,{metric},{pair_label},{sum(vals) / len(vals):.9g}")
    for (load, seed), msg in sorted(failures.items()):
        # "Class: message" in one field: no commas, no line breaks
        reason = " ".join(msg.replace(",", ";").splitlines())
        lines.append(f"{load:.9g},{seed},failed,{pair_label},{reason}")
    return "\n".join(lines) + "\n"


def cmd_sweep(args) -> int:
    rows, failures = run_sweep(
        args.template, args.loads, args.seeds, args.arch, args.arch2,
        credit_mode=args.credit_mode, tt_load=args.tt_load, kind=args.kind,
        metrics=args.metrics, workers=args.workers)
    text = sweep_csv(rows, failures, f"{args.arch}-vs-{args.arch2}", args.loads, args.metrics)
    Path(args.out).write_text(text)
    done = len(rows) // max(1, len(args.metrics))
    print(f"wrote {args.out}: {done} analyzed cells, {len(failures)} failures")
    untyped = [msg for msg in failures.values() if not msg.typed]
    if untyped:
        _err(f"{len(untyped)} cells failed with an unexpected error, first {untyped[0]}")
    return EXIT_PARSE if untyped else 0


COMMANDS = {
    "validate": cmd_validate,
    "analyze": cmd_analyze,
    "compare": cmd_compare,
    "generate": cmd_generate,
    "sweep": cmd_sweep,
}


@functools.lru_cache(maxsize=1)
def _parser(env) -> argparse.ArgumentParser:
    """The parser built while the variables of ENV_FLAGS have the values
    ``env``.  A parse leaves no state on the parser, so calls, and threads,
    share it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser(tuple(map(_env, ENV_FLAGS))).parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except TsnCalcError as exc:
        _err(str(exc))
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
