"""Command-line behavior: exit codes, outputs, determinism."""

import collections
import functools
import json
import os

import pytest

from tsncalc import cli
from tsncalc import engine
from tsncalc import minplus as mp
from tsncalc import netmodel as nm
from tsncalc import shapers as sh
from tsncalc import testgen as tg
from tsncalc.errors import ConfigurationError


@pytest.fixture()
def net_file(tmp_path):
    net = tg.generate("MM", tg.GenSpec(target_load=0.3, seed=7))
    path = tmp_path / "net.json"
    nm.save(net, path)
    return path


def test_analyze_writes_three_files(net_file, tmp_path):
    out = tmp_path / "out"
    rc = cli.main(["analyze", "--network", str(net_file), "--arch", "SP",
                   "--out-dir", str(out)])
    assert rc == 0
    assert {p.name for p in out.iterdir()} == {"flows.csv", "queues.csv", "report.json"}
    report = json.loads((out / "report.json").read_text())
    assert report["architecture"] == "SP"


def test_validate_command_writes_nothing(net_file, tmp_path, monkeypatch):
    workdir = tmp_path / "wd"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    rc = cli.main(["validate", "--network", str(net_file)])
    assert rc == 0
    assert list(workdir.iterdir()) == []


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    rc = cli.main(["analyze", "--network", str(bad), "--arch", "SP",
                   "--out-dir", str(tmp_path / "o")])
    assert rc == cli.EXIT_PARSE


def test_over_reserved_cbs_exit_and_message(tmp_path, capsys):
    net = tg.generate("SRM", tg.GenSpec(target_load=0.2, kind="AVB", seed=2))
    lid = sorted(net.links)[0]
    net.idle_slopes[lid] = {5: 60.0, 4: 30.0}  # above the 75% cap
    path = tmp_path / "bad_cbs.json"
    nm.save(net, path)
    rc = cli.main(["validate", "--network", str(path)])
    assert rc == cli.EXIT_VALIDATION
    out = capsys.readouterr().out
    assert "CbsOverReserved" in out and lid in out

    rc = cli.main(["analyze", "--network", str(path), "--arch", "CBS",
                   "--out-dir", str(tmp_path / "o")])
    assert rc == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert lid in err


def test_instability_exit_code(tmp_path):
    net = nm.Network()
    for nid, kind in [("ES1", "ES"), ("SW1", "SW"), ("ES2", "ES")]:
        net.nodes[nid] = nm.Node(nid, kind)
    net.links["L1"] = nm.Link("L1", "ES1", "SW1", rate=100.0)
    net.links["L2"] = nm.Link("L2", "SW1", "ES2", rate=100.0)
    for i in range(12):  # 12 x 12.176 bits/us overloads the 100 bits/us links
        net.flows[f"f{i}"] = nm.Flow(f"f{i}", "SP", 12176.0, 5, ("L1", "L2"), period=1000.0)
    path = tmp_path / "unstable.json"
    nm.save(net, path)
    rc = cli.main(["analyze", "--network", str(path), "--arch", "SP",
                   "--out-dir", str(tmp_path / "o")])
    assert rc == cli.EXIT_INSTABILITY


def ring_file(tmp_path):
    from test_engine import ring_net
    path = tmp_path / "ring.json"
    nm.save(ring_net(), path)
    return path


def test_cycle_exit_code_and_listing(tmp_path, capsys):
    path = ring_file(tmp_path)
    rc = cli.main(["analyze", "--network", str(path), "--arch", "SP",
                   "--out-dir", str(tmp_path / "o")])
    assert rc == cli.EXIT_CYCLE
    err = capsys.readouterr().err
    assert "R12" in err and "R23" in err and "R31" in err


def test_cycle_fixed_point_flag_succeeds(tmp_path):
    path = ring_file(tmp_path)
    rc = cli.main(["analyze", "--network", str(path), "--arch", "SP",
                   "--fixed-point", "--out-dir", str(tmp_path / "o")])
    assert rc == 0


def test_sweep_identical_architectures_all_zero(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", "--template", "MM", "--arch", "SP", "--arch2", "SP",
                   "--loads", "0.1", "--seeds", "1", "--out", str(out)])
    assert rc == 0
    rows = [l.split(",") for l in out.read_text().strip().splitlines()[1:]]
    assert rows
    for row in rows:
        assert float(row[4]) == 0.0


def test_sweep_deterministic_across_workers(tmp_path):
    args = ["sweep", "--template", "MM", "--arch", "ATS", "--arch2", "SP",
            "--loads", "0.2,0.3", "--seeds", "3"]
    out1 = tmp_path / "w1.csv"
    out4 = tmp_path / "w4.csv"
    assert cli.main(args + ["--workers", "1", "--out", str(out1)]) == 0
    assert cli.main(args + ["--workers", "4", "--out", str(out4)]) == 0
    assert out1.read_bytes() == out4.read_bytes()


def test_gated_sweep_identical_in_worker_processes():
    # a criterion-6b grid: gate curves and routes are built inside each worker
    loads, metrics = [0.1, 0.2], ("delay", "backlog")
    texts = []
    for workers in (1, 2):
        rows, failures = cli.run_sweep("MM", loads, 2, "TAS+ATS+SP", "TAS+SP", tt_load=0.2,
                                       metrics=metrics, workers=workers)
        assert not failures
        texts.append(cli.sweep_csv(rows, failures, "TAS+ATS+SP-vs-TAS+SP", loads, metrics))
    assert texts[0] == texts[1]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_records_infeasible_load_as_failed_cell(tmp_path, workers):
    # 0.9 + 0.2 scheduled load is a target above 1: that cell fails, the rest run
    out = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", "--template", "ST", "--arch", "TAS+SP", "--arch2", "TAS+SP",
                   "--loads", "0.5,0.9", "--tt-load", "0.2", "--seeds", "1",
                   "--workers", workers, "--out", str(out)])
    assert rc == 0
    rows = [l.split(",") for l in out.read_text().strip().splitlines()[1:]]
    assert all(len(r) == 5 for r in rows)
    failed = [r for r in rows if r[:4] == ["0.9", "0", "failed", "TAS+SP-vs-TAS+SP"]]
    assert len(failed) == 1
    # the whole reason, with the commas of "[0, 1)" turned into semicolons
    assert failed[0][4].split(":")[0] == "GenerationError"
    assert "target load 1.1" in failed[0][4]
    assert "[0; 1)" in failed[0][4]
    assert not [r for r in rows if r[0] == "0.9" and r[2] != "failed"]


def test_env_variable_defaults(net_file, tmp_path, monkeypatch):
    monkeypatch.setenv("TSNCALC_NETWORK", str(net_file))
    monkeypatch.setenv("TSNCALC_ARCH", "SP")
    monkeypatch.setenv("TSNCALC_OUT_DIR", str(tmp_path / "envout"))
    rc = cli.main(["analyze"])
    assert rc == 0
    assert (tmp_path / "envout" / "report.json").exists()


def test_bad_environment_number_fails_only_the_subcommand_that_reads_it(
        net_file, tmp_path, monkeypatch, capsys):
    workdir = tmp_path / "wd"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    readers = {"LOAD": ("generate", "--load"), "SEED": ("generate", "--seed"),
               "SEEDS": ("sweep", "--seeds"), "WORKERS": ("sweep", "--workers")}
    for var, (command, flag) in readers.items():
        monkeypatch.setenv(f"TSNCALC_{var}", "two")
        assert cli.main(["validate", "--network", str(net_file)]) == 0
        argv = [command] + (["--arch", "SP", "--arch2", "SP"] if command == "sweep" else [])
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: tsncalc {command}")
        assert f"argument {flag}: invalid" in err
        monkeypatch.delenv(f"TSNCALC_{var}")
    assert list(workdir.iterdir()) == []


@pytest.mark.parametrize("argv, flag", [
    (["validate"], "--network"),
    (["analyze", "--arch", "SP"], "--network"),
    (["analyze", "--network", "net.json"], "--arch"),
    (["compare", "--network", "net.json", "--arch", "SP"], "--arch2"),
    (["sweep", "--arch", "SP"], "--arch2"),
])
def test_a_missing_required_flag_is_a_usage_error(argv, flag, monkeypatch, capsys):
    for var in ("NETWORK", "ARCH", "ARCH2"):
        monkeypatch.delenv(f"TSNCALC_{var}", raising=False)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: tsncalc {argv[0]}")
    assert f"the following arguments are required: {flag}" in err


def test_generate_flow_table(tmp_path):
    table = tmp_path / "flows.csv"
    table.write_text(
        "id,kind,size_bytes,period_us,priority,source,dest\n"
        "o1,SP,300,1000,5,ES1,ES9\n"
    )
    out = tmp_path / "net.json"
    rc = cli.main(["generate", "--template", "MM", "--flow-table", str(table),
                   "--out", str(out)])
    assert rc == 0
    net = nm.load(out)
    assert net.flows["o1"].size == 2400.0


@pytest.fixture()
def gated_file(tmp_path):
    net = tg.generate("ST", tg.GenSpec(target_load=0.3, tt_load_fraction=0.3, seed=0))
    path = tmp_path / "gated.json"
    nm.save(net, path)
    return path


@pytest.mark.parametrize("arch, arch2", [("TAS+ATS+SP", "TAS+CBS"), ("TAS+CBS", "TAS+ATS+SP")])
def test_compare_gives_the_credit_mode_to_the_architecture_that_takes_it(
        gated_file, tmp_path, monkeypatch, arch, arch2):
    modes = {}
    analyze = engine.analyze

    def recorded(net, architecture, credit_mode=None, **kwargs):
        modes[architecture] = credit_mode
        return analyze(net, architecture, credit_mode=credit_mode, **kwargs)

    monkeypatch.setattr(engine, "analyze", recorded)
    rc = cli.main(["compare", "--network", str(gated_file), "--arch", arch, "--arch2", arch2,
                   "--credit-mode", "nonfrozen", "--out-dir", str(tmp_path / "o")])
    assert rc == 0
    assert modes == {"TAS+ATS+SP": None, "TAS+CBS": "nonfrozen"}


UNUSED_MODE = "error: credit_mode only applies when gates and credit shaping are combined, not TAS+SP\n"


def test_analyze_refuses_a_credit_mode_it_does_not_take(gated_file, tmp_path, capsys):
    rc = cli.main(["analyze", "--network", str(gated_file), "--arch", "TAS+SP",
                   "--credit-mode", "nonfrozen", "--out-dir", str(tmp_path / "o")])
    assert rc == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == UNUSED_MODE


def test_compare_refuses_a_credit_mode_neither_architecture_takes(gated_file, tmp_path, capsys):
    rc = cli.main(["compare", "--network", str(gated_file), "--arch", "TAS+SP",
                   "--arch2", "TAS+ATS+SP", "--credit-mode", "nonfrozen",
                   "--out-dir", str(tmp_path / "o")])
    assert rc == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == UNUSED_MODE
    assert not (tmp_path / "o").exists()


def test_sweep_refuses_a_credit_mode_before_any_cell(tmp_path, monkeypatch, capsys):
    def no_cell(*args):
        raise AssertionError("a sweep cell ran")

    monkeypatch.setattr(cli, "_sweep_point", no_cell)
    out = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", "--template", "ST", "--arch", "TAS+SP", "--arch2", "TAS+ATS+SP",
                   "--credit-mode", "nonfrozen", "--tt-load", "0.1", "--loads", "0.3",
                   "--seeds", "2", "--out", str(out)])
    assert rc == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == UNUSED_MODE
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["generate", "--priorities", "6,,5"], "--priorities"),
    (["sweep", "--arch", "SP", "--arch2", "SP", "--loads", "0.2,abc"], "--loads"),
    (["sweep", "--arch", "SP", "--arch2", "SP", "--metrics", "delay,foo"], "--metrics"),
])
def test_a_malformed_list_is_a_usage_error(argv, flag, tmp_path, monkeypatch, capsys):
    def no_cell(*args):
        raise AssertionError("a sweep cell ran")

    monkeypatch.setattr(cli, "_sweep_point", no_cell)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: tsncalc {argv[0]}")
    assert f"argument {flag}: '{argv[-1]}': " in err
    assert list(tmp_path.iterdir()) == []


def test_sweep_refuses_an_unknown_metric_before_any_cell(monkeypatch):
    def no_cell(*args):
        raise AssertionError("a sweep cell ran")

    monkeypatch.setattr(cli, "_sweep_point", no_cell)
    with pytest.raises(ConfigurationError, match=r"^unknown metric 'foo'"):
        cli.run_sweep("MM", [0.3], 2, "SP", "SP", metrics=("delay", "foo"))


def test_sweep_refuses_an_unknown_architecture_before_any_cell(monkeypatch):
    def no_cell(*args):
        raise AssertionError("a sweep cell ran")

    monkeypatch.setattr(cli, "_sweep_point", no_cell)
    with pytest.raises(ConfigurationError, match=r"^unknown architecture 'TAS\+XYZ'"):
        cli.run_sweep("MM", [0.3], 2, "SP", "TAS+XYZ")


def test_compare_without_a_credit_mode_gives_frozen_to_both(gated_file, tmp_path, monkeypatch):
    modes = {}
    analyze = engine.analyze

    def recorded(net, architecture, credit_mode=None, **kwargs):
        modes[architecture] = credit_mode
        return analyze(net, architecture, credit_mode=credit_mode, **kwargs)

    monkeypatch.setattr(engine, "analyze", recorded)
    rc = cli.main(["compare", "--network", str(gated_file), "--arch", "TAS+CBS",
                   "--arch2", "TAS+ATS+CBS", "--out-dir", str(tmp_path / "o")])
    assert rc == 0
    assert modes == {"TAS+CBS": "frozen", "TAS+ATS+CBS": "frozen"}


@pytest.mark.parametrize("horizon", ["0", "-5", "nan"])
def test_bad_horizon_exits_2(gated_file, tmp_path, monkeypatch, capsys, horizon):
    argv = ["analyze", "--network", str(gated_file), "--arch", "TAS+SP",
            "--out-dir", str(tmp_path / "o")]
    assert cli.main(argv + ["--horizon-us", horizon]) == cli.EXIT_VALIDATION
    monkeypatch.setenv("TSNCALC_HORIZON_US", horizon)
    assert cli.main(argv) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.count("horizon must be positive and finite") == 2
    assert not (tmp_path / "o").exists()


def test_compare_emits_csv(net_file, tmp_path):
    out = tmp_path / "cmp"
    rc = cli.main(["compare", "--network", str(net_file), "--arch", "ATS",
                   "--arch2", "SP", "--out-dir", str(out)])
    assert rc == 0
    text = (out / "compare.csv").read_text()
    assert text.startswith("metric,item,ratio")
    assert "delay,mean," in text


def _count_gate_builds(monkeypatch):
    """Count the calls of each gate builder on a gated port per argument
    tuple: the port, told by its schedule object, and the variant, rate and
    horizon where the builder takes them (guard bands are a list)."""
    builds = collections.Counter()

    def counting(name, build):
        def counted(gcl, *args):
            if gcl is not None and gcl.windows:
                builds[(name, id(gcl), *(a for a in args if not isinstance(a, list)))] += 1
            return build(gcl, *args)
        return counted

    for name in ("tt_arrival_curve", "tt_service_curve", "gb_envelope"):
        monkeypatch.setattr(sh, name, counting(name, getattr(sh, name)))
    return builds


def test_sweep_cell_builds_each_gate_curve_once(monkeypatch):
    builds = _count_gate_builds(monkeypatch)
    # a criterion-6b cell: both architectures block the same gate windows
    res = cli._sweep_point("MM", 0.2, 0.2, "SP", 0, "TAS+ATS+SP", "TAS+SP", None,
                           ("delay", "backlog"))
    assert "error" not in res
    assert {key[0] for key in builds} == {"tt_arrival_curve"}
    assert max(builds.values()) == 1


def test_sweep_cell_builds_each_gated_service_once(monkeypatch):
    # the service of a queue with no higher-priority arrivals is the link
    # less the gates and one lower frame under both architectures
    builds = collections.Counter()
    build = sh.sp_service_curve

    def counted(ctx, link_id, priority, higher_arrivals):
        if ctx.arch.tas and not higher_arrivals:
            builds[(link_id, priority, ctx.horizon)] += 1
        return build(ctx, link_id, priority, higher_arrivals)

    monkeypatch.setattr(sh, "sp_service_curve", counted)
    res = cli._sweep_point("MM", 0.2, 0.2, "SP", 0, "TAS+ATS+SP", "TAS+SP", None,
                           ("delay", "backlog"))
    assert "error" not in res
    assert builds
    assert max(builds.values()) == 1


def test_view_builds_each_top_gated_service_and_its_inverse_table_once(monkeypatch):
    # a criterion-6b cell on one view: the top-priority services of the
    # gated ports come from one batch, and both analyses read each one's
    # inverse table
    services = collections.Counter()
    tables = collections.Counter()
    build, table = sh.sp_service_curve, mp._inverse_table

    def counted_service(ctx, link_id, priority, higher_arrivals):
        if ctx.arch.tas and not higher_arrivals:
            services[(link_id, priority, ctx.horizon)] += 1
        return build(ctx, link_id, priority, higher_arrivals)

    def counted_table(seg):
        tables[id(seg)] += 1
        return table(seg)

    monkeypatch.setattr(sh, "sp_service_curve", counted_service)
    monkeypatch.setattr(mp, "_inverse_table", counted_table)
    view = tg.generate("MM", tg.GenSpec(target_load=0.4, tt_load_fraction=0.5, seed=0)).indexed()
    for arch in ("TAS+ATS+SP", "TAS+SP"):
        engine.analyze(view, arch)
    batches = [v for k, v in view.memo.items() if k[0] == "gated_top_services"]
    tops = [curve for batch in batches for curve in batch.values()]
    assert len(tops) > 10
    assert max(services.values()) == 1
    assert all(tables[id(curve.segments)] == 1 for curve in tops)


def test_compare_builds_each_gate_quantity_once(monkeypatch, tmp_path):
    net = tg.generate("MM", tg.GenSpec(target_load=0.4, tt_load_fraction=0.3, seed=7))
    path = tmp_path / "net.json"
    nm.save(net, path)
    builds = _count_gate_builds(monkeypatch)
    rc = cli.main(["compare", "--network", str(path), "--arch", "TAS+CBS",
                   "--arch2", "TAS+ATS+CBS", "--credit-mode", "frozen",
                   "--out-dir", str(tmp_path / "o")])
    assert rc == 0
    assert {key[0] for key in builds} == {"tt_arrival_curve", "tt_service_curve", "gb_envelope"}
    assert max(builds.values()) == 1


def test_compare_reads_each_class_flow_tuple_from_one_memo(monkeypatch, tmp_path):
    # both analyses of a criterion-6b compare sum each class's flows in the
    # order of one tuple per view and class, computed once
    computed = collections.Counter()
    read = collections.defaultdict(set)
    raw = sh.ShaperContext.class_flows.__wrapped__

    @functools.wraps(raw)
    def counted(self, link_id, priority):
        computed[(link_id, priority)] += 1
        return raw(self, link_id, priority)

    cached = sh._per_view()(counted)

    def recorded(self, link_id, priority):
        flows = cached(self, link_id, priority)
        read[(link_id, priority)].add((self.arch.name, id(flows)))
        return flows

    monkeypatch.setattr(sh.ShaperContext, "class_flows", recorded)
    net = tg.generate("MM", tg.GenSpec(target_load=0.3, tt_load_fraction=0.5, seed=0))
    path = tmp_path / "net.json"
    nm.save(net, path)
    rc = cli.main(["compare", "--network", str(path), "--arch", "TAS+ATS+SP",
                   "--arch2", "TAS+SP", "--out-dir", str(tmp_path / "o")])
    assert rc == 0
    assert computed and max(computed.values()) == 1
    shared = [readers for readers in read.values() if len({a for a, _ in readers}) == 2]
    assert len(shared) > 10
    assert all(len({flows for _, flows in readers}) == 1 for readers in shared)
