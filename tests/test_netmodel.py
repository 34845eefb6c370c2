"""Network model: validation, traffic envelopes, guard bands, file format."""

import json
from pathlib import Path

import pytest

from tsncalc import netmodel as nm
from tsncalc import testgen as tg
from tsncalc.errors import ParseError


def line_network(tt_offsets=True):
    """ES1 -> SW1 -> SW2 -> ES2 with one scheduled flow."""
    net = nm.Network()
    for nid, kind in [("ES1", "ES"), ("SW1", "SW"), ("SW2", "SW"), ("ES2", "ES")]:
        net.nodes[nid] = nm.Node(nid, kind)
    for lid, a, b in [("L1", "ES1", "SW1"), ("L2", "SW1", "SW2"), ("L3", "SW2", "ES2")]:
        net.links[lid] = nm.Link(lid, a, b, rate=100.0)
    offsets = {"L1": 0.0, "L2": 130.0, "L3": 260.0} if tt_offsets else {"L1": 0.0}
    net.flows["t1"] = nm.Flow("t1", "TT", 12176.0, 7, ("L1", "L2", "L3"),
                              period=1000.0, offsets=offsets)
    net.gcls["L1"] = nm.Gcl(1000.0, (nm.GclWindow(0.0, 121.76),))
    net.gcls["L2"] = nm.Gcl(1000.0, (nm.GclWindow(130.0, 121.76),))
    net.gcls["L3"] = nm.Gcl(1000.0, (nm.GclWindow(260.0, 121.76),))
    return net


def test_validate_well_formed():
    assert nm.validate(line_network()) == []


def test_validate_missing_offset():
    net = line_network(tt_offsets=False)
    codes = {v.code for v in nm.validate(net)}
    assert "MissingOffset" in codes


def test_validate_qar2():
    net = line_network()
    net.ats_shaped_queues["L2"] = {"q0": [("L1", 5), ("L1", 3)]}
    codes = {v.code for v in nm.validate(net)}
    assert "QAR2Violation" in codes


def test_validate_qar1():
    net = line_network()
    net.ats_shaped_queues["L3"] = {"q0": [("L1", 5), ("L2", 5)]}
    codes = {v.code for v in nm.validate(net)}
    assert "QAR1Violation" in codes


def test_validate_frame_and_priority_bounds():
    net = line_network()
    net.flows["bad"] = nm.Flow("bad", "SP", 100.0, 9, ("L1", "L2", "L3"), period=1000.0)
    codes = {v.code for v in nm.validate(net)}
    assert "BadFrameSize" in codes and "BadPriority" in codes


def test_validate_disconnected_route():
    net = line_network()
    net.flows["d"] = nm.Flow("d", "SP", 1000.0, 5, ("L1", "L3"), period=1000.0)
    codes = {v.code for v in nm.validate(net)}
    assert "DisconnectedRoute" in codes


def test_validate_repeated_link():
    """A route that crosses a link twice would be counted once at that link."""
    net = nm.Network()
    for nid, kind in [("ES1", "ES"), ("SW1", "SW"), ("SW2", "SW"), ("ES2", "ES")]:
        net.nodes[nid] = nm.Node(nid, kind)
    for lid, a, b in [("L0", "ES1", "SW1"), ("L1", "SW1", "SW2"), ("L2", "SW2", "SW1"),
                      ("L3", "SW2", "ES2")]:
        net.links[lid] = nm.Link(lid, a, b, rate=100.0)
    net.flows["f"] = nm.Flow("f", "SP", 8000.0, 5, ("L0", "L1", "L2", "L1", "L3"), period=1000.0)
    assert [v.code for v in nm.validate(net)] == ["RepeatedLink"]
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((Path(nm.__file__).parent / "schema/network.schema.json").read_text())
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(nm.to_dict(net), schema)


def test_validate_overlapping_windows():
    net = line_network()
    net.gcls["L1"] = nm.Gcl(1000.0, (nm.GclWindow(0.0, 200.0), nm.GclWindow(100.0, 50.0)))
    codes = {v.code for v in nm.validate(net)}
    assert "OverlappingWindows" in codes


def test_validate_cbs_over_reserved():
    net = line_network()
    net.idle_slopes["L2"] = {5: 50.0, 4: 30.0}  # 80 > 75% of 100
    codes = {v.code for v in nm.validate(net)}
    assert "CbsOverReserved" in codes


def test_validate_idempotent_and_pure():
    net = line_network()
    before = nm.to_dict(net)
    first = nm.validate(net)
    second = nm.validate(net)
    assert first == second
    assert nm.to_dict(net) == before


def test_leaky_bucket_periodic():
    f = nm.Flow("f", "SP", 12176.0, 5, ("L1",), period=1000.0)
    assert nm.leaky_bucket_of(f) == (12176.0, 12.176)


def test_leaky_bucket_sporadic_passthrough():
    f = nm.Flow("f", "SP", 1000.0, 5, ("L1",), burst=5000.0, rate=2.0)
    assert nm.leaky_bucket_of(f) == (5000.0, 2.0)


def test_leaky_bucket_small_periodic():
    f = nm.Flow("f", "AVB", 512.0, 5, ("L1",), period=2000.0)
    assert nm.leaky_bucket_of(f) == (512.0, 0.256)


def test_leaky_bucket_tt_rejected():
    f = nm.Flow("f", "TT", 512.0, 7, ("L1",), period=2000.0)
    with pytest.raises(ValueError):
        nm.leaky_bucket_of(f)


def guard_band_fixture(offset, prev_end_gap):
    """One port with two windows and a 12176-bit interfering frame."""
    net = nm.Network()
    net.nodes["ES1"] = nm.Node("ES1", "ES")
    net.nodes["SW1"] = nm.Node("SW1", "SW")
    net.links["L"] = nm.Link("L", "ES1", "SW1", rate=100.0)
    net.flows["sp"] = nm.Flow("sp", "SP", 12176.0, 5, ("L",), period=1000.0)
    first_end = offset - prev_end_gap
    net.gcls["L"] = nm.Gcl(2000.0, (nm.GclWindow(first_end - 100.0, 100.0),
                                    nm.GclWindow(offset, 100.0)))
    return net


def test_guard_band_frame_term():
    net = guard_band_fixture(offset=900.0, prev_end_gap=500.0)
    assert nm.guard_band_lengths(net, "L")[1] == pytest.approx(121.76)


def test_guard_band_gap_term():
    net = guard_band_fixture(offset=900.0, prev_end_gap=50.0)
    assert nm.guard_band_lengths(net, "L")[1] == pytest.approx(50.0)


def test_guard_band_no_interfering_traffic():
    net = guard_band_fixture(offset=900.0, prev_end_gap=500.0)
    del net.flows["sp"]
    assert nm.guard_band_lengths(net, "L")[1] == 0.0


def test_guard_band_of_one_window_is_the_gap_around_the_period():
    # the window ends at 950 and opens again at 1020: 70 us idle, shorter
    # than the 121.76-us interfering frame
    net = guard_band_fixture(offset=900.0, prev_end_gap=500.0)
    net.gcls["L"] = nm.Gcl(1000.0, (nm.GclWindow(20.0, 930.0),))
    assert nm.guard_band_lengths(net, "L") == [pytest.approx(70.0)]


def test_guard_band_bounded_by_gap_and_frame():
    for seed in range(20):
        net = tg.generate("MM", tg.GenSpec(target_load=0.4, tt_load_fraction=0.5, seed=seed))
        for lid, gcl in net.gcls.items():
            frame = nm.max_event_frame(net, lid) / net.links[lid].rate
            gbs = nm.guard_band_lengths(net, lid)
            for j, gb in enumerate(gbs):
                prev = gcl.windows[(j - 1) % len(gcl.windows)]
                gap = gcl.windows[j].offset - prev.end
                if j == 0:
                    gap += gcl.period
                assert gb <= frame + 1e-9
                assert gb <= max(0.0, gap) + 1e-9


def test_roundtrip_identity(tmp_path):
    for seed in range(5):
        net = tg.generate("SRM", tg.GenSpec(target_load=0.3, tt_load_fraction=0.3,
                                            sporadic_fraction=0.3, seed=seed))
        net.idle_slopes["SW1->SW2"] = {5: 30.0}
        net.precision = 1.5
        path = tmp_path / f"net{seed}.json"
        nm.save(net, path)
        again = nm.load(path)
        assert again == net
        # byte-identical re-serialization
        nm.save(again, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_text() == path.read_text()


def test_emitted_documents_match_schema():
    jsonschema = pytest.importorskip("jsonschema")
    from pathlib import Path
    schema = json.loads(
        (Path(__file__).resolve().parents[1] / "src/tsncalc/schema/network.schema.json").read_text())
    for seed in range(3):
        net = tg.generate("ST", tg.GenSpec(target_load=0.2, tt_load_fraction=0.4, seed=seed))
        jsonschema.validate(nm.to_dict(net), schema)


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        nm.load(path)
    path.write_text(json.dumps({"nodes": [{"id": "a"}]}))
    with pytest.raises(ParseError):
        nm.load(path)
