import importlib.util
import json
import math
import pathlib

import numpy as np
import pytest

import bfs_oracle
from gridpilot.errors import (
    DanglingReferenceError,
    FeederSchemaError,
    FeederTopologyError,
    NumericalError,
)
from gridpilot.feeder import (
    Bus,
    Feeder,
    Line,
    PvUnit,
    build_admittance,
    builtin_feeder_path,
    load_feeder,
    resolve_feeder,
    validate_feeder,
)


def minimal_dict():
    return {
        "source_bus_id": "src",
        "base_voltage_kv": 2.4,
        "base_power_kva": 100.0,
        "buses": [
            {"id": "src", "phases": "ABC"},
            {"id": "b1", "phases": "AB"},
            {"id": "b2", "phases": "A"},
        ],
        "lines": [
            {"from": "src", "to": "b1", "z_ohm": [
                [{"re": 1.0, "im": 2.0}, {"re": 0.3, "im": 0.6}],
                [{"re": 0.3, "im": 0.6}, {"re": 1.0, "im": 2.0}],
            ]},
            {"from": "b1", "to": "b2", "z_ohm": [[{"re": 0.5, "im": 1.0}]]},
        ],
        "loads": [
            {"bus": "b1", "phase": "A", "p_kw": 10.0, "q_kvar": 2.0},
            {"bus": "b2", "phase": "A", "p_kw": 5.0, "q_kvar": 1.0},
        ],
        "pv_units": [
            {"bus": "b2", "phase": "A", "s_rated_kva": 8.0, "p_rated_kw": 6.0},
        ],
    }


def write(tmp_path, data, name="feeder.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def test_minimal_feeder_loads(tmp_path):
    feeder = load_feeder(write(tmp_path, minimal_dict()))
    assert [b.id for b in feeder.buses] == ["src", "b1", "b2"]
    assert feeder.n_node_phases == 6
    assert feeder.node_phases()[:4] == [("src", "A"), ("src", "B"), ("src", "C"),
                                        ("b1", "A")]
    # ohms -> p.u. on z_base = 2.4^2 * 1000 / 100 = 57.6 ohm
    assert feeder.lines[1].phase_impedance[0, 0] == pytest.approx((0.5 + 1j) / 57.6)
    # kW -> p.u. on 100 kVA
    assert feeder.loads[0].p_nominal == pytest.approx(0.1)
    assert feeder.loads[0].q_nominal == pytest.approx(0.02)


def test_pv_q_rating_defaults_to_headroom(tmp_path):
    feeder = load_feeder(write(tmp_path, minimal_dict()))
    pv = feeder.pv_units[0]
    assert pv.q_rated == pytest.approx(math.sqrt(0.08**2 - 0.06**2))

    unit = PvUnit(bus_id="x", phase="A", s_rated=1.0, p_rated=0.6, q_rated=0.9)
    assert unit.q_rated == 0.9  # explicit override wins


def test_fingerprint_stable_and_content_sensitive(tmp_path):
    a = load_feeder(write(tmp_path, minimal_dict(), "a.json"))
    b = load_feeder(write(tmp_path, minimal_dict(), "b.json"))
    assert a.fingerprint == b.fingerprint

    changed = minimal_dict()
    changed["loads"][0]["p_kw"] = 11.0
    c = load_feeder(write(tmp_path, changed, "c.json"))
    assert c.fingerprint != a.fingerprint


def test_bundled_fixtures_load(feeder2, feeder4, feeder34):
    assert feeder2.n_node_phases == 2
    assert feeder4.n_node_phases == 9
    assert len(feeder34.buses) == 45
    assert feeder34.n_node_phases == 135  # state dimension of the control task
    for feeder in (feeder2, feeder4, feeder34):
        assert validate_feeder(feeder) == []


def test_bundled_fixtures_match_their_build_script():
    """scripts/build_fixtures.py writes each bundled feeder's exact text."""
    script = pathlib.Path(__file__).parents[1] / "scripts" / "build_fixtures.py"
    spec = importlib.util.spec_from_file_location("build_fixtures", script)
    build = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(build)
    fixtures = build.bundled_fixtures()
    assert sorted(fixtures) == ["2bus", "4bus", "synth34"]
    for name, data in fixtures.items():
        assert json.dumps(data, indent=1) + "\n" == builtin_feeder_path(name).read_text(), name


def test_resolve_feeder_accepts_name_and_path(tmp_path):
    by_name = resolve_feeder("2bus")
    by_path = resolve_feeder(str(builtin_feeder_path("2bus")))
    assert by_name.fingerprint == by_path.fingerprint
    with pytest.raises(FeederSchemaError):
        resolve_feeder("no-such-fixture")


def test_missing_key_rejected(tmp_path):
    data = minimal_dict()
    del data["lines"]
    with pytest.raises(FeederSchemaError):
        load_feeder(write(tmp_path, data))


def test_bad_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(FeederSchemaError):
        load_feeder(path)


def test_nonpositive_base_rejected(tmp_path):
    data = minimal_dict()
    data["base_power_kva"] = 0.0
    with pytest.raises(FeederSchemaError):
        load_feeder(write(tmp_path, data))


def test_invalid_phase_set_rejected(tmp_path):
    data = minimal_dict()
    data["buses"][1]["phases"] = "AD"
    with pytest.raises(FeederSchemaError):
        load_feeder(write(tmp_path, data))


def test_impedance_shape_must_match_to_bus_phases(tmp_path):
    data = minimal_dict()
    data["lines"][1]["z_ohm"] = [
        [{"re": 0.5, "im": 1.0}, {"re": 0.0, "im": 0.0}],
        [{"re": 0.0, "im": 0.0}, {"re": 0.5, "im": 1.0}],
    ]
    with pytest.raises(FeederSchemaError):
        load_feeder(write(tmp_path, data))


def test_unknown_bus_reference_rejected(tmp_path):
    data = minimal_dict()
    data["loads"][0]["bus"] = "ghost"
    with pytest.raises(DanglingReferenceError):
        load_feeder(write(tmp_path, data))


def test_absent_phase_reference_rejected(tmp_path):
    data = minimal_dict()
    data["loads"][0] = {"bus": "b2", "phase": "B", "p_kw": 1.0, "q_kvar": 0.0}
    with pytest.raises(DanglingReferenceError):
        load_feeder(write(tmp_path, data))


def test_line_into_source_rejected(tmp_path):
    data = minimal_dict()
    eye3 = [[{"re": 1.0 if i == j else 0.0, "im": 1.0 if i == j else 0.0}
             for j in range(3)] for i in range(3)]
    data["lines"].append({"from": "b2", "to": "src", "z_ohm": eye3})
    with pytest.raises(FeederTopologyError):
        load_feeder(write(tmp_path, data))


def test_multiple_incoming_lines_rejected(tmp_path):
    data = minimal_dict()
    data["lines"].append({"from": "src", "to": "b2", "z_ohm": [[{"re": 1.0, "im": 1.0}]]})
    with pytest.raises(FeederTopologyError):
        load_feeder(write(tmp_path, data))


def test_disconnected_bus_rejected(tmp_path):
    data = minimal_dict()
    data["buses"].append({"id": "island", "phases": "A"})
    with pytest.raises(FeederTopologyError):
        load_feeder(write(tmp_path, data))


def test_child_phases_must_exist_at_parent(tmp_path):
    data = minimal_dict()
    # b2 hangs off b1 (phases AB) but claims phase C
    data["buses"][2]["phases"] = "C"
    data["lines"][1]["z_ohm"] = [[{"re": 0.5, "im": 1.0}]]
    data["loads"] = [{"bus": "b1", "phase": "A", "p_kw": 1.0, "q_kvar": 0.0}]
    data["pv_units"] = []
    with pytest.raises(FeederTopologyError):
        load_feeder(write(tmp_path, data))


def direct_feeder(buses, lines):
    """Feeder built in memory, bypassing load_feeder's parse-time checks."""
    phases = dict(buses)
    return Feeder(buses=[Bus(b, tuple(ph)) for b, ph in buses],
                  lines=[Line(f, t, np.eye(len(phases[t])) * (0.01 + 0.02j))
                         for f, t in lines],
                  loads=[], pv_units=[], source_bus_id="src",
                  base_voltage_kv=2.4, base_power_kva=100.0)


@pytest.mark.parametrize("feeder", [
    direct_feeder([("src", "A"), ("b1", "A")], [("src", "b1"), ("b1", "src")]),
    direct_feeder([("src", "A"), ("b1", "A"), ("b2", "A")],
                  [("src", "b1"), ("src", "b2"), ("b1", "b2")]),
    direct_feeder([("src", "A"), ("b1", "B")], [("src", "b1")]),
], ids=["line-into-source", "two-incoming-lines", "child-phase-absent-at-parent"])
def test_validate_feeder_reports_topology_faults(feeder):
    problems = validate_feeder(feeder)
    assert problems
    assert all(d.error is FeederTopologyError for d in problems)


def test_device_on_source_bus_rejected(tmp_path):
    data = minimal_dict()
    data["loads"].append({"bus": "src", "phase": "A", "p_kw": 1.0, "q_kvar": 0.0})
    with pytest.raises(FeederSchemaError, match="source bus"):
        load_feeder(write(tmp_path, data))


def test_pv_rating_invariants_rejected(tmp_path):
    data = minimal_dict()
    data["pv_units"][0]["p_rated_kw"] = 9.0  # exceeds s_rated_kva = 8
    with pytest.raises(FeederSchemaError, match="p_rated"):
        load_feeder(write(tmp_path, data))

    data = minimal_dict()
    data["pv_units"][0]["q_rated_kvar"] = 8.5  # exceeds s_rated_kva = 8
    with pytest.raises(FeederSchemaError, match="q_rated"):
        load_feeder(write(tmp_path, data))

    data["pv_units"][0]["q_rated_kvar"] = -1  # the controller's authority cannot be negative
    with pytest.raises(FeederSchemaError, match="q_rated"):
        load_feeder(write(tmp_path, data))


def test_asymmetric_impedance_rejected(tmp_path):
    data = minimal_dict()
    data["lines"][0]["z_ohm"][0][1] = {"re": 0.4, "im": 0.6}
    with pytest.raises(FeederSchemaError, match="symmetric"):
        load_feeder(write(tmp_path, data))


def test_negative_resistance_rejected(tmp_path):
    data = minimal_dict()
    data["lines"][1]["z_ohm"] = [[{"re": -0.5, "im": 1.0}]]
    with pytest.raises(FeederSchemaError, match="resistance"):
        load_feeder(write(tmp_path, data))


def test_negative_load_rejected(tmp_path):
    data = minimal_dict()
    data["loads"][0]["p_kw"] = -2.0
    with pytest.raises(FeederSchemaError, match="negative"):
        load_feeder(write(tmp_path, data))


def test_admittance_single_reactive_line(tmp_path):
    # one line of z = j1.0 p.u. between two single-phase buses:
    # Y = 1/j = -j, so the off-diagonal susceptance block is +1.0
    data = {
        "source_bus_id": "src",
        "base_voltage_kv": 1.0,
        "base_power_kva": 1000.0,
        "buses": [{"id": "src", "phases": "A"}, {"id": "b1", "phases": "A"}],
        "lines": [{"from": "src", "to": "b1", "z_ohm": [[{"re": 0.0, "im": 1.0}]]}],
        "loads": [{"bus": "b1", "phase": "A", "p_kw": 1.0, "q_kvar": 0.0}],
        "pv_units": [],
    }
    feeder = load_feeder(write(tmp_path, data))
    adm = build_admittance(feeder)
    assert adm.size == 2
    assert adm.g == pytest.approx(np.zeros((2, 2)))
    assert adm.b == pytest.approx(np.array([[-1.0, 1.0], [1.0, -1.0]]))


def test_admittance_blocks_and_symmetry(feeder4, admittance4):
    adm = admittance4
    assert adm.size == feeder4.n_node_phases
    assert np.allclose(adm.g, adm.g.T)
    assert np.allclose(adm.b, adm.b.T)
    # rows sum to zero: pure branch network, no shunts
    assert np.allclose(adm.g.sum(axis=1), 0.0, atol=1e-9)
    assert np.allclose(adm.b.sum(axis=1), 0.0, atol=1e-9)
    with pytest.raises(ValueError):
        adm.g[0, 0] = 1.0  # read-only


def test_admittance_index_map_matches_node_phases(feeder4, admittance4):
    assert list(admittance4.index_map) == feeder4.node_phases()
    assert list(admittance4.index_map.values()) == list(range(feeder4.n_node_phases))


def reference_admittance(feeder):
    """Reference Y, Z_ff and Z_ff Y_fs: each line's four blocks added into Y
    by its own ``np.ix_`` update, line by line."""
    index_map = {np_: i for i, np_ in enumerate(feeder.node_phases())}
    y = np.zeros((len(index_map), len(index_map)), dtype=complex)
    for ln in feeder.lines:
        y_branch = np.linalg.inv(ln.phase_impedance)
        to_phases = feeder.bus(ln.to_bus).phases
        rows_to = [index_map[(ln.to_bus, ph)] for ph in to_phases]
        rows_from = [index_map[(ln.from_bus, ph)] for ph in to_phases]
        y[np.ix_(rows_to, rows_to)] += y_branch
        y[np.ix_(rows_from, rows_from)] += y_branch
        y[np.ix_(rows_to, rows_from)] -= y_branch
        y[np.ix_(rows_from, rows_to)] -= y_branch
    src = feeder.bus(feeder.source_bus_id)
    slack = [index_map[(src.id, ph)] for ph in src.phases]
    free = [i for i in range(len(index_map)) if i not in slack]
    z_ff = np.linalg.inv(y[np.ix_(free, free)])
    return y, z_ff, z_ff @ y[np.ix_(free, slack)]


def assert_admittance_matches_reference(feeder):
    adm = build_admittance(feeder)
    y, z_ff, z_slack = reference_admittance(feeder)
    assert np.array_equal(adm.y, y)
    assert np.array_equal(adm.z_ff, z_ff)
    assert np.array_equal(adm.z_slack, z_slack)
    assert np.array_equal(adm.y_slack, y[adm.slack])
    assert not adm.y_slack.flags.writeable


@pytest.mark.parametrize("name", ["2bus", "4bus", "synth34"])
def test_admittance_matches_reference_assembly_on_bundled_feeders(name):
    assert_admittance_matches_reference(load_feeder(builtin_feeder_path(name)))


def test_admittance_of_a_feeder_without_lines(tmp_path):
    # a lone source bus loads; its admittance is all zeros with no free rows
    data = minimal_dict()
    data.update(buses=data["buses"][:1], lines=[], loads=[], pv_units=[])
    feeder = load_feeder(write(tmp_path, data))
    assert_admittance_matches_reference(feeder)
    assert build_admittance(feeder).z_ff.shape == (0, 0)


def test_admittance_matches_reference_assembly_on_random_feeders(tmp_path):
    # 1-, 2- and 3-phase lines; buses shared by several lines sum in line order
    rng = np.random.default_rng(5)
    for case in range(60):
        data = bfs_oracle.random_radial_feeder_dict(rng, max_buses=12)
        assert_admittance_matches_reference(
            load_feeder(bfs_oracle.write_feeder(data, tmp_path / f"f{case}.json")))


def assert_flat_bound_holds(feeder):
    """``flat_bound``'s premise: at the flat start V = sigma * unit, the free
    rows of Y V and the mismatch term V_f conj((Y V)_f) stay within
    sigma**2 * flat_bound."""
    adm = build_admittance(feeder)
    assert math.isfinite(adm.flat_bound)
    for sigma in (0.9, 1.0, 1.045, 1.1):
        v = sigma * adm.unit
        current = (adm.y @ v)[adm.free]
        bound = sigma * sigma * adm.flat_bound
        assert np.abs(current).max(initial=0.0) <= bound, sigma
        assert np.abs(v[adm.free] * np.conj(current)).max(initial=0.0) <= bound, sigma


@pytest.mark.parametrize("name", ["2bus", "4bus", "synth34"])
def test_flat_bound_covers_the_flat_start_on_bundled_feeders(name):
    assert_flat_bound_holds(load_feeder(builtin_feeder_path(name)))


def test_flat_bound_covers_the_flat_start_on_random_feeders(tmp_path):
    # the feeders of test_admittance_matches_reference_assembly_on_random_feeders
    rng = np.random.default_rng(5)
    for case in range(60):
        data = bfs_oracle.random_radial_feeder_dict(rng, max_buses=12)
        assert_flat_bound_holds(
            load_feeder(bfs_oracle.write_feeder(data, tmp_path / f"f{case}.json")))


def fourbus_with_line_impedance(tmp_path, z_ohm):
    """4bus with the b2 -> b3 line's two-phase impedance replaced."""
    data = json.loads(builtin_feeder_path("4bus").read_text())
    line = data["lines"][1]
    assert (line["from"], line["to"]) == ("b2", "b3")
    line["z_ohm"] = [[{"re": z.real, "im": z.imag} for z in row] for row in z_ohm]
    return load_feeder(write(tmp_path, data))


def test_admittance_refuses_a_singular_line(tmp_path):
    # an all-zero impedance passes validation; only the inverse fails
    feeder = fourbus_with_line_impedance(tmp_path, np.zeros((2, 2), dtype=complex))
    assert not validate_feeder(feeder)
    with pytest.raises(NumericalError, match="^line b2->b3 has a singular impedance matrix$"):
        build_admittance(feeder)


def test_admittance_refuses_a_line_that_inverts_to_infinity(tmp_path):
    # a subnormal per-unit diagonal inverts to inf without a LAPACK error
    feeder = fourbus_with_line_impedance(tmp_path, np.diag([1e-320, 1e-320]).astype(complex))
    assert not validate_feeder(feeder)
    with pytest.raises(NumericalError, match="^line b2->b3 produced non-finite admittance$"):
        build_admittance(feeder)


def test_flat_bound_is_infinite_past_1e150(tmp_path):
    # beyond that row sum, Y V could overflow at a slack voltage whose
    # square is finite, so the solver must never skip the flat start's check
    feeder = fourbus_with_line_impedance(tmp_path, np.diag([1e-160, 1e-160]).astype(complex))
    assert build_admittance(feeder).flat_bound == math.inf
