import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fourbus_gen, rewrite_csv, synth34_gen
from gridpilot.dsse import build_training_pairs
from gridpilot.env import EnvConfig, conditions
from gridpilot.errors import DatasetError
from gridpilot.feeder import LoadPoint, PvUnit, build_admittance, validate_feeder
from gridpilot.scenario import (
    CSV_HEADER,
    GenConfig,
    Scenario,
    ScenarioSet,
    generate_scenario_set,
    read_scenario_set,
    split,
    to_injections,
    write_scenario_set,
)


def test_gen_config_validation():
    with pytest.raises(DatasetError):
        GenConfig(count=0)
    with pytest.raises(DatasetError):
        GenConfig(count=1, load_scale_range=(0.1, 0.05))
    with pytest.raises(DatasetError):
        GenConfig(count=1, power_factor_range=(0.5, 1.0))  # below 0.85 floor
    with pytest.raises(DatasetError):
        GenConfig(count=1, households_per_node=0)


@pytest.mark.parametrize("field, bounds", [
    ("load_scale_range", (-0.3, 0.2)),  # negative loads
    ("pv_to_load_ratio_range", (-1.0, 0.5)),
    ("load_scale_range", (0.1, math.inf)),
    ("load_scale_range", (math.nan, 0.2)),
    ("pv_to_load_ratio_range", (0.5, math.inf)),
    ("pv_to_load_ratio_range", (math.nan, math.nan)),
    # finite bounds whose generated values could overflow to inf
    ("load_scale_range", (1e307, 1.5e308)),  # lo + hi
    ("load_scale_range", (0.1, 1e308)),  # a node's summed load
    ("load_scale_range", (0.1, 1e305)),  # within the margin kept for the lognormal draw
    ("pv_to_load_ratio_range", (1.0, 1e306)),  # a node's summed pv, with that margin
    ("pv_to_load_ratio_range", (1e308, 1.5e308)),  # the ratio's midpoint
])
def test_gen_config_refuses_ranges_generation_cannot_use(field, bounds):
    with pytest.raises(DatasetError, match="low <= high|non-negative|overflow"):
        GenConfig(count=1, **{field: bounds})


def test_gen_config_refuses_overflowing_household_counts():
    GenConfig(count=1, load_scale_range=(0.0, 0.0), households_per_node=10**15)
    with pytest.raises(DatasetError, match="overflow"):  # the ratio's draw, even under no load
        GenConfig(count=1, load_scale_range=(0.0, 0.0), pv_to_load_ratio_range=(0.0, 1e306))
    with pytest.raises(DatasetError, match="overflow"):
        GenConfig(count=1, households_per_node=10**305)
    with pytest.raises(DatasetError, match="overflow"):
        GenConfig(count=1, households_per_node=10**400)  # too large for a float
    # zero and signed-zero bounds are ranges generation can use
    GenConfig(count=1, load_scale_range=(-0.0, 0.0), pv_to_load_ratio_range=(-0.0, 0.0))


@settings(max_examples=40)
@given(seed=st.integers(0, 2**31), pool_size=st.integers(2, 40))
def test_pool_respects_configured_ranges(feeder34, seed, pool_size):
    # one household per node: each load point is one pool household
    cfg = GenConfig(count=3, household_pool_size=pool_size, households_per_node=1,
                    load_scale_range=(0.004, 0.05),
                    pv_to_load_ratio_range=(0.74, 1.05))
    sset = generate_scenario_set(feeder34, cfg, seed)
    for sc in sset:
        assert np.all(sc.p_load >= 0.004 - 1e-15)
        assert np.all(sc.p_load <= 0.05 + 1e-15)
    # pv stays below 1.05 * 0.05, under every synth34 rating: no clip moves a ratio
    ratios = realized_pv_ratios(sset, feeder34)
    assert np.all(ratios >= 0.74 - 1e-12)
    assert np.all(ratios <= 1.05 + 1e-12)
    # min-max rescaling hits both endpoints: a pool of two holds nothing else
    for sc in generate_scenario_set(feeder34, replace(cfg, household_pool_size=2), seed):
        assert np.all(np.isclose(sc.p_load, 0.004, rtol=1e-12, atol=0)
                      | np.isclose(sc.p_load, 0.05, rtol=1e-12, atol=0))


def test_pool_single_household_degenerates_to_midpoint(feeder34):
    cfg = GenConfig(count=3, household_pool_size=1, households_per_node=1,
                    load_scale_range=(0.01, 0.03))
    for sc in generate_scenario_set(feeder34, cfg, seed=5):
        assert sc.p_load == pytest.approx(np.full(len(feeder34.loads), 0.02))


def test_pool_deterministic_per_seed(feeder34):
    cfg = synth34_gen(2)
    a = generate_scenario_set(feeder34, cfg, seed=99)
    b = generate_scenario_set(feeder34, cfg, seed=99)
    c = generate_scenario_set(feeder34, cfg, seed=100)
    for sa, sb, sc in zip(a, b, c, strict=True):
        assert_same_scenario(sa, sb)
        assert not np.array_equal(sa.p_load, sc.p_load)


def test_aggregate_sums_households(feeder34):
    # a pool of one household makes the stacking arithmetic visible: every
    # load point sums households_per_node copies of the load range's midpoint
    cfg = GenConfig(count=3, household_pool_size=1, households_per_node=3,
                    load_scale_range=(0.01, 0.03))
    mid = 0.5 * (0.01 + 0.03)
    for sc in generate_scenario_set(feeder34, cfg, seed=3):
        assert np.all(sc.p_load == mid + mid + mid)
        # every PV unit, with or without a load point, sums three copies of
        # the one household's pv, which stays under every synth34 rating
        assert np.all(sc.p_pv == sc.p_pv[0])
        assert 0.74 * 3 * mid - 1e-15 <= sc.p_pv[0] <= 1.05 * 3 * mid + 1e-15


def test_aggregate_power_factor_range(feeder34):
    cfg = synth34_gen(5)
    for sc in generate_scenario_set(feeder34, cfg, seed=11):
        pf = np.cos(np.arctan2(sc.q_load, sc.p_load))
        assert np.all(pf >= cfg.power_factor_range[0] - 1e-9)
        assert np.all(pf <= 1.0 + 1e-12)
        assert np.all(sc.q_load >= 0.0)


def test_aggregate_pv_clipped_to_rating(feeder34):
    cfg = GenConfig(count=1, load_scale_range=(0.2, 0.4),  # heavy: forces clipping
                    power_factor_range=(0.95, 1.0), households_per_node=3)
    sc = generate_scenario_set(feeder34, cfg, seed=0).scenarios[0]
    ratings = np.array([pv.p_rated for pv in feeder34.pv_units])
    assert np.all(sc.p_pv <= ratings + 1e-15)
    assert np.all(sc.p_pv >= 0.0)
    assert np.any(sc.p_pv == ratings)  # clipping actually engaged


def test_standalone_pv_units_draw_their_own_households(feeder34):
    # phase-C community units have no co-located load point, yet produce
    cfg = synth34_gen(1)
    sset = generate_scenario_set(feeder34, cfg, seed=0)
    sc = sset.scenarios[0]
    load_slots = {(ld.bus_id, ld.phase) for ld in feeder34.loads}
    standalone = [k for k, pv in enumerate(feeder34.pv_units)
                  if (pv.bus_id, pv.phase) not in load_slots]
    assert standalone, "fixture should carry standalone units"
    assert np.all(sc.p_pv[standalone] > 0.0)


def realized_pv_ratios(scenario_set, feeder) -> np.ndarray:
    """Per-unit pv/load ratios over all scenarios, for distribution checks.

    Only PV units co-located with a load point contribute; rating clips can
    push realized ratios below the configured range, never above.
    """
    load_slot = {(ld.bus_id, ld.phase): i for i, ld in enumerate(feeder.loads)}
    out = []
    for sc in scenario_set:
        for k, pv in enumerate(feeder.pv_units):
            slot = load_slot.get((pv.bus_id, pv.phase))
            if slot is not None and sc.p_load[slot] > 0:
                out.append(sc.p_pv[k] / sc.p_load[slot])
    return np.array(out)


def test_realized_ratios_stay_in_range(feeder34):
    sset = generate_scenario_set(feeder34, synth34_gen(20), seed=8)
    ratios = realized_pv_ratios(sset, feeder34)
    assert ratios.size > 0
    # clipping can only pull ratios down, never above the configured top
    assert np.all(ratios <= 1.05 + 1e-9)
    assert ratios.min() >= 0.0
    assert 0.7 <= ratios.mean() <= 1.0


def test_generate_set_deterministic_and_diverse(feeder4):
    cfg = fourbus_gen(6)
    a = generate_scenario_set(feeder4, cfg, seed=21)
    b = generate_scenario_set(feeder4, cfg, seed=21)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.p_load, sb.p_load)
        assert np.array_equal(sa.q_load, sb.q_load)
        assert np.array_equal(sa.p_pv, sb.p_pv)
    assert [sc.id for sc in a] == list(range(6))
    assert a.feeder_fingerprint == feeder4.fingerprint
    # feeder-wide conditions vary across scenarios (fresh pool per scenario)
    totals = [sc.p_load.sum() for sc in a]
    assert np.std(totals) > 0.0


def test_split_preserves_ids_disjoint_exhaustive(feeder4):
    sset = generate_scenario_set(feeder4, fourbus_gen(10), seed=2)
    train, test = split(sset, 0.8, seed=5)
    assert len(train) == 8 and len(test) == 2
    train_ids = {sc.id for sc in train}
    test_ids = {sc.id for sc in test}
    assert train_ids | test_ids == set(range(10))
    assert train_ids & test_ids == set()
    # ids are preserved, not renumbered
    assert sorted(sc.id for sc in train) == [sc.id for sc in train]


def test_split_keeps_both_halves_nonempty(feeder4):
    sset = generate_scenario_set(feeder4, fourbus_gen(3), seed=2)
    train, test = split(sset, 0.99, seed=0)
    assert len(train) == 2 and len(test) == 1
    train, test = split(sset, 0.01, seed=0)
    assert len(train) == 1 and len(test) == 2


def test_split_validation(feeder4):
    sset = generate_scenario_set(feeder4, fourbus_gen(2), seed=2)
    with pytest.raises(DatasetError):
        split(sset, 1.0, seed=0)
    single = generate_scenario_set(feeder4, fourbus_gen(1), seed=2)
    with pytest.raises(DatasetError):
        split(single, 0.5, seed=0)


def test_csv_round_trip_byte_identical(feeder4, tmp_path):
    sset = generate_scenario_set(feeder4, fourbus_gen(5), seed=77)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_scenario_set(sset, feeder4, p1)

    assert p1.read_text().splitlines()[0] == CSV_HEADER
    loaded = read_scenario_set(p1, feeder4)
    assert loaded.seed == sset.seed
    assert loaded.generator_config == sset.generator_config
    for sa, sb in zip(loaded, sset):
        assert sa.id == sb.id
        assert np.array_equal(sa.p_load, sb.p_load)  # repr round-trip is exact
        assert np.array_equal(sa.q_load, sb.q_load)
        assert np.array_equal(sa.p_pv, sb.p_pv)

    write_scenario_set(loaded, feeder4, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert (tmp_path / "a.csv.meta.json").read_bytes() == \
        (tmp_path / "b.csv.meta.json").read_bytes()


def test_read_rejects_wrong_feeder(feeder4, feeder34, tmp_path):
    sset = generate_scenario_set(feeder4, fourbus_gen(2), seed=1)
    path = tmp_path / "s.csv"
    write_scenario_set(sset, feeder4, path)
    with pytest.raises(DatasetError, match="different feeder"):
        read_scenario_set(path, feeder34)


def test_read_requires_sidecar(feeder4, tmp_path):
    sset = generate_scenario_set(feeder4, fourbus_gen(2), seed=1)
    path = tmp_path / "s.csv"
    write_scenario_set(sset, feeder4, path)
    (tmp_path / "s.csv.meta.json").unlink()
    with pytest.raises(DatasetError, match="sidecar"):
        read_scenario_set(path, feeder4)


def test_read_rejects_unknown_elements(feeder4, tmp_path):
    sset = generate_scenario_set(feeder4, fourbus_gen(1), seed=1)
    path = tmp_path / "s.csv"
    write_scenario_set(sset, feeder4, path)
    rewrite_csv(path, path.read_text().replace("b4.A", "zz.A", 1))
    with pytest.raises(DatasetError, match="unknown"):
        read_scenario_set(path, feeder4)


def test_to_injections_signs_and_slack(feeder4, admittance4):
    sset = generate_scenario_set(feeder4, fourbus_gen(1), seed=3)
    sc = sset.scenarios[0]
    inj = to_injections(admittance4, sc)
    src_rows = [admittance4.index_map[("src", ph)] for ph in "ABC"]
    assert np.all(inj.p[src_rows] == 0.0)
    assert np.all(inj.q[src_rows] == 0.0)

    k_pv = admittance4.index_map[("b4", "A")]
    assert inj.p[k_pv] == pytest.approx(-sc.p_pv[0])  # generation is negative

    q_pv = np.array([0.1])
    inj_q = to_injections(admittance4, sc, q_pv=q_pv)
    assert inj_q.q[k_pv] == pytest.approx(inj.q[k_pv] - 0.1)
    assert np.array_equal(inj_q.p, inj.p)


@pytest.mark.parametrize("feeder_name", ["feeder4", "feeder34"])
def test_scenario_that_does_not_fit_the_feeder_is_refused(request, feeder_name):
    # np.add.at broadcasts a length-1 or 0-d value over all of a feeder's
    # rows, so without a shape check these would give every load (or PV
    # unit) the first one's power, without a word
    feeder = request.getfixturevalue(feeder_name)
    gen = fourbus_gen(1) if feeder_name == "feeder4" else synth34_gen(1)
    sset = generate_scenario_set(feeder, gen, seed=5)
    sc = sset.scenarios[0]
    cfg = EnvConfig(feeder=feeder)
    to_injections(feeder.admittance, sc)  # the generated scenario fits
    conditions(cfg, sc)
    for misfit in (replace(sc, p_load=sc.p_load[:1], q_load=sc.q_load[:1]),
                   replace(sc, q_load=sc.q_load[:1]),
                   replace(sc, p_pv=sc.p_pv[0]),
                   replace(sc, p_pv=sc.p_pv[:, None]),
                   replace(sc, p_load=list(sc.p_load[:1]))):
        with pytest.raises(DatasetError, match="shapes"):
            to_injections(feeder.admittance, misfit)
        with pytest.raises(DatasetError, match="shapes"):
            conditions(cfg, misfit)
        with pytest.raises(DatasetError, match="shapes"):
            build_training_pairs(replace(sset, scenarios=[misfit]), feeder, 1.0)


@pytest.mark.parametrize("kind", ["load", "pv"])
def test_write_refuses_elements_sharing_a_node_phase(feeder4, tmp_path, kind):
    # validate_feeder accepts a second element on one node-phase, but the CSV
    # names both by the same bus.phase, so the file could not be read back
    if kind == "load":
        feeder = replace(feeder4, loads=feeder4.loads + [LoadPoint("b2", "B", 0.1, 0.02)],
                         fingerprint="")
        shared = "b2.B"
    else:
        pv = feeder4.pv_units[0]
        feeder = replace(feeder4, pv_units=feeder4.pv_units + [
            PvUnit(pv.bus_id, pv.phase, 0.3, 0.3)], fingerprint="")
        shared = f"{pv.bus_id}.{pv.phase}"
    assert not validate_feeder(feeder)
    sset = generate_scenario_set(feeder, fourbus_gen(2), seed=1)
    with pytest.raises(DatasetError, match=f"{kind} elements share node-phase {shared}"):
        write_scenario_set(sset, feeder, tmp_path / "s.csv")
    assert list(tmp_path.iterdir()) == []
    # the reader refuses such a feeder too: a row naming the node-phase would
    # fill only the last of its elements, and the first would read as zero
    path = tmp_path / "s.csv"
    write_scenario_set(generate_scenario_set(feeder4, fourbus_gen(2), seed=1), feeder4, path)
    sidecar = tmp_path / "s.csv.meta.json"
    sidecar.write_text(sidecar.read_text().replace(feeder4.fingerprint, feeder.fingerprint))
    with pytest.raises(DatasetError, match=f"{kind} elements share node-phase {shared}"):
        read_scenario_set(path, feeder)


def test_sidecar_metadata_contents(feeder4, tmp_path):
    sset = generate_scenario_set(feeder4, fourbus_gen(2), seed=9)
    path = tmp_path / "s.csv"
    write_scenario_set(sset, feeder4, path)
    meta = json.loads((tmp_path / "s.csv.meta.json").read_text())
    assert meta["seed"] == 9
    assert meta["scenario_count"] == 2
    assert meta["feeder_fingerprint"] == feeder4.fingerprint
    assert meta["generator_config"]["households_per_node"] == 2
    assert meta["csv_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()


def test_read_rejects_csv_of_another_sidecar(feeder4, tmp_path):
    # a seed-1 CSV beside the sidecar of a seed-2 set on the same feeder:
    # same fingerprint and element rows, other data
    one, two = tmp_path / "one.csv", tmp_path / "two.csv"
    write_scenario_set(generate_scenario_set(feeder4, fourbus_gen(3), seed=1), feeder4, one)
    write_scenario_set(generate_scenario_set(feeder4, fourbus_gen(3), seed=2), feeder4, two)
    (tmp_path / "one.csv.meta.json").write_bytes((tmp_path / "two.csv.meta.json").read_bytes())
    with pytest.raises(DatasetError, match="not the CSV its sidecar describes"):
        read_scenario_set(one, feeder4)
    meta = json.loads((tmp_path / "two.csv.meta.json").read_text())
    del meta["csv_sha256"]
    (tmp_path / "two.csv.meta.json").write_text(json.dumps(meta))
    with pytest.raises(DatasetError, match="csv_sha256"):
        read_scenario_set(two, feeder4)


def loop_injections(feeder, admittance, scenario, q_pv=None):
    """The per-element reference: one ``index_map`` lookup per load and pv
    unit, loads added first, then pv subtracted, in feeder order."""
    p = np.zeros(admittance.size)
    q = np.zeros(admittance.size)
    for i, ld in enumerate(feeder.loads):
        idx = admittance.index_map[(ld.bus_id, ld.phase)]
        p[idx] += scenario.p_load[i]
        q[idx] += scenario.q_load[i]
    for k, pv in enumerate(feeder.pv_units):
        idx = admittance.index_map[(pv.bus_id, pv.phase)]
        p[idx] -= scenario.p_pv[k]
        if q_pv is not None:
            q[idx] -= q_pv[k]
    return p, q


def assert_injections_bit_equal(feeder, scenario, q_pv):
    adm = build_admittance(feeder)
    inj = to_injections(adm, scenario, q_pv=q_pv)
    p, q = loop_injections(feeder, adm, scenario, q_pv)
    assert inj.p.tobytes() == p.tobytes()
    assert inj.q.tobytes() == q.tobytes()


def test_to_injections_bit_equal_to_element_loop(feeder34):
    rng = np.random.default_rng(5)
    q_rated = np.array([pv.q_rated for pv in feeder34.pv_units])
    for sc in generate_scenario_set(feeder34, synth34_gen(200), seed=17):
        q_pv = rng.uniform(-1.0, 1.0, size=q_rated.shape) * q_rated
        assert_injections_bit_equal(feeder34, sc, q_pv)
    assert_injections_bit_equal(feeder34, sc, None)


def test_to_injections_sums_elements_sharing_a_node_phase(feeder4):
    # two loads and two pv units on b2.B, plus the fixture's own elements;
    # the feeder format allows several elements on one node-phase
    loads = feeder4.loads + [LoadPoint("b2", "B", 0.1, 0.02), LoadPoint("b2", "B", 0.3, 0.1)]
    pv_units = feeder4.pv_units + [PvUnit("b2", "B", 0.5, 0.4), PvUnit("b2", "B", 0.3, 0.3)]
    feeder = replace(feeder4, loads=loads, pv_units=pv_units, fingerprint="")
    assert not validate_feeder(feeder)
    rng = np.random.default_rng(8)
    for _ in range(50):
        # magnitudes spread over decades, so summation order shows in the bits
        sc = Scenario(id=0, p_load=10.0 ** rng.uniform(-6, 0, len(loads)),
                      q_load=10.0 ** rng.uniform(-6, 0, len(loads)),
                      p_pv=10.0 ** rng.uniform(-6, 0, len(pv_units)))
        assert_injections_bit_equal(feeder, sc, rng.uniform(-0.3, 0.3, len(pv_units)))


def test_csv_numbers_parse_bit_equal_to_float(feeder34, tmp_path):
    """Every p and q cell reads back as exactly ``float(cell)``, whatever
    form the cell takes."""
    sset = generate_scenario_set(feeder34, synth34_gen(20), seed=4)
    path = tmp_path / "s.csv"
    write_scenario_set(sset, feeder34, path)
    rng = np.random.default_rng(3)
    forms = [repr, "{:.17g}".format, "{:.6e}".format, "{:.3f}".format, " {!r} ".format]
    lines = path.read_text().splitlines()
    for i in range(1, len(lines)):
        sid, etype, eid, _, _ = lines[i].split(",")
        # random bit patterns cover subnormals, extremes and every exponent
        p, q = rng.integers(0, 2**63, size=2, dtype=np.uint64).view(np.float64)
        p, q = (x if math.isfinite(x) else 0.5 for x in (p, q))
        fp, fq = forms[i % len(forms)], forms[(i // 5) % len(forms)]
        lines[i] = f"{sid},{etype},{eid},{fp(float(p))},{fq(float(q))}"
    rewrite_csv(path, "\n".join(lines) + "\n")

    # unbounded ratings, so that every cell (all are >= 0) is a pv output the reader accepts
    unrated = replace(feeder34, pv_units=[replace(pv, s_rated=math.inf)
                                          for pv in feeder34.pv_units])
    loaded = read_scenario_set(path, unrated)
    load_slot = {f"{ld.bus_id}.{ld.phase}": i for i, ld in enumerate(feeder34.loads)}
    pv_slot = {f"{pv.bus_id}.{pv.phase}": k for k, pv in enumerate(feeder34.pv_units)}
    by_id = {sc.id: sc for sc in loaded}
    for line in lines[1:]:
        sid, etype, eid, p, q = line.split(",")
        sc = by_id[int(sid)]
        if etype == "load":
            got = (sc.p_load[load_slot[eid]], sc.q_load[load_slot[eid]])
            assert np.float64(got[1]).tobytes() == np.float64(float(q)).tobytes()
        else:
            got = (sc.p_pv[pv_slot[eid]],)
        assert np.float64(got[0]).tobytes() == np.float64(float(p)).tobytes()


def test_read_zero_fills_missing_rows_in_any_order(feeder4, tmp_path):
    sset = generate_scenario_set(feeder4, fourbus_gen(3), seed=2)
    path = tmp_path / "s.csv"
    write_scenario_set(sset, feeder4, path)
    lines = path.read_text().splitlines()
    # drop scenario 0's first load row and list the rest backwards
    rows = [ln for ln in lines[1:] if not ln.startswith("0,load,b2.B,")][::-1]
    rewrite_csv(path, "\n".join([lines[0]] + rows) + "\n")
    loaded = read_scenario_set(path, feeder4)
    assert [sc.id for sc in loaded] == [0, 1, 2]
    assert loaded.scenarios[0].p_load[0] == 0.0 and loaded.scenarios[0].q_load[0] == 0.0
    assert np.array_equal(loaded.scenarios[0].p_load[1:], sset.scenarios[0].p_load[1:])
    for sa, sb in zip(loaded.scenarios[1:], sset.scenarios[1:]):
        assert np.array_equal(sa.p_load, sb.p_load)
        assert np.array_equal(sa.q_load, sb.q_load)
        assert np.array_equal(sa.p_pv, sb.p_pv)


def test_read_rejects_rows_on_a_feeder_without_elements(feeder2, tmp_path):
    sset = generate_scenario_set(feeder2, fourbus_gen(1), seed=1)
    path = tmp_path / "s.csv"
    write_scenario_set(sset, feeder2, path)
    bare = replace(feeder2, loads=[], fingerprint=feeder2.fingerprint)
    with pytest.raises(DatasetError, match="unknown element"):
        read_scenario_set(path, bare)


@pytest.mark.parametrize("case", ["text_p", "float_id", "short_row", "long_row", "nan_p",
                                  "inf_q", "empty_file", "header_only", "bad_type", "repeat",
                                  "sidecar_empty", "sidecar_bad_range", "sidecar_list",
                                  "sidecar_infinite_seed", "pv_above_rating", "pv_negative"])
def test_read_rejects_malformed_input(feeder4, tmp_path, case):
    sset = generate_scenario_set(feeder4, fourbus_gen(2), seed=1)
    path = tmp_path / "s.csv"
    write_scenario_set(sset, feeder4, path)
    lines = path.read_text().splitlines()
    sid, etype, eid, p, q = lines[1].split(",")
    row = {"text_p": f"{sid},{etype},{eid},abc,{q}",
           "float_id": f"1.5,{etype},{eid},{p},{q}",
           "short_row": f"{sid},{etype},{eid}",
           "long_row": f"{sid},{etype},{eid},{p},{q},1",
           "nan_p": f"{sid},{etype},{eid},nan,{q}",
           "inf_q": f"{sid},{etype},{eid},{p},inf",
           "bad_type": f"{sid},battery,{eid},{p},{q}",
           "repeat": f"{lines[1]}\n{sid},{etype},{eid},0.5,{q}"}.get(case)
    if row is not None:
        rewrite_csv(path, "\n".join([lines[0], row] + lines[2:]) + "\n")
    elif case.startswith("pv_"):  # 4bus's one unit is rated 0.56 p.u.
        k = next(i for i, line in enumerate(lines) if ",pv," in line)
        sid, etype, eid, _, q = lines[k].split(",")
        lines[k] = f"{sid},{etype},{eid},{50.0 if case == 'pv_above_rating' else -1e-9},{q}"
        rewrite_csv(path, "\n".join(lines) + "\n")
    elif case == "empty_file":
        rewrite_csv(path, "")
    elif case == "header_only":
        rewrite_csv(path, lines[0] + "\n")
    else:
        sidecar = tmp_path / "s.csv.meta.json"
        meta = json.loads(sidecar.read_text())
        inf_seed = json.dumps({**meta, "seed": float("inf")})  # int() cannot take it
        meta["generator_config"]["load_scale_range"] = 3
        sidecar.write_text({"sidecar_empty": "{}", "sidecar_list": "[1, 2]",
                            "sidecar_bad_range": json.dumps(meta),
                            "sidecar_infinite_seed": inf_seed}[case])
    with pytest.raises(DatasetError):
        read_scenario_set(path, feeder4)


def test_read_bounds_pv_output_by_the_unit_rating(feeder4, tmp_path):
    """0 (-0.0 too) and s_rated are in range; just beyond either is refused,
    naming the scenario and the pv unit."""
    sset = generate_scenario_set(feeder4, fourbus_gen(2), seed=1)
    path = tmp_path / "s.csv"
    write_scenario_set(sset, feeder4, path)
    lines = path.read_text().splitlines()
    k = [i for i, line in enumerate(lines) if ",pv," in line][-1]
    sid, etype, eid, _, q = lines[k].split(",")
    s_rated = feeder4.pv_units[0].s_rated
    for value in (-0.0, 0.0, s_rated, -5e-324, np.nextafter(s_rated, 1.0)):
        lines[k] = f"{sid},{etype},{eid},{float(value)!r},{q}"
        rewrite_csv(path, "\n".join(lines) + "\n")
        if 0.0 <= value <= s_rated:
            got = read_scenario_set(path, feeder4).scenarios[-1].p_pv[0]
            assert np.float64(got).tobytes() == np.float64(value).tobytes()
        else:
            with pytest.raises(DatasetError, match=f"scenario {sid} has pv {eid} output"):
                read_scenario_set(path, feeder4)


# --- the generator and writer against their per-element reference loops -----

def reference_household_pool(config, rng):
    """One scenario's pool of (load, pv) households: lognormal loads min-max
    rescaled into load_scale_range, each pv its load times a clipped-Gaussian
    ratio spanning pv_to_load_ratio_range."""
    n = config.household_pool_size
    lo, hi = config.load_scale_range
    raw = rng.lognormal(mean=0.0, sigma=0.5, size=n)
    spread = raw.max() - raw.min()
    if n == 1 or spread == 0.0:
        load = np.full(n, 0.5 * (lo + hi))
    else:
        load = lo + (hi - lo) * (raw - raw.min()) / spread
    rlo, rhi = config.pv_to_load_ratio_range
    ratio = np.clip(rng.normal(0.5 * (rlo + rhi), 0.25 * (rhi - rlo), size=n), rlo, rhi)
    return load, ratio * load


def reference_aggregate_profiles(pool, feeder, config, rng, scenario_id):
    """One snapshot from a pool, by the per-PV-unit loop: one household draw
    per unit without a co-located load point, clipped with Python's
    ``min``/``max``."""
    pool_load, pool_pv = pool
    n_loads = len(feeder.loads)
    choice = rng.integers(0, pool_load.size, size=(n_loads, config.households_per_node))
    p_load = pool_load[choice].sum(axis=1)
    pv_at_load = pool_pv[choice].sum(axis=1)
    pf = rng.uniform(config.power_factor_range[0], config.power_factor_range[1], size=n_loads)
    q_load = p_load * np.tan(np.arccos(np.clip(pf, 0.0, 1.0)))
    load_slot = {(ld.bus_id, ld.phase): i for i, ld in enumerate(feeder.loads)}
    p_pv = np.zeros(len(feeder.pv_units))
    for k, pv in enumerate(feeder.pv_units):
        slot = load_slot.get((pv.bus_id, pv.phase))
        if slot is None:
            own = rng.integers(0, pool_load.size, size=config.households_per_node)
            raw_pv = pool_pv[own].sum()
        else:
            raw_pv = pv_at_load[slot]
        p_pv[k] = min(max(raw_pv, 0.0), pv.p_rated)
    return Scenario(id=scenario_id, p_load=p_load, q_load=q_load, p_pv=p_pv)


def reference_scenario_set(feeder, config, seed):
    """``generate_scenario_set`` as a loop: a fresh pool per scenario, then
    its snapshot, all on one stream."""
    rng = np.random.default_rng(seed)
    scenarios = [reference_aggregate_profiles(reference_household_pool(config, rng),
                                              feeder, config, rng, i)
                 for i in range(config.count)]
    return ScenarioSet(scenarios=scenarios, seed=seed, generator_config=config,
                       feeder_fingerprint=feeder.fingerprint)


def reference_csv(scenario_set, feeder) -> bytes:
    """The CSV bytes of the per-value writer ``write_scenario_set`` replaced."""
    lines = [CSV_HEADER]
    for sc in scenario_set.scenarios:
        for i, ld in enumerate(feeder.loads):
            lines.append(f"{sc.id},load,{ld.bus_id}.{ld.phase},"
                         f"{float(sc.p_load[i])!r},{float(sc.q_load[i])!r}")
        for k, pv in enumerate(feeder.pv_units):
            lines.append(f"{sc.id},pv,{pv.bus_id}.{pv.phase},{float(sc.p_pv[k])!r},0.0")
    return ("\n".join(lines) + "\n").encode()


def assert_same_scenario(a, b):
    assert a.id == b.id
    for name in ("p_load", "q_load", "p_pv"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name  # signed zeros too


@pytest.fixture(scope="module")
def generator_feeders(feeder2, feeder4, feeder34):
    pv = feeder4.pv_units[0]
    return {
        "synth34": feeder34, "4bus": feeder4, "2bus": feeder2,
        "pv-no-loads": replace(feeder4, loads=[], fingerprint=""),
        "no-pv": replace(feeder4, pv_units=[], fingerprint=""),
        # a pv unit sharing b2.C with two loads takes the last one's households
        "two-loads-one-pv": replace(
            feeder4, loads=feeder4.loads + [LoadPoint("b2", "C", 0.1, 0.02)],
            pv_units=feeder4.pv_units + [PvUnit("b2", "C", 0.3, 0.3)], fingerprint=""),
        # a rating of -0.0 under zero pv: Python's min keeps the +0.0 it was given
        "zero-rated": replace(feeder4, pv_units=[PvUnit(pv.bus_id, pv.phase, 0.3, -0.0),
                                                 PvUnit("b2", "C", 0.3, 0.0)], fingerprint=""),
    }


GENERATOR_CONFIGS = {
    "h1": dict(households_per_node=1),
    "h2-synth34": dict(load_scale_range=(0.008, 0.045), power_factor_range=(0.97, 1.0)),
    "h3": dict(households_per_node=3, load_scale_range=(0.2, 0.6)),  # rating clips engage
    "h5": dict(households_per_node=5),
    "h9-pool40": dict(households_per_node=9, household_pool_size=40),
    "pool1": dict(households_per_node=1, household_pool_size=1),
    "zero-pv": dict(pv_to_load_ratio_range=(0.0, 0.0)),
}


def test_synth34_has_pv_units_without_a_load_point(feeder34):
    # the batched household draw only runs for these units
    load_points = {(ld.bus_id, ld.phase) for ld in feeder34.loads}
    assert sum((pv.bus_id, pv.phase) not in load_points for pv in feeder34.pv_units) == 30
    assert len(feeder34.pv_units) == 90


@pytest.mark.parametrize("config", sorted(GENERATOR_CONFIGS))
@pytest.mark.parametrize("feeder_name", ["synth34", "4bus", "2bus", "pv-no-loads", "no-pv",
                                         "two-loads-one-pv", "zero-rated"])
def test_aggregate_profiles_matches_reference_loop(generator_feeders, feeder_name, config):
    """The profiles ``generate_scenario_set`` aggregates for every scenario
    are the reference loop's, bit for bit."""
    feeder = generator_feeders[feeder_name]
    cfg = GenConfig(count=3, **GENERATOR_CONFIGS[config])
    for seed in (0, 1, 42, 500, 901):
        for ours, ref in zip(generate_scenario_set(feeder, cfg, seed),
                             reference_scenario_set(feeder, cfg, seed), strict=True):
            assert_same_scenario(ours, ref)


@pytest.mark.parametrize("config", ["h2-synth34", "h3", "pool1"])
def test_generate_scenario_set_matches_reference_loop(generator_feeders, config, tmp_path):
    """A generated set writes the bytes of the reference loop's set."""
    cfg = GenConfig(count=12, **GENERATOR_CONFIGS[config])
    for feeder_name in ("synth34", "4bus", "2bus"):
        feeder = generator_feeders[feeder_name]
        path = tmp_path / f"{feeder_name}.csv"
        write_scenario_set(generate_scenario_set(feeder, cfg, seed=7), feeder, path)
        assert path.read_bytes() == reference_csv(reference_scenario_set(feeder, cfg, 7), feeder)


def test_write_matches_reference_writer_for_any_array_type(feeder4, tmp_path):
    sset = generate_scenario_set(feeder4, fourbus_gen(3), seed=5)
    n_loads, n_pv = len(feeder4.loads), len(feeder4.pv_units)
    sset.scenarios += [
        # integer and float32 arrays from a caller still print as floats
        Scenario(id=3, p_load=np.arange(n_loads), q_load=np.ones(n_loads, dtype=np.int64),
                 p_pv=np.zeros(n_pv, dtype=int)),
        Scenario(id=4, p_load=np.full(n_loads, 0.1, dtype=np.float32),
                 q_load=np.array([-0.0] * n_loads), p_pv=np.array([1e-300] * n_pv)),
        Scenario(id=np.int64(5), p_load=[0.5] * n_loads, q_load=[2] * n_loads,
                 p_pv=[True] * n_pv),
    ]
    path = tmp_path / "s.csv"
    write_scenario_set(sset, feeder4, path)
    data = path.read_bytes()
    assert data == reference_csv(sset, feeder4)
    assert b"\n3,load,b2.B,0.0,1.0\n" in data


@pytest.mark.parametrize("field, element", [("p_load", "load b2.C"), ("q_load", "load b2.C"),
                                            ("p_pv", "pv b4.A")])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_write_refuses_non_finite_values(feeder4, tmp_path, field, element, value):
    sset = generate_scenario_set(feeder4, fourbus_gen(3), seed=1)
    bad = getattr(sset.scenarios[1], field)
    bad[-1 if field == "p_pv" else 1] = value
    with pytest.raises(DatasetError, match=f"scenario 1 has a non-finite value for {element}"):
        write_scenario_set(sset, feeder4, tmp_path / "s.csv")
    assert list(tmp_path.iterdir()) == []
