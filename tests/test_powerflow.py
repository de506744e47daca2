import math
from dataclasses import replace

import numpy as np
import pytest

import bfs_oracle
from conftest import SYNTH34_SLACK, synth34_gen
from gridpilot.env import MdpAction, map_action
from gridpilot.errors import PowerFlowDivergedError
from gridpilot.feeder import build_admittance, load_feeder
from gridpilot.powerflow import (
    InjectionSet,
    MeasurementVector,
    feeder_head_measurement,
    flat_start,
    power_mismatch,
    solve_power_flow,
)
from gridpilot.scenario import generate_scenario_set, to_injections


def two_bus_receiving_voltage(v1: float, x: float, p: float, q: float) -> float:
    """Closed form |V2| for a single-phase purely reactive line feeding (P, Q).

    Root of |V2|^4 + (2QX - |V1|^2)|V2|^2 + X^2 (P^2 + Q^2) = 0, taking the
    high-voltage branch.
    """
    b = 2.0 * q * x - v1 * v1
    c = x * x * (p * p + q * q)
    disc = b * b - 4.0 * c
    return math.sqrt((-b + math.sqrt(disc)) / 2.0)


def nominal_injections(feeder, admittance) -> InjectionSet:
    p = np.zeros(admittance.size)
    q = np.zeros(admittance.size)
    for load in feeder.loads:
        k = admittance.index_map[(load.bus_id, load.phase)]
        p[k] += load.p_nominal
        q[k] += load.q_nominal
    return InjectionSet(p=p, q=q)


def test_two_bus_matches_closed_form(feeder2):
    adm = build_admittance(feeder2)
    inj = nominal_injections(feeder2, adm)  # 0.2 + j0.05 p.u. behind j0.1 p.u.
    sol = solve_power_flow(feeder2, adm, inj)
    assert sol.converged
    k = adm.index_map[("b2", "A")]
    expected = two_bus_receiving_voltage(1.0, 0.1, 0.2, 0.05)
    assert abs(sol.v_mag[k] - expected) < 1e-8


def test_two_bus_closed_form_tracks_slack_voltage(feeder2):
    adm = build_admittance(feeder2)
    inj = nominal_injections(feeder2, adm)
    for v1 in (0.95, 1.0, 1.05):
        sol = solve_power_flow(feeder2, adm, inj, slack_voltage=v1)
        k = adm.index_map[("b2", "A")]
        assert abs(sol.v_mag[k] - two_bus_receiving_voltage(v1, 0.1, 0.2, 0.05)) < 1e-8


def test_slack_nodes_pinned(feeder4, admittance4):
    inj = nominal_injections(feeder4, admittance4)
    sol = solve_power_flow(feeder4, admittance4, inj, slack_voltage=1.03)
    idx = [admittance4.index_map[("src", ph)] for ph in "ABC"]
    assert list(admittance4.slack) == idx
    expected = 1.03 * np.exp(1j * np.radians([0.0, -120.0, 120.0]))
    assert np.allclose(sol.v_complex[idx], expected, atol=1e-15)


def test_zero_injections_give_flat_profile(feeder4, admittance4):
    inj = InjectionSet(p=np.zeros(admittance4.size), q=np.zeros(admittance4.size))
    sol = solve_power_flow(feeder4, admittance4, inj)
    assert sol.iterations == 0
    assert np.allclose(sol.v_complex, flat_start(admittance4, 1.0), atol=1e-12)


def test_converged_solution_satisfies_mismatch(feeder4, admittance4):
    inj = nominal_injections(feeder4, admittance4)
    sol = solve_power_flow(feeder4, admittance4, inj)
    assert sol.residual < 1e-8
    f_p, f_q = power_mismatch(admittance4, sol.v_complex, inj)
    free = np.setdiff1d(np.arange(admittance4.size), admittance4.slack)
    assert np.array_equal(free, admittance4.free)
    assert np.max(np.abs(f_p[free])) < 1e-8
    assert np.max(np.abs(f_q[free])) < 1e-8


def test_solver_agrees_with_sweep_oracle(tmp_path):
    rng = np.random.default_rng(42)
    for case in range(12):
        data = bfs_oracle.random_radial_feeder_dict(rng)
        feeder = load_feeder(bfs_oracle.write_feeder(data, tmp_path / f"f{case}.json"))
        adm = build_admittance(feeder)
        inj = bfs_oracle.random_injections(feeder, rng)
        sol = solve_power_flow(feeder, adm, inj)
        ref = bfs_oracle.sweep_voltage_vector(feeder, inj)
        assert np.max(np.abs(sol.v_complex - ref)) < 1e-7, f"case {case}"


def synth34_injections(feeder, adm, scale, coefficient):
    """One synth34 scenario at a fixed load scale, every PV unit at one
    reactive coefficient (the single-zone action)."""
    gen = replace(synth34_gen(1), load_scale_range=(scale, scale))
    scenario = generate_scenario_set(feeder, gen, seed=7).scenarios[0]
    q_pv = map_action(MdpAction(np.array([coefficient])), feeder.pv_units,
                      np.zeros(len(feeder.pv_units), dtype=int))
    return to_injections(feeder, adm, scenario, q_pv=q_pv)


def test_solver_agrees_with_sweep_oracle_on_synth34(feeder34):
    adm = build_admittance(feeder34)
    for scale in (0.008, 0.045):  # ends of the benchmark load range
        for coefficient in (-1.0, 0.0, 1.0):
            inj = synth34_injections(feeder34, adm, scale, coefficient)
            sol = solve_power_flow(feeder34, adm, inj, slack_voltage=SYNTH34_SLACK)
            ref = bfs_oracle.sweep_voltage_vector(feeder34, inj, SYNTH34_SLACK)
            err = np.max(np.abs(sol.v_complex - ref))
            assert err < 1e-7, f"scale {scale}, action {coefficient}: {err:.2e}"


def test_alternating_feeders_match_fresh_solves(feeder4, feeder34):
    # the Z-bus constants live on each AdmittanceMatrix; solving two feeders
    # at two slack voltages in turn must not let one solve leak into another
    def case_injections(feeder, adm):
        if feeder is feeder4:
            return nominal_injections(feeder, adm)
        return synth34_injections(feeder, adm, 0.045, 1.0)

    def fresh(feeder, slack_voltage):
        adm = build_admittance(feeder)
        return solve_power_flow(feeder, adm, case_injections(feeder, adm),
                                slack_voltage=slack_voltage)

    cases = [(f, v) for v in (1.0, 1.045) for f in (feeder4, feeder34)]
    expected = [fresh(f, v) for f, v in cases]
    shared = {id(f): build_admittance(f) for f in (feeder4, feeder34)}
    for _ in range(2):
        for (feeder, v1), want in zip(cases, expected):
            adm = shared[id(feeder)]
            got = solve_power_flow(feeder, adm, case_injections(feeder, adm),
                                   slack_voltage=v1)
            assert np.array_equal(got.v_re, want.v_re)
            assert np.array_equal(got.v_im, want.v_im)
            assert got.iterations == want.iterations


def test_injection_length_checked(feeder4, admittance4):
    with pytest.raises(ValueError):
        solve_power_flow(feeder4, admittance4, InjectionSet(p=np.zeros(3), q=np.zeros(3)))
    with pytest.raises(ValueError):
        InjectionSet(p=np.zeros(4), q=np.zeros(3))


def test_impossible_load_raises_diverged(feeder2):
    adm = build_admittance(feeder2)
    # far beyond the ~ |V1|^2 / 4X loadability limit of the j0.1 line
    inj = InjectionSet(p=np.array([0.0, 40.0]), q=np.array([0.0, 10.0]))
    with pytest.raises(PowerFlowDivergedError) as exc_info:
        solve_power_flow(feeder2, adm, inj)
    assert exc_info.value.iterations > 0
    assert exc_info.value.residual > 1e-8  # carries how far off the solve ended


def test_head_measurement_matches_solution(feeder4, admittance4):
    inj = nominal_injections(feeder4, admittance4)
    sol = solve_power_flow(feeder4, admittance4, inj)
    meas = feeder_head_measurement(feeder4, admittance4, sol)

    idx = admittance4.slack
    assert np.allclose(meas.v_re, sol.v_re[idx])  # source carries all three phases
    y = admittance4.g + 1j * admittance4.b
    i_head = (y @ sol.v_complex)[idx]
    assert np.allclose(meas.i_re + 1j * meas.i_im, i_head)

    # head power equals total consumption plus losses; with loads only it
    # must exceed the summed load and stay the same order of magnitude
    s_head = (sol.v_complex[idx] * np.conj(i_head)).sum()
    assert s_head.real > inj.p.sum() * 0.999
    assert s_head.real < inj.p.sum() * 1.2


def test_head_measurement_absent_phase_slots_zero(tmp_path):
    import json
    data = {
        "source_bus_id": "src",
        "base_voltage_kv": 2.4,
        "base_power_kva": 100.0,
        "buses": [{"id": "src", "phases": "AC"}, {"id": "b1", "phases": "C"}],
        "lines": [{"from": "src", "to": "b1", "z_ohm": [[{"re": 0.5, "im": 1.0}]]}],
        "loads": [{"bus": "b1", "phase": "C", "p_kw": 8.0, "q_kvar": 1.5}],
        "pv_units": [],
    }
    path = tmp_path / "ac.json"
    path.write_text(json.dumps(data))
    feeder = load_feeder(path)
    adm = build_admittance(feeder)
    inj = nominal_injections(feeder, adm)
    sol = solve_power_flow(feeder, adm, inj)
    meas = feeder_head_measurement(feeder, adm, sol)
    assert meas.v_re[1] == 0.0 and meas.v_im[1] == 0.0  # phase B slot empty
    assert meas.i_re[1] == 0.0 and meas.i_im[1] == 0.0
    assert meas.v_re[0] != 0.0 and abs(meas.i_re[2]) > 0.0


def test_measurement_noise_scales_with_magnitude(feeder4, admittance4):
    inj = nominal_injections(feeder4, admittance4)
    sol = solve_power_flow(feeder4, admittance4, inj)
    clean = feeder_head_measurement(feeder4, admittance4, sol)

    rng = np.random.default_rng(7)
    samples = np.stack([
        feeder_head_measurement(feeder4, admittance4, sol, noise_sigma=0.01,
                                rng=rng).as_features()
        for _ in range(4000)
    ])
    err = samples - clean.as_features()
    scale = np.concatenate([
        np.repeat(np.hypot(clean.v_re, clean.v_im), 1),
        np.repeat(np.hypot(clean.v_re, clean.v_im), 1),
        np.repeat(np.hypot(clean.i_re, clean.i_im), 1),
        np.repeat(np.hypot(clean.i_re, clean.i_im), 1),
    ])
    observed = err.std(axis=0)
    assert np.allclose(observed, 0.01 * scale, rtol=0.12)
    assert np.allclose(err.mean(axis=0), 0.0, atol=0.01 * scale.max())


def test_measurement_noise_requires_rng(feeder4, admittance4):
    inj = nominal_injections(feeder4, admittance4)
    sol = solve_power_flow(feeder4, admittance4, inj)
    with pytest.raises(ValueError):
        feeder_head_measurement(feeder4, admittance4, sol, noise_sigma=0.01)


def test_measurement_feature_round_trip(feeder4, admittance4):
    inj = nominal_injections(feeder4, admittance4)
    sol = solve_power_flow(feeder4, admittance4, inj)
    meas = feeder_head_measurement(feeder4, admittance4, sol)
    again = MeasurementVector.from_features(meas.as_features())
    assert np.array_equal(again.as_features(), meas.as_features())
    with pytest.raises(ValueError):
        MeasurementVector.from_features(np.zeros(11))


def test_solution_polar_properties(feeder2):
    adm = build_admittance(feeder2)
    sol = solve_power_flow(feeder2, adm, nominal_injections(feeder2, adm))
    assert np.allclose(sol.v_mag, np.abs(sol.v_complex))
    assert np.allclose(np.radians(sol.v_ang_deg),
                       np.angle(sol.v_complex))
