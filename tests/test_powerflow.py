import math
from dataclasses import replace

import numpy as np
import pytest

import bfs_oracle
from conftest import SYNTH34_SLACK, synth34_gen
from gridpilot.env import map_action
from gridpilot.errors import PowerFlowDivergedError
from gridpilot.feeder import build_admittance, builtin_feeder_path, load_feeder
from gridpilot.powerflow import (
    MAX_ITER,
    SCREEN,
    TOL,
    InjectionSet,
    feeder_head_measurement,
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
    assert np.allclose(sol.v_complex, admittance4.unit, atol=1e-12)  # the flat start


def test_converged_solution_satisfies_mismatch(feeder4, admittance4):
    inj = nominal_injections(feeder4, admittance4)
    sol = solve_power_flow(feeder4, admittance4, inj)
    assert sol.residual < 1e-8
    # S_i = V_i conj((Y V)_i) + load, from the admittance alone
    v = sol.v_complex
    f = v * np.conj(admittance4.y @ v) + inj.p + 1j * inj.q
    f_p, f_q = f.real, f.imag
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
    q_pv = map_action(np.array([coefficient]),
                      np.array([pv.q_rated for pv in feeder.pv_units]),
                      np.zeros(len(feeder.pv_units), dtype=int))
    return to_injections(adm, scenario, q_pv=q_pv)


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


def reference_solve(admittance, injections, slack_voltage=1.0):
    """The reference solver loop: the mismatch formed over every row and
    then gathered to the free rows, its real and imaginary parts reduced
    apart, and ``v[free]`` gathered afresh on each update. Returns (v_re,
    v_im, iterations, residual) where the solve stops, converged or not."""
    free = admittance.free
    s = injections.p + 1j * injections.q
    s_free = s[free]
    v = slack_voltage * admittance.unit
    w = -(admittance.z_slack @ v[admittance.slack])

    def residual_of(v):
        f = (v * np.conj(admittance.y @ v) + s)[free]
        return float(max(np.max(np.abs(f.real), initial=0.0),
                         np.max(np.abs(f.imag), initial=0.0)))

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for iteration in range(MAX_ITER + 1):
            residual = residual_of(v)
            if not math.isfinite(residual) or residual < TOL:
                return v.real.copy(), v.imag.copy(), iteration, residual
            if iteration < MAX_ITER:
                v[free] = w - admittance.z_ff @ np.conj(s_free / v[free])
    return v.real.copy(), v.imag.copy(), MAX_ITER, residual


def assert_solve_matches_reference(feeder, adm, inj, slack_voltage=1.0):
    """``solve_power_flow`` gives the reference loop's bits: the voltages,
    iteration count and residual of a converged solve, or the iteration
    count and residual its PowerFlowDivergedError carries. Returns whether
    the solve converged."""
    v_re, v_im, iterations, residual = reference_solve(adm, inj, slack_voltage)
    if residual < TOL:
        sol = solve_power_flow(feeder, adm, inj, slack_voltage=slack_voltage)
        assert np.array_equal(sol.v_re, v_re) and np.array_equal(sol.v_im, v_im)
        assert (sol.iterations, sol.residual) == (iterations, residual)
        return True
    with pytest.raises(PowerFlowDivergedError) as exc_info:
        solve_power_flow(feeder, adm, inj, slack_voltage=slack_voltage)
    assert exc_info.value.iterations == iterations
    assert np.array_equal(exc_info.value.residual, residual, equal_nan=True)
    return False


@pytest.mark.parametrize("name", ["2bus", "4bus", "synth34"])
def test_solver_matches_reference_loop_on_bundled_feeders(name):
    feeder = load_feeder(builtin_feeder_path(name))
    adm = build_admittance(feeder)
    for slack_voltage in (1.0, 1.04, 1.045):
        assert assert_solve_matches_reference(feeder, adm, nominal_injections(feeder, adm),
                                              slack_voltage)


def test_solver_matches_reference_loop_on_random_feeders(tmp_path):
    # 1-, 2- and 3-phase lines, with loads and PV export jittered per case
    rng = np.random.default_rng(2024)
    for case in range(40):
        data = bfs_oracle.random_radial_feeder_dict(rng)
        feeder = load_feeder(bfs_oracle.write_feeder(data, tmp_path / f"f{case}.json"))
        adm = build_admittance(feeder)
        for _ in range(3):
            assert assert_solve_matches_reference(
                feeder, adm, bfs_oracle.random_injections(feeder, rng)), f"case {case}"


@pytest.mark.parametrize("slack_voltage", [1.0, SYNTH34_SLACK])
def test_solver_matches_reference_loop_on_synth34_oracle_grid(feeder34, slack_voltage):
    # the 201 single-zone grid points the oracle solves for one scenario
    adm = build_admittance(feeder34)
    scenario = generate_scenario_set(feeder34, synth34_gen(1), seed=901).scenarios[0]
    q_rated = np.array([pv.q_rated for pv in feeder34.pv_units])
    zones = np.zeros(len(feeder34.pv_units), dtype=int)
    for a in np.linspace(-1.0, 1.0, 201):
        inj = to_injections(adm, scenario, q_pv=map_action(np.array([a]), q_rated, zones))
        assert assert_solve_matches_reference(feeder34, adm, inj, slack_voltage), a


@pytest.mark.parametrize("load", [(40.0, 10.0), (6.0, 0.0), (1e300, 0.0), (0.0, 1e300)])
def test_diverging_solve_matches_reference_loop(feeder2, load):
    # beyond the j0.1 line's loadability limit (5 p.u. at unity power factor):
    # still off after MAX_ITER updates, or non-finite after the first
    adm = build_admittance(feeder2)
    inj = InjectionSet(p=np.array([0.0, load[0]]), q=np.array([0.0, load[1]]))
    assert not assert_solve_matches_reference(feeder2, adm, inj)


def screen_gaps(admittance, injections, slack_voltage=1.0):
    """|screen - exact| after each update of the reference loop where the
    exact mismatch is below 10 TOL. The screen is the update's own mismatch,
    S_f - V_new (S_f / V_old), and the exact one is formed with ``y``; both
    are the largest |P| or |Q| over the free rows. Stops where the reference
    loop does."""
    free = admittance.free
    s_free = (injections.p + 1j * injections.q)[free]
    v = slack_voltage * admittance.unit
    w = -(admittance.z_slack @ v[admittance.slack])

    def largest(f):
        return max(np.max(np.abs(f.real)), np.max(np.abs(f.imag)))

    gaps = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(MAX_ITER):
            s_over_v = s_free / v[free]
            v[free] = w - admittance.z_ff @ np.conj(s_over_v)
            screen = largest(s_free - v[free] * s_over_v)
            exact = largest(v[free] * np.conj((admittance.y @ v)[free]) + s_free)
            if exact < 10 * TOL:
                gaps.append(abs(screen - exact))
            if not math.isfinite(exact) or exact < TOL:
                break
    return gaps


def assert_screen_tracks_exact(adm, inj, slack_voltage=1.0):
    # near convergence the screen is the exact mismatch to far below TOL, so
    # a screen at or above powerflow.SCREEN (2 TOL) never skips a check that converges
    gaps = screen_gaps(adm, inj, slack_voltage)
    assert gaps, "the solve never came within 10 TOL"
    assert max(gaps) <= 1e-3 * TOL, f"screen off by {max(gaps):.2e}"


@pytest.mark.parametrize("name", ["2bus", "4bus", "synth34"])
def test_screen_tracks_exact_mismatch_on_bundled_feeders(name):
    feeder = load_feeder(builtin_feeder_path(name))
    adm = build_admittance(feeder)
    for slack_voltage in (1.0, 1.04, 1.045):
        assert_screen_tracks_exact(adm, nominal_injections(feeder, adm), slack_voltage)


def test_screen_tracks_exact_mismatch_on_random_feeders(tmp_path):
    # the inputs of test_solver_matches_reference_loop_on_random_feeders
    rng = np.random.default_rng(2024)
    for case in range(40):
        data = bfs_oracle.random_radial_feeder_dict(rng)
        feeder = load_feeder(bfs_oracle.write_feeder(data, tmp_path / f"f{case}.json"))
        adm = build_admittance(feeder)
        for _ in range(3):
            assert_screen_tracks_exact(adm, bfs_oracle.random_injections(feeder, rng))


@pytest.mark.parametrize("slack_voltage", [1.0, SYNTH34_SLACK])
def test_screen_tracks_exact_mismatch_on_synth34_oracle_grid(feeder34, slack_voltage):
    adm = build_admittance(feeder34)
    scenario = generate_scenario_set(feeder34, synth34_gen(1), seed=901).scenarios[0]
    q_rated = np.array([pv.q_rated for pv in feeder34.pv_units])
    zones = np.zeros(len(feeder34.pv_units), dtype=int)
    for a in np.linspace(-1.0, 1.0, 201):
        inj = to_injections(adm, scenario, q_pv=map_action(np.array([a]), q_rated, zones))
        assert_screen_tracks_exact(adm, inj, slack_voltage)


def test_solution_carries_one_complex_vector(feeder4, admittance4):
    sol = solve_power_flow(feeder4, admittance4, nominal_injections(feeder4, admittance4))
    v = sol.v_complex
    assert v.dtype == complex and v.shape == (admittance4.size,)
    assert np.shares_memory(sol.v_re, v) and np.shares_memory(sol.v_im, v)
    assert np.array_equal(sol.v_re, v.real) and np.array_equal(sol.v_im, v.imag)
    assert np.array_equal(sol.v_mag, np.hypot(v.real, v.imag))


@pytest.mark.parametrize("part", ["p", "q"])
def test_nan_injection_diverges_at_first_check(feeder4, admittance4, part):
    # the mismatch check must see a NaN in either part of one free node's
    # injection, before any update runs
    inj = nominal_injections(feeder4, admittance4)
    getattr(inj, part)[admittance4.free[1]] = np.nan
    with pytest.raises(PowerFlowDivergedError) as exc_info:
        solve_power_flow(feeder4, admittance4, inj)
    assert exc_info.value.iterations == 0
    assert not math.isfinite(exc_info.value.residual)


@pytest.mark.parametrize("part", ["p", "q"])
def test_inf_injection_diverges_at_first_check(feeder4, admittance4, part):
    # an infinite injection is infinite in the flat-start screen too, so the
    # exact check runs and raises before any update, as the reference loop does
    inj = nominal_injections(feeder4, admittance4)
    getattr(inj, part)[admittance4.free[1]] = np.inf
    with pytest.raises(PowerFlowDivergedError) as exc_info:
        solve_power_flow(feeder4, admittance4, inj)
    assert exc_info.value.iterations == 0
    assert not math.isfinite(exc_info.value.residual)
    with np.errstate(invalid="ignore"):  # the reference loop forms 1j * inf bare
        assert not assert_solve_matches_reference(feeder4, admittance4, inj)


def largest_free_injection(adm, inj):
    return np.abs((inj.p + 1j * inj.q)[adm.free].view(np.float64)).max()


@pytest.mark.parametrize("name", ["4bus", "synth34"])
@pytest.mark.parametrize("slack_voltage", [1.0, SYNTH34_SLACK])
def test_flat_start_screen_edge_matches_reference_loop(name, slack_voltage):
    # the flat start skips its exact check only where the largest |P| or |Q|
    # injection is at least SCREEN + slack_voltage**2 * flat_bound; scaled to
    # sit just below and just above that edge, both solves keep every bit
    feeder = load_feeder(builtin_feeder_path(name))
    adm = build_admittance(feeder)
    inj = nominal_injections(feeder, adm)
    edge = SCREEN + slack_voltage * slack_voltage * adm.flat_bound
    for side in (1 - 1e-9, 1 + 1e-9):
        scale = side * edge / largest_free_injection(adm, inj)
        scaled = InjectionSet(p=scale * inj.p, q=scale * inj.q)
        assert (largest_free_injection(adm, scaled) < edge) == (side < 1)
        assert assert_solve_matches_reference(feeder, adm, scaled, slack_voltage)


@pytest.mark.parametrize("case", ["zero", "tiny", "minus_inf", "slack_square_overflows"])
def test_flat_start_check_cases_match_reference_loop(feeder4, admittance4, case):
    # each of these takes the flat start's exact check: a screen below SCREEN,
    # or one that is not finite
    inj = nominal_injections(feeder4, admittance4)
    slack_voltage = 1.0
    if case == "zero":
        inj = InjectionSet(p=np.zeros(admittance4.size), q=np.zeros(admittance4.size))
    elif case == "tiny":
        inj = InjectionSet(p=1e-12 * inj.p, q=1e-12 * inj.q)
    elif case == "minus_inf":
        inj.p[admittance4.free[2]] = -np.inf
    else:
        slack_voltage = 1e160  # its square is inf
    converged = case in ("zero", "tiny")
    assert assert_solve_matches_reference(feeder4, admittance4, inj, slack_voltage) == converged


def test_head_measurement_matches_solution(feeder4, admittance4):
    inj = nominal_injections(feeder4, admittance4)
    sol = solve_power_flow(feeder4, admittance4, inj)
    v_re, _, i_re, i_im = feeder_head_measurement(admittance4, sol).reshape(4, 3)

    idx = admittance4.slack
    assert np.allclose(v_re, sol.v_re[idx])  # source carries all three phases
    y = admittance4.g + 1j * admittance4.b
    i_head = (y @ sol.v_complex)[idx]
    assert np.allclose(i_re + 1j * i_im, i_head)

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
    v_re, v_im, i_re, i_im = feeder_head_measurement(adm, sol).reshape(4, 3)
    assert v_re[1] == 0.0 and v_im[1] == 0.0  # phase B slot empty
    assert i_re[1] == 0.0 and i_im[1] == 0.0
    assert v_re[0] != 0.0 and abs(i_re[2]) > 0.0


def test_measurement_noise_scales_with_magnitude(feeder4, admittance4):
    inj = nominal_injections(feeder4, admittance4)
    sol = solve_power_flow(feeder4, admittance4, inj)
    clean = feeder_head_measurement(admittance4, sol)

    rng = np.random.default_rng(7)
    samples = np.stack([
        feeder_head_measurement(admittance4, sol, noise_sigma=0.01, rng=rng)
        for _ in range(4000)
    ])
    err = samples - clean
    v_re, v_im, i_re, i_im = clean.reshape(4, 3)
    v_scale, i_scale = np.hypot(v_re, v_im), np.hypot(i_re, i_im)
    scale = np.concatenate([v_scale, v_scale, i_scale, i_scale])
    observed = err.std(axis=0)
    assert np.allclose(observed, 0.01 * scale, rtol=0.12)
    assert np.allclose(err.mean(axis=0), 0.0, atol=0.01 * scale.max())


@pytest.mark.parametrize("name", ["4bus", "2bus"])
def test_head_features_layout_and_noise_stream(name):
    """The 12 features are (v_re, v_im, i_re, i_im) x (A, B, C), zero where the
    source bus lacks a phase (2bus has only A), and the noise is four
    standard_normal(3) draws in that order, each scaled by its phasor's
    magnitude."""
    feeder = load_feeder(builtin_feeder_path(name))
    adm = build_admittance(feeder)
    sol = solve_power_flow(feeder, adm, nominal_injections(feeder, adm))
    v_head = sol.v_complex[adm.slack]
    i_head = adm.y[adm.slack] @ sol.v_complex
    v_re, v_im, i_re, i_im = (np.zeros(3) for _ in range(4))
    for k, ph in enumerate(feeder.bus(feeder.source_bus_id).phases):
        j = "ABC".index(ph)
        v_re[j], v_im[j], i_re[j], i_im[j] = (v_head[k].real, v_head[k].imag,
                                              i_head[k].real, i_head[k].imag)
    clean = np.concatenate([v_re, v_im, i_re, i_im])
    assert np.array_equal(feeder_head_measurement(adm, sol), clean)
    if name == "2bus":
        assert not clean.reshape(4, 3)[:, 1:].any()

    rng = np.random.default_rng(11)
    v_scale, i_scale = np.hypot(v_re, v_im), np.hypot(i_re, i_im)
    noisy = np.concatenate([v_re + 0.01 * v_scale * rng.standard_normal(3),
                            v_im + 0.01 * v_scale * rng.standard_normal(3),
                            i_re + 0.01 * i_scale * rng.standard_normal(3),
                            i_im + 0.01 * i_scale * rng.standard_normal(3)])
    got = feeder_head_measurement(adm, sol, noise_sigma=0.01, rng=np.random.default_rng(11))
    assert np.array_equal(got, noisy)
    assert not np.array_equal(got, clean)


def test_measurement_noise_requires_rng(feeder4, admittance4):
    inj = nominal_injections(feeder4, admittance4)
    sol = solve_power_flow(feeder4, admittance4, inj)
    with pytest.raises(ValueError):
        feeder_head_measurement(admittance4, sol, noise_sigma=0.01)


def test_solution_polar_properties(feeder2):
    adm = build_admittance(feeder2)
    sol = solve_power_flow(feeder2, adm, nominal_injections(feeder2, adm))
    assert np.allclose(sol.v_mag, np.abs(sol.v_complex))
    assert np.allclose(np.radians(sol.v_ang_deg),
                       np.angle(sol.v_complex))
