"""Independent test oracles for the Z-bus fixed-point power-flow solver.

A ladder (backward/forward sweep) solver written against the data model
only, sharing no numerics with the package, plus a random radial feeder
generator. Used by the unit and acceptance suites; not part of the
public surface.
"""
import cmath
import json
import math

import numpy as np

from gridpilot.feeder import PHASE_ANGLES, Feeder
from gridpilot.powerflow import InjectionSet


def sweep_solve(feeder: Feeder, injections: InjectionSet, slack_voltage: float = 1.0,
                tol: float = 1e-12, max_iter: int = 500):
    """Backward/forward sweep on the radial tree; returns {(bus, phase): V}.

    Backward pass accumulates subtree draw currents conj(S/V) per branch,
    forward pass applies V_child = V_parent - Z @ I_branch. Consumption is
    positive in ``injections`` (matching InjectionSet).
    """
    node_phases = feeder.node_phases()
    index = {np_: k for k, np_ in enumerate(node_phases)}
    s_draw = {np_: complex(injections.p[k], injections.q[k])
              for np_, k in index.items()}

    children = {b.id: [] for b in feeder.buses}
    for line in feeder.lines:
        children[line.from_bus].append(line)

    order = [feeder.source_bus_id]
    cursor = 0
    while cursor < len(order):
        for line in children[order[cursor]]:
            order.append(line.to_bus)
        cursor += 1

    v = {(b.id, ph): slack_voltage * cmath.exp(1j * PHASE_ANGLES[ph])
         for b in feeder.buses for ph in b.phases}

    for _ in range(max_iter):
        # backward: subtree current per node-phase, then per branch
        agg = {np_: (s_draw[np_] / v[np_]).conjugate() for np_ in index}
        branch_current = {}
        for bus_id in reversed(order):
            for line in children[bus_id]:
                child = feeder.bus(line.to_bus)
                i_vec = np.array([agg[(child.id, ph)] for ph in child.phases])
                branch_current[(line.from_bus, line.to_bus)] = i_vec
                for ph, i_ph in zip(child.phases, i_vec):
                    agg[(bus_id, ph)] += i_ph

        # forward: push voltages down the tree
        max_dv = 0.0
        for bus_id in order:
            for line in children[bus_id]:
                child = feeder.bus(line.to_bus)
                v_parent = np.array([v[(bus_id, ph)] for ph in child.phases])
                drop = line.phase_impedance @ branch_current[(bus_id, child.id)]
                for ph, v_new in zip(child.phases, v_parent - drop):
                    max_dv = max(max_dv, abs(v_new - v[(child.id, ph)]))
                    v[(child.id, ph)] = v_new
        if max_dv < tol:
            break
    return v


def sweep_voltage_vector(feeder: Feeder, injections: InjectionSet,
                         slack_voltage: float = 1.0) -> np.ndarray:
    v = sweep_solve(feeder, injections, slack_voltage)
    return np.array([v[np_] for np_ in feeder.node_phases()])


_SUBSETS = {
    1: ["A", "B", "C"],
    2: ["AB", "BC", "AC"],
    3: ["ABC"],
}


def random_radial_feeder_dict(rng: np.random.Generator, max_buses: int = 8) -> dict:
    """Random small radial feeder as a schema dict (write to JSON to load).

    Keeps impedances light enough that a flat start converges and the
    profile stays near nominal. Satisfies every loader invariant: symmetric
    impedance blocks, child phases within parent phases, devices off the
    source bus.
    """
    kv, kva = 4.16, 100.0
    z_base = kv * kv * 1000.0 / kva

    n_buses = int(rng.integers(2, max_buses + 1))
    buses = [{"id": "src", "phases": "ABC"}]
    lines = []
    for k in range(1, n_buses):
        parent = buses[int(rng.integers(len(buses)))]
        n_ph = int(rng.integers(1, len(parent["phases"]) + 1))
        options = [p for p in _SUBSETS[n_ph] if set(p) <= set(parent["phases"])]
        phases = options[int(rng.integers(len(options)))]
        bus_id = f"b{k:02d}"
        buses.append({"id": bus_id, "phases": phases})

        n = len(phases)
        r = rng.uniform(0.002, 0.02)
        x = rng.uniform(0.004, 0.04)
        zm = (r + 1j * x) * rng.uniform(0.2, 0.45)
        z = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                zz = (r + 1j * x) if i == j else zm
                z[i][j] = {"re": zz.real * z_base, "im": zz.imag * z_base}
        lines.append({"from": parent["id"], "to": bus_id, "z_ohm": z})

    loads = []
    pvs = []
    for bus in buses[1:]:
        for ph in bus["phases"]:
            if rng.uniform() < 0.7:
                p = float(rng.uniform(2.0, 25.0))
                pf = float(rng.uniform(0.9, 1.0))
                loads.append({"bus": bus["id"], "phase": ph, "p_kw": round(p, 3),
                              "q_kvar": round(p * math.tan(math.acos(pf)), 3)})
            if rng.uniform() < 0.3:
                s = float(rng.uniform(5.0, 15.0))
                p_rated = s * float(rng.uniform(0.8, 1.0))
                pvs.append({"bus": bus["id"], "phase": ph,
                            "s_rated_kva": round(s, 3),
                            "p_rated_kw": round(p_rated, 3)})
    if not loads:  # degenerate draw; anchor one load so the case is nontrivial
        bus = buses[1]
        loads.append({"bus": bus["id"], "phase": bus["phases"][0],
                      "p_kw": 10.0, "q_kvar": 2.0})

    return {
        "source_bus_id": "src",
        "base_voltage_kv": kv,
        "base_power_kva": kva,
        "buses": buses,
        "lines": lines,
        "loads": loads,
        "pv_units": pvs,
    }


def write_feeder(data: dict, path) -> str:
    path = str(path)
    with open(path, "w") as fh:
        json.dump(data, fh)
    return path


def random_injections(feeder: Feeder, rng: np.random.Generator) -> InjectionSet:
    """Nominal loads jittered plus PV export at a random fraction of rating."""
    index = {np_: k for k, np_ in enumerate(feeder.node_phases())}
    p = np.zeros(len(index))
    q = np.zeros(len(index))
    for load in feeder.loads:
        k = index[(load.bus_id, load.phase)]
        p[k] += load.p_nominal * rng.uniform(0.5, 1.5)
        q[k] += load.q_nominal * rng.uniform(0.5, 1.5)
    for pv in feeder.pv_units:
        k = index[(pv.bus_id, pv.phase)]
        p[k] -= pv.p_rated * rng.uniform(0.0, 1.0)
        q[k] -= pv.q_rated * rng.uniform(-0.5, 0.5)
    return InjectionSet(p=p, q=q)
