"""Construct the bundled feeder fixtures and report their scenario physics.

Run from the repo root:  python3 scripts/build_fixtures.py [--report]

The synthetic 45-bus feeder is tuned so that, at the default 1.045 p.u.
feeder-head voltage, a meaningful share of generated scenarios push the
export-only phase C above 1.05 p.u. through reverse power flow from the
stand-alone community PV units, while reactive absorption by the inverters
can pull the profile back inside the band without breaching the 0.95 floor.
"""

import argparse
import json
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from gridpilot.env import EnvConfig, MdpAction, RewardConfig, env_step  # noqa: E402
from gridpilot.feeder import load_feeder  # noqa: E402
from gridpilot.scenario import GenConfig, generate_scenario_set  # noqa: E402

OUT_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "gridpilot", "feeders")


def zmat(phases, z_self, z_mut):
    n = len(phases)
    m = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            z = z_self if i == j else z_mut
            m[i][j] = {"re": z.real, "im": z.imag}
    return m


def two_bus():
    # base 2.4 kV / 100 kVA -> z_base = 57.6 ohm; j5.76 ohm = j0.1 p.u.
    return {
        "source_bus_id": "src",
        "base_voltage_kv": 2.4,
        "base_power_kva": 100.0,
        "buses": [
            {"id": "src", "phases": "A"},
            {"id": "b2", "phases": "A"},
        ],
        "lines": [
            {"from": "src", "to": "b2", "z_ohm": zmat("A", 0.0 + 5.76j, 0.0)},
        ],
        "loads": [
            {"bus": "b2", "phase": "A", "p_kw": 20.0, "q_kvar": 5.0},
        ],
        "pv_units": [],
    }


def four_bus(p):
    """Mixed-phase 4-bus lateral: ABC -> ABC -> AB -> A, one inverter at the tip.

    The tip inverter at b4.A has no co-located load, so its output is pure
    reverse flow on phase A; with a high feeder head that lifts b4.A past
    the band in most scenarios, and absorbing vars is the only remedy.
    """
    zb = p["z_base"]
    zs1 = p["zs"] * zb
    zm1 = p["zm"] * zb
    return {
        "source_bus_id": "src",
        "base_voltage_kv": p["kv"],
        "base_power_kva": p["kva"],
        "buses": [
            {"id": "src", "phases": "ABC"},
            {"id": "b2", "phases": "ABC"},
            {"id": "b3", "phases": "AB"},
            {"id": "b4", "phases": "A"},
        ],
        "lines": [
            {"from": "src", "to": "b2", "z_ohm": zmat("ABC", zs1, zm1)},
            {"from": "b2", "to": "b3", "z_ohm": zmat("AB", zs1, zm1)},
            {"from": "b3", "to": "b4", "z_ohm": zmat("A", zs1 * 0.8, 0.0)},
        ],
        "loads": [
            {"bus": "b2", "phase": "B", "p_kw": p["heavy_kw"], "q_kvar": p["heavy_kvar"]},
            {"bus": "b2", "phase": "C", "p_kw": p["heavy_kw"], "q_kvar": p["heavy_kvar"]},
            {"bus": "b3", "phase": "B", "p_kw": p["heavy_kw"], "q_kvar": p["heavy_kvar"]},
        ],
        "pv_units": [
            {"bus": "b4", "phase": "A", "s_rated_kva": p["pv_s_kva"],
             "p_rated_kw": p["pv_p_kw"], "q_rated_kvar": p["pv_q_kvar"]},
        ],
    }


def synth34(p):
    """45-bus, 135 node-phase synthetic feeder: 14-bus trunk, 10 laterals.

    Every bus carries all three phases. Lateral buses host household loads
    on phases A and B with rooftop PV behind the same meter, plus a
    stand-alone community PV unit on the lightly loaded phase C. The C
    units export through the whole path back to the head, which at a high
    head setpoint produces the over-voltage pocket the controller has to
    manage; their oversized q rating gives it the authority to do so, at a
    curtailment-barrier cost when pushed hard.
    """
    zb = p["z_base"]
    trunk_z = (p["zs"] * zb, p["zm"] * zb)
    lat_z = (p["zs_lat"] * zb, p["zm_lat"] * zb)

    buses = [{"id": "src", "phases": "ABC"}]
    lines = []
    loads = []
    pvs = []

    trunk = [f"t{i:02d}" for i in range(1, 15)]
    prev = "src"
    for t in trunk:
        buses.append({"id": t, "phases": "ABC"})
        lines.append({"from": prev, "to": t, "z_ohm": zmat("ABC", *trunk_z)})
        prev = t

    lateral_attach = [2, 3, 5, 6, 8, 9, 10, 11, 12, 13]
    house = {"s_rated_kva": p["pv_house_s"], "p_rated_kw": p["pv_house_p"],
             "q_rated_kvar": p["pv_house_q"]}
    community = {"s_rated_kva": p["pv_comm_s"], "p_rated_kw": p["pv_comm_p"],
                 "q_rated_kvar": p["pv_comm_q"]}
    for li, attach in enumerate(lateral_attach, start=1):
        prev = trunk[attach]
        for bi in range(1, 4):
            bus_id = f"l{li:02d}b{bi}"
            buses.append({"id": bus_id, "phases": "ABC"})
            lines.append({"from": prev, "to": bus_id, "z_ohm": zmat("ABC", *lat_z)})
            prev = bus_id
            for ph in "AB":
                loads.append({"bus": bus_id, "phase": ph,
                              "p_kw": p["load_kw"], "q_kvar": p["load_kvar"]})
                pvs.append({"bus": bus_id, "phase": ph, **house})
            if bi in p["comm_positions"]:
                pvs.append({"bus": bus_id, "phase": "C", **community})

    assert len(buses) == 45, len(buses)
    return {
        "source_bus_id": "src",
        "base_voltage_kv": p["kv"],
        "base_power_kva": p["kva"],
        "buses": buses,
        "lines": lines,
        "loads": loads,
        "pv_units": pvs,
    }


def write_fixture(name, data):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    return path


def load_dict(data):
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(data, fh)
        tmp = fh.name
    try:
        return load_feeder(tmp)
    finally:
        os.unlink(tmp)


def report(data, slack, gen_cfg, n=300, seed=7, label=""):
    feeder = load_dict(data)
    gen_cfg = GenConfig(**{**gen_cfg.__dict__, "count": n})
    sset = generate_scenario_set(feeder, gen_cfg, seed)
    cfg = EnvConfig(feeder=feeder, estimator=None, slack_voltage=slack,
                    reward=RewardConfig())
    n_zones = cfg.n_zones

    print(f"--- {label}: {feeder.n_node_phases} node-phases, "
          f"{len(feeder.loads)} loads, {len(feeder.pv_units)} pv ---")
    for a in (0.0, -0.25, -0.5, -0.75, -1.0, 0.5):
        stats = {"max_v": [], "min_v": [], "over": 0, "under": 0,
                 "reward": [], "iters": [], "dev": []}
        for sc in sset:
            state, r, info = env_step(cfg, sc, MdpAction(np.full(n_zones, a)))
            if info["terminal"]:
                print(f"  a={a:+.2f}: DIVERGED scenario {sc.id}")
                continue
            v = info["v_mag_true"]
            stats["max_v"].append(v.max())
            stats["min_v"].append(v.min())
            stats["over"] += int(v.max() > 1.05)
            stats["under"] += int(v.min() < 0.95)
            stats["reward"].append(r)
            stats["iters"].append(info["iterations"])
            stats["dev"].append(info["deviation"])
        mx = np.array(stats["max_v"])
        mn = np.array(stats["min_v"])
        print(f"  a={a:+.2f}: maxV mean {mx.mean():.4f} p95 {np.percentile(mx, 95):.4f} "
              f"max {mx.max():.4f} | minV mean {mn.mean():.4f} min {mn.min():.4f} | "
              f"over {stats['over']}/{n} under {stats['under']}/{n} | "
              f"reward {np.mean(stats['reward']):.3f} | dev {np.mean(stats['dev']):.2f} | "
              f"iters<= {max(stats['iters'])}")


def default_params():
    kv, kva = 14.376, 100.0
    z_base = kv**2 * 1000.0 / kva
    synth = {
        "kv": kv, "kva": kva, "z_base": z_base,
        "zs": 0.0005 + 0.001j, "zm": 0.0002 + 0.0004j,
        "zs_lat": 0.002 + 0.004j, "zm_lat": 0.0008 + 0.0016j,
        "load_kw": 4.0, "load_kvar": 1.0,  # nominal labels; generation overrides
        "pv_house_s": 8.4, "pv_house_p": 8.0, "pv_house_q": 8.4,
        "pv_comm_s": 9.0, "pv_comm_p": 7.0, "pv_comm_q": 8.1,
        "comm_positions": (1, 2, 3),
    }
    four = {
        "kv": kv, "kva": kva, "z_base": z_base,
        "zs": 0.01 + 0.02j, "zm": 0.0015 + 0.003j,
        "heavy_kw": 40.0, "heavy_kvar": 10.0,
        "light_kw": 5.0, "light_kvar": 1.0,
        "pv_s_kva": 56.0, "pv_p_kw": 50.0, "pv_q_kvar": 45.0,
    }
    return synth, four


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--report", action="store_true")
    ap.add_argument("--n", type=int, default=300)
    args = ap.parse_args()

    synth_p, four_p = default_params()
    fixtures = {
        "2bus": two_bus(),
        "4bus": four_bus(four_p),
        "synth34": synth34(synth_p),
    }
    for name, data in fixtures.items():
        path = write_fixture(name, data)
        print(f"wrote {path}")

    if args.report:
        gen = GenConfig(count=1, load_scale_range=(0.008, 0.045),
                        power_factor_range=(0.97, 1.0), households_per_node=2)
        report(fixtures["synth34"], 1.045, gen, n=args.n, label="synth34 @1.045")
        gen4 = GenConfig(count=1, load_scale_range=(0.1, 0.5),
                         power_factor_range=(0.95, 1.0), households_per_node=2)
        report(fixtures["4bus"], 1.04, gen4, n=args.n, label="4bus @1.04")


if __name__ == "__main__":
    main()
