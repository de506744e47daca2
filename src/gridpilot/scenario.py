"""Synthetic load/PV snapshot generation, persistence, and splitting.

A scenario is one feeder-wide snapshot: active/reactive power per load point
and active PV output per inverter, all p.u. Scenarios are built by combining
household-level profiles from a small pool, mimicking aggregation of a few
metered houses onto each distribution node. PV output is tied to the local
load through a per-household ratio so realized node-level pv/load ratios stay
inside the configured range before rating clips.

Persistence is a CSV of (scenario, element, p, q) rows plus a JSON sidecar
carrying the generator config, seed, and feeder fingerprint. Repeated
generation with the same config and seed writes byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DatasetError
from .feeder import AdmittanceMatrix, Feeder
from .fileio import from_json, write_atomic
from .powerflow import InjectionSet

CSV_HEADER = "scenario_id, element_type, element_id, p_pu, q_pu"

# lognormal shape parameter for household load diversity; the pool is
# min-max rescaled into load_scale_range afterwards, so only the shape
# (right skew) of this draw matters
_LOAD_SIGMA = 0.5
# numpy's normal draws stay within 14 standard deviations: a lognormal draw of
# that shape stays below exp(7), about 1100, and a pv/load ratio draw below 4
# times its range's top, so generation forms no value above a bound times this
_DRAW_HEADROOM = 1e4


@dataclass
class GenConfig:
    count: int
    pv_to_load_ratio_range: tuple[float, float] = (0.74, 1.05)
    load_scale_range: tuple[float, float] = (0.005, 0.03)
    power_factor_range: tuple[float, float] = (0.95, 1.0)
    household_pool_size: int = 11
    households_per_node: int = 2

    def __post_init__(self):
        if self.count < 1:
            raise DatasetError("count must be >= 1")
        if self.household_pool_size < 1 or self.households_per_node < 1:
            raise DatasetError("pool size and households per node must be >= 1")
        for name in ("pv_to_load_ratio_range", "load_scale_range", "power_factor_range"):
            lo, hi = getattr(self, name)
            if not lo <= hi:
                raise DatasetError(f"{name} must satisfy low <= high")
        lo, hi = self.power_factor_range
        if lo < 0.85 or hi > 1.0:
            raise DatasetError("power_factor_range must stay within [0.85, 1.0]")
        (lo, hi), (rlo, rhi) = self.load_scale_range, self.pv_to_load_ratio_range
        try:  # bounds the ranges' midpoints and draws, a node's summed load and pv
            peak = _DRAW_HEADROOM * self.households_per_node * (1.0 + lo + hi) * (1.0 + rlo + rhi)
        except OverflowError:  # households_per_node too large for a float
            peak = np.inf
        if not (0.0 <= lo and 0.0 <= rlo and np.isfinite(peak)):
            raise DatasetError("load_scale_range and pv_to_load_ratio_range need non-negative "
                               "bounds whose sums over households_per_node cannot overflow")


@dataclass
class Scenario:
    id: int
    p_load: np.ndarray  # p.u., aligned with feeder.loads
    q_load: np.ndarray
    p_pv: np.ndarray  # p.u., aligned with feeder.pv_units


@dataclass
class ScenarioSet:
    scenarios: list[Scenario]
    seed: int
    generator_config: GenConfig
    feeder_fingerprint: str = ""

    def __len__(self):
        return len(self.scenarios)

    def __iter__(self):
        return iter(self.scenarios)


@dataclass
class HouseholdPool:
    load: np.ndarray  # p.u. active power per household
    pv: np.ndarray  # p.u. PV output per household, ratio-tied to load

    @property
    def size(self) -> int:
        return self.load.shape[0]


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def generate_household_pool(config: GenConfig, seed) -> HouseholdPool:
    """Draw a pool of household (load, pv) pairs.

    Loads take a lognormal shape min-max rescaled into load_scale_range;
    each household's PV is its load times a clipped-Gaussian ratio spanning
    pv_to_load_ratio_range. Deterministic for a given seed; passing a
    Generator continues that stream instead.
    """
    rng = _as_rng(seed)
    n = config.household_pool_size
    lo, hi = config.load_scale_range

    raw = rng.lognormal(mean=0.0, sigma=_LOAD_SIGMA, size=n)
    spread = raw.max() - raw.min()
    if n == 1 or spread == 0.0:
        load = np.full(n, 0.5 * (lo + hi))
    else:
        load = lo + (hi - lo) * (raw - raw.min()) / spread

    rlo, rhi = config.pv_to_load_ratio_range
    ratio = np.clip(rng.normal(0.5 * (rlo + rhi), 0.25 * (rhi - rlo), size=n), rlo, rhi)
    return HouseholdPool(load=load, pv=ratio * load)


def aggregate_profiles(pool: HouseholdPool, feeder: Feeder, config: GenConfig,
                       seed, scenario_id: int = 0) -> Scenario:
    """Combine pool households into one feeder snapshot.

    Every load point sums ``households_per_node`` randomly chosen pool
    entries; its reactive power follows a power factor sampled per point.
    A PV unit takes the pv aggregated at its own (bus, phase) load point,
    clipped to [0, p_rated]; units without a co-located load point draw
    their own households. Draws, in the order that keeps files byte-identical:
    load point households, power factors, then those PV units' households.
    """
    return _aggregator(feeder, config)(pool, _as_rng(seed), scenario_id)


def _aggregator(feeder: Feeder, config: GenConfig):
    """``aggregate_profiles`` for one feeder and config, its PV layout built once."""
    n_loads, h = len(feeder.loads), config.households_per_node
    load_slot = {(ld.bus_id, ld.phase): i for i, ld in enumerate(feeder.loads)}
    # each PV unit's co-located load point (the last one on its node-phase), or -1
    slot = np.array([load_slot.get((pv.bus_id, pv.phase), -1) for pv in feeder.pv_units], int)
    shared, own = np.flatnonzero(slot >= 0), np.flatnonzero(slot < 0)
    at_load = slot[shared]
    rated = np.array([pv.p_rated for pv in feeder.pv_units])

    def aggregate(pool: HouseholdPool, rng: np.random.Generator, scenario_id: int) -> Scenario:
        if pool.size < 1:
            raise DatasetError("household pool is empty")
        choice = rng.integers(0, pool.size, size=(n_loads, h))
        p_load = pool.load[choice].sum(axis=1)
        pf = rng.uniform(config.power_factor_range[0], config.power_factor_range[1], size=n_loads)
        q_load = p_load * np.tan(np.arccos(np.clip(pf, 0.0, 1.0)))
        p_pv = np.zeros(slot.size)
        p_pv[shared] = pool.pv[choice].sum(axis=1)[at_load]
        p_pv[own] = pool.pv[rng.integers(0, pool.size, size=(own.size, h))].sum(axis=1)
        # min(max(raw, 0.0), p_rated) as Python evaluates it, signed zeros included
        p_pv[p_pv < 0.0] = 0.0
        np.copyto(p_pv, rated, where=rated < p_pv)
        return Scenario(id=scenario_id, p_load=p_load, q_load=q_load, p_pv=p_pv)

    return aggregate


def generate_scenario_set(feeder: Feeder, config: GenConfig, seed: int) -> ScenarioSet:
    """Generate ``config.count`` scenarios on one deterministic stream.

    A fresh household pool is drawn per scenario so feeder-wide conditions
    (total load, prevailing pv/load ratio) vary between snapshots. Draw
    order per scenario, which keeps written files byte-identical: the pool's
    lognormal loads and normal pv/load ratios, then ``aggregate_profiles``' draws.
    """
    rng, aggregate = np.random.default_rng(seed), _aggregator(feeder, config)
    return ScenarioSet(scenarios=[aggregate(generate_household_pool(config, rng), rng, i)
                                  for i in range(config.count)],
                       seed=seed, generator_config=config, feeder_fingerprint=feeder.fingerprint)


def split(scenario_set: ScenarioSet, train_fraction: float, seed: int
          ) -> tuple[ScenarioSet, ScenarioSet]:
    """Random disjoint, exhaustive partition preserving scenario ids."""
    n = len(scenario_set)
    if n < 2:
        raise DatasetError("need at least 2 scenarios to split")
    if not 0.0 < train_fraction < 1.0:
        raise DatasetError("train_fraction must be strictly between 0 and 1")
    if seed < 0:
        raise DatasetError(f"split seed must be >= 0, got {seed}")
    n_train = int(round(train_fraction * n))
    n_train = min(max(n_train, 1), n - 1)  # both halves stay nonempty

    order = np.random.default_rng(seed).permutation(n)
    train_idx = sorted(order[:n_train])
    test_idx = sorted(order[n_train:])

    def subset(idx):
        return ScenarioSet(scenarios=[scenario_set.scenarios[i] for i in idx],
                           seed=scenario_set.seed,
                           generator_config=scenario_set.generator_config,
                           feeder_fingerprint=scenario_set.feeder_fingerprint)

    return subset(train_idx), subset(test_idx)


def _sidecar_path(csv_path) -> str:
    return os.fspath(csv_path) + ".meta.json"


def _csv_elements(feeder: Feeder) -> list[tuple[str, str]]:
    """(element type, ``bus.phase``) of each CSV element: loads, then pv units;
    DatasetError when two loads or two pv units share a node-phase."""
    elements = ([("load", f"{ld.bus_id}.{ld.phase}") for ld in feeder.loads]
                + [("pv", f"{pv.bus_id}.{pv.phase}") for pv in feeder.pv_units])
    shared = [e for e, n in Counter(elements).items() if n > 1]
    if shared:
        kind, name = shared[0]
        raise DatasetError(f"two {kind} elements share node-phase {name}; "
                           "the scenario CSV could not tell them apart")
    return elements


def write_scenario_set(scenario_set: ScenarioSet, feeder: Feeder, csv_path) -> None:
    """Persist as CSV rows plus a JSON sidecar with config/seed/fingerprint.

    Floats are written with repr (shortest round-trip form), so identical
    values produce identical bytes; the sidecar records the CSV's sha256. A
    feeder ``_csv_elements`` refuses or a non-finite value raises DatasetError
    before either file is written.
    """
    elements = _csv_elements(feeder)
    n_loads = len(feeder.loads)
    prefixes = [f"{kind},{name}," for kind, name in elements]
    lines = [CSV_HEADER]
    for sc in scenario_set.scenarios:
        p_load, q_load, p_pv = (np.asarray(a, float) for a in (sc.p_load, sc.q_load, sc.p_pv))
        head = f"{sc.id},"
        lines.extend(f"{head}{prefix}{p!r},{q!r}" for prefix, p, q in zip(
            prefixes[:n_loads], p_load.tolist(), q_load.tolist(), strict=True))
        lines.extend(f"{head}{prefix}{p!r},0.0"
                     for prefix, p in zip(prefixes[n_loads:], p_pv.tolist(), strict=True))
    data = ("\n".join(lines) + "\n").encode()
    # checked with the rows dropped: small arrays freed among them fragment the heap
    del lines
    for sc in scenario_set.scenarios:
        ok = np.concatenate((np.isfinite(sc.p_load) & np.isfinite(sc.q_load), np.isfinite(sc.p_pv)))
        if not ok.all():
            kind, name = elements[int(np.argmin(ok))]
            raise DatasetError(f"scenario {sc.id} has a non-finite value for {kind} {name}")
    write_atomic(csv_path, data)

    meta = {
        "csv_sha256": hashlib.sha256(data).hexdigest(),
        "seed": scenario_set.seed,
        "generator_config": asdict(scenario_set.generator_config),
        "feeder_fingerprint": scenario_set.feeder_fingerprint or feeder.fingerprint,
        "scenario_count": len(scenario_set),
    }
    write_atomic(_sidecar_path(csv_path), json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _read_sidecar(csv_path) -> tuple[int, GenConfig, str]:
    """(seed, generator config, feeder fingerprint) from the JSON sidecar,
    whose ``csv_sha256`` must be the digest of the CSV beside it."""
    path = _sidecar_path(csv_path)
    try:
        with open(path) as fh:
            meta = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DatasetError(f"missing or unreadable sidecar for {csv_path}: {exc}") from exc
    try:
        seed = from_json(int, meta["seed"], "seed")
        config = from_json(GenConfig, meta["generator_config"], "generator_config")
        fingerprint = from_json(str, meta.get("feeder_fingerprint", ""), "feeder_fingerprint")
        digest = meta["csv_sha256"]
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetError(f"malformed sidecar {path}: {exc!r}") from exc
    sha = hashlib.sha256()
    try:
        with open(csv_path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 16), b""):
                sha.update(chunk)
    except OSError as exc:
        raise DatasetError(f"cannot read {csv_path}: {exc}") from exc
    if sha.hexdigest() != digest:
        raise DatasetError(f"{csv_path} is not the CSV its sidecar describes (sha256)")
    return seed, config, fingerprint


# one CSV row, its element type and id read as codes (see read_scenario_set)
_ROW_DTYPE = np.dtype([("sid", np.int64), ("kind", np.int32), ("name", np.int32),
                       ("p", np.float64), ("q", np.float64)])


def read_scenario_set(csv_path, feeder: Feeder) -> ScenarioSet:
    """Load a persisted scenario set, checking elements against the feeder.

    The rows are parsed in one numpy pass, each number exactly as ``float()``
    reads it. Raises DatasetError on an unreadable or malformed sidecar, a
    CSV whose sha256 is not the sidecar's, a feeder with two loads or two pv
    units on one node-phase, a wrong header, no rows, a row that is not five
    fields with an integer scenario id and finite p and q, an element the
    feeder lacks, or one listed twice in a scenario. An element absent from
    a scenario reads as zero.
    """
    seed, config, fingerprint = _read_sidecar(csv_path)
    if fingerprint and fingerprint != feeder.fingerprint:
        raise DatasetError("scenario file was generated for a different feeder "
                           f"(fingerprint {fingerprint[:12]}... != {feeder.fingerprint[:12]}...)")

    # a row's element type and id become codes (-1: not the feeder's), and a
    # pair of codes becomes the element's column: loads, then pv units; the
    # table's last row and column hold -1 for the -1 codes
    elements = _csv_elements(feeder)
    kinds = {"load": 0, "pv": 1}
    names = {}
    for _, name in elements:
        names.setdefault(name, len(names))
    column = np.full((len(kinds) + 1, len(names) + 1), -1)
    for j, (kind, name) in enumerate(elements):
        column[kinds[kind], names[name]] = j
    converters = {1: lambda s: kinds.get(s, -1), 2: lambda s: names.get(s, -1)}
    try:
        with open(csv_path, newline="") as fh:
            header = [c.strip() for c in fh.readline().split(",")]
            if header != [c.strip() for c in CSV_HEADER.split(",")]:
                raise DatasetError(f"unexpected scenario CSV header {header} in {csv_path}")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
                rows = np.loadtxt(fh, delimiter=",", dtype=_ROW_DTYPE, comments=None,
                                  ndmin=1, converters=converters)
    except (OSError, UnicodeDecodeError) as exc:
        raise DatasetError(f"cannot read {csv_path}: {exc}") from exc
    except ValueError as exc:
        raise DatasetError(f"malformed scenario CSV {csv_path}: {exc}") from exc
    if rows.size == 0:
        raise DatasetError(f"no scenario rows in {csv_path}")
    cols = column[rows["kind"], rows["name"]]
    bad = (cols < 0) | ~np.isfinite(rows["p"]) | ~np.isfinite(rows["q"])
    if bad.any():
        i = int(np.argmax(bad))
        what = "an unknown element" if cols[i] < 0 else "a non-finite value"
        raise DatasetError(f"scenario {rows['sid'][i]} has {what} in data row {i + 1} "
                           f"of {csv_path}")

    ids, scenario_of_row = np.unique(rows["sid"], return_inverse=True)
    cells = scenario_of_row * len(elements) + cols
    if np.bincount(cells).max() > 1:
        raise DatasetError(f"{csv_path} lists an element twice in one scenario")
    p = np.zeros((len(ids), len(elements)))
    q = np.zeros((len(ids), len(elements)))
    p.flat[cells] = rows["p"]
    q.flat[cells] = rows["q"]
    n_loads = len(feeder.loads)
    scenarios = [Scenario(id=int(sid), p_load=p[j, :n_loads], q_load=q[j, :n_loads],
                          p_pv=p[j, n_loads:]) for j, sid in enumerate(ids)]
    return ScenarioSet(scenarios=scenarios, seed=seed,
                       generator_config=config,
                       feeder_fingerprint=fingerprint or feeder.fingerprint)


def to_injections(admittance: AdmittanceMatrix, scenario: Scenario,
                  q_pv: np.ndarray | None = None) -> InjectionSet:
    """Net node-phase injections for one scenario, load-positive.

    Loads are added at ``admittance.load_rows``, then PV active output and
    any reactive setpoints are subtracted at ``admittance.pv_rows``
    (generation); source-bus entries stay zero, the slack balances them.
    ``np.add.at``/``np.subtract.at`` are unbuffered and run in element
    order, so node-phases shared by several elements sum in feeder order.
    """
    p = np.zeros(admittance.size)
    q = np.zeros(admittance.size)
    np.add.at(p, admittance.load_rows, scenario.p_load)
    np.add.at(q, admittance.load_rows, scenario.q_load)
    np.subtract.at(p, admittance.pv_rows, scenario.p_pv)
    if q_pv is not None:
        np.subtract.at(q, admittance.pv_rows, q_pv)
    return InjectionSet(p=p, q=q)
