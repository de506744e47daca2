"""Three-phase radial feeder model and nodal admittance construction.

A feeder is a radial tree of buses rooted at the source (feeder-head) bus.
Every bus carries a nonempty subset of the phases {A, B, C}; one bus-phase
pair is one electrical node ("node-phase"), and all vectors downstream of
this module are indexed by node-phase. Impedances are given in ohms in the
feeder file and converted to per-unit on the feeder bases at load time;
everything in memory is per-unit.

The per-unit system is single-phase: ``base_voltage_kv`` is line-to-neutral
kV and ``base_power_kva`` is the single-phase base power, so
``z_base = base_voltage_kv**2 * 1000 / base_power_kva`` ohms and a load of
``p_kw`` converts to ``p_kw / base_power_kva`` p.u.
"""

from __future__ import annotations

import hashlib
import importlib.resources
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DanglingReferenceError,
    FeederSchemaError,
    FeederTopologyError,
    NumericalError,
)

PHASES = ("A", "B", "C")
# slack phase angles, radians
PHASE_ANGLES = {"A": 0.0, "B": -2.0 * math.pi / 3.0, "C": 2.0 * math.pi / 3.0}


@dataclass
class Bus:
    id: str
    phases: tuple[str, ...]  # nonempty, ordered subset of PHASES


@dataclass
class Line:
    from_bus: str
    to_bus: str
    # complex impedance matrix over the to-bus phases, p.u.; symmetric,
    # diagonal entries with nonnegative real part
    phase_impedance: np.ndarray


@dataclass
class LoadPoint:
    bus_id: str
    phase: str
    p_nominal: float  # p.u.
    q_nominal: float  # p.u.


@dataclass
class PvUnit:
    bus_id: str
    phase: str
    s_rated: float  # p.u.
    p_rated: float  # p.u.
    q_rated: float = None  # p.u.; derived from s and p unless overridden

    def __post_init__(self):
        if self.q_rated is None:
            self.q_rated = math.sqrt(max(self.s_rated**2 - self.p_rated**2, 0.0))


@dataclass
class Feeder:
    buses: list[Bus]
    lines: list[Line]
    loads: list[LoadPoint]
    pv_units: list[PvUnit]
    source_bus_id: str
    base_voltage_kv: float
    base_power_kva: float
    fingerprint: str = field(default="", repr=False)

    def __post_init__(self):
        self._bus_index = {b.id: b for b in self.buses}
        if not self.fingerprint:
            self.fingerprint = _fingerprint(self)

    def bus(self, bus_id: str) -> Bus:
        return self._bus_index[bus_id]

    def node_phases(self) -> list[tuple[str, str]]:
        """All (bus_id, phase) pairs in index order."""
        return [(b.id, ph) for b in self.buses for ph in b.phases]

    @property
    def n_node_phases(self) -> int:
        return sum(len(b.phases) for b in self.buses)


@dataclass
class AdmittanceMatrix:
    """Nodal admittance plus the constants the Z-bus power flow reuses.

    Every array is read-only; ``build_admittance`` is the only constructor.
    """

    g: np.ndarray  # real, symmetric, p.u.
    b: np.ndarray  # real, symmetric, p.u.
    index_map: dict[tuple[str, str], int]  # (bus_id, phase) -> row
    y: np.ndarray  # g + jb
    slack: np.ndarray  # source-bus rows, in source phase order
    free: np.ndarray  # every other row, ascending
    z_ff: np.ndarray  # inv(Y_ff)
    z_slack: np.ndarray  # Z_ff @ Y_fs, free x slack
    unit: np.ndarray  # per row, the unit phasor of its phase

    @property
    def size(self) -> int:
        return self.g.shape[0]


@dataclass
class Diagnostic:
    entity: str
    message: str
    error: type = FeederSchemaError  # what load_feeder raises for it

    def __str__(self):
        return f"{self.entity}: {self.message}"


def _canonical_dict(feeder: Feeder) -> dict:
    return {
        "source_bus_id": feeder.source_bus_id,
        "base_voltage_kv": feeder.base_voltage_kv,
        "base_power_kva": feeder.base_power_kva,
        "buses": [[b.id, "".join(b.phases)] for b in feeder.buses],
        "lines": [
            [
                ln.from_bus,
                ln.to_bus,
                [[(z.real, z.imag) for z in row] for row in ln.phase_impedance],
            ]
            for ln in feeder.lines
        ],
        "loads": [[l.bus_id, l.phase, l.p_nominal, l.q_nominal] for l in feeder.loads],
        "pv_units": [
            [p.bus_id, p.phase, p.s_rated, p.p_rated, p.q_rated] for p in feeder.pv_units
        ],
    }


def _fingerprint(feeder: Feeder) -> str:
    blob = json.dumps(_canonical_dict(feeder), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _parse_phases(raw, where: str) -> tuple[str, ...]:
    if isinstance(raw, str):
        raw = list(raw)
    if not isinstance(raw, list) or not raw:
        raise FeederSchemaError("phases must be a nonempty string or list", field=where)
    phases = tuple(ph for ph in PHASES if ph in raw)
    if len(phases) != len(raw) or any(ph not in PHASES for ph in raw):
        raise FeederSchemaError(f"invalid phase set {raw!r}", field=where)
    return phases


def _parse_complex(raw, where: str) -> complex:
    if not isinstance(raw, dict) or "re" not in raw or "im" not in raw:
        raise FeederSchemaError("impedance entries must be {re, im} pairs", field=where)
    return complex(float(raw["re"]), float(raw["im"]))


def load_feeder(path) -> Feeder:
    """Load a feeder file, convert to per-unit, and validate its invariants.

    Raises FeederSchemaError on parse/shape problems, DanglingReferenceError
    on references to unknown buses or absent phases, and FeederTopologyError
    when the graph is not a radial tree rooted at the source bus. When
    ``validate_feeder`` reports several kinds, the first class in that
    order (dangling reference, topology, schema) is raised with all of its
    diagnostics.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FeederSchemaError(f"cannot parse {path}: line {exc.lineno}: {exc.msg}") from exc
    except OSError as exc:
        raise FeederSchemaError(f"cannot read {path}: {exc}") from exc

    for key in ("buses", "lines", "loads", "pv_units", "source_bus_id",
                "base_voltage_kv", "base_power_kva"):
        if key not in raw:
            raise FeederSchemaError("missing top-level key", field=key)

    base_kv = float(raw["base_voltage_kv"])
    base_kva = float(raw["base_power_kva"])
    if base_kv <= 0 or base_kva <= 0:
        raise FeederSchemaError("base quantities must be strictly positive",
                                field="base_voltage_kv/base_power_kva")
    z_base = base_kv**2 * 1000.0 / base_kva  # ohm

    buses = []
    for i, entry in enumerate(raw["buses"]):
        try:
            buses.append(Bus(id=str(entry["id"]),
                             phases=_parse_phases(entry["phases"], f"buses[{i}].phases")))
        except (KeyError, TypeError) as exc:
            raise FeederSchemaError(f"malformed bus entry: {exc}", field=f"buses[{i}]") from exc
    by_id = {b.id: b for b in buses}
    if len(by_id) != len(buses):
        raise FeederSchemaError("duplicate bus ids", field="buses")

    lines = []
    for i, entry in enumerate(raw["lines"]):
        where = f"lines[{i}]"
        try:
            from_bus, to_bus = str(entry["from"]), str(entry["to"])
            z_rows = entry["z_ohm"]
        except (KeyError, TypeError) as exc:
            raise FeederSchemaError(f"malformed line entry: {exc}", field=where) from exc
        if from_bus not in by_id or to_bus not in by_id:
            raise DanglingReferenceError(f"{where}: references unknown bus "
                                         f"{from_bus if from_bus not in by_id else to_bus!r}")
        n_ph = len(by_id[to_bus].phases)
        z = np.array([[_parse_complex(c, f"{where}.z_ohm") for c in row] for row in z_rows],
                     dtype=complex)
        if z.shape != (n_ph, n_ph):
            raise FeederSchemaError(
                f"impedance matrix is {z.shape}, expected {(n_ph, n_ph)} for "
                f"the {n_ph} phases of bus {to_bus}", field=f"{where}.z_ohm")
        lines.append(Line(from_bus=from_bus, to_bus=to_bus, phase_impedance=z / z_base))

    loads = []
    for i, entry in enumerate(raw["loads"]):
        where = f"loads[{i}]"
        try:
            loads.append(LoadPoint(bus_id=str(entry["bus"]), phase=str(entry["phase"]),
                                   p_nominal=float(entry["p_kw"]) / base_kva,
                                   q_nominal=float(entry["q_kvar"]) / base_kva))
        except (KeyError, TypeError, ValueError) as exc:
            raise FeederSchemaError(f"malformed load entry: {exc}", field=where) from exc

    pv_units = []
    for i, entry in enumerate(raw["pv_units"]):
        where = f"pv_units[{i}]"
        try:
            q_rated = entry.get("q_rated_kvar")
            pv_units.append(PvUnit(
                bus_id=str(entry["bus"]), phase=str(entry["phase"]),
                s_rated=float(entry["s_rated_kva"]) / base_kva,
                p_rated=float(entry["p_rated_kw"]) / base_kva,
                q_rated=None if q_rated is None else float(q_rated) / base_kva))
        except (KeyError, TypeError, ValueError) as exc:
            raise FeederSchemaError(f"malformed pv entry: {exc}", field=where) from exc

    feeder = Feeder(buses=buses, lines=lines, loads=loads, pv_units=pv_units,
                    source_bus_id=str(raw["source_bus_id"]), base_voltage_kv=base_kv,
                    base_power_kva=base_kva)
    problems = validate_feeder(feeder)
    for error in (DanglingReferenceError, FeederTopologyError, FeederSchemaError):
        found = [str(d) for d in problems if d.error is error]
        if found:
            raise error("; ".join(found))
    return feeder


def builtin_feeder_path(name: str):
    """Path to a bundled fixture feeder ('2bus', '4bus', 'synth34')."""
    path = importlib.resources.files(__package__) / "feeders" / f"{name}.json"
    if not path.is_file():
        raise FeederSchemaError(f"no bundled feeder named {name!r}")
    return path


def resolve_feeder(ref: str) -> Feeder:
    """Load a feeder from a filesystem path or a bundled fixture name."""
    if ref.endswith(".json"):
        return load_feeder(ref)
    return load_feeder(builtin_feeder_path(ref))


def build_admittance(feeder: Feeder) -> AdmittanceMatrix:
    """Assemble the node-phase admittance and the power-flow constants.

    Each line contributes the inverse of its per-unit phase impedance matrix
    as a branch admittance block between the to-bus node-phases and the
    matching from-bus node-phases. The free block Y_ff (every row but the
    source bus's) is inverted once here, so each power-flow iteration is a
    matrix-vector product.
    """
    index_map = {np_: i for i, np_ in enumerate(feeder.node_phases())}
    n = len(index_map)
    y = np.zeros((n, n), dtype=complex)

    for ln in feeder.lines:
        z = ln.phase_impedance
        try:
            y_branch = np.linalg.inv(z)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"line {ln.from_bus}->{ln.to_bus} has a singular impedance matrix") from exc
        if not np.all(np.isfinite(y_branch)):
            raise NumericalError(
                f"line {ln.from_bus}->{ln.to_bus} produced non-finite admittance")
        to_phases = feeder.bus(ln.to_bus).phases
        rows_to = [index_map[(ln.to_bus, ph)] for ph in to_phases]
        rows_from = [index_map[(ln.from_bus, ph)] for ph in to_phases]
        y[np.ix_(rows_to, rows_to)] += y_branch
        y[np.ix_(rows_from, rows_from)] += y_branch
        y[np.ix_(rows_to, rows_from)] -= y_branch
        y[np.ix_(rows_from, rows_to)] -= y_branch

    src = feeder.bus(feeder.source_bus_id)
    slack = np.array([index_map[(src.id, ph)] for ph in src.phases], dtype=int)
    is_free = np.ones(n, dtype=bool)  # not np.setdiff1d: it imports numpy.ma (~1 MiB)
    is_free[slack] = False
    free = np.flatnonzero(is_free)
    try:
        z_ff = np.linalg.inv(y[np.ix_(free, free)])
    except np.linalg.LinAlgError as exc:
        raise NumericalError("free-node admittance block is singular") from exc
    arrays = {
        "g": y.real,
        "b": y.imag,
        "y": y,
        "slack": slack,
        "free": free,
        "z_ff": z_ff,
        "z_slack": z_ff @ y[np.ix_(free, slack)],
        "unit": np.array([np.exp(1j * PHASE_ANGLES[ph]) for _, ph in index_map]),
    }
    for arr in arrays.values():
        arr.flags.writeable = False
    return AdmittanceMatrix(index_map=index_map, **arrays)


def validate_feeder(feeder: Feeder) -> list[Diagnostic]:
    """Collect every invariant violation as a diagnostic instead of raising.

    Each diagnostic names the error class ``load_feeder`` raises for it:
    DanglingReferenceError for unknown buses or absent phases,
    FeederTopologyError when the lines do not form a radial tree rooted at
    the source bus, FeederSchemaError for everything else.
    """
    out = []
    by_id = {b.id: b for b in feeder.buses}

    if feeder.base_voltage_kv <= 0 or feeder.base_power_kva <= 0:
        out.append(Diagnostic("feeder", "base quantities must be strictly positive"))
    if len(by_id) != len(feeder.buses):
        out.append(Diagnostic("feeder", "duplicate bus ids"))
    if feeder.source_bus_id not in by_id:
        out.append(Diagnostic("feeder", f"source bus {feeder.source_bus_id!r} is not a bus",
                              DanglingReferenceError))
    for b in feeder.buses:
        if not b.phases:
            out.append(Diagnostic(f"bus {b.id}", "empty phase set"))

    for kind, items in (("load", feeder.loads), ("pv", feeder.pv_units)):
        for item in items:
            name = f"{kind} {item.bus_id}.{item.phase}"
            if item.bus_id not in by_id:
                out.append(Diagnostic(name, "references unknown bus", DanglingReferenceError))
            elif item.phase not in by_id[item.bus_id].phases:
                out.append(Diagnostic(name, "references a phase absent at its bus",
                                      DanglingReferenceError))
            if item.bus_id == feeder.source_bus_id:
                # the source is the slack/sensing point; devices there sit
                # upstream of the model and would corrupt head measurements
                out.append(Diagnostic(name, "sits on the source bus"))

    for load in feeder.loads:
        if load.p_nominal < 0:
            out.append(Diagnostic(f"load {load.bus_id}.{load.phase}", "negative p_nominal"))

    for pv in feeder.pv_units:
        name = f"pv {pv.bus_id}.{pv.phase}"
        if not (0 < pv.p_rated <= pv.s_rated):
            out.append(Diagnostic(name, "requires 0 < p_rated <= s_rated"))
        if pv.q_rated > pv.s_rated + 1e-12:
            out.append(Diagnostic(name, "pv q_rated exceeds s_rated"))

    # radial tree: no line into the source, one incoming line per bus, child
    # phases a subset of the parent's, and every bus reached from the source
    fed = set()
    children = {}
    for ln in feeder.lines:
        name = f"line {ln.from_bus}->{ln.to_bus}"
        z = ln.phase_impedance
        if not np.allclose(z, z.T, rtol=0, atol=1e-12):
            out.append(Diagnostic(name, "impedance matrix not symmetric"))
        if np.any(np.diag(z).real < 0):
            out.append(Diagnostic(name, "diagonal resistance is negative"))
        unknown = [bus for bus in (ln.from_bus, ln.to_bus) if bus not in by_id]
        if unknown:
            out.append(Diagnostic(name, f"references unknown bus {unknown[0]!r}",
                                  DanglingReferenceError))
            continue
        if ln.to_bus == feeder.source_bus_id:
            out.append(Diagnostic(name, "targets the source bus", FeederTopologyError))
        if ln.to_bus in fed:
            out.append(Diagnostic(f"bus {ln.to_bus}", "has multiple incoming lines "
                                  "(loop or mesh)", FeederTopologyError))
        fed.add(ln.to_bus)
        children.setdefault(ln.from_bus, []).append(ln.to_bus)
        extra = set(by_id[ln.to_bus].phases) - set(by_id[ln.from_bus].phases)
        if extra:
            out.append(Diagnostic(f"bus {ln.to_bus}", f"carries phases {sorted(extra)} "
                                  f"absent at parent {ln.from_bus}", FeederTopologyError))

    seen = {feeder.source_bus_id}
    stack = [feeder.source_bus_id]
    while stack:
        for nxt in children.get(stack.pop(), []):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    for b in feeder.buses:
        if b.id not in seen:
            out.append(Diagnostic(f"bus {b.id}", "not connected to the source",
                                  FeederTopologyError))

    return out
