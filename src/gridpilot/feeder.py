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
from functools import cached_property

import numpy as np

from .errors import (
    DanglingReferenceError,
    FeederSchemaError,
    FeederTopologyError,
    NumericalError,
)
from .fileio import from_json, read_json

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

    @cached_property
    def admittance(self) -> "AdmittanceMatrix":
        """This feeder's ``build_admittance``, built on first use and then shared
        by every command stage that solves on it."""
        return build_admittance(self)


@dataclass
class AdmittanceMatrix:
    """Nodal admittance plus the per-feeder constants every step reuses: the
    Z-bus power-flow constants, the row of each load point and PV unit, and
    the ``PHASES`` slot of each slack row.

    Every array is read-only; ``build_admittance`` is the only constructor.
    """

    g: np.ndarray  # real, symmetric, p.u.
    b: np.ndarray  # real, symmetric, p.u.
    index_map: dict[tuple[str, str], int]  # (bus_id, phase) -> row
    load_rows: np.ndarray  # feeder.loads[i] -> row
    pv_rows: np.ndarray  # feeder.pv_units[k] -> row
    y: np.ndarray  # g + jb
    y_slack: np.ndarray  # y[slack], the rows of the feeder-head current
    slack: np.ndarray  # source-bus rows, in source phase order
    free: np.ndarray  # every other row, ascending
    z_ff: np.ndarray  # inv(Y_ff)
    z_slack: np.ndarray  # Z_ff @ Y_fs, free x slack
    unit: np.ndarray  # per row, the unit phasor of its phase
    slack_slots: np.ndarray  # per slack row, its phase's index in PHASES
    flat_bound: float  # |V_f conj((Y V)_f)| <= slack_voltage**2 * flat_bound at the flat start

    @property
    def size(self) -> int:
        return self.y.shape[0]


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


def _real(entry, key: str, where: str = "", scale: float = 1.0) -> float:
    """``entry[key] / scale``; FeederSchemaError naming the field unless the
    value and the quotient are finite reals (``fileio.from_json``'s float)."""
    try:
        return from_json(float, float(from_json(float, entry[key], "value")) / scale, "value")
    except (KeyError, TypeError, ValueError) as exc:
        raise FeederSchemaError(f"needs a finite real number, in the file and per-unit: {exc}",
                                field=f"{where}.{key}" if where else key) from None


def _text(entry, key: str, where: str = "") -> str:
    """``entry[key]``; FeederSchemaError naming the field unless it is a JSON string."""
    try:
        return from_json(str, entry[key], "value")
    except ValueError as exc:
        raise FeederSchemaError(str(exc), field=f"{where}.{key}" if where else key) from None


def _entries(raw: dict, key: str, required: tuple):
    """(field path, entry) for each entry of the list ``raw[key]``, each of
    which must be an object holding the ``required`` keys."""
    if not isinstance(raw[key], list):
        raise FeederSchemaError("must be a list", field=key)
    for i, entry in enumerate(raw[key]):
        if not isinstance(entry, dict) or any(k not in entry for k in required):
            raise FeederSchemaError(f"entry must be an object holding {list(required)}, "
                                    f"got {entry!r}", field=f"{key}[{i}]")
        yield f"{key}[{i}]", entry


def load_feeder(path) -> Feeder:
    """Load a feeder file, convert to per-unit, and validate its invariants.

    Raises FeederSchemaError on parse/shape problems (among them an entry
    that is not an object, or a number not finite in the file or per-unit),
    DanglingReferenceError on references to unknown buses or absent phases,
    and FeederTopologyError when the graph is not a radial tree rooted at
    the source bus. When ``validate_feeder`` reports several kinds, the
    first class in that order (dangling reference, topology, schema) is
    raised with all of its diagnostics.
    """
    raw = read_json(path, FeederSchemaError, "feeder")
    for key in ("buses", "lines", "loads", "pv_units", "source_bus_id",
                "base_voltage_kv", "base_power_kva"):
        if key not in raw:
            raise FeederSchemaError("missing top-level key", field=key)

    base_kv = _real(raw, "base_voltage_kv")
    base_kva = _real(raw, "base_power_kva")
    try:  # validate_feeder rejects a nonpositive base
        z_base = base_kv**2 * 1000.0 / base_kva  # ohm
    except (OverflowError, ZeroDivisionError):
        z_base = math.nan
    if not 0.0 < z_base < math.inf:
        raise FeederSchemaError("base quantities must give a positive, finite impedance base",
                                field="base_voltage_kv/base_power_kva")

    buses = [Bus(id=_text(entry, "id", where),
                 phases=_parse_phases(entry["phases"], f"{where}.phases"))
             for where, entry in _entries(raw, "buses", ("id", "phases"))]
    by_id = {b.id: b for b in buses}  # validate_feeder rejects duplicate ids

    lines = []
    for where, entry in _entries(raw, "lines", ("from", "to", "z_ohm")):
        from_bus, to_bus = _text(entry, "from", where), _text(entry, "to", where)
        z_rows = entry["z_ohm"]
        if from_bus not in by_id or to_bus not in by_id:
            raise DanglingReferenceError(f"{where}: references unknown bus "
                                         f"{from_bus if from_bus not in by_id else to_bus!r}")
        n_ph = len(by_id[to_bus].phases)
        if not (isinstance(z_rows, list) and len(z_rows) == n_ph
                and all(isinstance(row, list) and len(row) == n_ph for row in z_rows)):
            raise FeederSchemaError(f"impedance matrix must be {n_ph} x {n_ph} for the "
                                    f"{n_ph} phases of bus {to_bus}", field=f"{where}.z_ohm")
        z = np.array([[complex(_real(c, "re", f"{where}.z_ohm"), _real(c, "im", f"{where}.z_ohm"))
                       for c in row] for row in z_rows], dtype=complex) / z_base
        if not np.isfinite(z).all():
            raise FeederSchemaError("impedance overflows in per-unit", field=f"{where}.z_ohm")
        lines.append(Line(from_bus=from_bus, to_bus=to_bus, phase_impedance=z))

    loads = [LoadPoint(bus_id=_text(entry, "bus", where), phase=_text(entry, "phase", where),
                       p_nominal=_real(entry, "p_kw", where, base_kva),
                       q_nominal=_real(entry, "q_kvar", where, base_kva))
             for where, entry in _entries(raw, "loads", ("bus", "phase", "p_kw", "q_kvar"))]

    pv_units = []
    for where, entry in _entries(raw, "pv_units", ("bus", "phase", "s_rated_kva", "p_rated_kw")):
        q_rated = entry.get("q_rated_kvar")
        try:
            pv_units.append(PvUnit(
                bus_id=_text(entry, "bus", where), phase=_text(entry, "phase", where),
                s_rated=_real(entry, "s_rated_kva", where, base_kva),
                p_rated=_real(entry, "p_rated_kw", where, base_kva),
                q_rated=None if q_rated is None else _real(entry, "q_rated_kvar", where, base_kva)))
        except OverflowError as exc:  # the default q_rated squares the ratings
            raise FeederSchemaError("ratings overflow when squared", field=where) from exc

    feeder = Feeder(buses=buses, lines=lines, loads=loads, pv_units=pv_units,
                    source_bus_id=_text(raw, "source_bus_id"), base_voltage_kv=base_kv,
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
    source bus's) is inverted once here, so a power-flow update is one ``z_ff``
    matrix-vector product; one exact ``y`` product checks the mismatch where
    the solver's screen says convergence is near. A line maps equal phasors
    to zero current, so at the flat start Y V's free rows are rounding alone:
    ``flat_bound`` is |(y @ unit)_f| plus 8 (n + 2) 2**-52 times the largest
    free row sum of |y| (Higham 2002, section 3.1), or inf past a row sum of
    1e150, where Y V could overflow while slack_voltage**2 does not.
    ``Feeder.admittance`` holds one per feeder.

    The blocks are scattered by one ``np.add.at``, which is unbuffered and
    runs in element order, so an entry shared by several lines sums in
    feeder line order; subtracting a block equals adding its negation.
    """
    index_map = {np_: i for i, np_ in enumerate(feeder.node_phases())}
    n = len(index_map)
    y = np.zeros((n, n), dtype=complex)
    rows, cols, blocks = [], [], []

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
        k = len(to_phases)
        ends = [index_map[(bus, ph)] for bus in (ln.to_bus, ln.from_bus) for ph in to_phases]
        block = np.empty((2 * k, 2 * k), dtype=complex)  # [[Y, -Y], [-Y, Y]] over ends
        block[:k, :k] = block[k:, k:] = y_branch
        block[:k, k:] = block[k:, :k] = -y_branch
        rows.append(np.repeat(ends, 2 * k))
        cols.append(np.tile(ends, 2 * k))
        blocks.append(block.ravel())
    if blocks:
        np.add.at(y, (np.concatenate(rows), np.concatenate(cols)), np.concatenate(blocks))

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
        "y_slack": y[slack],
        "slack": slack,
        "free": free,
        "z_ff": z_ff,
        "z_slack": z_ff @ y[np.ix_(free, slack)],
        "unit": np.array([np.exp(1j * PHASE_ANGLES[ph]) for _, ph in index_map]),
        "load_rows": np.array([index_map[(x.bus_id, x.phase)] for x in feeder.loads], dtype=int),
        "pv_rows": np.array([index_map[(x.bus_id, x.phase)] for x in feeder.pv_units], dtype=int),
        "slack_slots": np.array([PHASES.index(ph) for ph in src.phases], dtype=int),
    }
    row_sum = np.abs(y[free]).sum(axis=1).max(initial=0.0)
    bound = np.abs((y @ arrays["unit"])[free]).max(initial=0.0) + 8 * (n + 2) * 2.0**-52 * row_sum
    for arr in arrays.values():
        arr.flags.writeable = False
    return AdmittanceMatrix(index_map=index_map, **arrays,
                            flat_bound=float(bound) if row_sum < 1e150 else math.inf)


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
        if not (0 <= pv.q_rated <= pv.s_rated + 1e-12):
            out.append(Diagnostic(name, "requires 0 <= q_rated <= s_rated"))

    # radial tree: no line into the source, one incoming line per bus, child
    # phases a subset of the parent's, and every bus reached from the source
    fed = set()
    children = {}
    for ln in feeder.lines:
        name = f"line {ln.from_bus}->{ln.to_bus}"
        z = ln.phase_impedance
        if not (np.abs(z - z.T) <= 1e-12).all():
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
