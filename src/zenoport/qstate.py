"""Labeled complex amplitudes and sparse linear maps over tiny tensor-product bases.

Basis labels are (path, polarization, control-bit) triples.  Paths name
interferometer arms and loss sinks; polarization is stored canonically as
H/V with R/L accepted as aliases (R = H, L = V); the control bit is "0",
"1", or "-" when no control qubit is attached.

Everything here is immutable and pure, so states and maps are safe to
share across threads and sweep workers.
"""
from __future__ import annotations

import json
import math
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from typing import NamedTuple

ATOL_UNITARY = 1e-12
PRUNE_EPS = 1e-15

POLS = ("H", "V")
_POL_ALIASES = {"H": "H", "V": "V", "R": "H", "L": "V"}
NO_BOB = "-"
_BOBS = ("0", "1", NO_BOB)


class QStateError(Exception):
    """Base class for state-vector layer errors."""


class LabelMismatchError(QStateError):
    """A state has support outside a map's declared domain."""


class NormalizationError(QStateError):
    """A state required to be normalized is not."""


class ConservationError(QStateError):
    """Total probability drifted beyond tolerance during evolution."""


class BasisLabel(NamedTuple):
    path: str
    pol: str = "H"
    bob: str = NO_BOB

    def ket(self) -> str:
        if self.bob == NO_BOB:
            return f"|{self.path},{self.pol}>"
        return f"|{self.path},{self.pol},{self.bob}>"


def _is_pol(pol) -> bool:
    """True if pol is a polarization name that `label` accepts."""
    return isinstance(pol, str) and pol in _POL_ALIASES


def _canonical_pol(pol: str) -> str:
    if not _is_pol(pol):
        raise QStateError(f"unknown polarization {pol!r}")
    return _POL_ALIASES[pol]


def label(path: str, pol: str = "H", bob: str | int = NO_BOB) -> BasisLabel:
    """Build a canonical BasisLabel; accepts R/L polarization aliases."""
    if not path:
        raise QStateError("empty path name")
    p = _canonical_pol(pol)
    b = str(bob)
    if b not in _BOBS:
        raise QStateError(f"control bit must be 0, 1 or '-', got {bob!r}")
    return BasisLabel(path, p, b)


def _is_int(x, lo: int | None = None) -> bool:
    """True if x is an int other than a bool, and at least lo when lo is given."""
    return isinstance(x, int) and not isinstance(x, bool) and (lo is None or x >= lo)


def _is_real(x) -> bool:
    """True if x is an int or a float other than a bool."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def is_sink(path: str) -> bool:
    return path.startswith("Sink")


class StateVector(Mapping):
    """Immutable map from BasisLabel to complex amplitude.

    Zero amplitudes are dropped at construction so labels are always
    pairwise distinct and support checks stay cheap.  A state that
    optics.evolve steps on live labels also counts the fresh sink labels its
    evolution moved out (_fed) and their norm**2 (_fed_n2); every other
    state has both at zero.
    """

    __slots__ = ("_amps", "_fed", "_fed_n2")

    def __init__(self, amps: Mapping[BasisLabel, complex] | Iterable[tuple[BasisLabel, complex]] = ()):
        d = dict(amps)
        self._fed, self._fed_n2 = 0, 0.0
        self._amps: dict[BasisLabel, complex] = {}
        for k, v in d.items():
            if not isinstance(k, BasisLabel):
                raise QStateError(f"state keys must be BasisLabel, got {type(k).__name__}")
            cv = complex(v)
            if cv != 0:
                self._amps[k] = cv

    @classmethod
    def _wrap(cls, amps: dict[BasisLabel, complex], fed: int = 0,
              fed_n2: float = 0.0) -> "StateVector":
        """A state over amps as given: nonzero complex values keyed by BasisLabel."""
        s = object.__new__(cls)
        s._amps, s._fed, s._fed_n2 = amps, fed, fed_n2
        return s

    def __getitem__(self, key: BasisLabel) -> complex:
        return self._amps[key]

    def __iter__(self) -> Iterator[BasisLabel]:
        return iter(self._amps)

    def __len__(self) -> int:
        return len(self._amps)

    # the dict's own views, so loops over a state skip Mapping's per-key lookups
    def items(self):
        return self._amps.items()

    def values(self):
        return self._amps.values()

    def amp(self, key: BasisLabel) -> complex:
        return self._amps.get(key, 0j)

    def norm2(self) -> float:
        return sum((a.real * a.real + a.imag * a.imag for a in self._amps.values()), 0.0)

    def norm(self) -> float:
        return math.sqrt(self.norm2())

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n < PRUNE_EPS:
            raise NormalizationError("cannot normalize a (near-)zero state")
        return StateVector({k: v / n for k, v in self._amps.items()})

    def pruned(self, eps: float = PRUNE_EPS) -> "StateVector":
        return StateVector({k: v for k, v in self._amps.items() if abs(v) > eps})

    def __add__(self, other: "StateVector") -> "StateVector":
        out = dict(self._amps)
        for k, v in other._amps.items():
            out[k] = out.get(k, 0j) + v
        return StateVector(out)

    def __mul__(self, scalar: complex) -> "StateVector":
        return StateVector({k: v * scalar for k, v in self._amps.items()})

    __rmul__ = __mul__

    def __repr__(self) -> str:
        parts = ", ".join(f"{k.ket()}: {v:.4g}" for k, v in sorted(self._amps.items()))
        return f"StateVector({{{parts}}})"


@dataclass(frozen=True)
class Projector:
    """Projector onto a product of path, polarization and control-bit sets.

    None means "all values".  Applying twice equals applying once exactly
    (membership tests only).
    """

    paths: frozenset[str] | None = None
    pols: frozenset[str] | None = None
    bobs: frozenset[str] | None = None

    def matches(self, lbl: BasisLabel) -> bool:
        return ((self.paths is None or lbl.path in self.paths)
                and (self.pols is None or lbl.pol in self.pols)
                and (self.bobs is None or lbl.bob in self.bobs))


def projector(paths: Iterable[str] | str | None = None,
              pols: Iterable[str] | str | None = None,
              bobs: Iterable[str] | str | int | None = None) -> Projector:
    """Convenience constructor that canonicalizes pol aliases."""
    def as_set(x, conv):
        if x is None:
            return None
        if isinstance(x, (str, int)):
            x = (x,)
        return frozenset(conv(v) for v in x)
    return Projector(paths=as_set(paths, str),
                     pols=as_set(pols, _canonical_pol),
                     bobs=as_set(bobs, str))


_SPEC_KEYS = ("paths", "pols", "bobs")


def projector_to_spec(p: Projector) -> str:
    """JSON text of a projector: null is "any value", [] is "no value"."""
    return json.dumps({k: None if v is None else sorted(v)
                       for k, v in zip(_SPEC_KEYS, (p.paths, p.pols, p.bobs))}, sort_keys=True)


def projector_from_spec(text: str) -> Projector:
    """Inverse of projector_to_spec; a malformed spec raises QStateError."""
    try:
        spec = json.loads(text)
    except ValueError:
        spec = None
    if not (isinstance(spec, dict) and set(spec) <= set(_SPEC_KEYS)
            and all(v is None or isinstance(v, list) and all(isinstance(x, str) for x in v)
                    for v in spec.values())
            and set(spec.get("pols") or ()) <= set(_POL_ALIASES)):
        raise QStateError(f"malformed projector spec {text.strip()!r}")
    return projector(**spec)


class LinearMap:
    """Sparse linear map stored column-wise: columns[src][dst] = amplitude.

    The map is the identity on every label of its domain (default: the
    stored labels) that has no stored column.  kind "unitary" is audited at
    construction: the full map over the domain must have orthonormal columns
    within 1e-12 (sink rows included) and equal domain and range.  kind
    "general" skips the audit.

    columns is read-only: compose's product and a schedule's compiled step
    maps share column dicts with the maps they were built from, so a map is
    changed only by building a new one.
    """

    __slots__ = ("columns", "domain", "kind", "name")

    def __init__(self, columns: Mapping[BasisLabel, Mapping[BasisLabel, complex]],
                 kind: str = "general", name: str = "",
                 domain: Iterable[BasisLabel] | None = None):
        if kind not in ("unitary", "general"):
            raise QStateError(f"unknown map kind {kind!r}")
        # every label a map can write into a state is checked here, once per map
        cols: dict[BasisLabel, dict[BasisLabel, complex]] = {}
        for src, col in columns.items():
            if not isinstance(src, BasisLabel):
                raise QStateError(f"map {name or kind}: keys must be BasisLabel")
            kept = cols[src] = {}
            for dst, a in col.items():  # zeros are dropped unchecked
                if a != 0:
                    if not isinstance(dst, BasisLabel):
                        raise QStateError(f"map {name or kind}: keys must be BasisLabel")
                    kept[dst] = complex(a)
        self.columns = cols
        self.domain = frozenset(cols if domain is None else domain)
        self.kind = kind
        self.name = name
        if kind == "unitary":
            self._audit()

    @classmethod
    def _trusted(cls, columns: dict[BasisLabel, dict[BasisLabel, complex]], kind: str,
                 name: str, domain: frozenset[BasisLabel]) -> "LinearMap":
        """A map over columns as given: nonzero complex entries keyed by labels of
        checked maps.  Skips __init__'s copy and key check; a unitary is still audited."""
        m = object.__new__(cls)
        m.columns, m.domain, m.kind, m.name = columns, domain, kind, name
        if kind == "unitary":
            m._audit()
        return m

    def _audit(self) -> None:
        # the dense checks, with each implied identity column reduced to one entry;
        # two columns overlap only through the rows they share, so only those are summed
        who, cols, dom = self.name or "unitary", self.columns, self.domain
        rows: dict[BasisLabel, list[tuple[int, complex]]] = {}  # row -> (column index, entry)
        overlaps: dict[tuple[int, int], complex] | None = None  # made at the first shared row
        for i, col in enumerate(cols.values()):
            ni = 0
            for d, a in col.items():
                ni += abs(a) ** 2
                row = rows.get(d)
                if row is None:
                    rows[d] = [(i, a)]
                    continue
                if overlaps is None:
                    overlaps = {}
                for j, b in row:
                    overlaps[j, i] = overlaps.get((j, i), 0j) + b.conjugate() * a
                row.append((i, a))
            if not abs(ni - 1.0) <= ATOL_UNITARY:
                raise QStateError(f"map {who}: column {list(cols)[i].ket()} has norm^2 {ni}")
        if not rows.keys() <= cols.keys():  # rows whose column is the implied e_d
            for d, row in rows.items():
                if d not in cols and d in dom:
                    for i, a in row:
                        if not abs(a) <= ATOL_UNITARY:
                            raise QStateError(f"map {who}: columns {list(cols)[i].ket()},"
                                              f"{d.ket()} not orthogonal")
        if overlaps is not None:
            for (j, i), ov in overlaps.items():
                if not abs(ov) <= ATOL_UNITARY:
                    srcs = list(cols)
                    raise QStateError(f"map {who}: columns {srcs[j].ket()},{srcs[i].ket()} "
                                      "not orthogonal")
        if not cols.keys() <= rows.keys() <= dom:
            raise QStateError(f"map {who}: domain and range differ")

    def _ordered(self, key) -> "LinearMap":
        """This audited map with its columns sorted by key; shares them, skips a second audit."""
        m = object.__new__(LinearMap)
        m.columns = {src: self.columns[src] for src in sorted(self.columns, key=key)}
        m.domain, m.kind, m.name = self.domain, self.kind, self.name
        return m

    def _renamed(self, pairs) -> "LinearMap":
        """This audited map with each (label, new) pair's label renamed new,
        where it stands in the columns' order; each new label must be of the
        domain and unused by the map.  Shares the columns the renaming leaves
        alone, skips a second audit."""
        new = {a: b for a, b in pairs if a != b}
        if not new:
            return self
        m = object.__new__(LinearMap)
        m.columns = {new.get(src, src): (col if new.keys().isdisjoint(col) else
                                         {new.get(dst, dst): a for dst, a in col.items()})
                     for src, col in self.columns.items()}
        m.domain, m.kind, m.name = self.domain, self.kind, self.name
        return m

    def adjoint(self) -> "LinearMap":
        cols: dict[BasisLabel, dict[BasisLabel, complex]] = {}
        for src, col in self.columns.items():
            for dst, a in col.items():
                cols.setdefault(dst, {})[src] = a.conjugate()
        for lbl in [*self.columns, *cols]:  # rows the block leaves out: zero if stored, else identity
            row = cols.setdefault(lbl, {})
            if lbl not in self.columns and lbl in self.domain:
                row[lbl] = 1 + 0j
        return LinearMap._trusted(cols, self.kind, f"{self.name}^T" if self.name else "",
                                  self.domain)

    def __repr__(self) -> str:
        return f"LinearMap({self.name or self.kind}, {len(self.columns)} columns)"


def _accumulate(m: LinearMap, s: StateVector) -> dict[BasisLabel, complex]:
    """The complex sums of m applied to s, keyed by label in first-write order,
    zeros included; apply and optics' checked step both start from them."""
    out: dict[BasisLabel, complex] = {}
    cols = m.columns
    for src, amp in s._amps.items():
        col = cols.get(src)
        if col is None:
            if src not in m.domain:
                raise LabelMismatchError(f"state label {src.ket()} outside map domain ({m.name or m.kind})")
            out[src] = out.get(src, 0j) + amp
            continue
        for dst, a in col.items():
            out[dst] = out.get(dst, 0j) + a * amp
    return out


def apply(m: LinearMap, s: StateVector) -> StateVector:
    """Apply m to s.  Errors if s has support outside m's domain."""
    return StateVector(_accumulate(m, s))


def compose(first: LinearMap, second: LinearMap) -> LinearMap:
    """Map equal to applying `first`, then `second`."""
    cols2, dom2 = second.columns, second.domain
    if first.domain is not dom2 and not first.domain <= dom2:
        raise LabelMismatchError("composition gap: first map's domain is not inside the second's")
    cols: dict[BasisLabel, dict[BasisLabel, complex]] = {}
    for src, col in first.columns.items():
        acc: dict[BasisLabel, complex] = {}
        for mid, a in col.items():
            col2 = cols2.get(mid)
            if col2 is None:
                if mid not in dom2:
                    raise LabelMismatchError(f"composition gap: {mid.ket()} outside second map's domain")
                acc[mid] = acc.get(mid, 0j) + a
                continue
            for dst, b in col2.items():
                acc[dst] = acc.get(dst, 0j) + b * a
        if 0 in acc.values():  # a sum that cancels exactly is not stored
            acc = {dst: v for dst, v in acc.items() if v != 0}
        cols[src] = acc
    for src, col in cols2.items():
        if src not in cols and src in first.domain:
            cols[src] = col
    kind = "unitary" if first.kind == "unitary" and second.kind == "unitary" else "general"
    return LinearMap._trusted(cols, kind, f"{first.name};{second.name}".strip(";"), first.domain)


def project(p: Projector, s: StateVector) -> tuple[StateVector, float]:
    """Project s onto p; returns the unnormalized part and its probability."""
    kept = StateVector._wrap({k: v for k, v in s.items() if p.matches(k)})
    return kept, kept.norm2()


def inner(a: StateVector, b: StateVector) -> complex:
    """Conjugate-linear in a, linear in b.

    The sum iterates the state with fewer labels, counting a state's fed
    sinks (_fed) toward its size: they pair with none in the other state, so
    a live-stepped state sums as its full state would.
    """
    a_amps, b_amps = a._amps, b._amps
    small, big = ((a_amps, b_amps) if len(a_amps) + a._fed <= len(b_amps) + b._fed
                  else (b_amps, a_amps))
    total = 0j
    for k in small:
        if k in big:
            total += a_amps[k].conjugate() * b_amps[k]
    return total
