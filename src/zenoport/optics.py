"""Optical elements and time-stamped schedules for nested interferometers.

A schedule is an ordered list of time stamps with one composite step map
between consecutive stamps.  Every element acts as a total unitary over the
schedule's label universe: loss is modeled by routing into a sink label, so
the step stays unitary.  The builder feeds each sink in one step, which freezes
its amplitude; that keeps distinct loss events orthogonal and makes adjoint
(backward) evolution well defined everywhere.  A sink that several steps of a
user schedule touch is supported: it is stepped like any other label.

The main builder assembles the nested two-level interferometer: M outer
cycles (rotation pi/2M), each holding a chain of inner cycles (rotation
pi/2N).  Arm names: S source/carrier, A outer bypass, D inner carrier,
C inner channel arm (H component), B inner bypass arm (V component),
F final exit.  Per-cycle exhaust goes to SinkD3#m; a blocked channel feeds
SinkBlock#m.j; entrance blocks of the trace-suppression variant feed
SinkAV#m.k.
"""
from __future__ import annotations

import math
import sys
from functools import cached_property
from typing import NamedTuple

from .qstate import (
    PRUNE_EPS,
    BasisLabel,
    ConservationError,
    LinearMap,
    Projector,
    QStateError,
    StateVector,
    _accumulate,
    _canonical_pol,
    _is_int,
    _is_pol,
    _is_real,
    compose,
    is_sink,
    label,
    projector,
)

ELEMENT_KINDS = {"spr": 1, "pbs": 3, "block": 2, "route": 2}  # kind -> number of arms
ATOL_CONSERVE = 1e-12
# a sum whose squared modulus, as computed, exceeds this has abs() > PRUNE_EPS
# however it was rounded, so the checked step need not ask abs()
_KEEP2 = 1.001 * PRUNE_EPS**2


class _Element(NamedTuple):
    kind: str
    name: str
    arms: tuple[str, ...]
    params: tuple[tuple[str, object], ...] = ()


class Element(_Element):
    """One optical element: a kind, a display name, arm labels, parameters."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not isinstance(self.kind, str) or self.kind not in ELEMENT_KINDS:
            raise QStateError(f"unknown element kind {self.kind!r}")
        if (not isinstance(self.arms, tuple) or len(self.arms) != ELEMENT_KINDS[self.kind]
                or not all(isinstance(a, str) for a in self.arms)):
            raise QStateError(f"element {self.name}: {self.kind} takes "
                              f"{ELEMENT_KINDS[self.kind]} arms, got {self.arms!r}")
        if not (isinstance(self.params, tuple)
                and all(isinstance(p, tuple) and len(p) == 2 for p in self.params)):
            raise QStateError(f"element {self.name}: params must be (key, value) pairs, "
                              f"got {self.params!r}")
        theta, pols, pol = self.param("theta"), self.param("pols"), self.param("pol")
        # theta must fit a float; a NaN angle constructs, and the step's
        # unitarity audit refuses it
        if self.kind == "spr" and not (_is_real(theta) and not abs(theta) > sys.float_info.max):
            raise QStateError(f"element {self.name}: spr takes a real angle theta, got {theta!r}")
        if self.kind == "block" and not (isinstance(pols, tuple) and pols
                                         and all(_is_pol(p) for p in pols)):
            raise QStateError(f"element {self.name}: block takes a non-empty tuple of "
                              f"polarizations, got {pols!r}")
        if self.kind == "route" and not _is_pol(pol):
            raise QStateError(f"element {self.name}: route takes one polarization, got {pol!r}")
        return self

    def param(self, key: str, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default


def spr(theta: float, path: str = "S", name: str = "SPR") -> Element:
    """Polarization rotator: H -> cos*H + sin*V, V -> -sin*H + cos*V."""
    return Element("spr", name, (path,), (("theta", theta),))


def pbs(in_path: str, h_out: str, v_out: str, name: str = "PBS") -> Element:
    """Polarizing splitter: H component to h_out, V component to v_out.

    Traversing the same element again with in_path empty merges the two
    outputs back, so one constructor covers both split and merge passes.
    """
    return Element("pbs", name, (in_path, h_out, v_out))


def block(path: str, sink: str, pols: tuple[str, ...] = ("H",), name: str = "Block") -> Element:
    """Absorb the given polarizations of path into a fresh sink label."""
    return Element("block", name, (path, sink), (("pols", pols),))


def route(src: str, pol: str, dst: str, name: str = "route") -> Element:
    """Move one polarization component from src to dst (dst must be empty)."""
    return Element("route", name, (src, dst), (("pol", pol),))


def _label_index(universe: tuple[BasisLabel, ...]):
    """Domain, universe positions, arm -> control bits and each label's own
    object, built once per universe."""
    pos = {l: i for i, l in enumerate(universe)}
    bobs: dict[str, set[str]] = {}
    for l in universe:
        bobs.setdefault(l.path, set()).add(l.bob)
    return (frozenset(pos), pos, {path: tuple(sorted(b)) for path, b in bobs.items()},
            {l: l for l in universe})


def _swap(cols: dict, a: BasisLabel, b: BasisLabel) -> None:
    cols[a], cols[b] = {b: 1.0}, {a: 1.0}


def _element_map(el: Element, index) -> LinearMap:
    # maps key their columns by the universe's own label objects, so the
    # states they step share them
    dom, _, bobs, own = index
    cols: dict[BasisLabel, dict[BasisLabel, complex]] = {}

    def need(path: str, pol: str, b: str) -> BasisLabel:
        lbl = own.get((path, pol, b))
        if lbl is None:
            raise QStateError(f"element {el.name}: label {label(path, pol, b).ket()} "
                              "missing from universe")
        return lbl

    if el.kind == "spr":
        (path,) = el.arms
        t = el.param("theta")
        hh, hv, vh, vv = math.cos(t), math.sin(t), -math.sin(t), math.cos(t)
        for b in bobs.get(path, ()):
            h, v = need(path, "H", b), need(path, "V", b)
            cols[h] = {h: hh, v: hv}
            cols[v] = {h: vh, v: vv}
    elif el.kind == "pbs":
        in_path, h_out, v_out = el.arms
        for b in bobs.get(in_path, ()):
            _swap(cols, need(in_path, "H", b), need(h_out, "H", b))
            _swap(cols, need(in_path, "V", b), need(v_out, "V", b))
    elif el.kind == "block":
        path, sink = el.arms
        for pol in map(_canonical_pol, el.param("pols")):
            for b in bobs.get(path, ()):
                _swap(cols, need(path, pol, b), need(sink, pol, b))
    elif el.kind == "route":
        src, dst = el.arms
        pol = _canonical_pol(el.param("pol"))
        for b in bobs.get(src, ()):
            _swap(cols, need(src, pol, b), need(dst, pol, b))
    return LinearMap(cols, kind="unitary", name=el.name, domain=dom)


def _step_map(elements: tuple[Element, ...], index, element_maps: dict) -> LinearMap:
    # folded from the right; columns stay in universe order: the adjoint's sums
    # follow column order
    dom, pos, _, _ = index
    m = None
    for el in reversed(elements):
        # element_maps carries the maps already built and audited, keyed by element
        # object (the builder shares one object per repeated element): no Element hash
        em = element_maps.get(id(el))
        if em is None:
            em = element_maps[id(el)] = _element_map(el, index)
        m = em if m is None else compose(em, m)
    if m is None:
        m = LinearMap({}, kind="unitary", name="idle", domain=dom)
    return m._ordered(pos.__getitem__)


def element_map(el: Element, universe: tuple[BasisLabel, ...]) -> LinearMap:
    """Unitary action of el on the universe: stores the labels el touches, identity elsewhere."""
    return _element_map(el, _label_index(universe))


def step_map(elements: tuple[Element, ...], universe: tuple[BasisLabel, ...]) -> LinearMap:
    return _step_map(elements, _label_index(universe), {})


class _Plan:
    """A schedule compiled for stepping: one map per step shape, shared by every
    step of that shape, and the fresh sinks each step feeds as (label in the
    shape's map, the step's own label) pairs.  The analysis engines step these
    maps on live labels.  Every map derived from them is built on first use and
    kept here, so a plan that replaces another derives its own."""

    def __init__(self, maps: tuple[LinearMap, ...],
                 feeds: tuple[tuple[tuple[BasisLabel, BasisLabel], ...], ...],
                 fresh: frozenset[str]):
        self.maps, self.feeds = maps, feeds
        self.fresh = fresh  # sink paths that exactly one step touches

    @cached_property
    def adjoints(self) -> tuple[LinearMap, ...]:
        """Adjoint of each step's map, one per shape."""
        adjoints = {m: m.adjoint() for m in dict.fromkeys(self.maps)}
        return tuple(map(adjoints.__getitem__, self.maps))

    @cached_property
    def own_maps(self) -> tuple[LinearMap, ...]:
        """Each step's map with its shape's fresh sinks renamed the step's own."""
        return tuple([m._renamed(fed) if fed else m for m, fed in zip(self.maps, self.feeds)])

    @cached_property
    def own_adjoints(self) -> tuple[LinearMap, ...]:
        """Each step's adjoint, renamed as own_maps."""
        return tuple([m._renamed(fed) if fed else m for m, fed in zip(self.adjoints, self.feeds)])


def _compile_plan(c: CircuitSchedule) -> _Plan:
    """c's plan: steps whose element tuples differ only in the names of fresh
    sinks share one map, compiled and audited for the first of them."""
    sinks: dict[int, list[str]] = {}  # step object -> the sink paths its arms name, in order
    touches: dict[str, int] = {}
    prev = s = None
    for els in c.steps:
        if els is not prev:  # a run of one step object is looked up once
            s = sinks.get(id(els))
            if s is None:
                s = sinks[id(els)] = [a for a in dict.fromkeys(a for el in els for a in el.arms)
                                      if is_sink(a)]
            prev = els
        for p in s:
            touches[p] = touches.get(p, 0) + 1
    fresh = frozenset(p for p, n in touches.items() if n == 1)
    index = _label_index(c.universe)
    pos = index[1]
    paths: dict[str, list[BasisLabel]] = {}  # path -> its labels in universe order
    for lbl in c.universe:
        paths.setdefault(lbl.path, []).append(lbl)
    # a map's columns sort by universe position: with every fresh sink label after
    # all other labels, renaming a step's fresh sinks keeps its column order if it
    # keeps their labels' own order
    first = next((i for i, lbl in enumerate(c.universe) if lbl.path in fresh), len(c.universe))
    share = all(lbl.path in fresh for lbl in c.universe[first:])

    element_maps: dict[int, LinearMap] = {}
    shapes: dict[object, tuple[LinearMap, list[BasisLabel]]] = {}  # -> map, its fresh labels
    maps, feeds = [], []
    prev = m = fed = None
    for els in c.steps:
        if els is not prev:
            place = {p: i for i, p in enumerate(p for p in sinks[id(els)] if p in fresh)}
            labels = sorted((lbl for p in place for lbl in paths.get(p, ())), key=pos.__getitem__)
            key = els
            if place and share:
                # the step up to its fresh sink names, which become their places: each
                # element (the others by object, as the builder shares them) and each
                # fresh label's place, polarization and control bit in universe order
                key = (tuple((el.kind, el.name, tuple(place.get(a, a) for a in el.arms), el.params)
                             if not place.keys().isdisjoint(el.arms) else id(el) for el in els),
                       tuple((place[lbl.path], lbl.pol, lbl.bob) for lbl in labels))
            hit = shapes.get(key)
            if hit is None:
                hit = shapes[key] = _step_map(els, index, element_maps), labels
            m, fed, prev = hit[0], tuple(zip(hit[1], labels)), els
        maps.append(m)
        feeds.append(fed)
    return _Plan(tuple(maps), tuple(feeds), fresh)


class CircuitSchedule:
    """Ordered time stamps plus one composite element step between each pair."""

    def __init__(self, stamps: tuple[str, ...], steps: tuple[tuple[Element, ...], ...],
                 universe: tuple[BasisLabel, ...], pre_state: StateVector,
                 post_projector: Projector | None = None, aliases: dict[str, str] | None = None,
                 meta: dict[str, object] | None = None):
        self.stamps, self.steps, self.universe, self.pre_state = stamps, steps, universe, pre_state
        self.post_projector = post_projector
        self.aliases = {} if aliases is None else aliases
        self.meta = {} if meta is None else meta
        self._engine: _Plan | None = None  # compiled on first use; a new schedule compiles its own
        if len(stamps) != len(steps) + 1:
            raise QStateError("schedule needs exactly one step between consecutive stamps")
        self._index = {s: i for i, s in enumerate(stamps)}
        if len(self._index) != len(stamps):
            raise QStateError("time stamps must be unique")

    def resolve(self, stamp: str) -> str:
        return self.aliases.get(stamp, stamp)

    def index_of(self, stamp: str) -> int:
        i = self._index.get(self.resolve(stamp))
        if i is None:
            raise QStateError(f"stamp {stamp!r} not in schedule")
        return i

    def step_maps(self) -> tuple[LinearMap, ...]:
        """One audited map per step; equal element tuples share one map object.

        The plan's own_maps: each is the plan's map of the step's shape with
        the shape's fresh sinks renamed the step's own.
        """
        return self._plan().own_maps

    def adjoint_step_maps(self) -> tuple[LinearMap, ...]:
        """Adjoint of each step map, same step order as step_maps()."""
        return self._plan().own_adjoints

    def _plan(self) -> _Plan:
        """The plan that the engines step and step_maps() derive from, compiled once."""
        if self._engine is None:
            self._engine = _compile_plan(self)
        return self._engine


class TrajectoryRecord(NamedTuple):
    """Full state at every stamp of one schedule run."""

    schedule: CircuitSchedule
    states: dict[str, StateVector]

    def at(self, stamp: str) -> StateVector:
        return self.states[self.schedule.stamps[self.schedule.index_of(stamp)]]


def _stepping(c: CircuitSchedule, live: bool, backward: bool = False):
    """Each step's map and fed sinks: the plan's when live, else the full maps
    (adjoints when backward), which feed none."""
    if live:
        plan = c._plan()
        return (plan.adjoints if backward else plan.maps), plan.feeds
    return (c.adjoint_step_maps() if backward else c.step_maps()), ((),) * len(c.steps)


def _checked_step(c: CircuitSchedule, m: LinearMap, s: StateVector, base: float, k: int,
                  fed=()) -> StateVector:
    """apply(m, s).pruned(); ConservationError unless its norm**2 at stamp k stays
    within ATOL_CONSERVE of base.

    Each (label, own) pair in fed moves the kept sum at label out of the state,
    into its _fed count and _fed_n2; the checked norm**2 adds that _fed_n2.
    """
    out = _accumulate(m, s)
    nfed, fed_n2 = s._fed, s._fed_n2
    for lbl, _ in fed:
        v = out.pop(lbl, None)
        if v is not None:
            x = v.real * v.real + v.imag * v.imag
            if x > _KEEP2 or abs(v) > PRUNE_EPS:
                nfed += 1
                fed_n2 += x
    n2, cut = fed_n2, False
    for v in out.values():  # the kept norm**2 in StateVector.norm2's order, after the fed sinks'
        x = v.real * v.real + v.imag * v.imag
        if x > _KEEP2 or abs(v) > PRUNE_EPS:  # pruned() keeps v if abs(v) > PRUNE_EPS
            n2 += x
        else:
            cut = True
    if not abs(n2 - base) <= ATOL_CONSERVE:
        raise ConservationError(f"probability drifted to {n2:.15f} at stamp "
                                f"{c.stamps[k]} (started at {base:.15f})")
    if cut:  # the sums are complex and keyed by BasisLabel, so they are wrapped as they are
        out = {lbl: v for lbl, v in out.items() if abs(v) > PRUNE_EPS}
    return StateVector._wrap(out, nfed, fed_n2)


def evolve(c: CircuitSchedule, s: StateVector, i0: int, i1: int, live: bool = False,
           keep: tuple[int, ...] | range = ()) -> tuple[StateVector, dict[int, StateVector]]:
    """s stepped from stamp i0 to i1, and {k: its state at k} for each k in keep, in step order.

    Steps forward, or backward through the adjoint maps when i1 < i0.  Every
    stamp's norm**2, its fed sinks' included, must stay within ATOL_CONSERVE
    of the start's, else ConservationError.  With live False the states are
    full and step through step_maps().  With live True they step through the
    plan: each fresh sink leaves the state at the step that feeds it, and the
    state counts it in _fed and _fed_n2.  s must then hold no fresh sink label.
    """
    maps, feeds = _stepping(c, live, i1 < i0)
    if i1 >= i0:  # ks: the stamp each step leads to; step k lies between stamps k and k + 1
        ks, maps, feeds = range(i0 + 1, i1 + 1), maps[i0:i1], feeds[i0:i1]
    else:
        ks, maps, feeds = range(i0 - 1, i1 - 1, -1), maps[i1:i0][::-1], feeds[i1:i0][::-1]
    base = s.norm2() + s._fed_n2
    kept = {i0: s} if i0 in keep else {}
    for k, m, fed in zip(ks, maps, feeds):
        s = _checked_step(c, m, s, base, k, fed)
        if k in keep:
            kept[k] = s
    return s, kept


def run_schedule(c: CircuitSchedule, input_state: StateVector | None = None) -> TrajectoryRecord:
    """Evolve the input through every step, checking conservation per stamp."""
    s = c.pre_state if input_state is None else input_state
    _, kept = evolve(c, s, 0, len(c.stamps) - 1, keep=range(len(c.stamps)))
    return TrajectoryRecord(c, {c.stamps[i]: x for i, x in kept.items()})


def build_paradox_circuit(M: int, N: int, *, block_channel: bool = False,
                          av_rounds: int = 0) -> CircuitSchedule:
    """Nested interferometer: M outer cycles, each holding a chain of inner cycles.

    With av_rounds = a, each outer cycle runs (1+a)*N inner cycles and the
    channel entrance is blocked right after rotation k*N for k = 1..a, so
    the inner carrier is absorbed at the entrance instead of visiting the
    channel arm on those cycles.

    With block_channel, the channel arm C is absorbed at the far end on
    every visit (one fresh sink per cycle), which models a blocked channel.
    """
    if not (_is_int(M, 1) and _is_int(N, 1)):
        raise QStateError("M and N must be integers >= 1")
    if not _is_int(av_rounds, 0):
        raise QStateError("av_rounds must be an integer >= 0")
    theta_m = math.pi / (2 * M)
    theta_n = math.pi / (2 * N)
    total = (1 + av_rounds) * N

    universe: list[BasisLabel] = []
    for arm in ("S", "A", "B", "C", "D", "F"):
        for pol in ("H", "V"):
            universe.append(label(arm, pol))
    for m in range(1, M + 1):
        universe.append(label(f"SinkD3#{m}", "H"))
        for k in range(1, av_rounds + 1):
            universe.append(label(f"SinkAV#{m}.{k}", "H"))
        if block_channel:
            for j in range(1, total + 1):
                universe.append(label(f"SinkBlock#{m}.{j}", "H"))

    # repeated elements are built once and shared by every step that holds them
    hwp2, pbs2 = spr(theta_n, "D", "HWP2"), pbs("D", "C", "B", "PBS2")
    outer_split = (spr(theta_m, "S", "HWP1"), pbs("S", "A", "D", "PBS1"))
    entrance_v = route("D", "V", "B", name="PBS2")
    outer_merge = (route("A", "H", "S", name="OuterMerge"), route("D", "V", "S", name="OuterMerge"))
    # and so are the plain inner steps, which the compile then looks up once per run
    first_inner_step, inner_step = (hwp2, pbs2), (pbs2, hwp2, pbs2)

    stamps: list[str] = ["t0"]
    steps: list[tuple[Element, ...]] = []
    for m in range(1, M + 1):
        steps.append(outer_split)
        stamps.append(f"c{m}.t1")
        for j in range(1, total + 1):
            step = inner_step if j > 1 else first_inner_step
            if j % N == 0 and j // N <= av_rounds:
                step = (*step[:-1], route("D", "H", f"SinkAV#{m}.{j // N}", name="EntranceBlock"),
                        entrance_v)
            if block_channel and j > 1:
                step = (block("C", f"SinkBlock#{m}.{j - 1}", name="BobBlock"), *step)
            steps.append(step)
            stamps.append(f"c{m}.in{j}")
        els: list[Element] = []
        if block_channel:
            els.append(block("C", f"SinkBlock#{m}.{total}", name="BobBlock"))
        els += (pbs2, *outer_merge, route("D", "H", f"SinkD3#{m}", name="D3Exhaust"))
        steps.append(tuple(els))
        stamps.append(f"c{m}.t4")
    steps.append((route("S", "H", "F", name="Exit"), route("S", "V", "F", name="Exit")))
    stamps.append("t_final")

    aliases: dict[str, str] = {}
    if M == 2 and N == 2:
        aliases = {"t1": "c1.t1", "t2": "c1.in1", "t3": "c1.in2", "t4": "c1.t4",
                   "t'0": "c1.t4", "t'1": "c2.t1", "t'2": "c2.in1", "t'3": "c2.in2",
                   "t'4": "c2.t4"}

    return CircuitSchedule(
        stamps=tuple(stamps),
        steps=tuple(steps),
        universe=tuple(universe),
        pre_state=StateVector({label("S", "H"): 1.0}),
        post_projector=projector(paths="F"),
        aliases=aliases,
        meta={"kind": "nested-paradox", "M": M, "N": N,
              "block_channel": bool(block_channel), "av_rounds": av_rounds},
    )
