"""Where-was-the-photon analysis over a circuit schedule.

Two complementary engines answer the same question:

* a two-state-vector engine that evolves a boundary pair's pre-selected state
  forward and its post-selected state backward once and reads weak values
  and weakly coupled pointer signals off the two trajectories;
* a consistent-histories engine that composes chain kets from per-stamp
  projector choices in one prefix-tree walk and checks families for
  pairwise orthogonality.
"""

from __future__ import annotations

import itertools
import math
import sys
from typing import NamedTuple

from .cqze import P_EMPTY
from .optics import (
    CircuitSchedule,
    _checked_step,
    _stepping,
    build_paradox_circuit,
    evolve,
)
from .qstate import (
    PRUNE_EPS,
    Projector,
    QStateError,
    StateVector,
    _is_int,
    _is_real,
    inner,
    is_sink,
    label,
    project,
    projector,
    projector_from_spec,
    projector_to_spec,
)

ATOL_DENOM = 1e-12
ATOL_CONSISTENT = 1e-10
ATOL_BOUNDARY_NORM = 1e-9


class OrthogonalBoundariesError(QStateError):
    """Pre and post selection have (numerically) zero transition amplitude."""


class InconsistentFamilyError(QStateError):
    """Probabilities requested for a family whose chain kets are not orthogonal."""


class BoundaryPair(NamedTuple):
    """A pre-selected state and a post-selection, each tied to a time stamp.

    ``pre`` is ``(stamp, state)``; ``post`` is ``(stamp, projector or state)``.
    The pre stamp must lie strictly before the post stamp and any explicit
    state must be normalized.
    """

    pre: tuple[str, StateVector]
    post: tuple[str, Projector | StateVector]


def _check_normalized(s: StateVector, what: str) -> None:
    if not abs(s.norm2() - 1.0) <= ATOL_BOUNDARY_NORM:
        raise QStateError(f"{what} must be normalized (norm**2 = {s.norm2()!r})")


def _pair_window(c: CircuitSchedule, b: BoundaryPair) -> tuple[int, int]:
    i_pre = c.index_of(b.pre[0])
    i_post = c.index_of(b.post[0])
    if i_pre >= i_post:
        raise QStateError("pre stamp must lie strictly before post stamp")
    _check_normalized(b.pre[1], "pre state")
    if isinstance(b.post[1], StateVector):
        _check_normalized(b.post[1], "post state")
    return i_pre, i_post


def end_to_end_boundaries(c: CircuitSchedule) -> BoundaryPair:
    """Source state at the first stamp, declared post projector at the last."""
    if c.post_projector is None:
        raise QStateError("schedule declares no post projector")
    return BoundaryPair(pre=(c.stamps[0], c.pre_state.normalized()),
                        post=(c.stamps[-1], c.post_projector))


def cycle_boundaries(c: CircuitSchedule, cycle: int) -> BoundaryPair:
    """Boundaries of one outer cycle: fresh source in, source-arm detection out."""
    if c.meta.get("kind") != "nested-paradox":
        raise QStateError("cycle boundaries are defined for nested-paradox schedules")
    m = int(c.meta["M"])
    if not 1 <= cycle <= m:
        raise QStateError(f"cycle must be in 1..{m}")
    pre_stamp = "t0" if cycle == 1 else f"c{cycle - 1}.t4"
    return BoundaryPair(pre=(pre_stamp, StateVector({label("S", "H"): 1.0})),
                        post=(f"c{cycle}.t4", projector(paths="S", pols="H")))


def forward_state(c: CircuitSchedule, pre: tuple[str, StateVector], t: str) -> StateVector:
    """Evolve the pre-selected state from its own stamp up to stamp t."""
    stamp, s = pre
    i0 = c.index_of(stamp)
    i1 = c.index_of(t)
    if i1 < i0:
        raise QStateError(f"stamp {t!r} lies before the pre stamp {stamp!r}")
    return evolve(c, s, i0, i1)[0]


def _post_state(post: tuple[str, Projector | StateVector],
                fwd: StateVector | None) -> StateVector:
    """Normalized post-selected state at the post stamp.

    A projector post is resolved against fwd, the forward state at the post
    stamp (unused for a state post): project, then normalize.  Vanishing
    overlap means the boundaries are orthogonal.
    """
    stamp, spec = post
    if isinstance(spec, StateVector):
        _check_normalized(spec, "post state")
        return spec
    kept, _ = project(spec, fwd)
    if kept.norm() < ATOL_DENOM:
        raise OrthogonalBoundariesError(
            f"post projector at {stamp!r} annihilates the forward state")
    return kept.normalized()


def backward_state(c: CircuitSchedule, post: tuple[str, Projector | StateVector],
                   t: str) -> StateVector:
    """Adjoint-evolve the post-selected state from its stamp back to stamp t.

    A projector post is resolved against the schedule's own source state.
    Loss labels can acquire backward amplitude (they pair with zero forward
    amplitude, so inner products with any forward state are unaffected).
    """
    stamp, spec = post
    i1 = c.index_of(stamp)
    i0 = c.index_of(t)
    if i0 > i1:
        raise QStateError(f"stamp {t!r} lies after the post stamp {stamp!r}")
    fwd = None if isinstance(spec, StateVector) else evolve(c, c.pre_state.normalized(), 0, i1)[0]
    return evolve(c, _post_state(post, fwd), i1, i0)[0]


def _window_index(c: CircuitSchedule, t: str, i_pre: int, i_post: int) -> int:
    i_t = c.index_of(t)
    if not i_pre <= i_t <= i_post:
        raise QStateError(f"stamp {t!r} lies outside the boundary window")
    return i_t


def _live(c: CircuitSchedule, *specs: Projector | StateVector) -> bool:
    """True when no spec (a boundary state or a projector) holds or matches a
    fresh sink label of c, so the engines may step live labels only.  Else
    they step full states: a sum over states that hold fed sinks must meet
    them where the full states hold them."""
    fresh = c._plan().fresh
    for x in specs:
        if isinstance(x, StateVector):
            if any(lbl.path in fresh for lbl in x):
                return False
        elif fresh and (x.paths is None or not fresh.isdisjoint(x.paths)):
            return False
    return True


def _trajectories(c: CircuitSchedule, b: BoundaryPair, i_pre: int, i_post: int, live: bool,
                  keep: tuple[int, ...] | range) -> tuple[dict, dict | None]:
    """Forward and backward states at each stamp index in keep, keyed by it;
    None for the backward states when the boundaries are orthogonal."""
    end, fwd = evolve(c, b.pre[1], i_pre, i_post, live, keep)
    try:
        post = _post_state(b.post, end)
    except OrthogonalBoundariesError:
        return fwd, None
    return fwd, evolve(c, post, i_post, i_pre, live, keep)[1]


def _weak_values(parts: list[StateVector], f: StateVector,
                 w: StateVector) -> list[complex] | None:
    """Weak value of each projector between a forward state f and a backward
    state w at one stamp, given each projector's part of f; None when their
    transition amplitude vanishes."""
    den = inner(w, f)
    if abs(den) < ATOL_DENOM:
        return None
    return [inner(w, part) / den for part in parts]


def _arm_parts(s: StateVector, arms: tuple[str, ...]) -> list[StateVector]:
    """project(projector(paths=arm), s)[0] for every arm, in one pass over s."""
    parts: dict[str, dict] = {arm: {} for arm in arms}
    for k, v in s.items():
        part = parts.get(k.path)
        if part is not None:
            part[k] = v
    return [StateVector._wrap(parts[arm]) for arm in arms]


def weak_value(pi: Projector, b: BoundaryPair, t: str, c: CircuitSchedule) -> complex:
    """Two-state-vector weak value of pi at stamp t between the pair's boundaries."""
    i_pre, i_post = _pair_window(c, b)
    k = _window_index(c, t, i_pre, i_post)
    fwd, bwd = _trajectories(c, b, i_pre, i_post, _live(c, b.pre[1], b.post[1], pi), (k,))
    w = None if bwd is None else _weak_values([project(pi, fwd[k])[0]], fwd[k], bwd[k])
    if w is None:
        raise OrthogonalBoundariesError(f"the boundaries are orthogonal at stamp {t!r}")
    return w[0]


def arm_paths(c: CircuitSchedule) -> tuple[str, ...]:
    """Non-sink paths of the schedule, in universe order."""
    seen: list[str] = []
    for lbl in c.universe:
        if not is_sink(lbl.path) and lbl.path not in seen:
            seen.append(lbl.path)
    return tuple(seen)


def weak_trace_map(c: CircuitSchedule, b: BoundaryPair) -> dict[tuple[str, str], complex | None]:
    """Weak value of every arm at every stamp; None marks undefined cells.

    A cell is undefined when the stamp lies outside the boundary window or
    when the boundaries are orthogonal there (vanishing denominator).
    """
    i_pre, i_post = _pair_window(c, b)
    arms = arm_paths(c)
    fwd, bwd = _trajectories(c, b, i_pre, i_post, _live(c, b.pre[1], b.post[1]),
                             range(i_pre, i_post + 1))
    out: dict[tuple[str, str], complex | None] = dict.fromkeys(
        (arm, stamp) for stamp in c.stamps for arm in arms)
    for i, here in fwd.items() if bwd is not None else ():
        ws = _weak_values(_arm_parts(here, arms), here, bwd[i])
        if ws is not None:
            out.update(zip([(arm, c.stamps[i]) for arm in arms], ws))
    return out


def _rotated(psi: StateVector, p: dict, cm1: float, other: dict) -> tuple[StateVector, float]:
    """(psi + p * cm1 + other).pruned(), as StateVector arithmetic would sum it, and its
    norm**2; the sum keeps psi's fed sinks, and its norm**2 counts theirs."""
    out = dict(psi._amps)
    for k, x in p.items():
        t = x * cm1
        if t != 0:
            s = x + t
            if s != 0:
                out[k] = s
            else:
                del out[k]  # StateVector drops a zero sum; if other brings k back, it goes last
    for k, v in other.items():
        if v != 0:
            out[k] = out.get(k, 0j) + v
    kept, n2 = {}, psi._fed_n2
    for k, v in out.items():
        if abs(v) > PRUNE_EPS:
            kept[k] = v
            n2 += v.real * v.real + v.imag * v.imag  # after the fed sinks', in norm2's order
    return StateVector._wrap(kept, psi._fed, psi._fed_n2), n2


def _couple_pointer(arm: str, psi0: StateVector, psi1: StateVector,
                    epsilon: float) -> tuple[tuple[StateVector, float], tuple[StateVector, float]]:
    # pointer rotation by epsilon, applied only on the arm's labels:
    # psi0 + p0*cm1 - p1*sn and psi1 + p1*cm1 + p0*sn, summed in that order
    p0 = {k: x for k, x in psi0.items() if k.path == arm}
    p1 = {k: y for k, y in psi1.items() if k.path == arm}
    cm1 = math.cos(epsilon / 2.0) - 1.0
    sn = math.sin(epsilon / 2.0)
    return (_rotated(psi0, p0, cm1, {k: (y * sn) * -1 for k, y in p1.items()}),
            _rotated(psi1, p1, cm1, {k: x * sn for k, x in p0.items()}))


def _read_pointer(spec: Projector | StateVector, psi0: StateVector,
                  psi1: StateVector) -> float:
    """Conditioned transverse pointer reading of both branches at the post stamp."""
    if isinstance(spec, StateVector):
        a0 = inner(spec, psi0)
        a1 = inner(spec, psi1)
        num = 2.0 * ((a0.conjugate() * a1).real)
        den = abs(a0) ** 2 + abs(a1) ** 2
    else:
        k0, _ = project(spec, psi0)
        k1, _ = project(spec, psi1)
        num = 2.0 * inner(k0, k1).real
        den = k0.norm2() + k1.norm2()
    if den < P_EMPTY:
        return 0.0
    return num / den


def _pointer_walk(c: CircuitSchedule, spec: Projector | StateVector, arm: str,
                  psi0: StateVector, i0: int, i_post: int, at: tuple[int, ...] | range,
                  epsilon: float, live: bool) -> float:
    """Pointer signal of a probe on the arm coupled at each stamp index in at.

    Branch 0 starts as psi0 at stamp i0 and branch 1 empty, so only branch 0
    carries psi0's fed sinks; both step together to the post stamp i_post,
    and only the current pair is held."""
    maps, feeds = _stepping(c, live)
    psi1, n0, n1 = StateVector(), psi0.norm2() + psi0._fed_n2, 0.0
    for j in range(i0, i_post + 1):
        if j > i0:
            m, fed = maps[j - 1], feeds[j - 1]
            psi0 = _checked_step(c, m, psi0, n0, j, fed)
            psi1 = _checked_step(c, m, psi1, n1, j, fed)
        if j in at:
            (psi0, n0), (psi1, n1) = _couple_pointer(arm, psi0, psi1, epsilon)
    return _read_pointer(spec, psi0, psi1)


def _check_probe(epsilon, c: CircuitSchedule | None = None, arm: str | None = None) -> None:
    """Refuse an epsilon that is no finite real number, or an arm that is no path of c."""
    if not (_is_real(epsilon) and abs(epsilon) <= sys.float_info.max):
        raise QStateError(f"epsilon must be a finite real number, got {epsilon!r}")
    if c is not None and not (isinstance(arm, str) and any(lbl.path == arm for lbl in c.universe)):
        raise QStateError(f"arm must be a path of the circuit, got {arm!r}")


def simulate_weak_probe(c: CircuitSchedule, arm: str, t: str, epsilon: float,
                        boundaries: BoundaryPair | None = None) -> float:
    """Post-selection-conditioned pointer signal for a probe on one arm at one stamp.

    A two-level pointer starts in its reference state, is rotated by epsilon
    on the arm's occupation at stamp t, and both pointer branches ride the
    schedule to the post stamp.  The conditioned transverse expectation is
    epsilon * Re(weak value) to first order.  The signal is odd in epsilon
    (the branch rotated by -epsilon is the same with branch 1 negated), so
    the next term is third order.
    """
    _check_probe(epsilon, c, arm)
    b = boundaries if boundaries is not None else end_to_end_boundaries(c)
    i_pre, i_post = _pair_window(c, b)
    i_t = _window_index(c, t, i_pre, i_post)
    return _pointer_walk(c, b.post[1], arm, b.pre[1], i_pre, i_post, (i_t,), epsilon,
                         _live(c, b.pre[1], b.post[1], projector(paths=arm)))


def channel_probe_signal(c: CircuitSchedule, epsilon: float,
                         boundaries: BoundaryPair | None = None,
                         arm: str = "C") -> float:
    """Pointer signal when one probe couples to the arm at every stamp.

    Models a single weakly reflecting element sitting in the channel for the
    whole run rather than being switched in at one stamp.
    """
    _check_probe(epsilon, c, arm)
    b = boundaries if boundaries is not None else end_to_end_boundaries(c)
    i_pre, i_post = _pair_window(c, b)
    return _pointer_walk(c, b.post[1], arm, b.pre[1], i_pre, i_post, range(i_pre, i_post + 1),
                         epsilon, _live(c, b.pre[1], b.post[1], projector(paths=arm)))


def _report_rows(c: CircuitSchedule, bname: str, b: BoundaryPair,
                 cells: list[tuple[str, str]], epsilon: float) -> list[dict]:
    """Rows of one boundary pair's (arm, stamp) cells, from one forward and one
    backward trajectory."""
    i_pre, i_post = _pair_window(c, b)
    ts = tuple(_window_index(c, stamp, i_pre, i_post) for _, stamp in cells)
    pis = {arm: projector(paths=arm) for arm, _ in cells}
    live = _live(c, b.pre[1], b.post[1], *pis.values())
    fwd, bwd = _trajectories(c, b, i_pre, i_post, live, ts)
    rows = []
    for (arm, stamp), i_t in zip(cells, ts):
        here, pi = fwd[i_t], pis[arm]
        w = None if bwd is None else _weak_values([project(pi, here)[0]], here, bwd[i_t])
        rows.append({"arm": arm, "stamp": stamp,
                     "weak_value": None if w is None else [w[0].real, w[0].imag],
                     "probe_signal": _pointer_walk(c, b.post[1], arm, here, i_t, i_post, (i_t,),
                                                   epsilon, live),
                     "boundaries": bname})
    return rows


def paradox_report(M: int, N: int, *, av_rounds: int = 0,
                   epsilon: float = 1e-3) -> dict:
    """Numeric contrast of end-to-end and per-cycle channel presence.

    End-to-end boundaries find the channel arm occupied in the first cycle
    (nonzero weak value, first-order probe signal).  Only at M = 2 do they
    find it empty in the second; at larger M its weak value there equals the
    first cycle's.  Per-cycle boundaries find it occupied in neither.  With
    av_rounds >= 1 the first-cycle end-to-end entry is suppressed as well.
    """
    if not _is_int(av_rounds, 0):
        raise QStateError("av_rounds must be an integer >= 0")
    _check_probe(epsilon)
    c = build_paradox_circuit(M, N)
    first = "c1.in1"
    e2e_cells = [("S", "t0"), ("C", first)]  # sanity: source arm weak value is 1
    if M >= 2:
        e2e_cells.append(("C", "c2.in1"))

    rows = _report_rows(c, "end-to-end", end_to_end_boundaries(c), e2e_cells, epsilon)
    rows += _report_rows(c, "cycle1", cycle_boundaries(c, 1), [("C", first)], epsilon)
    if M >= 2:
        rows += _report_rows(c, "cycle2", cycle_boundaries(c, 2), [("C", "c2.in1")], epsilon)

    channel = {"end-to-end": channel_probe_signal(c, epsilon)}
    if av_rounds >= 1:
        cav = build_paradox_circuit(M, N, av_rounds=av_rounds)
        rows += _report_rows(cav, "end-to-end+av", end_to_end_boundaries(cav), [("C", first)],
                             epsilon)
        channel["end-to-end+av"] = channel_probe_signal(cav, epsilon)

    return {"M": M, "N": N, "av_rounds": av_rounds, "epsilon": epsilon,
            "rows": rows, "channel_probe_signal": channel}


class History(NamedTuple):
    """One sequence of projector choices, ordered by stamp."""

    names: tuple[str, ...]
    events: tuple[tuple[str, Projector], ...]

    def __str__(self) -> str:
        return "(" + ",".join(self.names) + ")"


class Family(NamedTuple):
    """Shared boundaries plus per-stamp projector menus.

    ``slots`` maps each intermediate stamp to its offered (name, projector)
    choices; the family's histories are the cartesian product of those
    choices in slot order.
    """

    name: str
    pre: tuple[str, StateVector]
    post: tuple[str, Projector]
    slots: tuple[tuple[str, tuple[tuple[str, Projector], ...]], ...]

    def histories(self) -> tuple[History, ...]:
        menus = [[(nm, stamp, pi) for nm, pi in offers] for stamp, offers in self.slots]
        out = []
        for combo in itertools.product(*menus):
            out.append(History(names=tuple(nm for nm, _, _ in combo),
                               events=tuple((stamp, pi) for _, stamp, pi in combo)))
        return tuple(out)

    def validate(self, c: CircuitSchedule) -> None:
        """Stamps strictly increasing inside the boundary window; slot menus
        orthogonal, and their names distinct and free of ",", so that no two
        histories share a label."""
        i_pre = c.index_of(self.pre[0])
        i_post = c.index_of(self.post[0])
        if i_pre >= i_post:
            raise QStateError("family pre stamp must precede its post stamp")
        _check_normalized(self.pre[1], "family pre state")
        prev = i_pre
        for stamp, offers in self.slots:
            i = c.index_of(stamp)
            if not prev < i < i_post:
                raise QStateError(f"slot stamp {stamp!r} breaks the family's time order")
            prev = i
            if not offers:
                raise QStateError(f"slot at {stamp!r} offers no projectors")
            names = [nm for nm, _ in offers]
            for nm in names:
                if "," in nm:
                    raise QStateError(f"slot at {stamp!r} offers {nm!r}: history labels "
                                      "join names with ','")
                if names.count(nm) > 1:
                    raise QStateError(f"slot at {stamp!r} offers the name {nm!r} twice")
            for lbl in c.universe:
                hits = sum(1 for _, pi in offers if pi.matches(lbl))
                if hits > 1:
                    raise QStateError(
                        f"slot at {stamp!r} offers overlapping projectors (label {lbl})")


class ChainKet(NamedTuple):
    """Unnormalized post-projected state of one history; norm**2 is its weight."""

    history: History
    state: StateVector

    @property
    def weight(self) -> float:
        return self.state.norm2()


def _kets(c: CircuitSchedule, pre: tuple[str, StateVector],
          slots: list[tuple[str, list[Projector]]], post: tuple[str, Projector]
          ) -> list[StateVector]:
    """Chain ket of every choice of one projector per slot, in product order.

    Each prefix of the slot tree is evolved once, then projected onto each
    offer; an empty projected state stays empty, so it is not evolved.
    """
    i_pre = c.index_of(pre[0])
    ends = [c.index_of(stamp) for stamp, _ in slots] + [c.index_of(post[0])]
    if any(i >= j for i, j in zip([i_pre, *ends], ends)):
        raise QStateError("history stamps must strictly increase from pre to post")
    live = _live(c, pre[1], post[1], *(pi for _, offers in slots for pi in offers))
    kets: list[StateVector] = []

    def walk(depth: int, s: StateVector, i: int) -> None:
        j = ends[depth]
        if s:
            s = evolve(c, s, i, j, live)[0]
        if depth == len(slots):
            kets.append(project(post[1], s)[0].pruned())
            return
        for pi in slots[depth][1]:
            walk(depth + 1, project(pi, s)[0], j)

    walk(0, pre[1], i_pre)
    return kets


def _chain_ket(h: History, f: Family, c: CircuitSchedule) -> ChainKet:
    """Chain ket of h in the validated family f, which must offer each of h's events."""
    offered = {(stamp, pi) for stamp, offers in f.slots for _, pi in offers}
    for ev in h.events:
        if ev not in offered:
            raise QStateError(f"history event at {ev[0]!r} is not offered by the family")
    slots = [(stamp, [pi]) for stamp, pi in h.events]
    return ChainKet(history=h, state=_kets(c, f.pre, slots, f.post)[0])


def chain_ket(h: History, f: Family, c: CircuitSchedule) -> ChainKet:
    """Chain ket of one history, after validating f and that it offers h's events."""
    f.validate(c)
    return _chain_ket(h, f, c)


class FamilyEvaluation(NamedTuple):
    """Chain kets of a validated family in histories() order, and what they imply."""

    family: Family
    kets: tuple[ChainKet, ...]
    offending_pair: tuple[History, History] | None  # None: the family is consistent
    total: float

    def probabilities(self) -> tuple[float, ...]:
        """Relative weight of each history, in ``kets`` order."""
        if self.offending_pair is not None:
            a, b = self.offending_pair
            raise InconsistentFamilyError(
                f"family {self.family.name!r} is not consistent: {a} overlaps {b}")
        if self.total < P_EMPTY:
            raise QStateError(f"family {self.family.name!r} has zero total weight")
        return tuple(k.weight / self.total for k in self.kets)


def evaluate_family(f: Family, c: CircuitSchedule) -> FamilyEvaluation:
    """Validate f once, compute each history's chain ket once, derive the rest.

    The first offending pair is the first non-orthogonal (i, j), i < j, in
    history order; the total sums the weights in history order.
    """
    f.validate(c)
    slots = [(stamp, [pi for _, pi in offers]) for stamp, offers in f.slots]
    kets = tuple(ChainKet(history=h, state=s)
                 for h, s in zip(f.histories(), _kets(c, f.pre, slots, f.post)))
    pair = next(((a.history, b.history) for a, b in itertools.combinations(kets, 2)
                 if abs(inner(a.state, b.state)) >= ATOL_CONSISTENT), None)
    return FamilyEvaluation(f, kets, pair, sum(k.weight for k in kets))


def is_consistent(f: Family, c: CircuitSchedule) -> tuple[bool, tuple[History, History] | None]:
    """Pairwise chain-ket orthogonality; on failure, the first offending pair."""
    pair = evaluate_family(f, c).offending_pair
    return pair is None, pair


def history_probability(h: History, f: Family, c: CircuitSchedule) -> float:
    """Relative weight of h within a consistent family."""
    ev = evaluate_family(f, c)
    for k, prob in zip(ev.kets, ev.probabilities()):
        if k.history.events == h.events:
            return prob
    return _chain_ket(h, f, c).weight / ev.total  # h is not one of f.histories()


def builtin_families(c: CircuitSchedule) -> dict[str, Family]:
    """The four standard families over the first two outer cycles.

    ``cycle1`` and ``cycle2`` use per-cycle boundaries (source arm in, source
    arm out); ``final_via_cycle1`` and ``final_via_cycle2`` keep the same slot
    menus but stretch the boundaries from the source to the exit detection.
    """
    if c.meta.get("kind") != "nested-paradox":
        raise QStateError("builtin families are defined for nested-paradox schedules")
    if int(c.meta["M"]) < 2 or int(c.meta["N"]) < 2:
        raise QStateError("builtin families need at least two outer and two inner cycles")

    sh = StateVector({label("S", "H"): 1.0})
    post_sh = projector(paths="S", pols="H")
    post_fh = projector(paths="F", pols="H")
    path_menu = tuple((a, projector(paths=a)) for a in ("A", "B", "C"))
    entry_menu = tuple((a, projector(paths=a)) for a in ("A", "D"))

    def slots(cycle: int):
        return ((f"c{cycle}.t1", entry_menu),
                (f"c{cycle}.in1", path_menu),
                (f"c{cycle}.in2", path_menu))

    return {
        "cycle1": Family("cycle1", ("t0", sh), ("c1.t4", post_sh), slots(1)),
        "cycle2": Family("cycle2", ("c1.t4", sh), ("c2.t4", post_sh), slots(2)),
        "final_via_cycle2": Family("final_via_cycle2", ("t0", sh),
                                   ("t_final", post_fh), slots(2)),
        "final_via_cycle1": Family("final_via_cycle1", ("t0", sh),
                                   ("t_final", post_fh), slots(1)),
    }


def family_to_text(f: Family) -> str:
    """Line-oriented text form of a family (inverse of family_from_text)."""
    lines = ["zenoport-family v1", f"name {f.name}"]
    for k, v in sorted(f.pre[1].items()):
        lines.append(f"pre {f.pre[0]} {k.path} {k.pol} {k.bob} {v.real!r} {v.imag!r}")
    lines.append(f"post {f.post[0]} {projector_to_spec(f.post[1])}")
    for stamp, offers in f.slots:
        for nm, pi in offers:
            lines.append(f"slot {stamp} {nm} {projector_to_spec(pi)}")
    return "\n".join(lines) + "\n"


def family_from_text(text: str) -> Family:
    """Parse family_to_text output; any malformed line raises QStateError."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "zenoport-family v1":
        raise QStateError("not a zenoport family text (missing header)")
    name = ""
    pre_stamp: str | None = None
    amps: dict = {}
    post: tuple[str, Projector] | None = None
    slot_order: list[str] = []
    slot_offers: dict[str, list[tuple[str, Projector]]] = {}
    for ln in lines[1:]:
        kind, _, rest = ln.partition(" ")
        if kind == "name":
            name = rest.strip()
        elif kind == "pre":
            try:
                stamp, path, pol, bob, re_s, im_s = rest.split()
                amp = complex(float(re_s), float(im_s))
            except ValueError:
                raise QStateError(f"pre line needs stamp, path, pol, bob, re, im: {ln!r}") from None
            if pre_stamp is not None and stamp != pre_stamp:
                raise QStateError("pre lines must share one stamp")
            pre_stamp = stamp
            amps[label(path, pol, bob)] = amp
        elif kind == "post":
            stamp, _, spec = rest.partition(" ")
            post = (stamp, projector_from_spec(spec))
        elif kind == "slot":
            stamp, _, tail = rest.partition(" ")
            nm, _, spec = tail.partition(" ")
            if stamp not in slot_offers:
                slot_order.append(stamp)
                slot_offers[stamp] = []
            slot_offers[stamp].append((nm, projector_from_spec(spec)))
        else:
            raise QStateError(f"unknown family line kind {kind!r}")
    if pre_stamp is None or post is None or not slot_order:
        raise QStateError("family text needs pre, post and at least one slot line")
    return Family(name=name, pre=(pre_stamp, StateVector(amps)), post=post,
                  slots=tuple((st, tuple(slot_offers[st])) for st in slot_order))
