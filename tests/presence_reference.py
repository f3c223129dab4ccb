"""Per-cell replay of the presence quantities: the reference that the engines
in ``zenoport.analysis`` are checked against bit for bit.

Every weak value and probe evolves its own boundary pair, the pointer
rotation is StateVector arithmetic, and a chain ket steps through its
history one event at a time.  States are stepped whole, sinks included,
through the schedule's public step maps with ``apply(m, s).pruned()``; only
those maps and the ``qstate`` primitives are shared with the package.
Inputs are taken as valid: nothing here checks boundary windows,
normalization or time order.
"""

import math

from zenoport.qstate import (
    ConservationError,
    StateVector,
    apply,
    inner,
    is_sink,
    project,
    projector,
)

ATOL_CONSERVE = 1e-12
ATOL_DENOM = 1e-12
P_EMPTY = 1e-300


def evolve(c, s, i0, i1):
    """Full states at stamps i0..i1, forward through step_maps() or backward
    through adjoint_step_maps(); every stamp's norm**2 must stay within
    ATOL_CONSERVE of the start's."""
    maps = c.step_maps()[i0:i1] if i1 >= i0 else c.adjoint_step_maps()[i1:i0][::-1]
    base, states = s.norm2(), [s]
    for m in maps:
        s = apply(m, s).pruned()
        if not abs(s.norm2() - base) <= ATOL_CONSERVE:
            raise ConservationError(f"probability drifted to {s.norm2():.15f}")
        states.append(s)
    return states


def _two_states(c, b):
    """Forward and backward states over the pair's window, both in stamp order;
    None for the backward states when the post projector annihilates the
    forward state."""
    i_pre, i_post = c.index_of(b.pre[0]), c.index_of(b.post[0])
    fwd = evolve(c, b.pre[1], i_pre, i_post)
    post = b.post[1]
    if not isinstance(post, StateVector):
        kept, _ = project(post, fwd[-1])
        if kept.norm() < ATOL_DENOM:
            return fwd, None
        post = kept.normalized()
    return fwd, evolve(c, post, i_post, i_pre)[::-1]


def weak_value(pi, b, t, c):
    """Weak value of pi at stamp t; None where the boundaries are orthogonal."""
    fwd, bwd = _two_states(c, b)
    if bwd is None:
        return None
    k = c.index_of(t) - c.index_of(b.pre[0])
    den = inner(bwd[k], fwd[k])
    if abs(den) < ATOL_DENOM:
        return None
    kept, _ = project(pi, fwd[k])
    return inner(bwd[k], kept) / den


def weak_trace_map(c, b):
    """Weak value of every arm at every stamp; None where undefined."""
    fwd, bwd = _two_states(c, b)
    i_pre, i_post = c.index_of(b.pre[0]), c.index_of(b.post[0])
    arms = dict.fromkeys(lbl.path for lbl in c.universe if not is_sink(lbl.path))
    out = {}
    for i, stamp in enumerate(c.stamps):
        k = i - i_pre
        den = inner(bwd[k], fwd[k]) if bwd is not None and i_pre <= i <= i_post else 0.0
        for arm in arms:
            if abs(den) < ATOL_DENOM:
                out[(arm, stamp)] = None
            else:
                kept, _ = project(projector(paths=arm), fwd[k])
                out[(arm, stamp)] = inner(bwd[k], kept) / den
    return out


def _couple(pi, psi0, psi1, epsilon):
    p0, _ = project(pi, psi0)
    p1, _ = project(pi, psi1)
    cm1 = math.cos(epsilon / 2.0) - 1.0
    sn = math.sin(epsilon / 2.0)
    return (psi0 + p0 * cm1 + p1 * sn * -1).pruned(), (psi1 + p1 * cm1 + p0 * sn).pruned()


def _pointer_signal(c, b, arm, epsilon, at):
    """Conditioned pointer signal of a probe on arm coupled at each stamp index in at."""
    pi = projector(paths=arm)
    psi0, psi1 = b.pre[1], StateVector()
    i = c.index_of(b.pre[0])
    for j in at:
        psi0, psi1 = _couple(pi, evolve(c, psi0, i, j)[-1], evolve(c, psi1, i, j)[-1], epsilon)
        i = j
    i_post = c.index_of(b.post[0])
    psi0, psi1 = evolve(c, psi0, i, i_post)[-1], evolve(c, psi1, i, i_post)[-1]
    spec = b.post[1]
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


def simulate_weak_probe(c, arm, t, epsilon, b):
    return _pointer_signal(c, b, arm, epsilon, [c.index_of(t)])


def channel_probe_signal(c, epsilon, b, arm="C"):
    return _pointer_signal(c, b, arm, epsilon,
                           range(c.index_of(b.pre[0]), c.index_of(b.post[0]) + 1))


def history_ket(h, f, c):
    """Alternate unitary steps and history projectors, then apply the post projector."""
    s = f.pre[1]
    i = c.index_of(f.pre[0])
    for stamp, pi in h.events:
        j = c.index_of(stamp)
        s, _ = project(pi, evolve(c, s, i, j)[-1])
        i = j
    s, _ = project(f.post[1], evolve(c, s, i, c.index_of(f.post[0]))[-1])
    return s.pruned()
