"""Chained-Zeno module evolution and the two-rail counterfactual gate.

The module holds M outer cycles.  Each outer cycle rotates the carrier
polarization by pi/2M, sends the V component through a dwell of inner
cycles (rotation pi/2N each, followed by the control event on the H
component), exhausts the H component returned by the dwell, and recombines
the rest.  The control qubit decides the event: bit 0 reflects the channel
photon back with amplitude sqrt(1-eps_reflect), bit 1 absorbs it except for
a mode-mismatch remainder sqrt(eps_block) that survives as if reflected.

With av_rounds = a, every dwell runs (1+a)*N inner cycles and the channel
entrance is blocked right after rotations N, 2N, ..., aN: the H component
is absorbed at the entrance on those cycles and the control event is
skipped, which suppresses the weak trace in the channel arm.

Loss bookkeeping is scalar (no sink labels in the returned states): the
dwell input is always a pure V slice, so each loss family reduces to one
intensity coefficient per dwell.

Every dwell is fixed-point integers with _F fractional bits.  Shallow
modules (see LOOP_BUDGET) step the dwell cycle by cycle, round it once to
float and step the outer cycles in float64; both rotate by float64 angles.
Deeper ones run the exact tier, which rotates by pi/2N and pi/2M: every
cycle is a real 2x2 amplitude map with a quadratic loss row, the pair is the
4x4 lift of the map to (x^2, xy, y^2, loss), and a run of k equal cycles is
the lift's k-th power by square-and-multiply.  A module then costs
O(log N + log M) and conserves probability to the float rounding of its
outputs.  Inside the shallow tier a dwell of more than DWELL_LOOP_MAX inner
cycles per round is the exact tier's, rounded once: there it is the cheaper.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple, Sequence

from .qstate import (
    POLS,
    ConservationError,
    NormalizationError,
    QStateError,
    StateVector,
    _is_int,
    label,
    project,
    projector,
)

ATOL_SUM = 1e-12
P_EMPTY = 1e-300  # below this probability a conditional figure is defined as 0

# Loss families in the order of every loss dict; p_lost sums them in this order.
LOSS_FAMILIES = ("DA", "DB", "Block", "AV")

R = 1.0 / math.sqrt(2.0)  # amplitude of each output of a 50/50 splitter

# A module runs the cycle loops when (1+av_rounds)*N + M <= LOOP_BUDGET and
# the exact tier above it.  Below the line the loops stay inside the 1e-12
# budget: the fixed-point dwell keeps c^2 + s^2 = 1 to about 2^-128 and a
# float64 outer cycle rounds by about 1e-16, so the drift is at most about
# M*1e-16 < 1e-13.  Small modules are also cheaper in the loops: on a 2-core
# x86 VM, (8, 8) costs 0.013 ms per module there against 0.032 ms in the exact
# tier (0.003 against 0.014 ms with the dwell cached, as in a sweep row of up
# to hundreds of modules), and the two break even near (60, 60).  Between that
# and the line the loops cost at most about 0.3 ms more per module; the exact
# tier would move shallow results, the default sweep included, by up to
# 1.3e-14.
LOOP_BUDGET = 512

# Below LOOP_BUDGET a dwell with N > DWELL_LOOP_MAX is `_dwell_exact`, and a
# shorter one runs the cycle loop `_dwell_loop`, about 0.95 us per inner cycle
# and bit.  On a 2-core x86 VM (both bits, min of 15, loop against exact, in
# us): with av_rounds 0, 51 / 55 at N = 24 and 81 / 60 at N = 40; with 1, 95 /
# 90 and 156 / 103; with 2, 185 / 180 at N = 32 and 229 / 184 at N = 40; 753 /
# 86 at N = 400.  They break even near N = 24 to 32, but the line stays at 40:
# the loop rotates by float64 pi's angle and the exact kernel by pi's, so
# moving it would move every dwell in between, to save at most 0.05 ms each.
DWELL_LOOP_MAX = 40


def _require_one(total, what: str, error=ConservationError) -> None:
    """Raise error unless total lies within ATOL_SUM of 1 (a NaN total fails)."""
    if not abs(total - 1.0) <= ATOL_SUM:
        raise error(f"{what} {total!r}, expected 1")


def _abs2(x):
    """|x|^2 as re^2 + im^2, elementwise on numpy arrays as on scalars."""
    return x.real * x.real + x.imag * x.imag


def _norm2(a: complex, b: complex) -> float:
    """|a|^2 + |b|^2, or inf where it overflows (an amplitude beyond ~1e154)."""
    try:
        return abs(a) ** 2 + abs(b) ** 2
    except OverflowError:
        return math.inf


class _ProtocolConfig(NamedTuple):
    M: int
    N: int
    eps_reflect: float = 0.0
    eps_block: float = 0.0
    av_rounds: int = 0
    eps_block_per: str = "inner"


class ProtocolConfig(_ProtocolConfig):
    """Cycle counts and imperfection coefficients for one module.

    eps_block_per picks where the blocked-channel mode-mismatch leak acts:
    "inner" (default) applies the sqrt(eps_block) retention at every channel
    visit; "outer" applies it only at the first visit of each dwell and
    absorbs fully on the rest.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (_is_int(self.M) and _is_int(self.N)):
            raise QStateError("M and N must be integers")
        if self.M < 1 or self.N < 1:
            raise QStateError("M and N must be >= 1")
        for name in ("eps_reflect", "eps_block"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise QStateError(f"{name} must be a number, got {v!r}")
            if not 0.0 <= v <= 1.0:  # exact for an int, so one beyond any float fails
                raise QStateError(f"{name} must lie in [0, 1], got {v}")
        if not _is_int(self.av_rounds, 0):
            raise QStateError("av_rounds must be an integer >= 0")
        if self.eps_block_per not in ("inner", "outer"):
            raise QStateError('eps_block_per must be "inner" or "outer"')
        return self


class _BobQubit(NamedTuple):
    alpha: complex
    beta: complex


class BobQubit(_BobQubit):
    """Control qubit: alpha on |0> (reflect), beta on |1> (block)."""

    __slots__ = ()

    def __new__(cls, alpha: complex, beta: complex):
        for v in (alpha, beta):
            if isinstance(v, bool) or not isinstance(v, (int, float, complex)):
                raise QStateError(f"control amplitudes must be numbers, got {v!r}")
        try:
            alpha, beta = complex(alpha), complex(beta)
        except OverflowError:  # an int beyond any float: its norm^2 reads inf
            _require_one(math.inf, "control qubit norm^2 =", NormalizationError)
        _require_one(_norm2(alpha, beta), "control qubit norm^2 =", NormalizationError)
        return super().__new__(cls, alpha, beta)

    @classmethod
    def _unit(cls, alpha: complex, beta: complex) -> "BobQubit":
        """A qubit over complex alpha and beta as given, checked for norm 1 only."""
        _require_one(_norm2(alpha, beta), "control qubit norm^2 =", NormalizationError)
        return cls._make((alpha, beta))


def _as_bob(bob) -> BobQubit:
    if isinstance(bob, BobQubit):
        return bob
    if _is_int(bob) and bob in (0, 1):
        return BobQubit(1.0 - bob, float(bob))
    raise QStateError(f"control must be a BobQubit or a bit, got {bob!r}")


class _CqzeOutcome(NamedTuple):
    joint: StateVector
    p_success: float
    p_loss_DA: float
    p_loss_DB: float
    loss_breakdown: dict[str, float] | None = None  # omitted: a new {}


class CqzeOutcome(_CqzeOutcome):
    """Joint photon-control state at the module exit, plus loss accounting.

    loss_breakdown holds the four loss families: "DA" (per-cycle exhaust of
    the dwell's H output), "AV" (entrance blocks), "DB" (reflection leak),
    "Block" (absorption at the blocked channel).  p_loss_DA = DA + AV and
    p_loss_DB = DB + Block group them by which side eats the photon.
    """

    __slots__ = ()

    def __new__(cls, joint: StateVector, p_success: float, p_loss_DA: float, p_loss_DB: float,
                loss_breakdown: dict[str, float] | None = None):
        _require_one(p_success + p_loss_DA + p_loss_DB, "outcome probabilities sum to")
        return super().__new__(cls, joint, p_success, p_loss_DA, p_loss_DB,
                               {} if loss_breakdown is None else loss_breakdown)


class _CnotOutcome(NamedTuple):
    joint: StateVector
    port1: StateVector
    port2: StateVector
    z_pending: bool
    probs: dict[str, float]
    loss_breakdown: dict[str, float]


class CnotOutcome(_CnotOutcome):
    """Two-rail gate output: per-port joints and the five-way probabilities.

    z_pending marks Port1 as carrying an uncorrected polarization phase
    flip: applying Z to Port1's polarization yields the plain gate output.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _require_one(sum(self.probs.values()), "outcome probabilities sum to")
        return self


# --- exact tier: fixed-point lifted maps ---------------------------------
#
# A lifted map is (A, q): A = (a, b, c, d) is the real 2x2 amplitude map
# [[a, b], [c, d]] on (x, y), and q = (q0, q1, q2) is the loss it causes on
# that input, q0*x^2 + q1*x*y + q2*y^2.  This is the 4x4 lift of A to
# (x^2, xy, y^2, loss), [[Sym2(A), 0], [q, 1]], stored by its two blocks.
# Entries are integers in units of 2**-_F.

_F = 128
_ONE = 1 << _F
_GUARD = 32  # extra bits for the series in _cos_sin


def _fx(x: float) -> int:
    """Fixed-point value of a float (exact up to the last of _F bits)."""
    num, den = float(x).as_integer_ratio()
    return (num << _F) // den


# pi in units of 2**-(_F + _GUARD): the first 41 hexadecimal digits of pi,
# and the float64 pi that the loop tier's angles start from
_PI = 0x3243F6A8885A308D313198A2E03707344A4093822
_PI64 = _fx(math.pi) << _GUARD


@lru_cache(maxsize=4096)
def _cos_sin(n: int, pi: int = _PI) -> tuple[int, int]:
    """cos and sin of pi/2n in fixed point, pi in units of 2**-(_F + _GUARD):
    the smaller from its series, the larger as sqrt(1 - small^2) so that
    c^2 + s^2 = 1 to the last bit.  At n = 1 the cosine is the small one, the
    sine of pi/2 - x: 0 for `_PI`, and cos(math.pi / 2) = 6.1e-17 for `_PI64`."""
    x = pi // (2 * n) if n > 1 else _PI // 2 - pi // 2
    x2 = x * x >> (_F + _GUARD)
    term, small, j = x, x, 1
    while term:
        term = term * x2 // ((j + 1) * (j + 2) << (_F + _GUARD))
        j += 2
        small += term if j % 4 == 1 else -term
    small = (small + (1 << (_GUARD - 1))) >> _GUARD
    big = math.isqrt(_ONE * _ONE - small * small)
    return (small, big) if n == 1 else (big, small)


def _then(m1, m2):
    """Lifted map of m1 followed by m2 (the 4x4 block product lift(m2)·lift(m1))."""
    (a, b, c, d), q = m1
    (e, f, g, h), (r0, r1, r2) = m2
    amp = ((e * a + f * c) >> _F, (e * b + f * d) >> _F,
           (g * a + h * c) >> _F, (g * b + h * d) >> _F)
    # m2's loss row pulled back through A: r0*x'^2 + r1*x'y' + r2*y'^2
    loss = (q[0] + ((r0 * a * a + r1 * a * c + r2 * c * c) >> 2 * _F),
            q[1] + ((2 * (r0 * a * b + r2 * c * d) + r1 * (a * d + b * c)) >> 2 * _F),
            q[2] + ((r0 * b * b + r1 * b * d + r2 * d * d) >> 2 * _F))
    return amp, loss


def _square(m):
    """`_then(m, m)` from the ten pairwise products of A's entries: 20 integer
    multiplications where `_then` makes 28, with every sum before a shift the same."""
    (a, b, c, d), (q0, q1, q2) = m
    aa, bb, cc, dd = a * a, b * b, c * c, d * d
    ab, ac, ad, bc, bd, cd = a * b, a * c, a * d, b * c, b * d, c * d
    amp = ((aa + bc) >> _F, (ab + bd) >> _F, (ac + cd) >> _F, (bc + dd) >> _F)
    loss = (q0 + ((q0 * aa + q1 * ac + q2 * cc) >> 2 * _F),
            q1 + ((2 * (q0 * ab + q2 * cd) + q1 * (ad + bc)) >> 2 * _F),
            q2 + ((q0 * bb + q1 * bd + q2 * dd) >> 2 * _F))
    return amp, loss


def _apply(m, x: int, y: int):
    """Apply m to the real pair (x, y); returns the image pair and the loss."""
    (a, b, c, d), (q0, q1, q2) = m
    return ((a * x + b * y) >> _F, (c * x + d * y) >> _F,
            (q0 * x * x + q1 * x * y + q2 * y * y) >> 2 * _F)


def _power(m, k: int, x: int, y: int):
    """Apply the k-th power of m to (x, y) by square-and-multiply.

    The powers of one map commute, so applying m^(2^i) for each set bit i
    of k, lowest first, is k steps of m: O(log k) map products.
    """
    lost = 0
    while k:
        if k & 1:
            x, y, step_loss = _apply(m, x, y)
            lost += step_loss
        k >>= 1
        if k:
            m = _square(m)
    return x, y, lost


def _map_power(m, k: int):
    """The lifted map m^k (the identity for k = 0), by square-and-multiply."""
    out = ((_ONE, 0, 0, _ONE), (0, 0, 0))
    while k:
        if k & 1:
            out = _then(out, m)
        k >>= 1
        if k:
            m = _square(m)
    return out


def _dwell_exact(n: int, eps_reflect: float, eps_block: float, av_rounds: int,
                 eps_block_per: str, bit: int):
    """The exact tier's dwell: `_dwell`'s recursion as lifted-map powers,
    with results in fixed point.

    A dwell is av_rounds rounds of n - 1 channel visits and an entrance
    block, then a last round of n visits.  The first visit, which may
    retain more than the later ones, falls in the first round, or for
    n = 1 in the last, so every round in between is one lifted map.  That
    map is raised to its power twice, with the channel family's loss row
    and with the entrance blocks': the two runs do the same amplitude
    arithmetic, so a dwell costs O(log n + log av_rounds).
    """
    c, s = _cos_sin(n)
    rot = ((c, -s, s, c), (0, 0, 0))
    fam = "DB" if bit == 0 else "Block"

    def visit(keep2: int):  # rotation, then the control event on H
        return _then(rot, ((math.isqrt(keep2 << _F), 0, 0, _ONE), (_ONE - keep2, 0, 0)))

    first = visit(_ONE - _fx(eps_reflect) if bit == 0 else _fx(eps_block))
    later = visit(0) if bit == 1 and eps_block_per == "outer" else first
    # only a dwell with entrance-block rounds applies the block
    entrance_block = _then(rot, ((0, 0, 0, _ONE), (_ONE, 0, 0))) if av_rounds else None
    coeffs = {"DB": 0, "Block": 0, "AV": 0}
    t01, t11, pending = 0, _ONE, first
    for r in sorted({0, av_rounds}):  # the first round and the last
        if r > 1:  # rounds 1..r-1 in between: n - 1 later visits, then the block
            amp, visit_loss = _map_power(later, n - 1)
            no_loss = (0, 0, 0)
            middle = {fam: _then((amp, visit_loss), (entrance_block[0], no_loss)),
                      "AV": _then((amp, no_loss), entrance_block)}
            for famname, m in middle.items():
                x, y, lost = _power(m, r - 1, t01, t11)
                coeffs[famname] += lost
            t01, t11 = x, y
        visits = n if r == av_rounds else n - 1
        if visits and pending is not None:
            t01, t11, lost = _apply(pending, t01, t11)
            coeffs[fam] += lost
            visits, pending = visits - 1, None
        t01, t11, lost = _power(later, visits, t01, t11)
        coeffs[fam] += lost
        if r < av_rounds:
            t01, t11, lost = _apply(entrance_block, t01, t11)
            coeffs["AV"] += lost
    return t01, t11, tuple(coeffs.values())


@lru_cache(maxsize=None)
def _dwell(n: int, eps_reflect: float, eps_block: float, av_rounds: int,
           eps_block_per: str, bit: int, exact: bool = False) -> tuple:
    """Transfer of one full dwell of n inner cycles (plus av_rounds
    extension rounds) on a pure V input slice.

    Returns (t_HV, t_VV, (DB, Block, AV) coefficients): the dwell maps
    (0, l) to (t_HV*l, t_VV*l) and each family loses coeff*|l|^2.  Real
    entries only, since every step is a real rotation or a real scaling.
    Every dwell is computed in fixed-point integers.  With exact they are
    returned as they are, from `_dwell_exact` at the angle pi/2n; otherwise
    each is rounded once to float (int / int division rounds correctly),
    from `_dwell_loop` at the float64 angle math.pi / 2n for
    n <= DWELL_LOOP_MAX and from `_dwell_exact` above it.  The outer cycle
    count plays no part, so the cache key leaves it out.
    """
    args = (n, eps_reflect, eps_block, av_rounds, eps_block_per, bit)
    if exact:
        return _dwell_exact(*args)
    t01, t11, coeffs = (_dwell_loop if n <= DWELL_LOOP_MAX else _dwell_exact)(*args)
    return t01 / _ONE, t11 / _ONE, tuple(x / _ONE for x in coeffs)


def _dwell_loop(n: int, eps_reflect: float, eps_block: float, av_rounds: int,
                eps_block_per: str, bit: int) -> tuple:
    """`_dwell_exact`'s fixed-point results from a cycle loop, one inner cycle
    at a time, but rotating by the float64 angle math.pi / 2n, as `_outer_loop`
    does."""
    c, s = _cos_sin(n, _PI64)
    keep2 = _ONE - _fx(eps_reflect) if bit == 0 else _fx(eps_block)
    leak, k = _ONE - keep2, math.isqrt(keep2 << _F)  # the first visit's loss and retention
    t01, t11, lost, av = 0, _ONE, 0, 0  # lost: the bit's channel family, DB or Block
    for j in range(1, (1 + av_rounds) * n + 1):
        t01, t11 = (c * t01 - s * t11) >> _F, (s * t01 + c * t11) >> _F
        if j % n == 0 and j // n <= av_rounds:
            av += t01 * t01
            t01 = 0
        else:
            lost += leak * t01 * t01
            t01 = t01 * k >> _F
            if bit == 1 and eps_block_per == "outer":  # later visits absorb fully
                leak, k = _ONE, 0
    lost, av = lost >> 2 * _F, av >> _F  # from units of 2**-3F and 2**-2F
    return t01, t11, (lost, 0, av) if bit == 0 else (0, lost, av)


def _outer_loop(cfg: ProtocolConfig, dwell: tuple):
    """M outer cycles around the float `dwell` on a plain H input, stepped
    one by one in float64 (every step is real); returns the output (H, V)
    amplitudes as complex numbers and each family's loss, its coefficient
    times the summed dwell input |V|^2 as in `_outer_exact`."""
    theta = math.pi / (2 * cfg.M)
    c, sn = math.cos(theta), math.sin(theta)
    t01, t11, (db, block, av) = dwell
    vH, vV, sum_p = 1.0, 0.0, 0.0
    for _ in range(cfg.M):
        vH, vV = c * vH - sn * vV, sn * vH + c * vV
        sum_p += vV * vV
        vV *= t11
    return complex(vH), complex(vV), {"DA": t01 * t01 * sum_p, "DB": db * sum_p,
                                      "Block": block * sum_p, "AV": av * sum_p}


def _outer_exact(cfg: ProtocolConfig, dwell: tuple):
    """`_outer_loop` in the exact tier, around a fixed-point `dwell`: the
    outer cycle diag(1, t_VV)·R(pi/2M) with the loss row of the rotated
    |V|^2, raised to the M-th power and applied to the real input (1, 0)."""
    t01, t11, (db, block, av) = dwell
    c, s = _cos_sin(cfg.M)
    cycle = ((c, -s, t11 * s >> _F, t11 * c >> _F),
             (s * s >> _F, 2 * c * s >> _F, c * c >> _F))
    f_h, f_v, sum_p = _power(cycle, cfg.M, _ONE, 0)
    return complex(f_h / _ONE), complex(f_v / _ONE), {
        "DA": t01 * t01 * sum_p / _ONE ** 3, "DB": db * sum_p / _ONE ** 2,
        "Block": block * sum_p / _ONE ** 2, "AV": av * sum_p / _ONE ** 2}


def _module(bit: int, cfg: ProtocolConfig):
    """Module output for one control bit and a plain H input: the F-H and
    F-V amplitudes and the loss families, from the cycle loops or, above
    LOOP_BUDGET, from the exact tier, checked to sum to 1."""
    exact = (1 + cfg.av_rounds) * cfg.N + cfg.M > LOOP_BUDGET
    dwell = _dwell(cfg.N, cfg.eps_reflect, cfg.eps_block, cfg.av_rounds,
                   cfg.eps_block_per, bit, exact)
    f_h, f_v, loss = (_outer_exact if exact else _outer_loop)(cfg, dwell)
    _require_one(_abs2(f_h) + _abs2(f_v) + (loss["DA"] + loss["AV"])
                 + (loss["DB"] + loss["Block"]), "outcome probabilities sum to")
    return f_h, f_v, loss


def run_cqze(bob, cfg: ProtocolConfig) -> CqzeOutcome:
    """Full module: M outer cycles, each embedding one dwell, on a plain H
    photon (the two-rail gate handles other polarizations).  The joint
    output lives on path F with the control bit attached to each label;
    each bit's module run is weighted by its control amplitude.
    """
    bob = _as_bob(bob)
    loss = dict.fromkeys(LOSS_FAMILIES, 0.0)
    amps: dict = {}
    for bit, w in ((0, bob.alpha), (1, bob.beta)):
        if w != 0:
            f_h, f_v, bit_loss = _module(bit, cfg)
            amps[label("F", "H", str(bit))], amps[label("F", "V", str(bit))] = w * f_h, w * f_v
            loss = {fam: p + abs(w) ** 2 * bit_loss[fam] for fam, p in loss.items()}
    joint = StateVector(amps)
    return CqzeOutcome(joint=joint, p_success=joint.norm2(), p_loss_DA=loss["DA"] + loss["AV"],
                       p_loss_DB=loss["DB"] + loss["Block"], loss_breakdown=loss)


def _two_rail(g_h, g_v, f_h, f_v):
    """Port amplitudes of the two-rail gate on one control branch.

    (g_h, g_v) is the polarization entering the gate and (f_h, f_v) the
    module output for a plain H input on the same branch.  H rides rail 1
    through the module; V is flipped onto rail 2, through its own module
    and back, so rail 2 leaves with (g_v*f_v, g_v*f_h).  Returns the (H, V)
    pairs of Port2 = (rail1 + rail2)/sqrt2 and Port1 = (rail1 - rail2)/sqrt2.
    Works elementwise on numpy arrays as on scalars.
    """
    rail1_h, rail1_v = g_h * f_h, g_h * f_v
    rail2_h, rail2_v = g_v * f_v, g_v * f_h
    port2 = (R * (rail1_h + rail2_h), R * (rail1_v + rail2_v))
    port1 = (R * (rail1_h - rail2_h), R * (rail1_v - rail2_v))
    return port2, port1


def counterfactual_cnot(pol_in: Sequence[complex], bob, cfg: ProtocolConfig) -> CnotOutcome:
    """Two-rail gate: H rides rail 1, V is flipped onto rail 2, each rail
    passes a module seeing a plain H input, and a 50/50 splitter recombines.

    Port2 = (rail1 + rail2)/sqrt2 carries the plain gate output; Port1 =
    (rail1 - rail2)/sqrt2 carries it up to a pending polarization Z flip.
    """
    aH, aV = (complex(a) for a in pol_in)
    _require_one(_norm2(aH, aV), "input polarization norm^2 =", NormalizationError)
    base = run_cqze(bob, cfg)
    amps: dict = {}
    for b in ("0", "1"):
        ports = _two_rail(aH, aV, base.joint.amp(label("F", "H", b)),
                         base.joint.amp(label("F", "V", b)))
        for port, pair in zip(("Port2", "Port1"), ports):
            for pol, a in zip(POLS, pair):
                amps[label(port, pol, b)] = a
    joint = StateVector(amps)
    port1, p_port1 = project(projector(paths="Port1"), joint)
    port2, p_port2 = project(projector(paths="Port2"), joint)
    probs = {
        "Port1": p_port1,
        "Port2": p_port2,
        "DA": base.p_loss_DA,
        "DB": base.loss_breakdown["DB"],
        "Block": base.loss_breakdown["Block"],
    }
    return CnotOutcome(
        joint=joint,
        port1=port1,
        port2=port2,
        z_pending=True,
        probs=probs,
        loss_breakdown=dict(base.loss_breakdown),
    )
