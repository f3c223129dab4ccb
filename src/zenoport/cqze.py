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
intensity coefficient per dwell and the outer recursion costs O(1) per
cycle after a single O((1+a)N) precomputation per configuration.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .qstate import (
    POLS,
    ConservationError,
    NormalizationError,
    QStateError,
    StateVector,
    label,
)

ATOL_SUM = 1e-12


@dataclass(frozen=True)
class ProtocolConfig:
    """Cycle counts and imperfection coefficients for one module.

    eps_block_per picks where the blocked-channel mode-mismatch leak acts:
    "inner" (default) applies the sqrt(eps_block) retention at every channel
    visit; "outer" applies it only at the first visit of each dwell and
    absorbs fully on the rest.
    """

    M: int
    N: int
    eps_reflect: float = 0.0
    eps_block: float = 0.0
    av_rounds: int = 0
    eps_block_per: str = "inner"

    def __post_init__(self):
        if not isinstance(self.M, int) or not isinstance(self.N, int):
            raise QStateError("M and N must be integers")
        if self.M < 1 or self.N < 1:
            raise QStateError("M and N must be >= 1")
        for name in ("eps_reflect", "eps_block"):
            v = getattr(self, name)
            if not 0.0 <= float(v) <= 1.0:
                raise QStateError(f"{name} must lie in [0, 1], got {v}")
        if not isinstance(self.av_rounds, int) or self.av_rounds < 0:
            raise QStateError("av_rounds must be an integer >= 0")
        if self.eps_block_per not in ("inner", "outer"):
            raise QStateError('eps_block_per must be "inner" or "outer"')

    @property
    def theta_outer(self) -> float:
        return math.pi / (2 * self.M)


@dataclass(frozen=True)
class BobQubit:
    """Control qubit: alpha on |0> (reflect), beta on |1> (block)."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))
        n2 = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if not abs(n2 - 1.0) <= ATOL_SUM:
            raise NormalizationError(f"control qubit norm^2 = {n2!r}, expected 1")

    @classmethod
    def reflecting(cls) -> "BobQubit":
        return cls(1.0, 0.0)

    @classmethod
    def blocking(cls) -> "BobQubit":
        return cls(0.0, 1.0)


def _as_bob(bob) -> BobQubit:
    if isinstance(bob, BobQubit):
        return bob
    if bob in (0, 1):
        return BobQubit(1.0 - bob, float(bob))
    raise QStateError(f"control must be a BobQubit or a bit, got {bob!r}")


@dataclass(frozen=True)
class CqzeOutcome:
    """Joint photon-control state at the module exit, plus loss accounting.

    loss_breakdown holds the four loss families: "DA" (per-cycle exhaust of
    the dwell's H output), "AV" (entrance blocks), "DB" (reflection leak),
    "Block" (absorption at the blocked channel).  p_loss_DA = DA + AV and
    p_loss_DB = DB + Block group them by which side eats the photon.
    """

    joint: StateVector
    p_success: float
    p_loss_DA: float
    p_loss_DB: float
    loss_breakdown: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        total = self.p_success + self.p_loss_DA + self.p_loss_DB
        if not abs(total - 1.0) <= ATOL_SUM:
            raise ConservationError(f"outcome probabilities sum to {total!r}, expected 1")


@dataclass(frozen=True)
class CnotOutcome:
    """Two-rail gate output: per-port joints and the five-way probabilities.

    z_pending marks Port1 as carrying an uncorrected polarization phase
    flip: applying Z to Port1's polarization yields the plain gate output.
    """

    joint: StateVector
    port1: StateVector
    port2: StateVector
    z_pending: bool
    probs: dict[str, float]
    loss_breakdown: dict[str, float]

    def __post_init__(self):
        total = sum(self.probs.values())
        if not abs(total - 1.0) <= ATOL_SUM:
            raise ConservationError(f"outcome probabilities sum to {total!r}, expected 1")


@lru_cache(maxsize=None)
def _dwell(n: int, eps_reflect: float, eps_block: float, av_rounds: int,
           eps_block_per: str, bit: int) -> tuple[float, float, tuple[tuple[str, float], ...]]:
    """Transfer of one full dwell of n inner cycles (plus av_rounds
    extension rounds) on a pure V input slice.

    Returns (t_HV, t_VV, loss coefficients): the dwell maps (0, l) to
    (t_HV*l, t_VV*l) and each family loses coeff*|l|^2.  Real entries only,
    since every step is a real rotation or a real scaling.  The recursion
    runs in extended precision: tens of thousands of chained double-float
    rotations would otherwise drift the probability budget past 1e-12.
    The outer cycle count plays no part, so the cache key leaves it out.
    """
    one = np.longdouble(1.0)
    c = np.cos(np.longdouble(math.pi) / (2 * n))
    sn = np.sin(np.longdouble(math.pi) / (2 * n))
    keep2 = (one - np.longdouble(eps_reflect)) if bit == 0 else np.longdouble(eps_block)
    keep = np.sqrt(keep2)
    fam = "DB" if bit == 0 else "Block"
    coeffs = {"DB": np.longdouble(0.0), "Block": np.longdouble(0.0), "AV": np.longdouble(0.0)}
    zero = np.longdouble(0.0)
    t01, t11 = zero, one
    first_visit = True
    for j in range(1, (1 + av_rounds) * n + 1):
        t01, t11 = c * t01 - sn * t11, sn * t01 + c * t11
        if j % n == 0 and j // n <= av_rounds:
            coeffs["AV"] += t01 * t01
            t01 = zero
        else:
            if bit == 1 and eps_block_per == "outer" and not first_visit:
                k2, k = zero, zero
            else:
                k2, k = keep2, keep
            coeffs[fam] += (one - k2) * (t01 * t01)
            t01 = t01 * k
            first_visit = False
    out = tuple(sorted((k, float(v)) for k, v in coeffs.items()))
    return float(t01), float(t11), out


def run_cqze(pol_in: Sequence[complex], bob, cfg: ProtocolConfig) -> CqzeOutcome:
    """Full module: M outer cycles, each embedding one dwell.

    pol_in is the (H, V) amplitude pair entering the module (normally
    (1, 0): the two-rail gate handles general polarizations).  The joint
    output lives on path F with the control bit attached to each label.
    """
    bob = _as_bob(bob)
    aH, aV = (complex(a) for a in pol_in)
    if not abs(abs(aH) ** 2 + abs(aV) ** 2 - 1.0) <= ATOL_SUM:
        raise NormalizationError("input polarization must be normalized")
    c, sn = math.cos(cfg.theta_outer), math.sin(cfg.theta_outer)
    loss = {"DA": 0.0, "DB": 0.0, "Block": 0.0, "AV": 0.0}
    amps: dict = {}
    for bit, w in ((0, bob.alpha), (1, bob.beta)):
        if w == 0:
            continue
        t01, t11, coeff_items = _dwell(cfg.N, cfg.eps_reflect, cfg.eps_block,
                                       cfg.av_rounds, cfg.eps_block_per, bit)
        vH, vV = w * aH, w * aV
        for _ in range(cfg.M):
            vH, vV = c * vH - sn * vV, sn * vH + c * vV
            p = abs(vV) ** 2
            loss["DA"] += (t01 * t01) * p
            for famname, coeff in coeff_items:
                loss[famname] += coeff * p
            vV *= t11
        b = str(bit)
        if vH:
            amps[label("F", "H", b)] = vH
        if vV:
            amps[label("F", "V", b)] = vV
    joint = StateVector(amps)
    return CqzeOutcome(
        joint=joint,
        p_success=joint.norm2(),
        p_loss_DA=loss["DA"] + loss["AV"],
        p_loss_DB=loss["DB"] + loss["Block"],
        loss_breakdown=loss,
    )


def _two_rail(g_h, g_v, f_h, f_v):
    """Port amplitudes of the two-rail gate on one control branch.

    (g_h, g_v) is the polarization entering the gate and (f_h, f_v) the
    module output for a plain H input on the same branch.  H rides rail 1
    through the module; V is flipped onto rail 2, through its own module
    and back, so rail 2 leaves with (g_v*f_v, g_v*f_h).  Returns the (H, V)
    pairs of Port2 = (rail1 + rail2)/sqrt2 and Port1 = (rail1 - rail2)/sqrt2.
    Works elementwise on numpy arrays as on scalars.
    """
    r = 1.0 / math.sqrt(2.0)
    rail1_h, rail1_v = g_h * f_h, g_h * f_v
    rail2_h, rail2_v = g_v * f_v, g_v * f_h
    port2 = (r * (rail1_h + rail2_h), r * (rail1_v + rail2_v))
    port1 = (r * (rail1_h - rail2_h), r * (rail1_v - rail2_v))
    return port2, port1


def counterfactual_cnot(pol_in: Sequence[complex], bob, cfg: ProtocolConfig) -> CnotOutcome:
    """Two-rail gate: H rides rail 1, V is flipped onto rail 2, each rail
    passes a module seeing a plain H input, and a 50/50 splitter recombines.

    Port2 = (rail1 + rail2)/sqrt2 carries the plain gate output; Port1 =
    (rail1 - rail2)/sqrt2 carries it up to a pending polarization Z flip.
    """
    aH, aV = (complex(a) for a in pol_in)
    if not abs(abs(aH) ** 2 + abs(aV) ** 2 - 1.0) <= ATOL_SUM:
        raise NormalizationError("input polarization must be normalized")
    base = run_cqze((1.0, 0.0), bob, cfg)
    amps: dict = {}
    for b in ("0", "1"):
        ports = _two_rail(aH, aV, base.joint.amp(label("F", "H", b)),
                         base.joint.amp(label("F", "V", b)))
        for port, pair in zip(("Port2", "Port1"), ports):
            for pol, a in zip(POLS, pair):
                amps[label(port, pol, b)] = a
    joint = StateVector(amps)
    port1 = joint.restricted(paths=("Port1",))
    port2 = joint.restricted(paths=("Port2",))
    probs = {
        "Port1": port1.norm2(),
        "Port2": port2.norm2(),
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
