"""Full counterportation protocol and the (M, N) fidelity sweep.

The protocol transports the control qubit's state onto the photon's
polarization without the photon crossing the channel: round 1 sends a
plain H photon through the module and entangles it with the control;
Hadamards rotate both; round 2 sends the photon through the two-rail gate;
a final Hadamard pair and the Port1 polarization flip leave the control
qubit's amplitudes on the photon at both output ports.

Two fidelity readings are computed for every run: "loss-inclusive" scores
a lost photon as zero (an unconditional figure), "post-selected" divides
by the arrival probability (the conditional figure).

The protocol is linear in the control amplitudes, so one configuration's
two module runs (control bit 0 and 1) fix every run of it.  `_rounds`
computes the protocol's amplitudes from those transfers in closed form,
indexing them by control bit, with arithmetic that plain numbers and numpy
arrays share; each caller takes only the readings it needs.  `counterport`
runs one qubit on Python numbers and takes every reading.  `sweep` runs a
block of cells on the basis inputs (1, 0) and (0, 1) and keeps only each
cell's forms on u = (|alpha|^2, |beta|^2, Re and Im of conj(alpha)·beta),
which fix every qubit's readings; each cell's port/loss total is checked
once, on the whole Bloch sphere.

numpy is imported inside the functions that use it, and the process pool
where `sweep` starts one, so that `import zenoport`, the presence commands
and a `counterport` run load neither, unless the run's dwell is short enough
(N <= `cqze.DWELL_LOOP_MAX`, below `cqze.LOOP_BUDGET`) for the extended
precision loop of `cqze._dwell_loop`, which loads numpy.
"""
from __future__ import annotations

import cmath
import math
import random
from itertools import islice, product
from typing import NamedTuple

from .cqze import (ATOL_SUM, LOSS_FAMILIES, P_EMPTY, R, BobQubit, ProtocolConfig, _abs2,
                   _as_bob, _module, _require_one, _two_rail)
from .qstate import POLS, BasisLabel, QStateError, StateVector, _is_int

FIDELITY_MODES = ("loss-inclusive", "post-selected")


class _CounterportResult(NamedTuple):
    port1: StateVector
    port2: StateVector
    p_port1: float
    p_port2: float
    p_lost: float
    loss_breakdown: dict[str, float]
    fidelity: float
    fidelity_post_selected: float
    bob_purity: dict[str, float]
    round_trace: dict[str, StateVector]


class CounterportResult(_CounterportResult):
    """One protocol run: per-port joints, probabilities, fidelity readings."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _require_one(self.p_port1 + self.p_port2 + self.p_lost, "port/loss probabilities sum to")
        return self

    @property
    def p_success(self) -> float:
        return self.p_port1 + self.p_port2

    @property
    def joint(self) -> StateVector:
        return self.port1 + self.port2


def _had(a, b):
    """Hadamard on one two-level factor whose components are a and b."""
    ra, rb = R * a, R * b
    return ra + rb, ra - rb


def _had_bit(pair):
    """Hadamard on the control bit of an (H, V) pair of per-bit amplitudes."""
    return tuple(_had(*x) for x in pair)


def _had_pol(pair):
    """Hadamard on the polarization of an (H, V) pair of per-bit amplitudes."""
    return tuple(zip(*(_had(h, v) for h, v in zip(*pair))))


def _rounds(alpha, beta, f_h, f_v) -> dict:
    """The two-round protocol's amplitudes in closed form.

    alpha and beta are the control amplitudes; f_h and f_v are indexed by
    control bit first: `_module`'s plain numbers per bit for one run, or
    arrays for a batch, whose other axes broadcast against alpha and beta.
    Returns each snapshot's paths, each path an (H, V) pair whose entries
    are (bit 0, bit 1) pairs of amplitudes.
    """
    w = (alpha, beta)
    bits = (0, 1)
    # round 1: a plain H photon through the module, entangled with the control
    round1 = (tuple(w[b] * f_h[b] for b in bits), tuple(w[b] * f_v[b] for b in bits))
    between = _had_bit(_had_pol(round1))
    # round 2: each control branch rides the two rails of the gate
    gates = [_two_rail(between[0][b], between[1][b], f_h[b], f_v[b]) for b in bits]
    # each port's per-bit (H, V) pairs become an (H, V) pair of per-bit amplitudes
    port2, port1 = (tuple(zip(*port)) for port in zip(*gates))
    # Hadamards on the control bit and on each port's polarization; the
    # Port1 flip swaps its H and V
    port2_h, port2_v = _had_pol(_had_bit(port2))
    port1_v, port1_h = _had_pol(_had_bit(port1))
    return {"round1": {"F": round1}, "between_rounds": {"F": between},
            "round2_ports": {"Port1": port1, "Port2": port2},
            "final": {"Port1": (port1_h, port1_v), "Port2": (port2_h, port2_v)}}


# each snapshot path's labels as its amplitudes are indexed: by polarization, then bit
_LABELS = {path: tuple(tuple(BasisLabel(path, pol, bit) for bit in "01") for pol in POLS)
           for path in ("F", "Port1", "Port2")}


def _state(paths: dict) -> StateVector:
    """StateVector of per-path (H, V) amplitude pairs indexed by control bit.

    The amplitudes are complex numbers from `_rounds`, so the state is
    wrapped over them as they are, dropping exact zeros as
    `StateVector.__init__` would."""
    return StateVector._wrap({k: a for path, pair in paths.items()
                              for keys, amps in zip(_LABELS[path], pair)
                              for k, a in zip(keys, amps) if a != 0})


def _bob_purity(pair) -> float | None:
    """Purity of the control qubit's reduced state on one port, or None if empty.

    pair is the port's (H, V) pair of (bit 0, bit 1) amplitudes; the reduced
    state is rho[i][j] = conj(h_i)·h_j + conj(v_i)·v_j, and its purity is
    (rho00² + rho11² + 2·|rho01|²) / tr².
    """
    (h0, h1), (v0, v1) = pair
    r00, r11 = _abs2(h0) + _abs2(v0), _abs2(h1) + _abs2(v1)
    r01 = h0.conjugate() * h1 + v0.conjugate() * v1
    tr = r00 + r11
    if tr < P_EMPTY:
        return None
    return (r00 * r00 + r11 * r11 + 2.0 * _abs2(r01)) / (tr * tr)


def counterport(bob, cfg: ProtocolConfig) -> CounterportResult:
    """Run the two-round protocol for one control qubit.

    The target polarization (alpha, beta) is the control qubit's own
    amplitude pair; both fidelity readings compare against it.
    """
    bob = _as_bob(bob)
    alpha, beta = bob.alpha, bob.beta
    f_h, f_v, losses = zip(*(_module(bit, cfg) for bit in (0, 1)))
    rounds = _rounds(alpha, beta, f_h, f_v)
    final, between = rounds["final"], rounds["between_rounds"]["F"]
    # each bit's weight in the control and between the rounds
    weight = [_abs2(w) + _abs2(between[0][b]) + _abs2(between[1][b])
              for b, w in enumerate((alpha, beta))]
    loss = {fam: weight[0] * losses[0][fam] + weight[1] * losses[1][fam] for fam in LOSS_FAMILIES}
    a_conj, b_conj = alpha.conjugate(), beta.conjugate()
    p_port, f_port, purity = {}, {}, {}
    for name, (h, v) in final.items():
        p = [_abs2(h[b]) + _abs2(v[b]) for b in (0, 1)]
        f = [_abs2(a_conj * h[b] + b_conj * v[b]) for b in (0, 1)]
        p_port[name], f_port[name] = p[0] + p[1], f[0] + f[1]
        pure = _bob_purity((h, v))
        if pure is not None:
            purity[name] = pure
    p_success = p_port["Port1"] + p_port["Port2"]
    fidelity = f_port["Port1"] + f_port["Port2"]
    return CounterportResult(
        port1=_state({"Port1": final["Port1"]}),
        port2=_state({"Port2": final["Port2"]}),
        p_port1=p_port["Port1"],
        p_port2=p_port["Port2"],
        p_lost=sum(loss.values()),
        loss_breakdown=loss,
        fidelity=fidelity,
        fidelity_post_selected=fidelity / p_success if p_success >= P_EMPTY else 0.0,
        bob_purity=purity,
        round_trace={name: _state(paths) for name, paths in rounds.items()},
    )


class BlochSample(NamedTuple):
    """Deterministic set of control qubits used for fidelity averaging."""

    qubits: tuple[BobQubit, ...]
    scheme: str


def sample_bloch(count: int, scheme: str = "fibonacci", seed: int = 0) -> BlochSample:
    """Spread `count` qubits over the Bloch sphere.

    "fibonacci" places points on the golden-angle spiral with endpoints at
    the poles (count=1 gives the |0> pole, count=2 the antipodal pair);
    "seeded-uniform" draws them uniformly from the given seed.
    """
    if not _is_int(count, 1):
        raise QStateError("sample count must be an integer >= 1")
    if not _is_int(seed):
        raise QStateError(f"sample seed must be an integer, got {seed!r}")
    if scheme == "fibonacci":
        golden = math.pi * (3.0 - math.sqrt(5.0))
        points = [(1.0 if count == 1 else 1.0 - 2.0 * i / (count - 1), i * golden)
                  for i in range(count)]
    elif scheme == "seeded-uniform":
        rng = random.Random(seed)
        points = [(rng.uniform(-1.0, 1.0), rng.uniform(0.0, 2.0 * math.pi)) for _ in range(count)]
    else:
        raise QStateError(f"unknown sampling scheme {scheme!r}")
    qubits = []
    for z, phi in points:  # the point with z = cos(theta) and azimuth phi
        half = math.acos(max(-1.0, min(1.0, z))) / 2.0
        qubits.append(BobQubit._unit(complex(math.cos(half)), cmath.exp(1j * phi) * math.sin(half)))
    return BlochSample(tuple(qubits), scheme)


class _FidelityGrid(NamedTuple):
    m_values: tuple[int, ...]
    n_values: tuple[int, ...]
    avg_fidelity: np.ndarray
    avg_success_prob: np.ndarray
    meta: dict | None = None  # omitted: a new {}


class FidelityGrid(_FidelityGrid):
    """Rectangular (M, N) grid of averaged fidelity and arrival probability."""

    __slots__ = ()

    def __new__(cls, m_values: tuple[int, ...], n_values: tuple[int, ...],
                avg_fidelity: np.ndarray, avg_success_prob: np.ndarray, meta: dict | None = None):
        return super().__new__(cls, m_values, n_values, avg_fidelity, avg_success_prob,
                               {} if meta is None else meta)

    def __eq__(self, other):  # by value, arrays too; and, like its arrays, a grid does not hash
        import numpy as np
        return isinstance(other, tuple) and len(other) == len(self) and all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
            else a == b for a, b in zip(self, other))

    def __ne__(self, other):
        return not self == other

    def cell(self, m: int, n: int) -> tuple[float, float]:
        if not (_is_int(m) and _is_int(n)):
            raise QStateError(f"cell coordinates must be integers, got ({m!r}, {n!r})")
        if m not in self.m_values or n not in self.n_values:
            raise QStateError(f"cell ({m}, {n}) is outside the grid: M runs {self.m_values[0]}.."
                              f"{self.m_values[-1]}, N runs {self.n_values[0]}..{self.n_values[-1]}")
        i, j = self.m_values.index(m), self.n_values.index(n)
        return float(self.avg_fidelity[i, j]), float(self.avg_success_prob[i, j])

    def to_csv(self) -> str:
        lines = ["M,N,avg_fidelity,avg_success_prob"]
        fid, prob = self.avg_fidelity.tolist(), self.avg_success_prob.tolist()
        for m, fid_row, prob_row in zip(self.m_values, fid, prob):
            for n, f, p in zip(self.n_values, fid_row, prob_row):
                lines.append(f"{m},{n},{f!r},{p!r}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "m_values": list(self.m_values),
            "n_values": list(self.n_values),
            "avg_fidelity": self.avg_fidelity.tolist(),
            "avg_success_prob": self.avg_success_prob.tolist(),
            "meta": dict(self.meta),
        }


# Cells per basis `_rounds` call: _BATCH // 4; entries per forms read: max(_BATCH,
# n_max·samples).  Fresh on a 2-core VM, an 80 x 400 x 20 sweep peaks at 39.3 MB RSS
# (39.9 at _BATCH // 2 cells, 41.8 / 50.6 at _BATCH 8192 / 32768; 38.5 run per qubit).
_BATCH = 2048


def _hermitian(amps):
    """Coefficients on u of the sum over amps of |alpha·a[..., 0] + beta·a[..., 1]|^2."""
    cross = sum(a[..., 0].conjugate() * a[..., 1] for a in amps)
    return (sum(_abs2(a[..., 0]) for a in amps), sum(_abs2(a[..., 1]) for a in amps),
            2.0 * cross.real, -2.0 * cross.imag)


def _require_totals(t) -> None:
    """Raise ConservationError at the first cell whose port/loss total misses 1
    by more than ATOL_SUM for some control qubit (NaN included).

    t is the (4, cells) total form on u.  On the Bloch sphere n, t·u - 1 is
    c + d·n with c = (t0 + t1)/2 - 1 and d = (t0 - t1, t2, t3)/2, so the worst
    qubit's total is 1 ± (|c| + |d|), on the side of c's sign."""
    import numpy as np
    c = (t[0] + t[1]) / 2.0 - 1.0
    d = np.sqrt((t[0] - t[1]) ** 2 + t[2] ** 2 + t[3] ** 2) / 2.0
    worst = 1.0 + np.copysign(abs(c) + d, c)
    bad = worst[~(abs(worst - 1.0) <= ATOL_SUM)]
    if bad.size:
        _require_one(float(bad[0]), "port/loss probabilities sum to")


def _cell_forms(cfgs):
    """Per configuration, the coefficients on u = (|alpha|^2, |beta|^2, Re and Im of
    conj(alpha)·beta) of the arrival probability (linear) and of the loss-inclusive
    fidelity (quadratic, k <= l in order), from `_rounds` on (1, 0) and (0, 1) over each
    one's `_module` runs; checks each one's port/loss total on the whole Bloch sphere."""
    import numpy as np
    basis = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    # f_h[bit][cfg], f_v[bit][cfg] and losses[bit][cfg] as plain numbers
    f_h, f_v, losses = zip(*(zip(*(_module(bit, cfg) for cfg in cfgs)) for bit in (0, 1)))
    rounds = _rounds(*basis, np.array(f_h)[:, :, None], np.array(f_v)[:, :, None])
    final, between = rounds["final"].values(), rounds["between_rounds"]["F"]
    prob = np.array(_hermitian([amp for pair in final for amps in pair for amp in amps]))
    # each bit's loss coefficients, summed in family order, times its weight in the
    # control and between the rounds
    loss = sum(np.array([[x[fam] for x in bit_losses] for bit_losses in losses])
               for fam in LOSS_FAMILIES)
    lost = sum(loss[b] * np.array(_hermitian([basis[b], between[0][b], between[1][b]]))
               for b in (0, 1))
    _require_totals(prob + lost)
    # conj(alpha)·h + conj(beta)·v on each port and bit is the sum of u_k·c_k
    cs = [(h[b][:, 0], v[b][:, 1], h[b][:, 1] + v[b][:, 0], 1j * (h[b][:, 1] - v[b][:, 0]))
          for h, v in final for b in (0, 1)]
    fid = np.array([(1.0 if k == l else 2.0) * sum((c[k] * c[l].conjugate()).real for c in cs)
                    for k in range(4) for l in range(k, 4)])
    return prob, fid


def _cell_sums(forms, terms, mode):
    """Each cell's sample sums of its fidelity reading and arrival probability
    from its forms and the sample's terms."""
    import numpy as np
    prob, fid = (sum(c[:, None] * x for c, x in zip(coeffs, xs))
                 for coeffs, xs in zip(forms, terms))
    if mode == "post-selected":
        fid = np.divide(fid, prob, out=np.zeros_like(fid), where=prob >= P_EMPTY)
    # np.sum along the contiguous qubit axis is each cell's pairwise sum in a
    # fixed order, so averages are bit-stable across job splits and workers
    return np.sum(fid, axis=-1), np.sum(prob, axis=-1)


def _grid_rows(job) -> tuple[np.ndarray, np.ndarray]:
    """Averaged fidelity and arrival probability for a block of grid rows."""
    import numpy as np
    m_values, n_values, cfg_template, qubits, mode = job
    amps = np.array([(q.alpha, q.beta, q.alpha.conjugate() * q.beta) for q in qubits]).T
    u = (_abs2(amps[0]), _abs2(amps[1]), amps[2].real, amps[2].imag)
    terms = (u, [u[k] * u[l] for k in range(4) for l in range(k, 4)])
    cells, size = product(m_values, n_values), max(1, _BATCH // 4)
    step = max(_BATCH, len(n_values) * len(qubits)) // len(qubits)
    sums = np.empty((2, len(m_values) * len(n_values)))
    for i in range(0, sums.shape[1], size):
        out = sums[:, i:i + size]
        # _replace skips the checks, which the template and counts >= 1 pass
        forms = _cell_forms([cfg_template._replace(M=m, N=n) for m, n in islice(cells, size)])
        for j in range(0, out.shape[1], step):
            out[:, j:j + step] = _cell_sums([x[:, j:j + step] for x in forms], terms, mode)
    sums /= len(qubits)
    return tuple(sums.reshape(2, len(m_values), -1))


def sweep(m_max: int, n_max: int, cfg_template: ProtocolConfig, sample,
          *, fidelity_mode: str = "loss-inclusive", workers: int | None = None) -> FidelityGrid:
    """Average counterport fidelity over the sample for every (M, N) cell.

    cfg_template supplies the imperfection coefficients; its own M and N
    are replaced cell by cell.  The grid is cut into one job of consecutive
    rows per worker (at most one per row), and a cell costs its two basis
    runs whatever the sample size.  Results are identical for any worker
    count and job split.
    """
    import numpy as np
    if not (_is_int(m_max, 1) and _is_int(n_max, 1)):
        raise QStateError(f"grid extents must be integers >= 1, got {m_max!r} x {n_max!r}")
    if workers is not None and not _is_int(workers, 1):
        raise QStateError(f"workers must be None or an integer >= 1, got {workers!r}")
    if fidelity_mode not in FIDELITY_MODES:
        raise QStateError(f"fidelity_mode must be one of {FIDELITY_MODES}")
    if not isinstance(cfg_template, ProtocolConfig):
        raise QStateError(f"cfg_template must be a ProtocolConfig, got {cfg_template!r}")
    qubits = tuple(map(_as_bob, sample.qubits if isinstance(sample, BlochSample) else sample))
    if not qubits:
        raise QStateError("sample must contain at least one qubit")
    m_values = tuple(range(1, m_max + 1))
    n_values = tuple(range(1, n_max + 1))
    size = math.ceil(m_max / (workers or 1))
    jobs = [(m_values[i:i + size], n_values, cfg_template, qubits, fidelity_mode)
            for i in range(0, m_max, size)]
    workers = min(workers or 1, len(jobs))  # a pool starts all its workers at once
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_grid_rows, jobs))
    else:
        blocks = [_grid_rows(j) for j in jobs]
    fid, prob = (np.concatenate(parts) for parts in zip(*blocks))
    meta = {
        "eps_reflect": cfg_template.eps_reflect,
        "eps_block": cfg_template.eps_block,
        "av_rounds": cfg_template.av_rounds,
        "eps_block_per": cfg_template.eps_block_per,
        "sample_count": len(qubits),
        "sample_scheme": sample.scheme if isinstance(sample, BlochSample) else "explicit",
        "fidelity_mode": fidelity_mode,
    }
    return FidelityGrid(m_values, n_values, fid, prob, meta)
