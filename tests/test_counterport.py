"""Counterportation protocol runs, Bloch sampling, and the fidelity sweep."""

import cmath
import importlib
import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from readers import read_grid_csv, read_grid_json

import zenoport.cqze as cqze
from zenoport.cli import main
from zenoport.counterport import (
    FIDELITY_MODES,
    CounterportResult,
    counterport,
    sample_bloch,
    sweep,
)
from zenoport.cqze import (
    LOSS_FAMILIES,
    BobQubit,
    CnotOutcome,
    CqzeOutcome,
    ProtocolConfig,
    counterfactual_cnot,
    run_cqze,
)
from zenoport.qstate import (
    BasisLabel,
    ConservationError,
    NormalizationError,
    QStateError,
    StateVector,
    label,
)

# the package re-exports the function under the module's name
cp = importlib.import_module("zenoport.counterport")
INV_SQRT2 = 1.0 / math.sqrt(2.0)
DEEP = ProtocolConfig(M=100, N=40000)
PAPER_EPS = ProtocolConfig(M=10, N=20, eps_reflect=0.10, eps_block=0.05)


def test_pole_qubit_arrives_perfectly_when_post_selected():
    r = counterport(BobQubit(1.0, 0.0), DEEP)
    assert r.fidelity_post_selected > 1.0 - 1e-12
    assert abs(r.fidelity - 0.962221112518495) < 1e-10


def test_equator_qubit_deep_chain_values():
    r = counterport(BobQubit(INV_SQRT2, INV_SQRT2), DEEP)
    assert abs(r.fidelity - 0.9726680682158899) < 1e-10
    assert abs(r.fidelity_post_selected - 0.9999701580170549) < 1e-10
    assert r.bob_purity["Port1"] > 0.999998
    assert r.bob_purity["Port2"] > 0.9999999


def test_deep_chain_is_a_faithful_identity_channel():
    # conditional infidelity stays below 1e-3 everywhere on the sphere
    worst = max(1.0 - counterport(q, DEEP).fidelity_post_selected
                for q in sample_bloch(100).qubits)
    assert worst < 1e-3
    assert abs(worst - 2.9830566080524257e-05) < 1e-12


def test_lossy_landmark_averages():
    qs = sample_bloch(100).qubits
    li = sum(counterport(q, PAPER_EPS).fidelity for q in qs) / 100
    ps = sum(counterport(q, PAPER_EPS).fidelity_post_selected for q in qs) / 100
    assert abs(li - 0.2838348154379594) < 1e-10
    assert abs(ps - 0.9144477983938747) < 1e-10
    assert ps > 2.0 / 3.0  # conditional figure clears the classical bound


def test_deeper_chains_beat_shallow_ones():
    q = BobQubit(INV_SQRT2, INV_SQRT2)
    deep = counterport(q, ProtocolConfig(M=50, N=50))
    shallow = counterport(q, ProtocolConfig(M=2, N=2))
    assert deep.fidelity > shallow.fidelity
    assert deep.fidelity_post_selected > shallow.fidelity_post_selected


def test_single_cycle_success_is_negligible():
    r = counterport(BobQubit(0.6, 0.8), ProtocolConfig(M=1, N=1))
    assert r.p_success < 1e-30
    assert abs(r.fidelity_post_selected - 0.5) < 1e-12


def test_probability_bookkeeping():
    r = counterport(BobQubit(0.6, 0.8), PAPER_EPS)
    assert abs(r.p_port1 + r.p_port2 + r.p_lost - 1.0) < 1e-12
    assert abs(r.p_success - (r.p_port1 + r.p_port2)) < 1e-15
    assert abs(sum(r.loss_breakdown.values()) - r.p_lost) < 1e-12
    assert abs(r.p_success - 0.3156546672726044) < 1e-12
    assert abs(r.fidelity - 0.28871437412195633) < 1e-12
    assert abs(r.fidelity_post_selected - 0.9146526380128509) < 1e-12


def test_round_trace_snapshots_present():
    r = counterport(BobQubit(0.6, 0.8), ProtocolConfig(M=3, N=3))
    assert set(r.round_trace) == {"round1", "between_rounds", "round2_ports", "final"}
    for s in r.round_trace.values():
        assert s.norm2() <= 1.0 + 1e-12


@pytest.mark.parametrize("bob", [BobQubit(0.6, 0.8j), BobQubit(1.0, 0.0), BobQubit(0.0, -1.0),
                                 0, 1])
@pytest.mark.parametrize("cfg", [ProtocolConfig(M=3, N=3), PAPER_EPS, DEEP,
                                 ProtocolConfig(M=1, N=1, eps_reflect=1.0, eps_block=1.0)])
def test_round_states_and_ports_are_the_checked_states(bob, cfg):
    # the states StateVector.__init__ builds over BasisLabel keys: same labels,
    # order, values and types, with exact zeros dropped
    r = counterport(bob, cfg)
    q = cqze._as_bob(bob)
    f_h, f_v, _ = zip(*(cp._module(bit, cfg) for bit in (0, 1)))
    rounds = cp._rounds(q.alpha, q.beta, f_h, f_v)

    def checked(paths):
        return StateVector({BasisLabel(path, pol, bit): amps[b] for path, pair in paths.items()
                            for pol, amps in zip("HV", pair) for b, bit in enumerate("01")})

    def entries(s):
        return [(k, type(v), _bits(v)) for k, v in s.items()]

    got = {**r.round_trace, "port1": r.port1, "port2": r.port2}
    want = {**{name: checked(paths) for name, paths in rounds.items()},
            "port1": checked({"Port1": rounds["final"]["Port1"]}),
            "port2": checked({"Port2": rounds["final"]["Port2"]})}
    assert list(got) == list(want)
    for name, s in want.items():
        assert entries(got[name]) == entries(s), name
        assert all(v != 0 for v in got[name].values())
    if q.beta == 0:  # round 1 carries no bit-1 amplitude
        assert [k.bob for k in got["round1"]] == ["0", "0"]


def _bits(z):
    """A complex number's two parts in hex, so that -0.0 and 0.0 differ."""
    z = complex(z)
    return z.real.hex(), z.imag.hex()


def _matrix_purity(pair):
    """Reduced-state purity of one port from its (polarization, bit) matrix."""
    m = np.array(pair)
    rho = m.conj().T @ m
    tr = rho.trace().real
    return None if tr < cqze.P_EMPTY else (rho @ rho).trace().real / (tr * tr)


# (M, N) on both sides of LOOP_BUDGET; theta, phi and chi place a complex qubit
@settings(max_examples=60, deadline=None)
@given(m=st.one_of(st.integers(1, 40), st.integers(1, 10 ** 6)),
       n=st.one_of(st.integers(1, 40), st.integers(600, 10 ** 7)),
       er=st.floats(0, 0.3), eb=st.floats(0, 0.3), av=st.integers(0, 2),
       per=st.sampled_from(("inner", "outer")), theta=st.floats(0, math.pi),
       phi=st.floats(0, 2 * math.pi), chi=st.floats(0, 2 * math.pi))
def test_one_run_in_plain_numbers_matches_a_one_qubit_batch(m, n, er, eb, av, per,
                                                            theta, phi, chi):
    cfg = ProtocolConfig(M=m, N=n, eps_reflect=er, eps_block=eb, av_rounds=av,
                         eps_block_per=per)
    bob = BobQubit(cmath.exp(1j * chi) * math.cos(theta / 2),
                   cmath.exp(1j * (chi + phi)) * math.sin(theta / 2))
    r = counterport(bob, cfg)
    runs = [cp._module(bit, cfg) for bit in (0, 1)]
    rounds = cp._rounds(np.array([bob.alpha]), np.array([bob.beta]),
                        *(np.array([[run[k]] for run in runs]) for k in (0, 1)))
    # amplitudes are products of a complex and a real number, so both
    # evaluations round them alike
    for name, paths in rounds.items():
        want = {label(path, pol, str(b)): _bits(amps[b][0])
                for path, pair in paths.items() for pol, amps in zip("HV", pair)
                for b in (0, 1) if amps[b][0] != 0}
        assert {k: _bits(v) for k, v in r.round_trace[name].items()} == want
    final = {name: [[x[0] for x in amps] for amps in pair]
             for name, pair in rounds["final"].items()}
    purity = {name: _matrix_purity(pair) for name, pair in final.items()}
    assert set(r.bob_purity) == {name for name, p in purity.items() if p is not None}
    for name, p in r.bob_purity.items():
        assert abs(p - purity[name]) <= 1e-15


def test_bloch_sample_endpoints():
    one = sample_bloch(1)
    assert abs(one.qubits[0].alpha - 1.0) < 1e-12
    two = sample_bloch(2)
    assert abs(two.qubits[0].alpha - 1.0) < 1e-12
    assert abs(abs(two.qubits[1].beta) - 1.0) < 1e-12


def test_bloch_sample_deterministic():
    assert sample_bloch(50) == sample_bloch(50)
    a = sample_bloch(50, scheme="seeded-uniform", seed=7)
    assert a == sample_bloch(50, scheme="seeded-uniform", seed=7)
    b = sample_bloch(50, scheme="seeded-uniform", seed=8)
    assert a != b


# hex() of (alpha, beta.real, beta.imag) for each sampled qubit; alpha is real
BLOCH_HEX = {
    ("fibonacci", 0, 1): [
        ("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0"),
    ],
    ("fibonacci", 0, 2): [
        ("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0"),
        ("0x1.1a62633145c07p-54", "-0x1.798869e0de833p-1", "0x1.59d9dd253cc13p-1"),
    ],
    ("fibonacci", 0, 7): [
        ("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0"),
        ("0x1.d363d1848dcbfp-1", "-0x1.344119683410ep-2", "0x1.1a62dcf526d38p-2"),
        ("0x1.a20bd700c2c3ep-1", "0x1.9d7e4dedf393bp-5", "-0x1.2678b3390f95dp-1"),
        ("0x1.6a09e667f3bcdp-1", "0x1.b88e8a13fd9b9p-2", "0x1.1f506cece8935p-1"),
        ("0x1.279a74590331dp-1", "-0x1.9ba7e12708d64p-1", "-0x1.2343b29f2a050p-3"),
        ("0x1.a20bd700c2c3dp-2", "0x1.8a5cdaf71f411p-1", "-0x1.f5b8f99967fc8p-2"),
        ("0x1.1a62633145c07p-54", "-0x1.09d5b5fdcf922p-2", "0x1.ee7234cb65774p-1"),
    ],
    ("seeded-uniform", 0, 7): [
        ("0x1.d67d3e9db692bp-1", "0x1.42d99db33e642p-6", "-0x1.9365621e029b0p-2"),
        ("0x1.4c0a254018bcep-1", "-0x1.5d2e063b5e6adp-5", "0x1.851fb7c890618p-1"),
        ("0x1.6e19098ba84dfp-1", "-0x1.27f4e1f22a34ap-1", "0x1.929f376d2e5b7p-2"),
        ("0x1.c54930086b093p-1", "-0x1.390d8189ea3dep-3", "0x1.c1ab84b83254cp-2"),
        ("0x1.6176de45ae891p-1", "-0x1.40bb53ff0e52bp-1", "-0x1.729c64d507c4ap-2"),
        ("0x1.e7e90195d5badp-1", "-0x1.3644f67011a5cp-2", "-0x1.247763e62767fp-7"),
        ("0x1.0fd007cd8f137p-1", "0x1.fa3dbe4bb3000p-6", "-0x1.b19a631d8a0edp-1"),
    ],
    ("seeded-uniform", 3, 7): [
        ("0x1.f38615cacd546p-2", "-0x1.adccfbabb36d8p-1", "-0x1.ea755ffe22952p-3"),
        ("0x1.376b278e0e548p-1", "-0x1.42cda2a650ef5p-1", "-0x1.edcdbffb07ccfp-2"),
        ("0x1.9501355824858p-1", "0x1.1f0e7470afb4fp-1", "0x1.f56b0ee0a4eb4p-3"),
        ("0x1.d6060e6adb18ep-4", "0x1.09aaf7090ff7ep-1", "-0x1.b1b837d4b7661p-1"),
        ("0x1.04beca61370c6p-1", "0x1.5a7c6b4149a1ap-4", "0x1.b67f5dd8bf2e2p-1"),
        ("0x1.fee244bc5375fp-1", "-0x1.099b0aeb611dap-4", "0x1.91b0e37c8ae0dp-7"),
        ("0x1.d4442dd80f219p-1", "-0x1.998ad1818e1b1p-2", "0x1.ea67274d62492p-5"),
    ],
}


@pytest.mark.parametrize("scheme, seed, count", [
    (scheme, seed, count) for scheme, seed in (("fibonacci", 0), ("seeded-uniform", 0),
                                               ("seeded-uniform", 3)) for count in (1, 2, 7)])
def test_bloch_sample_bits_are_pinned(scheme, seed, count):
    # a seeded-uniform sample of fewer qubits is a prefix of the 7-qubit one
    want = BLOCH_HEX[(scheme, seed, count if scheme == "fibonacci" else 7)][:count]
    qubits = sample_bloch(count, scheme, seed).qubits
    assert [(q.alpha.real.hex(), q.beta.real.hex(), q.beta.imag.hex()) for q in qubits] == want
    assert all(q.alpha.imag == 0.0 for q in qubits)


@pytest.mark.parametrize("count", [1, 2, 3, 100])
@pytest.mark.parametrize("scheme", ["fibonacci", "seeded-uniform"])
def test_sampled_qubits_are_checked_qubits_bit_for_bit(scheme, count):
    for seed in (0, 1, 3, 2 ** 40):
        for q in sample_bloch(count, scheme, seed).qubits:
            want = BobQubit(q.alpha, q.beta)
            assert type(q) is BobQubit and type(q.alpha) is type(q.beta) is complex
            assert ([x.hex() for x in (q.alpha.real, q.alpha.imag, q.beta.real, q.beta.imag)]
                    == [x.hex() for x in (want.alpha.real, want.alpha.imag,
                                          want.beta.real, want.beta.imag)])


@pytest.mark.parametrize("scheme", ["fibonacci", "seeded-uniform"])
def test_sampled_qubits_keep_their_norm_check(monkeypatch, scheme):
    exp = cmath.exp
    monkeypatch.setattr(cmath, "exp", lambda z: 1.01 * exp(z))
    with pytest.raises(NormalizationError) as info:
        sample_bloch(3, scheme)
    assert info.type is NormalizationError
    assert re.fullmatch(r"control qubit norm\^2 = \S+, expected 1", str(info.value))


def test_bloch_sample_validation():
    with pytest.raises(QStateError):
        sample_bloch(0)
    with pytest.raises(QStateError):
        sample_bloch(5, scheme="dartboard")


def test_bloch_sample_takes_only_integer_seeds():
    # seed None would draw from OS entropy, so no "seeded" sample would repeat
    for seed in (None, 7.0, True, "7"):
        with pytest.raises(QStateError, match=re.escape(
                f"sample seed must be an integer, got {seed!r}")):
            sample_bloch(3, "seeded-uniform", seed)
    for seed in (-3, 10 ** 400):
        assert sample_bloch(3, "seeded-uniform", seed) == sample_bloch(3, "seeded-uniform", seed)


def test_bloch_sample_refuses_a_boolean_count():
    with pytest.raises(QStateError, match="sample count must be an integer >= 1"):
        sample_bloch(True)


def small_grid(mode="loss-inclusive", workers=None):
    return sweep(3, 3, ProtocolConfig(M=1, N=1, eps_reflect=0.02),
                 sample_bloch(5), fidelity_mode=mode, workers=workers)


def test_sweep_grid_shape_and_cells():
    g = small_grid()
    assert g.m_values == (1, 2, 3) and g.n_values == (1, 2, 3)
    assert g.avg_fidelity.shape == (3, 3)
    f, p = g.cell(3, 2)
    assert 0.0 <= f <= 1.0 and 0.0 <= p <= 1.0
    assert g.meta["eps_reflect"] == 0.02
    assert g.meta["sample_count"] == 5


def test_sweep_cell_matches_direct_average():
    g = small_grid(mode="post-selected")
    qs = sample_bloch(5).qubits
    want = sum(counterport(q, ProtocolConfig(M=2, N=3, eps_reflect=0.02)).fidelity_post_selected
               for q in qs) / 5
    assert abs(g.cell(2, 3)[0] - want) < 1e-12


def test_sweep_worker_count_does_not_change_output():
    a = small_grid(workers=1)
    b = small_grid(workers=2)
    assert np.array_equal(a.avg_fidelity, b.avg_fidelity)
    assert np.array_equal(a.avg_success_prob, b.avg_success_prob)


class InlinePool:
    """Stands in for ProcessPoolExecutor: records the pool size asked for and
    maps in this process."""

    created: list = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


def test_sweep_starts_at_most_one_worker_per_row(monkeypatch):
    created = []
    monkeypatch.setattr(InlinePool, "created", created)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
    tmpl, sample = ProtocolConfig(M=1, N=1, eps_reflect=0.02), sample_bloch(4)
    wide = sweep(3, 2, tmpl, sample, workers=10_000)
    assert created == [3]
    one = sweep(3, 2, tmpl, sample, workers=1)
    sweep(1, 2, tmpl, sample, workers=8)
    assert created == [3]  # one worker, or one row, needs no pool
    assert np.array_equal(wide.avg_fidelity, one.avg_fidelity)
    assert np.array_equal(wide.avg_success_prob, one.avg_success_prob)


def _reference_cell(cfg, qubits, mode):
    """One cell's averages as the sweep kernel's run on a one-cell job."""
    fid, prob = cp._grid_rows(((cfg.M,), (cfg.N,), cfg, tuple(qubits), mode))
    return float(fid[0, 0]), float(prob[0, 0])


# pairwise summation changes at 8 and at 128 entries
@settings(max_examples=40, deadline=None)
@given(m_max=st.integers(1, 5), n_max=st.integers(1, 4),
       count=st.sampled_from((1, 7, 8, 9, 128, 129, 1000)),
       scheme=st.sampled_from(("fibonacci", "seeded-uniform")), seed=st.integers(0, 2 ** 16),
       er=st.floats(0, 0.3), eb=st.floats(0, 0.3), av=st.integers(0, 2),
       per=st.sampled_from(("inner", "outer")), mode=st.sampled_from(FIDELITY_MODES),
       batch=st.sampled_from((1, cp._BATCH, 10 ** 9)), workers=st.integers(1, 3))
def test_sweep_job_splits_match_per_cell_sums_bit_for_bit(m_max, n_max, count, scheme, seed,
                                                          er, eb, av, per, mode, batch, workers):
    # batch 1 builds one cell's forms per call and reads one cell per block;
    # 10**9 builds and reads each job's cells at once
    tmpl = ProtocolConfig(M=1, N=1, eps_reflect=er, eps_block=eb, av_rounds=av,
                          eps_block_per=per)
    sample = sample_bloch(count, scheme, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cp, "_BATCH", batch)
        mp.setattr(InlinePool, "created", [])
        mp.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
        grid = sweep(m_max, n_max, tmpl, sample, fidelity_mode=mode, workers=workers)
    for m in grid.m_values:
        for n in grid.n_values:
            want = _reference_cell(replace(tmpl, M=m, N=n), sample.qubits, mode)
            assert grid.cell(m, n) == want


def test_sweep_makes_one_basis_transport_call_per_forms_block(monkeypatch):
    calls, blocks = [], []
    real_rounds, real_sums = cp._rounds, cp._cell_sums

    def spy(alpha, beta, f_h, f_v):
        calls.append((alpha.tolist(), beta.tolist(), f_h.shape))
        return real_rounds(alpha, beta, f_h, f_v)

    def sums_spy(forms, terms, mode):
        blocks.append(forms[0].shape[1] * len(terms[0][0]))
        return real_sums(forms, terms, mode)

    created = []
    monkeypatch.setattr(cp, "_rounds", spy)
    monkeypatch.setattr(cp, "_cell_sums", sums_spy)
    monkeypatch.setattr(InlinePool, "created", created)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
    cfg = ProtocolConfig(M=1, N=1, eps_reflect=0.05, eps_block=0.02)
    # (grid, _BATCH): cells per basis call, entries per block
    for (m_max, n_max, count, workers, batch), cells, entries in [
            ((5, 4, 10, None, 2048), [20], [200]),  # the whole grid is one block
            ((3, 30, 100, None, 2048), [90], [3000] * 3),  # each row exceeds the batch
            ((8, 8, 100, None, 2048), [64], [2000] * 3 + [400]),  # blocks split rows
            ((7, 5, 40, 3, 2048), [15, 15, 5], [600, 600, 200]),  # one job per worker
            ((3, 5, 2, None, 8), [2] * 7 + [1], [4] * 7 + [2])]:  # the cells exceed _BATCH // 4
        monkeypatch.setattr(cp, "_BATCH", batch)
        calls.clear()
        blocks.clear()
        sweep(m_max, n_max, cfg, sample_bloch(count), workers=workers)
        assert calls == [([1.0, 0.0], [0.0, 1.0], (2, k, 1)) for k in cells]
        assert blocks == entries
        assert all(size <= max(batch, n_max * count) for size in blocks)
    assert created == [3]


def _run_readings(cfg, qubits, mode):
    """Each qubit's fidelity reading and arrival probability from its own
    `counterport` run."""
    runs = [counterport(q, cfg) for q in qubits]
    return ([r.fidelity if mode == "loss-inclusive" else r.fidelity_post_selected for r in runs],
            [r.p_success for r in runs])


@settings(max_examples=40, deadline=None)
@given(m_max=st.integers(1, 6), n_max=st.integers(1, 6), er=st.floats(0, 0.5),
       eb=st.floats(0, 0.5), av=st.integers(0, 2), per=st.sampled_from(("inner", "outer")),
       mode=st.sampled_from(FIDELITY_MODES), count=st.integers(0, 4),
       seed=st.integers(0, 2 ** 16))
def test_sweep_forms_match_per_qubit_transport_runs(m_max, n_max, er, eb, av, per, mode,
                                                    count, seed):
    tmpl = ProtocolConfig(M=1, N=1, eps_reflect=er, eps_block=eb, av_rounds=av,
                          eps_block_per=per)
    poles = (BobQubit(1.0, 0.0), BobQubit(0.0, 1.0), BobQubit(0.0, 1j))
    qubits = poles + (sample_bloch(count, "seeded-uniform", seed).qubits if count else ())
    # a one-qubit sample makes each cell one entry
    grids = [sweep(m_max, n_max, tmpl, [q], fidelity_mode=mode) for q in qubits]
    for i, m in enumerate(grids[0].m_values):
        for j, n in enumerate(grids[0].n_values):
            fid, prob = _run_readings(replace(tmpl, M=m, N=n), qubits, mode)
            got_fid = [g.avg_fidelity[i, j] for g in grids]
            got_prob = [g.avg_success_prob[i, j] for g in grids]
            assert np.allclose(got_fid, fid, rtol=0.0, atol=1e-14)
            assert np.allclose(got_prob, prob, rtol=0.0, atol=1e-14)


def test_hermitian_coefficients_read_complex_amplitudes():
    # module transfers are real, so a sweep never weighs the Im ᾱβ term of a
    # linear form; complex amplitudes do
    rng = np.random.default_rng(7)
    amps = [rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)) for _ in range(4)]
    coeffs = cp._hermitian(amps)
    for q in sample_bloch(9, "seeded-uniform", 1).qubits:
        z = q.alpha.conjugate() * q.beta
        u = (abs(q.alpha) ** 2, abs(q.beta) ** 2, z.real, z.imag)
        want = sum(abs(q.alpha * a[:, 0] + q.beta * a[:, 1]) ** 2 for a in amps)
        assert np.allclose(sum(c * x for c, x in zip(coeffs, u)), want, rtol=1e-13, atol=0)


@pytest.mark.parametrize("count", [1, 2, 5, 100])
def test_single_cycle_cell_reads_one_half_when_post_selected(count):
    # a 5.6e-65 arrival residue, which the forms resolve as the runs do
    grid = sweep(1, 1, ProtocolConfig(M=1, N=1), sample_bloch(count),
                 fidelity_mode="post-selected")
    assert grid.cell(1, 1)[0] == 0.5


def _leaky_totals(monkeypatch, index):
    """Make each sweep cell's total form miss by 4e-12 at t[index] before its check."""
    real = cp._require_totals

    def leaky(t):
        t = t.copy()
        t[index] += 4e-12
        return real(t)

    monkeypatch.setattr(cp, "_require_totals", leaky)


def _breach(info):
    """How far the total in a conservation breach's message misses 1."""
    total = re.fullmatch(r"port/loss probabilities sum to (\S+), expected 1", str(info.value))
    return abs(float(total[1]) - 1.0)


@pytest.mark.parametrize("coeff", [0, 1, 2, 3])
def test_a_breach_in_one_cells_loss_form_is_caught_per_entry(monkeypatch, coeff):
    # the last cell's total form misses by 4e-12 on |alpha|^2, |beta|^2, Re or
    # Im conj(alpha)·beta: its worst qubit misses by 4e-12 (a pole) or 2e-12
    # (the equator); real module transfers never reach the Im coefficient
    _leaky_totals(monkeypatch, (coeff, -1))
    for mode in FIDELITY_MODES:  # each cell's total is checked before any reading
        with pytest.raises(ConservationError) as info:
            sweep(2, 2, ProtocolConfig(M=1, N=1, eps_reflect=0.1),
                  sample_bloch(3, "seeded-uniform"), fidelity_mode=mode)
        assert 1e-12 < _breach(info) < 5e-12


@pytest.mark.parametrize("coeff", [2, 3])
def test_a_breach_that_no_sampled_qubit_weighs_is_caught(monkeypatch, tmp_path, capsys, coeff):
    # at the poles conj(alpha)·beta is 0, so no entry of the sample reads the
    # corrupted coefficient (a two-point Fibonacci sample reads it times 6e-17)
    _leaky_totals(monkeypatch, coeff)
    poles = [BobQubit(1.0, 0.0), BobQubit(0.0, 1.0)]
    for mode in FIDELITY_MODES:
        with pytest.raises(ConservationError) as info:
            sweep(2, 2, ProtocolConfig(M=1, N=1, eps_reflect=0.1), poles, fidelity_mode=mode)
        assert 1e-12 < _breach(info) < 5e-12
    assert main(["sweep", "--m-max", "2", "--n-max", "2", "--samples", "2",
                 "--out-dir", str(tmp_path)]) == 3
    assert "conservation breach" in capsys.readouterr().err


FIBONACCI_2000 = sample_bloch(2000).qubits


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 40), n=st.integers(1, 40), er=st.floats(0, 1), eb=st.floats(0, 1),
       av=st.integers(0, 2), per=st.sampled_from(("inner", "outer")))
def test_a_cells_total_bound_covers_every_sampled_qubit(m, n, er, eb, av, per):
    # the bound |(t0 + t1)/2 - 1| + |(t0 - t1, t2, t3)|/2 is the largest miss
    # of t·u over the sphere, so dense samples reach it only up to rounding
    cfg = ProtocolConfig(M=m, N=n, eps_reflect=er, eps_block=eb, av_rounds=av,
                         eps_block_per=per)
    forms = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cp, "_require_totals", forms.append)
        cp._cell_forms([cfg])
    t = forms[0][:, 0].tolist()
    bound = abs((t[0] + t[1]) / 2.0 - 1.0) + math.hypot(t[0] - t[1], t[2], t[3]) / 2.0
    miss = max(abs(t[0] * abs(q.alpha) ** 2 + t[1] * abs(q.beta) ** 2
                   + t[2] * (q.alpha.conjugate() * q.beta).real
                   + t[3] * (q.alpha.conjugate() * q.beta).imag - 1.0) for q in FIBONACCI_2000)
    assert miss <= bound + 1e-15
    cp._require_totals(forms[0])  # the cell passes the check


def test_only_a_post_selected_sweep_takes_each_entrys_ratio(monkeypatch):
    real, shapes = np.divide, []

    def spy(x, y, *args, **kwargs):
        shapes.append(np.shape(x))
        return real(x, y, *args, **kwargs)

    monkeypatch.setattr(np, "divide", spy)
    for mode in FIDELITY_MODES:
        shapes.clear()
        sweep(3, 3, ProtocolConfig(M=1, N=1, eps_reflect=0.1), sample_bloch(5), fidelity_mode=mode)
        # the basis runs take no ratio; a post-selected sweep divides its
        # (cell, qubit) entries once
        assert shapes == ([(9, 5)] if mode == "post-selected" else [])


@pytest.mark.parametrize("args,kwargs,message", [
    ((2.5, 2), {}, "grid extents must be integers >= 1, got 2.5 x 2"),
    ((2, "3"), {}, "grid extents must be integers >= 1, got 2 x '3'"),
    ((True, 2), {}, "grid extents must be integers >= 1, got True x 2"),
    ((2, 0), {}, "grid extents must be integers >= 1, got 2 x 0"),
    ((2, 2), {"workers": 2.5}, "workers must be None or an integer >= 1, got 2.5"),
    ((2, 2), {"workers": False}, "workers must be None or an integer >= 1, got False"),
    ((2, 2), {"workers": 0}, "workers must be None or an integer >= 1, got 0"),
])
def test_sweep_rejects_extents_and_workers_that_are_not_counts(args, kwargs, message):
    with pytest.raises(QStateError, match=re.escape(message)):
        sweep(*args, ProtocolConfig(M=1, N=1), sample_bloch(2), **kwargs)


def test_a_cell_outside_the_grid_is_named_with_the_extents():
    g = sweep(2, 3, ProtocolConfig(M=1, N=1), sample_bloch(2))
    for m, n in [(3, 1), (1, 0)]:
        with pytest.raises(QStateError, match=re.escape(
                f"cell ({m}, {n}) is outside the grid: M runs 1..2, N runs 1..3")):
            g.cell(m, n)


@pytest.mark.parametrize("m,n", [(True, 1), (1, True), (2.0, 1), ("1", 1)])
def test_a_cell_coordinate_that_is_not_an_integer_is_refused(m, n):
    # True == 1 and 2.0 == 2, so a lookup by equality would return a cell
    g = sweep(2, 3, ProtocolConfig(M=1, N=1), sample_bloch(2))
    with pytest.raises(QStateError, match=re.escape(
            f"cell coordinates must be integers, got ({m!r}, {n!r})")):
        g.cell(m, n)


def test_sweep_builds_no_labeled_module_state(monkeypatch):
    # the protocol is linear in the control amplitudes: a sweep reads each
    # module's per-bit transfers and never builds a labeled module output
    cfg = ProtocolConfig(M=1, N=1, eps_reflect=0.05, eps_block=0.03, av_rounds=1)
    want = sweep(3, 3, cfg, sample_bloch(4))

    def stub(*args, **kwargs):
        raise AssertionError("a sweep built a labeled module state")

    for mod in (cqze, cp):
        for name in ("label", "StateVector", "run_cqze"):
            monkeypatch.setattr(mod, name, stub, raising=False)
    got = sweep(3, 3, cfg, sample_bloch(4))
    assert np.array_equal(got.avg_fidelity, want.avg_fidelity)
    assert np.array_equal(got.avg_success_prob, want.avg_success_prob)


@pytest.mark.parametrize("per", ["inner", "outer"])
@pytest.mark.parametrize("av", [0, 1, 2])
@pytest.mark.parametrize("m,n", [(3, 4), (2, 600)], ids=["loops", "exact"])
def test_module_transfers_are_the_per_bit_module_runs(m, n, av, per):
    cfg = ProtocolConfig(M=m, N=n, eps_reflect=0.07, eps_block=0.03, av_rounds=av,
                         eps_block_per=per)
    for bit in (0, 1):
        f_h, f_v, loss = cp._module(bit, cfg)
        o = run_cqze(bit, cfg)
        assert type(f_h) is type(f_v) is complex
        assert all(type(p) is float for p in loss.values())
        assert f_h == o.joint.amp(label("F", "H", str(bit)))
        assert f_v == o.joint.amp(label("F", "V", str(bit)))
        assert loss == o.loss_breakdown
        assert tuple(loss) == LOSS_FAMILIES


@pytest.mark.parametrize("template", [
    ProtocolConfig(M=1, N=1),
    ProtocolConfig(M=9, N=2, eps_reflect=0.1, eps_block=1, av_rounds=2, eps_block_per="outer"),
], ids=["plain", "lossy"])
def test_sweep_cells_run_the_template_with_their_counts(monkeypatch, template):
    real, seen = cp._module, []

    def spy(bit, cfg):
        seen.append(cfg)
        return real(bit, cfg)

    monkeypatch.setattr(cp, "_module", spy)
    sweep(3, 4, template, sample_bloch(2))
    assert sorted((cfg.M, cfg.N) for cfg in seen) == sorted(
        (m, n) for m in range(1, 4) for n in range(1, 5) for _ in (0, 1))
    for cfg in seen:
        want = replace(template, M=cfg.M, N=cfg.N)
        assert type(cfg) is ProtocolConfig and cfg == want and hash(cfg) == hash(want)
        for f in fields(ProtocolConfig):
            got_value, want_value = getattr(cfg, f.name), getattr(want, f.name)
            assert type(got_value) is type(want_value) and got_value == want_value, f.name


def test_sweep_validation():
    with pytest.raises(QStateError):
        sweep(0, 3, ProtocolConfig(M=1, N=1), sample_bloch(2))
    with pytest.raises(QStateError):
        sweep(2, 2, ProtocolConfig(M=1, N=1), sample_bloch(2), fidelity_mode="hopeful")
    with pytest.raises(QStateError):
        sweep(2, 2, ProtocolConfig(M=1, N=1), [])


def test_grid_csv_round_trip():
    g = small_grid()
    again = read_grid_csv(g.to_csv())
    assert again.m_values == g.m_values and again.n_values == g.n_values
    assert np.array_equal(again.avg_fidelity, g.avg_fidelity)
    assert np.array_equal(again.avg_success_prob, g.avg_success_prob)


def test_grid_json_round_trip():
    g = small_grid()
    again = read_grid_json(g.to_json())
    assert np.array_equal(again.avg_fidelity, g.avg_fidelity)
    assert again.meta["sample_scheme"] == "fibonacci"


def test_grid_rejects_malformed_input():
    """The readers the CLI shape tests use fail on a grid that is not whole."""
    with pytest.raises(AssertionError, match="header"):
        read_grid_csv("who,what\n1,2\n")
    # a missing cell leaves a ragged rectangle
    g = small_grid()
    ragged = "\n".join(g.to_csv().splitlines()[:-1]) + "\n"
    with pytest.raises(AssertionError, match="rectangle"):
        read_grid_csv(ragged)
    with pytest.raises(AssertionError):
        read_grid_json({"m_values": [1]})
    short = dict(g.to_json(), avg_success_prob=g.to_json()["avg_success_prob"][:-1])
    with pytest.raises(AssertionError, match="tables"):
        read_grid_json(short)


@settings(max_examples=25, deadline=None)
@given(m=st.integers(1, 5), n=st.integers(1, 5),
       er=st.floats(0, 0.5), eb=st.floats(0, 0.5), beta2=st.floats(0, 1))
def test_protocol_outputs_stay_physical(m, n, er, eb, beta2):
    bob = BobQubit(math.sqrt(1.0 - beta2), math.sqrt(beta2))
    r = counterport(bob, ProtocolConfig(M=m, N=n, eps_reflect=er, eps_block=eb))
    assert -1e-12 <= r.fidelity <= 1.0 + 1e-12
    assert -1e-12 <= r.fidelity_post_selected <= 1.0 + 1e-12
    assert abs(r.p_port1 + r.p_port2 + r.p_lost - 1.0) < 1e-12
    assert abs(sum(r.loss_breakdown.values()) - r.p_lost) < 1e-12


HAD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
FLIP = np.array([[0.0, 1.0], [1.0, 0.0]])


def amp_matrix(s, path):
    """Amplitudes of one path as a (polarization, control bit) matrix."""
    return np.array([[s.amp(label(path, pol, bit)) for bit in "01"] for pol in "HV"])


def reference_protocol(bob, cfg):
    """The protocol step by step on (polarization, bit) matrices, with a
    module run of its own for round 1: (p_port1, p_port2, p_lost, fidelity)."""
    r1 = run_cqze(bob, cfg)
    between = HAD @ amp_matrix(r1.joint, "F") @ HAD
    p_lost = sum(r1.loss_breakdown.values())
    port1, port2 = np.zeros((2, 2), complex), np.zeros((2, 2), complex)
    for b in (0, 1):
        base = run_cqze(b, cfg)
        f = amp_matrix(base.joint, "F")[:, b]
        g_h, g_v = between[:, b]
        rail1, rail2 = g_h * f, g_v * (FLIP @ f)
        port2[:, b] = (rail1 + rail2) / math.sqrt(2.0)
        port1[:, b] = (rail1 - rail2) / math.sqrt(2.0)
        p_lost += np.sum(np.abs(between[:, b]) ** 2) * sum(base.loss_breakdown.values())
    port1 = FLIP @ HAD @ port1 @ HAD
    port2 = HAD @ port2 @ HAD
    target = np.array([bob.alpha, bob.beta])
    fid = sum(np.sum(np.abs(target.conj() @ p) ** 2) for p in (port1, port2))
    return np.sum(np.abs(port1) ** 2), np.sum(np.abs(port2) ** 2), p_lost, fid


@settings(max_examples=30, deadline=None)
@given(m=st.integers(1, 6), n=st.integers(1, 6),
       er=st.floats(0.01, 0.5), eb=st.floats(0.005, 0.5), av=st.integers(0, 1),
       per=st.sampled_from(("inner", "outer")), mode=st.sampled_from(FIDELITY_MODES),
       seed=st.integers(0, 2 ** 16))
def test_sweep_cells_match_per_qubit_runs(m, n, er, eb, av, per, mode, seed):
    cfg = ProtocolConfig(M=m, N=n, eps_reflect=er, eps_block=eb, av_rounds=av,
                         eps_block_per=per)
    qubits = sample_bloch(6, "seeded-uniform", seed).qubits
    grid = sweep(m, n, cfg, qubits, fidelity_mode=mode)
    runs = [counterport(q, cfg) for q in qubits]
    fids = [r.fidelity if mode == "loss-inclusive" else r.fidelity_post_selected for r in runs]
    fid, prob = grid.cell(m, n)
    assert abs(fid - sum(fids) / len(runs)) < 1e-12
    assert abs(prob - sum(r.p_success for r in runs) / len(runs)) < 1e-12
    for q, r in zip(qubits, runs):
        want = reference_protocol(q, cfg)
        got = (r.p_port1, r.p_port2, r.p_lost, r.fidelity)
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)


def test_round2_matches_the_two_rail_gate():
    # each control branch of the state between the rounds, fed to the gate
    # on its own, gives that branch's round-2 port amplitudes
    for cfg in (PAPER_EPS, ProtocolConfig(M=4, N=7, eps_block=0.2, av_rounds=1,
                                          eps_block_per="outer")):
        for q in sample_bloch(5).qubits:
            trace = counterport(q, cfg).round_trace
            between, ports = trace["between_rounds"], trace["round2_ports"]
            for b in "01":
                g = np.array([between.amp(label("F", pol, b)) for pol in "HV"])
                norm = np.linalg.norm(g)
                gate = counterfactual_cnot(g / norm, int(b), cfg)
                for port in ("Port1", "Port2"):
                    for pol in "HV":
                        key = label(port, pol, b)
                        assert abs(ports.amp(key) - norm * gate.joint.amp(key)) < 1e-12


@pytest.mark.parametrize("cfg", [
    # deep dwells once summed to 1 + 1.1e-12 in the extended-precision loop
    ProtocolConfig(M=100, N=400000),
    ProtocolConfig(M=300, N=300000),
    # affordable only in logarithmic time
    ProtocolConfig(M=10**6, N=10**7),
    # lossy: the cycle loops once summed to 1 - 1.05e-12 and 1 - 1.28e-12
    ProtocolConfig(M=10000, N=100, eps_reflect=0.04, eps_block=0.02, eps_block_per="outer"),
    ProtocolConfig(M=100, N=200000, eps_reflect=0.1, eps_block=0.05, av_rounds=2),
], ids=["100x400000", "300x300000", "1e6x1e7", "lossy-outer", "av2"])
def test_deep_chains_conserve_probability(cfg):
    r = counterport(BobQubit(0.6, 0.8), cfg)
    assert abs(r.p_port1 + r.p_port2 + r.p_lost - 1.0) < 1e-12
    assert abs(sum(r.loss_breakdown.values()) - r.p_lost) < 1e-12
    assert abs(r.joint.norm2() - r.p_success) < 1e-12
    assert 0.0 <= r.fidelity <= r.p_success


def test_leaking_module_transfer_is_a_conservation_breach(monkeypatch, tmp_path, capsys):
    real = cp._module

    def leaky(bit, cfg):  # bit 1's run leaks past the check inside the real _module
        f_h, f_v, loss = real(bit, cfg)
        return f_h, f_v, dict(loss, DA=loss["DA"] - 2e-12) if bit else loss

    monkeypatch.setattr(cp, "_module", leaky)
    with pytest.raises(ConservationError):
        sweep(2, 2, ProtocolConfig(M=1, N=1, eps_reflect=0.1), sample_bloch(3))
    assert main(["sweep", "--m-max", "2", "--n-max", "2", "--samples", "3",
                 "--out-dir", str(tmp_path)]) == 3
    assert "conservation breach" in capsys.readouterr().err


def _sweep_cell(total):
    """Check one sweep cell whose port/loss total is total for every qubit."""
    cp._require_totals(np.array([[total], [total], [0.0], [0.0]]))


def _root2(total):
    return math.sqrt(total) ** 2


def _module_summing_to(tier, cfg):
    """Build a module run of cfg whose tier kernel loses total to DA and passes nothing."""
    def build(total):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cqze, tier,
                       lambda cfg, dwell: (0j, 0j, dict(DA=total, DB=0.0, Block=0.0, AV=0.0)))
            return cqze._module(1, cfg)
    return build


# site: (build it with a unit sum near total, the sum it forms, error type, message head)
UNIT_SUM_CHECKS = {
    "BobQubit": (lambda t: BobQubit(math.sqrt(t), 0.0), _root2, NormalizationError,
                 "control qubit norm^2 ="),
    "CqzeOutcome": (lambda t: CqzeOutcome(StateVector(), t, 0.0, 0.0), float, ConservationError,
                    "outcome probabilities sum to"),
    "CnotOutcome": (lambda t: CnotOutcome(StateVector(), StateVector(), StateVector(), True,
                                          {"Port1": t}, {}),
                    float, ConservationError, "outcome probabilities sum to"),
    "cnot-input": (lambda t: counterfactual_cnot((math.sqrt(t), 0.0), 0, ProtocolConfig(M=2, N=2)),
                   _root2, NormalizationError, "input polarization norm^2 ="),
    "module-transfers": (_module_summing_to("_outer_loop", ProtocolConfig(M=2, N=2)), float,
                         ConservationError, "outcome probabilities sum to"),
    "module-exact": (_module_summing_to("_outer_exact", ProtocolConfig(M=2, N=600)), float,
                     ConservationError, "outcome probabilities sum to"),
    "CounterportResult": (lambda t: CounterportResult(StateVector(), StateVector(), t, 0.0, 0.0,
                                                      {}, 1.0, 1.0, {}, {}),
                          float, ConservationError, "port/loss probabilities sum to"),
    "sweep-cell": (_sweep_cell, float, ConservationError, "port/loss probabilities sum to"),
}


@pytest.mark.parametrize("site", UNIT_SUM_CHECKS)
def test_each_unit_sum_check_follows_one_rule(site):
    build, summed, error, head = UNIT_SUM_CHECKS[site]
    for total in (math.nan, 1.0 + 2e-12):  # a NaN sum is a miss too
        with pytest.raises(error) as info:
            build(total)
        assert info.type is error
        assert str(info.value) == f"{head} {summed(total)!r}, expected 1"
    build(1.0 - 5e-13)  # within ATOL_SUM


def test_an_overflowing_input_polarization_reads_inf():
    # the control qubit's norm overflows the same way (see test_cli's 1e155 amplitude)
    with pytest.raises(NormalizationError) as info:
        counterfactual_cnot((1e200, 0.0), 0, ProtocolConfig(M=2, N=2))
    assert info.type is NormalizationError
    assert str(info.value) == "input polarization norm^2 = inf, expected 1"
