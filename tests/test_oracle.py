"""The module, in both tiers, the protocol and sweep cells against the
mpmath oracle.

``oracle`` steps every inner cycle of every outer cycle at 40 digits, so
these tests draw configurations with M·(1+av_rounds)·N up to ORACLE_STEPS.
The FIXED examples sit above LOOP_BUDGET, where `counterport` runs the
exact tier; the LONG_DWELL ones sit below it with dwells past
DWELL_LOOP_MAX, which the loop tier takes from the exact dwell rounded once.
"""

import cmath
import importlib
import math

import oracle
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import zenoport.cqze as cqze
from zenoport.counterport import counterport, sample_bloch, sweep
from zenoport.cqze import DWELL_LOOP_MAX, LOOP_BUDGET, BobQubit, ProtocolConfig, _module
from zenoport.qstate import label

cp = importlib.import_module("zenoport.counterport")  # the package re-exports the function

TOL = 1e-12
ORACLE_STEPS = 2000
P_SUCCESS_MIN = 1e-6  # below it the post-selected fidelity divides rounding residues

EPS = st.sampled_from([0.0, 0.01, 0.5, 1.0]) | st.floats(0, 1)


@st.composite
def configs(draw):
    av = draw(st.integers(0, 2))
    m = draw(st.integers(1, ORACLE_STEPS // (1 + av)))
    n = draw(st.integers(1, ORACLE_STEPS // ((1 + av) * m)))
    return ProtocolConfig(M=m, N=n, eps_reflect=draw(EPS), eps_block=draw(EPS), av_rounds=av,
                          eps_block_per=draw(st.sampled_from(["inner", "outer"])))


FIXED = [ProtocolConfig(M=3, N=600, eps_reflect=0.03, eps_block=0.02),
         ProtocolConfig(M=3, N=600, eps_reflect=0.2, eps_block=0.1, av_rounds=1,
                        eps_block_per="outer"),
         ProtocolConfig(M=600, N=1, eps_reflect=0.01, eps_block=0.3, eps_block_per="outer"),
         ProtocolConfig(M=600, N=1, eps_reflect=0.5, eps_block=0.05, av_rounds=1)]
assert all((1 + cfg.av_rounds) * cfg.N + cfg.M > LOOP_BUDGET for cfg in FIXED)

LONG_DWELL = [ProtocolConfig(M=2, N=300, eps_reflect=0.03, eps_block=0.02),
              ProtocolConfig(M=3, N=120, eps_reflect=0.2, eps_block=0.1, av_rounds=1,
                             eps_block_per="outer"),
              ProtocolConfig(M=1, N=170, eps_reflect=0.05, eps_block=0.3, av_rounds=2)]
assert all((1 + cfg.av_rounds) * cfg.N + cfg.M <= LOOP_BUDGET and cfg.N > DWELL_LOOP_MAX
           for cfg in LONG_DWELL)


def oracle_args(cfg):
    return cfg.M, cfg.N, cfg.eps_reflect, cfg.eps_block, cfg.av_rounds, cfg.eps_block_per


def near(got, want) -> bool:
    return abs(got - complex(want)) < TOL


@settings(max_examples=25, deadline=None)
@given(cfg=configs())
@example(cfg=FIXED[0])
@example(cfg=FIXED[1])
@example(cfg=FIXED[2])
@example(cfg=FIXED[3])
@example(cfg=LONG_DWELL[0])
@example(cfg=LONG_DWELL[1])
@example(cfg=LONG_DWELL[2])
def test_module_matches_the_oracle_in_both_tiers(cfg):
    for bit in (0, 1):
        want_h, want_v, want_loss = oracle.module(bit, *oracle_args(cfg))
        for budget in (0, math.inf):  # 0 forces the exact tier, inf the cycle loops
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cqze, "LOOP_BUDGET", budget)
                f_h, f_v, loss = _module(bit, cfg)
            assert near(f_h, want_h) and near(f_v, want_v), (bit, budget)
            assert tuple(loss) == cqze.LOSS_FAMILIES
            for fam, p in loss.items():
                assert near(p, want_loss[fam]), (bit, budget, fam)


# rounds 2..av_rounds of a dwell are one lifted map raised to a power; N = 1
# holds the first channel visit back to the last round
@pytest.mark.parametrize("av", [2, 3, 4])
@pytest.mark.parametrize("m,n,er,eb,per", [(3, 1, 0.2, 0.4, "outer"), (2, 5, 0.05, 0.3, "inner"),
                                           (2, 130, 0.01, 0.02, "outer")])
def test_exact_tier_entrance_block_rounds_match_the_oracle(av, m, n, er, eb, per):
    cfg = ProtocolConfig(M=m, N=n, eps_reflect=er, eps_block=eb, av_rounds=av,
                         eps_block_per=per)
    for bit in (0, 1):
        want_h, want_v, want_loss = oracle.module(bit, *oracle_args(cfg))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cqze, "LOOP_BUDGET", 0)
            f_h, f_v, loss = _module(bit, cfg)
        assert near(f_h, want_h) and near(f_v, want_v), bit
        for fam, p in loss.items():
            assert near(p, want_loss[fam]), (bit, fam)


@settings(max_examples=25, deadline=None)
@given(cfg=configs(), beta2=st.sampled_from([0.0, 1.0]) | st.floats(0, 1),
       phase_a=st.floats(0, 2 * math.pi), phase_b=st.floats(0, 2 * math.pi))
@example(cfg=FIXED[0], beta2=0.36, phase_a=0.0, phase_b=1.0)
@example(cfg=FIXED[1], beta2=0.5, phase_a=0.5, phase_b=2.0)
@example(cfg=FIXED[2], beta2=0.8, phase_a=1.5, phase_b=3.0)
@example(cfg=FIXED[3], beta2=0.1, phase_a=2.5, phase_b=4.0)
@example(cfg=LONG_DWELL[0], beta2=0.36, phase_a=0.0, phase_b=1.0)
@example(cfg=LONG_DWELL[1], beta2=0.5, phase_a=0.5, phase_b=2.0)
@example(cfg=LONG_DWELL[2], beta2=0.8, phase_a=1.5, phase_b=3.0)
def test_counterport_matches_the_oracle(cfg, beta2, phase_a, phase_b):
    bob = BobQubit(cmath.exp(1j * phase_a) * math.sqrt(1.0 - beta2),
                   cmath.exp(1j * phase_b) * math.sqrt(beta2))
    want = oracle.protocol(bob.alpha, bob.beta, *oracle_args(cfg))
    got = counterport(bob, cfg)
    for key in ("p_port1", "p_port2", "p_lost", "fidelity"):
        assert near(getattr(got, key), want[key]), key
    assert got.loss_breakdown.keys() == want["loss"].keys()
    for fam, p in got.loss_breakdown.items():
        assert near(p, want["loss"][fam]), fam
    if got.p_success >= P_SUCCESS_MIN:
        assert near(got.fidelity_post_selected, want["fidelity_post_selected"])
    for (port, pol, bit), a in want["ports"].items():
        state = got.port1 if port == "Port1" else got.port2
        assert near(state.amp(label(port, pol, str(bit))), a), (port, pol, bit)


# (m_max, n_max, eps_reflect, eps_block, av_rounds, eps_block_per, scheme, samples)
SWEEPS = [(5, 5, 0.05, 0.02, 0, "inner", "fibonacci", 3),
          (4, 5, 0.2, 0.1, 1, "inner", "seeded-uniform", 2),
          (5, 4, 0.01, 0.3, 0, "outer", "seeded-uniform", 4),
          (5, 5, 0.1, 0.05, 1, "outer", "fibonacci", 3)]


@pytest.mark.parametrize("m_max,n_max,er,eb,av,per,scheme,count", SWEEPS)
def test_sweep_cells_match_the_oracle_sample_mean(m_max, n_max, er, eb, av, per, scheme, count):
    tmpl = ProtocolConfig(M=1, N=1, eps_reflect=er, eps_block=eb, av_rounds=av,
                          eps_block_per=per)
    sample = sample_bloch(count, scheme, seed=7)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cp, "_BATCH", 1)  # one row per job: the cells span several jobs
        grids = {mode: sweep(m_max, n_max, tmpl, sample, fidelity_mode=mode)
                 for mode in ("loss-inclusive", "post-selected")}
    post_selected = 0
    for m in range(1, m_max + 1):
        for n in range(1, n_max + 1):
            runs = [oracle.protocol(q.alpha, q.beta, m, n, er, eb, av, per) for q in sample.qubits]
            p_success = [r["p_port1"] + r["p_port2"] for r in runs]
            fid, prob = grids["loss-inclusive"].cell(m, n)
            assert near(fid, sum(r["fidelity"] for r in runs) / count), (m, n)
            assert near(prob, sum(p_success) / count), (m, n)
            if min(p_success) >= P_SUCCESS_MIN:
                fid_ps, _ = grids["post-selected"].cell(m, n)
                want = sum(r["fidelity_post_selected"] for r in runs) / count
                assert near(fid_ps, want), (m, n)
                post_selected += 1
    assert post_selected >= m_max * n_max // 2
