"""Module evolution closed forms, the loss model, and the two-rail gate."""

import cmath
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import zenoport.cqze as cqze
from zenoport.cqze import (
    _ONE,
    DWELL_LOOP_MAX,
    LOOP_BUDGET,
    BobQubit,
    ProtocolConfig,
    _cos_sin,
    _dwell,
    _module,
    counterfactual_cnot,
    run_cqze,
)
from zenoport.counterport import counterport
from zenoport.optics import build_paradox_circuit, run_schedule
from zenoport.qstate import NormalizationError, QStateError, label

INV_SQRT2 = 1.0 / math.sqrt(2.0)
PLUS = BobQubit(INV_SQRT2, INV_SQRT2)


def test_config_validation():
    with pytest.raises(QStateError):
        ProtocolConfig(M=0, N=2)
    with pytest.raises(QStateError):
        ProtocolConfig(M=2.0, N=2)
    with pytest.raises(QStateError):
        ProtocolConfig(M=2, N=2, eps_reflect=1.5)
    with pytest.raises(QStateError):
        ProtocolConfig(M=2, N=2, av_rounds=-1)
    with pytest.raises(QStateError):
        ProtocolConfig(M=2, N=2, eps_block_per="sideways")


@pytest.mark.parametrize("kwargs, message", [
    ({"M": True, "N": 2}, "M and N must be integers"),
    ({"M": 2, "N": False}, "M and N must be integers"),
    ({"M": 2, "N": 2, "av_rounds": True}, "av_rounds must be an integer >= 0"),
    ({"M": 2, "N": 2, "eps_reflect": True}, "eps_reflect must be a number, got True"),
    ({"M": 2, "N": 2, "eps_reflect": "0.1"}, "eps_reflect must be a number, got '0.1'"),
    ({"M": 2, "N": 2, "eps_block": None}, "eps_block must be a number, got None"),
    ({"M": 2, "N": 2, "eps_block": 1j}, "eps_block must be a number, got 1j"),
    ({"M": 2, "N": 2, "eps_block": math.nan}, "eps_block must lie in [0, 1], got nan"),
    # compared exactly: no float conversion to overflow
    ({"M": 2, "N": 2, "eps_reflect": 10 ** 400}, "eps_reflect must lie in [0, 1], got 1000"),
])
def test_config_refuses_booleans(kwargs, message):
    with pytest.raises(QStateError, match=re.escape(message)) as info:
        ProtocolConfig(**kwargs)
    assert info.type is QStateError


@pytest.mark.parametrize("alpha, beta, bad", [
    ("0.6", "0.8", "'0.6'"), (True, False, "True"), (None, 1, "None"), (1, "0", "'0'"),
    (0.6, [0.8], "[0.8]"),
])
def test_bob_qubit_refuses_amplitudes_that_are_not_numbers(alpha, beta, bad):
    with pytest.raises(QStateError, match=re.escape(
            f"control amplitudes must be numbers, got {bad}")) as info:
        BobQubit(alpha, beta)
    assert info.type is QStateError


def test_bob_qubit_takes_int_float_and_complex_amplitudes():
    assert BobQubit(1, 0) == BobQubit(1.0, 0.0)
    assert BobQubit(0.6, 0.8j).beta == 0.8j
    with pytest.raises(NormalizationError, match=re.escape("control qubit norm^2 = inf")):
        BobQubit(10 ** 400, 0)  # beyond any float, so its norm^2 reads inf


def test_bob_qubit_validation():
    with pytest.raises(NormalizationError):
        BobQubit(1.0, 1.0)
    with pytest.raises(NormalizationError):
        BobQubit(math.nan, 0.0)
    with pytest.raises(QStateError):
        run_cqze(2, ProtocolConfig(M=2, N=2))


@pytest.mark.parametrize("entry", [
    run_cqze, counterport, lambda bob, cfg: counterfactual_cnot((1, 0), bob, cfg),
], ids=["run_cqze", "counterport", "counterfactual_cnot"])
def test_control_bit_must_be_an_integer(entry):
    cfg = ProtocolConfig(M=2, N=2)
    for bob in (True, False, 1.0, 0.0):  # each equals a bit, but is no integer
        with pytest.raises(QStateError, match=re.escape(
                f"control must be a BobQubit or a bit, got {bob!r}")):
            entry(bob, cfg)
    for bob in (0, 1, PLUS):
        entry(bob, cfg)


@pytest.mark.parametrize("n", [1, 2, 4, 20, 25])
def test_blocked_dwell_survival_closed_form(n):
    t_hv, t_vv, _ = _dwell(n, 0.0, 0.0, 0, "inner", 1)
    want = math.cos(math.pi / (2 * n)) ** n
    assert abs(t_vv - want) < 1e-12
    assert t_hv == 0


def test_blocked_dwell_spot_values():
    assert abs(_dwell(4, 0.0, 0.0, 0, "inner", 1)[1] - 0.728553) < 1e-6
    assert abs(_dwell(20, 0.0, 0.0, 0, "inner", 1)[1] - 0.94012) < 1e-5


@pytest.mark.parametrize("n", [2, 7])
def test_open_dwell_returns_flipped(n):
    # free rotation by pi/2 in total: V comes back as -H, nothing lost
    t_hv, t_vv, _ = _dwell(n, 0.0, 0.0, 0, "inner", 0)
    assert abs(t_hv + 1.0) < 1e-12
    assert abs(t_vv) < 1e-12


@pytest.mark.parametrize("m", [1, 2, 10, 25])
def test_reflecting_control_survival_closed_form(m):
    o = run_cqze(0, ProtocolConfig(M=m, N=3))
    want = math.cos(math.pi / (2 * m)) ** m
    assert abs(o.joint.amp(label("F", "H", "0")) - want) < 1e-12
    assert abs(o.p_success - want * want) < 1e-12
    assert abs(o.p_loss_DA - (1.0 - want * want)) < 1e-12
    assert o.p_loss_DB == 0.0


def test_reflecting_control_spot_value():
    o = run_cqze(0, ProtocolConfig(M=10, N=5))
    assert abs(o.joint.amp(label("F", "H", "0")) - 0.88348) < 1e-5


def test_blocking_control_flips_polarization():
    # deep inner chain: output converges onto V with the control at 1
    o = run_cqze(1, ProtocolConfig(M=20, N=2000))
    n = o.joint.normalized()
    assert abs(n.amp(label("F", "V", "1"))) > 0.9999
    assert abs(n.amp(label("F", "H", "1"))) < 0.01
    assert o.p_success > 0.98


def test_input_polarization_must_be_normalized():
    with pytest.raises(NormalizationError):
        counterfactual_cnot((0.5, 0.5), 0, ProtocolConfig(M=2, N=2))
    with pytest.raises(NormalizationError):
        counterfactual_cnot((math.nan, 0.0), 0, ProtocolConfig(M=2, N=2))


def sink_total(s, prefix):
    return sum(abs(v) ** 2 for k, v in s.items() if k.path.startswith(prefix))


@pytest.mark.parametrize("m,n,blocked,av", [
    (2, 2, False, 0), (3, 4, False, 0), (1, 5, False, 0),
    (2, 2, True, 0), (3, 3, True, 0), (2, 4, True, 0),
    (2, 2, False, 1), (2, 2, True, 1), (2, 2, False, 2), (2, 2, True, 2),
    (20, 100, False, 0), (10, 50, True, 0), (5, 20, True, 1), (6, 24, True, 2),
    # above LOOP_BUDGET: the exact tier
    (2, 600, False, 0), (1, 520, True, 0),
])
def test_scalar_model_matches_interferometer(m, n, blocked, av):
    """The scalar dwell reduction reproduces the full circuit amplitude
    for amplitude and for every loss family."""
    c = build_paradox_circuit(m, n, block_channel=blocked, av_rounds=av)
    fin = run_schedule(c).at("t_final")
    bit = 1 if blocked else 0
    o = run_cqze(bit, ProtocolConfig(M=m, N=n, av_rounds=av))
    b = str(bit)
    assert abs(fin.amp(label("F", "H")) - o.joint.amp(label("F", "H", b))) < 1e-12
    assert abs(fin.amp(label("F", "V")) - o.joint.amp(label("F", "V", b))) < 1e-12
    assert abs(sink_total(fin, "SinkD3") - o.loss_breakdown["DA"]) < 1e-12
    assert abs(sink_total(fin, "SinkAV") - o.loss_breakdown["AV"]) < 1e-12
    assert abs(sink_total(fin, "SinkBlock") - o.loss_breakdown["Block"]) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 7, 100, 40000, 10**7])
def test_fixed_point_rotation_is_exact(n):
    c, s = _cos_sin(n)
    assert 0 <= _ONE * _ONE - (c * c + s * s) <= 2 * c + 1  # c = isqrt(1 - s^2)
    assert abs(s / _ONE - math.sin(math.pi / (2 * n))) <= 2.0 ** -52
    assert abs(c / _ONE - math.cos(math.pi / (2 * n))) <= 2.0 ** -52


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 10 ** 6), n=st.integers(1, 10 ** 6), er=st.floats(0, 1),
       eb=st.floats(0, 1), av=st.integers(0, 3), per=st.sampled_from(("inner", "outer")),
       bit=st.sampled_from((0, 1)))
@example(m=1, n=1, er=0.0, eb=0.0, av=0, per="inner", bit=0)
@example(m=10 ** 6, n=10 ** 6, er=1.0, eb=1.0, av=3, per="outer", bit=1)
def test_squaring_kernel_equals_the_generic_product(m, n, er, eb, av, per, bit):
    # every map the exact tier squares: the visit and entrance-block maps, the
    # rounds between blocks, the outer cycle, and each one's repeated squares
    square, squared = cqze._square, []

    def checked(lifted):
        out = square(lifted)
        assert out == cqze._then(lifted, lifted)
        squared.append(lifted)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cqze, "_square", checked)
        dwell = cqze._dwell_exact(n, er, eb, av, per, bit)
        cqze._outer_exact(ProtocolConfig(M=m, N=n), dwell)
    # the outer cycle's M-th power and the last round's n - 1 later visits
    assert len(squared) >= (m.bit_length() - 1) + max(0, (n - 1).bit_length() - 1)


def in_tier(budget, bob, cfg):
    """Amplitudes and losses of `_module` for each bit and of `run_cqze` for
    bob, with LOOP_BUDGET set to budget (0 forces the exact tier, inf the
    cycle loops)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cqze, "LOOP_BUDGET", budget)
        runs = [({"H": f_h, "V": f_v}, loss)
                for f_h, f_v, loss in (_module(bit, cfg) for bit in (0, 1))]
        o = run_cqze(bob, cfg)
    return runs + [(dict(o.joint.items()), o.loss_breakdown)]


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 300), n=st.integers(1, 300),
       er=st.sampled_from([0.0, 0.03, 0.5, 1.0]) | st.floats(0, 1),
       eb=st.sampled_from([0.0, 0.02, 0.5, 1.0]) | st.floats(0, 1),
       av=st.integers(0, 2), per=st.sampled_from(["inner", "outer"]),
       beta2=st.sampled_from([0.0, 1.0]) | st.floats(0, 1), phase=st.floats(0, 2 * math.pi))
# the first-visit leak with entrance blocks, also at N = 1 where every
# round but the last is a single block
@example(m=5, n=7, er=0.1, eb=0.3, av=1, per="outer", beta2=0.5, phase=0.3)
@example(m=3, n=1, er=0.2, eb=0.4, av=2, per="outer", beta2=1.0, phase=0.0)
@example(m=300, n=300, er=0.01, eb=0.005, av=2, per="inner", beta2=0.64, phase=1.0)
def test_exact_tier_matches_the_cycle_loops(m, n, er, eb, av, per, beta2, phase):
    """The fixed-point lifted maps and the cycle loops agree on every
    amplitude and loss family, wherever both are affordable: per control
    bit and for a drawn control qubit."""
    bob = BobQubit(math.sqrt(1.0 - beta2), cmath.exp(1j * phase) * math.sqrt(beta2))
    cfg = ProtocolConfig(M=m, N=n, eps_reflect=er, eps_block=eb, av_rounds=av,
                         eps_block_per=per)
    for (loop_amps, loop_loss), (exact_amps, exact_loss) in zip(in_tier(math.inf, bob, cfg),
                                                                in_tier(0, bob, cfg)):
        for k in loop_amps.keys() | exact_amps.keys():
            assert abs(loop_amps.get(k, 0j) - exact_amps.get(k, 0j)) < 1e-13
        for fam in loop_loss:
            assert abs(loop_loss[fam] - exact_loss[fam]) < 1e-13
        total = sum(abs(a) ** 2 for a in exact_amps.values()) + sum(exact_loss.values())
        assert abs(total - 1.0) < 1e-13


@pytest.mark.parametrize("m,n", [(10000, 100), (100000, 10)])
@pytest.mark.parametrize("bit", [0, 1])
def test_deep_outer_chain_conserves(m, n, bit):
    # the float64 outer loop once drifted to 1 - 1.05e-12 at (10000, 100)
    assert n + m > LOOP_BUDGET  # the exact tier
    o = run_cqze(bit, ProtocolConfig(M=m, N=n))
    assert abs(o.p_success + o.p_loss_DA + o.p_loss_DB - 1.0) < 1e-12
    assert abs(o.joint.norm2() - o.p_success) < 1e-15


@pytest.mark.parametrize("av", [10 ** 6, 10 ** 400])
@pytest.mark.parametrize("n,per", [(1, "outer"), (2, "inner"), (7, "outer")])
def test_huge_entrance_block_round_counts_return_and_conserve(av, n, per):
    # the rounds between the first and the last are one powered map, so
    # the dwell costs O(log av_rounds)
    cfg = ProtocolConfig(M=2, N=n, eps_reflect=0.1, eps_block=0.2, av_rounds=av,
                         eps_block_per=per)
    o = run_cqze(PLUS, cfg)
    assert abs(o.p_success + o.p_loss_DA + o.p_loss_DB - 1.0) < 1e-12
    assert abs(sum(o.loss_breakdown.values()) - o.p_loss_DA - o.p_loss_DB) < 1e-15
    r = counterport(PLUS, cfg)
    assert abs(r.p_port1 + r.p_port2 + r.p_lost - 1.0) < 1e-12


def test_dwell_cache_ignores_the_outer_cycle_count():
    short = ProtocolConfig(M=3, N=7, eps_block=0.2, av_rounds=1)
    long = ProtocolConfig(M=9, N=7, eps_block=0.2, av_rounds=1)
    _dwell.cache_clear()
    cold = run_cqze(1, long)
    _dwell.cache_clear()
    run_cqze(1, short)
    warm = run_cqze(1, long)
    info = _dwell.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert warm.joint == cold.joint
    assert warm.loss_breakdown == cold.loss_breakdown


def _dwell_by_dict(n, eps_reflect, eps_block, av_rounds, eps_block_per, bit):
    """The loop-tier dwell as it once stood: `one - k2` on every channel visit
    and the loss coefficients in a dict, kept as the bit-for-bit reference."""
    import numpy as np
    one = np.longdouble(1.0)
    c = np.cos(np.longdouble(math.pi) / (2 * n))
    sn = np.sin(np.longdouble(math.pi) / (2 * n))
    keep2 = (one - np.longdouble(eps_reflect)) if bit == 0 else np.longdouble(eps_block)
    keep = np.sqrt(keep2)
    fam = "DB" if bit == 0 else "Block"
    coeffs = {"DB": np.longdouble(0.0), "Block": np.longdouble(0.0), "AV": np.longdouble(0.0)}
    zero = np.longdouble(0.0)
    t01, t11 = zero, one
    k2, k = keep2, keep
    for j in range(1, (1 + av_rounds) * n + 1):
        t01, t11 = c * t01 - sn * t11, sn * t01 + c * t11
        if j % n == 0 and j // n <= av_rounds:
            coeffs["AV"] += t01 * t01
            t01 = zero
        else:
            coeffs[fam] += (one - k2) * (t01 * t01)
            t01 = t01 * k
            if bit == 1 and eps_block_per == "outer":
                k2, k = zero, zero
    return float(t01), float(t11), tuple(map(float, coeffs.values()))


def hexed(dwell):
    t01, t11, coeffs = dwell
    return [x.hex() for x in (t01, t11, *coeffs)]


def test_loop_dwell_matches_the_dict_loop_bit_for_bit():
    for n in range(1, 121):
        for av in (0, 1, 2):
            for per in ("inner", "outer"):
                for bit in (0, 1):
                    args = (n, 0.07, 0.03, av, per, bit)
                    assert hexed(cqze._dwell_loop(*args)) == hexed(_dwell_by_dict(*args)), args


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 4 * DWELL_LOOP_MAX), er=st.floats(0, 1), eb=st.floats(0, 1),
       av=st.integers(0, 2), per=st.sampled_from(("inner", "outer")),
       bit=st.sampled_from((0, 1)))
@example(n=DWELL_LOOP_MAX, er=0.07, eb=0.03, av=0, per="inner", bit=0)
@example(n=DWELL_LOOP_MAX + 1, er=0.07, eb=0.03, av=2, per="outer", bit=1)
def test_float_dwell_is_the_loop_up_to_the_line_and_the_exact_dwell_past_it(n, er, eb, av,
                                                                            per, bit):
    args = (n, er, eb, av, per, bit)
    assert _dwell.__wrapped__(*args, True) == cqze._dwell_exact(*args)
    got = _dwell.__wrapped__(*args)
    if n <= DWELL_LOOP_MAX:
        assert hexed(got) == hexed(cqze._dwell_loop(*args)), args
    else:
        t01, t11, coeffs = cqze._dwell_exact(*args)
        want = (t01 / _ONE, t11 / _ONE, tuple(x / _ONE for x in coeffs))
        assert hexed(got) == hexed(want), args


def test_reflection_leak_drains_success():
    grid = [0.0, 0.05, 0.10, 0.25, 0.50]
    ps = [run_cqze(0, ProtocolConfig(M=5, N=5, eps_reflect=e)).p_success
          for e in grid]
    assert all(a > b for a, b in zip(ps, ps[1:]))
    assert abs(ps[0] - 0.6054290497131064) < 1e-12


def test_full_reflection_leak_equals_blocking():
    # eps_reflect = 1 absorbs every channel visit, same as a blocking control
    a = run_cqze(0, ProtocolConfig(M=4, N=6, eps_reflect=1.0))
    b = run_cqze(1, ProtocolConfig(M=4, N=6))
    assert abs(a.p_success - b.p_success) < 1e-12
    assert abs(a.p_loss_DA - b.p_loss_DA) < 1e-12
    assert abs(a.p_loss_DB - b.p_loss_DB) < 1e-12
    assert abs(a.joint.amp(label("F", "H", "0")) - b.joint.amp(label("F", "H", "1"))) < 1e-12
    assert abs(a.joint.amp(label("F", "V", "0")) - b.joint.amp(label("F", "V", "1"))) < 1e-12


def test_block_leak_placement():
    """Per-visit and first-visit-only leak conventions agree for a single
    channel visit per dwell and split apart for longer dwells."""
    one_i = run_cqze(1, ProtocolConfig(M=3, N=1, eps_block=0.3))
    one_o = run_cqze(1,
                     ProtocolConfig(M=3, N=1, eps_block=0.3, eps_block_per="outer"))
    assert abs(one_i.p_success - one_o.p_success) < 1e-15
    tri_i = run_cqze(1, ProtocolConfig(M=3, N=3, eps_block=0.3))
    tri_o = run_cqze(1,
                     ProtocolConfig(M=3, N=3, eps_block=0.3, eps_block_per="outer"))
    assert abs(tri_i.p_success - 0.25472881287837656) < 1e-12
    assert abs(tri_o.p_success - 0.23466325879723351) < 1e-12


def test_gate_output_frozen_values():
    cn = counterfactual_cnot((1.0, 0.0), PLUS, ProtocolConfig(M=5, N=5))
    assert abs(cn.probs["Block"] - 0.3296015504578139) < 1e-12
    assert abs(cn.probs["DA"] - 0.19728547514344663) < 1e-12
    assert cn.probs["DB"] == 0.0
    assert abs(cn.probs["Port1"] - 0.23655648719936953) < 1e-12
    assert abs(cn.probs["Port2"] - 0.23655648719936953) < 1e-12
    assert abs(sum(cn.probs.values()) - 1.0) < 1e-12
    assert cn.z_pending


def test_gate_ports_halve_the_module_output():
    cfg = ProtocolConfig(M=5, N=5)
    cn = counterfactual_cnot((1.0, 0.0), PLUS, cfg)
    base = run_cqze(PLUS, cfg)
    assert abs(cn.probs["Port1"] - base.p_success / 2) < 1e-12
    assert abs(cn.probs["Port2"] - base.p_success / 2) < 1e-12
    for k, v in base.joint.items():
        got = cn.port2.amp(label("Port2", k.pol, k.bob))
        assert abs(got - INV_SQRT2 * v) < 1e-12


def test_gate_flips_target_against_v_input():
    # V input rides rail 2, so the reflecting branch exits flipped on Port2
    cn = counterfactual_cnot((0.0, 1.0), 0, ProtocolConfig(M=8, N=4))
    want = INV_SQRT2 * math.cos(math.pi / 16) ** 8
    assert abs(cn.port2.amp(label("Port2", "V", "0")) - want) < 1e-12
    assert abs(cn.port1.amp(label("Port1", "V", "0")) + want) < 1e-12
    assert abs(cn.port2.amp(label("Port2", "H", "0"))) < 1e-15


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 6), n=st.integers(1, 6),
       er=st.floats(0, 1), eb=st.floats(0, 1),
       beta2=st.floats(0, 1))
def test_outcome_probabilities_always_sum_to_one(m, n, er, eb, beta2):
    bob = BobQubit(math.sqrt(1.0 - beta2), math.sqrt(beta2))
    cfg = ProtocolConfig(M=m, N=n, eps_reflect=er, eps_block=eb)
    o = run_cqze(bob, cfg)
    assert abs(o.joint.norm2() - o.p_success) < 1e-12
    assert abs(o.p_success + o.p_loss_DA + o.p_loss_DB - 1.0) < 1e-12
    cn = counterfactual_cnot((0.6, 0.8), bob, cfg)
    assert abs(sum(cn.probs.values()) - 1.0) < 1e-12
