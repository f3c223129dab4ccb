"""Library constructors and protocol entry points over arbitrary argument
values: each call returns or raises a QStateError subclass, never a bare
Python error."""

import cmath
import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenoport.analysis import (BoundaryPair, channel_probe_signal, paradox_report,
                               simulate_weak_probe)
from zenoport.counterport import counterport, sample_bloch, sweep
from zenoport.cqze import ATOL_SUM, BobQubit, ProtocolConfig, run_cqze
from zenoport.optics import Element, block, build_paradox_circuit, element_map, route, spr
from zenoport.qstate import QStateError, StateVector, label, projector

# the package re-exports the function under the module's name
cp = importlib.import_module("zenoport.counterport")
UNIVERSE = tuple(label(path, pol) for path in ("S", "A", "B", "C", "D", "SinkX") for pol in "HV")


def mixed(max_int=10 ** 400):
    """Ints, floats with NaN and infinities, bools, text, None and complex.

    Size arguments of the schedule engine and the sampler pass a small
    max_int: the library does no work budget yet, so a huge sample count or
    circuit would run for as long as it asks.  The module's cycle counts
    may be huge, since its exact tier costs their logarithm.
    """
    return st.one_of(st.integers(-10 ** 400, max_int), st.sampled_from((max_int, -10 ** 400)),
                     st.floats(), st.booleans(), st.text(max_size=6), st.none(),
                     st.complex_numbers())


def either(*valid, max_int=10 ** 400):
    """A valid value about half the time, else a mixed one.  (A plain one_of
    would flatten mixed()'s branches and draw the valid value one time in eight.)"""
    return st.booleans().flatmap(lambda ok: st.sampled_from(valid) if ok else mixed(max_int))


def returns_or_refuses(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except QStateError:
        return None


def maps_or_refuses(el):
    """An element that constructs maps over a universe or refuses with QStateError."""
    if el is not None:
        returns_or_refuses(element_map, el, UNIVERSE)


# about 2 s in all
fast = settings(max_examples=100, deadline=None)


@fast
@given(m=either(1, 3), n=either(2, 700), er=either(0.0, 0.1, 1), eb=either(0.0, 0.5),
       av=either(0, 2), per=either("inner", "outer"))
def test_protocol_config(m, n, er, eb, av, per):
    returns_or_refuses(ProtocolConfig, m, n, er, eb, av, per)


@fast
@given(alpha=either(0, 1, 0.6, 0.6j), beta=either(0, 1, 0.8, 0.8j))
def test_bob_qubit(alpha, beta):
    returns_or_refuses(BobQubit, alpha, beta)


@fast
@given(count=either(1, 3, max_int=5), scheme=either("fibonacci", "seeded-uniform"),
       seed=either(0, 7))
def test_sample_bloch(count, scheme, seed):
    returns_or_refuses(sample_bloch, count, scheme, seed)


@fast
@given(m=either(1, 2, max_int=4), n=either(1, 3, max_int=4), blocked=either(False, True),
       av=either(0, 1, max_int=2))
def test_build_paradox_circuit(m, n, blocked, av):
    returns_or_refuses(build_paradox_circuit, m, n, block_channel=blocked, av_rounds=av)


@fast
@given(theta=either(0.0, 0.5, 1), path=either("S", "D"), name=either("SPR"))
def test_spr(theta, path, name):
    maps_or_refuses(returns_or_refuses(spr, theta, path, name))


# R and L name circular polarizations, which no constructor takes
CIRCULAR = ("R", "L")


@fast
@given(path=either("C"), sink=either("SinkX"), pol=either("H", "V", *CIRCULAR),
       name=either("Block"))
def test_block(path, sink, pol, name):
    el = returns_or_refuses(block, path, sink, (pol,), name)
    assert el is None or pol not in CIRCULAR
    maps_or_refuses(el)
    maps_or_refuses(returns_or_refuses(block, path, sink, pol, name))


@fast
@given(src=either("A"), pol=either("H", *CIRCULAR), dst=either("B"), name=either("route"))
def test_route(src, pol, dst, name):
    el = returns_or_refuses(route, src, pol, dst, name)
    assert el is None or pol not in CIRCULAR
    maps_or_refuses(el)


@st.composite
def element_fields(draw):
    """An element's (name, arms, pairs, matrix): arms of UNIVERSE, each coupled
    by a pair, and a unitary matrix or one of any entries in [-1, 1]; then, four
    times in five, one field, pair, pair part or entry replaced by a mixed value
    or by R or L."""
    arms = tuple(draw(st.lists(st.sampled_from(("S", "A", "C", "SinkX")), min_size=1,
                               max_size=3)))
    pol = st.sampled_from(("H", "V"))
    pairs = [[0, draw(pol), i, draw(pol)] for i in range(len(arms))]
    matrix = list(draw(st.one_of(
        st.sampled_from(((0.0, 1.0, 1.0, 0.0), (0.6, 0.8, -0.8, 0.6), (1, 0, 0, -1))),
        st.tuples(*[st.sampled_from((0.0, 1.0, -0.6, 0.8, math.nan))] * 4))))
    fields = ["el", arms, pairs, matrix]
    bad = st.one_of(mixed(), st.sampled_from(CIRCULAR))
    where = draw(st.sampled_from(("none", "field", "pair", "part", "entry")))
    if where == "field":
        fields[draw(st.integers(0, 3))] = draw(bad)
    elif where == "pair":
        pairs[draw(st.integers(0, len(pairs) - 1))] = draw(bad)
    elif where == "part":
        pairs[draw(st.integers(0, len(pairs) - 1))][draw(st.integers(0, 3))] = draw(bad)
    elif where == "entry":
        matrix[draw(st.integers(0, 3))] = draw(bad)

    def frozen(x):
        return tuple(map(frozen, x)) if isinstance(x, list) else x
    return frozen(fields)


@fast
@given(fields=element_fields())
def test_element(fields):
    maps_or_refuses(returns_or_refuses(Element, *fields))


def controls():
    """A control bit, a qubit on the Bloch sphere, a BobQubit of mixed
    amplitudes (None where it refuses them) or a mixed value."""
    qubits = st.builds(lambda theta, phi: BobQubit(math.cos(theta / 2),
                                                   cmath.exp(1j * phi) * math.sin(theta / 2)),
                       st.floats(0, math.pi), st.floats(0, 2 * math.pi))
    pairs = st.tuples(mixed(), mixed()).map(lambda ab: returns_or_refuses(BobQubit, *ab))
    return st.one_of(st.sampled_from((0, 1)), qubits, st.one_of(pairs, mixed()))


HUGE = st.one_of(st.sampled_from((10 ** 6, 10 ** 400)), st.integers(1, 10 ** 400))
COUNTS = st.one_of(st.integers(1, 40), HUGE)
EPS = st.one_of(st.sampled_from((0, 1, 0.0, 1.0)), st.floats(0, 1))
CONFIG_FIELDS = {"M": COUNTS, "N": COUNTS, "eps_reflect": EPS, "eps_block": EPS,
                 "av_rounds": st.one_of(st.integers(0, 4), HUGE),
                 "eps_block_per": st.sampled_from(("inner", "outer"))}


@st.composite
def configs(draw):
    """A ProtocolConfig of valid fields, or of one mixed field and None
    where it refuses that."""
    fields = {key: draw(values) for key, values in CONFIG_FIELDS.items()}
    if draw(st.booleans()):
        fields[draw(st.sampled_from(tuple(fields)))] = draw(mixed())
    return returns_or_refuses(ProtocolConfig, **fields)


def in_unit(p) -> bool:
    return -ATOL_SUM <= p <= 1.0 + ATOL_SUM


# a config of huge counts runs the module in the exact tier, in about 20 ms
protocol = settings(max_examples=40, deadline=None)


@protocol
@given(cfg=configs(), bob=controls())
def test_run_cqze(cfg, bob):
    if cfg is not None:
        out = returns_or_refuses(run_cqze, bob, cfg)
        if out is not None:
            assert all(in_unit(p) for p in (out.p_success, out.p_loss_DA, out.p_loss_DB))


@protocol
@given(cfg=configs(), bob=controls())
def test_counterport(cfg, bob):
    if cfg is not None:
        r = returns_or_refuses(counterport, bob, cfg)
        if r is not None:
            assert all(in_unit(p) for p in (r.p_port1, r.p_port2, r.p_lost, r.fidelity,
                                             r.fidelity_post_selected, *r.bob_purity.values()))


@pytest.mark.parametrize("template,sample", [
    ("cfg", sample_bloch(2)),
    (None, [0, 1]),
    (ProtocolConfig(M=1, N=1), [(0.6, 0.8)]),
    (ProtocolConfig(M=1, N=1), [None]),
    (ProtocolConfig(M=1, N=1), [BobQubit(0.6, 0.8), 2]),
], ids=["text-template", "no-template", "pair-entry", "none-entry", "bit-2-entry"])
def test_sweep_refuses_a_template_or_sample_entry_before_any_job(monkeypatch, template, sample):
    def started(*args, **kwargs):
        raise AssertionError("a sweep job or pool started")

    monkeypatch.setattr(cp, "_grid_rows", started)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", started)
    with pytest.raises(QStateError):
        sweep(2, 2, template, sample, workers=2)


def test_sweep_takes_control_bits_as_counterport_does():
    cfg = ProtocolConfig(M=2, N=3, eps_reflect=0.1)
    bits, qubits = (sweep(2, 3, cfg, sample) for sample in ([0, 1], [BobQubit(1.0, 0.0),
                                                                    BobQubit(0.0, 1.0)]))
    assert np.array_equal(bits.avg_fidelity, qubits.avg_fidelity)
    assert np.array_equal(bits.avg_success_prob, qubits.avg_success_prob)


PROBED = build_paradox_circuit(2, 2)
PROBED_PATHS = {lbl.path for lbl in PROBED.universe}
# arms a probe may couple to, a sink among them, then names of no path
PROBE_ARMS = ("C", "A", "B", "SinkD3#1", "Z", "c")


def finite_or_refused(signal):
    assert signal is None or math.isfinite(signal)


@fast
@given(arm=either(*PROBE_ARMS), t=either("t2", "c1.in1"), eps=either(1e-3, -0.5, 0.0))
def test_simulate_weak_probe(arm, t, eps):
    signal = returns_or_refuses(simulate_weak_probe, PROBED, arm, t, eps)
    finite_or_refused(signal)
    assert signal is None or arm in PROBED_PATHS


@fast
@given(eps=either(1e-3, -0.5, 0.0), arm=either(*PROBE_ARMS))
def test_channel_probe_signal(eps, arm):
    signal = returns_or_refuses(channel_probe_signal, PROBED, eps, arm=arm)
    finite_or_refused(signal)
    assert signal is None or arm in PROBED_PATHS


@fast
@given(m=either(2, 3, max_int=4), n=either(2, max_int=4), av=either(0, 1, max_int=2),
       eps=either(1e-3, 0.0))
def test_paradox_report(m, n, av, eps):
    report = returns_or_refuses(paradox_report, m, n, av_rounds=av, epsilon=eps)
    if report is not None:
        assert (report["av_rounds"], report["epsilon"]) == (av, eps)
        for signal in (*(row["probe_signal"] for row in report["rows"]),
                       *report["channel_probe_signal"].values()):
            finite_or_refused(signal)


# a NaN epsilon compares unequal to 0.0 and would sum to a NaN-free 0.0 signal
@pytest.mark.parametrize("call", [
    lambda eps: simulate_weak_probe(PROBED, "C", "t2", eps),
    lambda eps: channel_probe_signal(PROBED, eps),
    lambda eps: paradox_report(2, 2, epsilon=eps),
], ids=["simulate_weak_probe", "channel_probe_signal", "paradox_report"])
def test_presence_probes_refuse_a_nan_epsilon(call):
    with pytest.raises(QStateError, match="epsilon"):
        call(math.nan)


# pre stamp after post stamp, and a pre state of norm**2 9
LATE_PRE = BoundaryPair(pre=("c1.t4", StateVector({label("S", "H"): 1.0})),
                        post=("t1", projector(paths="S")))
HEAVY_PRE = BoundaryPair(pre=("t0", StateVector({label("S", "H"): 3.0})),
                         post=("t_final", projector(paths="F")))


@pytest.mark.parametrize("eps", [0.0, -0.0, 1e-3])
@pytest.mark.parametrize("call", [
    lambda eps: simulate_weak_probe(PROBED, "C", "no-such-stamp", eps),
    lambda eps: simulate_weak_probe(PROBED, "C", "t2", eps, LATE_PRE),
    lambda eps: simulate_weak_probe(PROBED, "C", "t2", eps, HEAVY_PRE),
    lambda eps: channel_probe_signal(PROBED, eps, LATE_PRE),
    lambda eps: channel_probe_signal(PROBED, eps, HEAVY_PRE),
], ids=["unknown-stamp", "late-pre", "heavy-pre", "channel-late-pre", "channel-heavy-pre"])
def test_zero_strength_probes_check_their_inputs(call, eps):
    # a zero coupling leaves the pointer unread, but not the boundaries unchecked
    with pytest.raises(QStateError):
        call(eps)


@pytest.mark.parametrize("call", [
    lambda arm: simulate_weak_probe(PROBED, arm, "t2", 1e-3),
    lambda arm: channel_probe_signal(PROBED, 1e-3, arm=arm),
], ids=["simulate_weak_probe", "channel_probe_signal"])
def test_presence_probes_refuse_an_arm_that_is_no_path(call):
    # a signal of 0.0 would read as "the photon was not there"
    for arm in ("Z", "c"):
        with pytest.raises(QStateError, match="arm must be a path of the circuit"):
            call(arm)
    assert math.isfinite(call("SinkD3#1"))
