"""The presence engines on the open circuit, and the lossless module, against
``closed_forms``."""

import math

import closed_forms
import pytest

from zenoport.analysis import channel_probe_signal, end_to_end_boundaries, weak_trace_map
from zenoport.cqze import ProtocolConfig, _module
from zenoport.optics import build_paradox_circuit

EPSILON = 1e-6


@pytest.mark.parametrize("M", range(2, 9))
def test_open_circuit_weak_values_match_the_closed_forms(M):
    for N in range(1, 21):
        c = build_paradox_circuit(M, N)
        trace = weak_trace_map(c, end_to_end_boundaries(c))
        for m in range(1, M + 1):
            for j in range(1, N + 1):
                for arm, w in closed_forms.weak_values(M, N, m, j).items():
                    assert abs(trace[(arm, f"c{m}.in{j}")] - w) <= 1e-12, (N, m, j, arm)


@pytest.mark.parametrize("M", range(2, 9))
def test_channel_probe_reads_the_closed_form_first_order_coefficient(M):
    # signal / epsilon = c1 + O(epsilon**2)
    for N in range(1, 21):
        signal = channel_probe_signal(build_paradox_circuit(M, N), EPSILON)
        assert math.isclose(signal / EPSILON, closed_forms.channel_probe_c1(M, N),
                            rel_tol=1e-9), N


# The loop tier with a loop dwell and with an exact one (N > DWELL_LOOP_MAX),
# then the exact tier at deep chains, out to (10**6, 10**7).
@pytest.mark.parametrize("M, N", [(8, 8), (20, 400), (100, 400000), (300, 300000), (10000, 100),
                                  (100000, 10), (10 ** 6, 10 ** 7)])
@pytest.mark.parametrize("bit", [0, 1])
def test_lossless_module_matches_the_closed_form(bit, M, N):
    f_h, f_v, _ = _module(bit, ProtocolConfig(M=M, N=N))
    want_h, want_v = closed_forms.lossless_module(bit, M, N)
    assert abs(f_h - want_h) <= 1e-12 and abs(f_v - want_v) <= 1e-12, (f_h, f_v, want_h, want_v)
