"""The presence engines on the open circuit against ``closed_forms``."""

import math

import closed_forms
import pytest

from zenoport.analysis import channel_probe_signal, end_to_end_boundaries, weak_trace_map
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
