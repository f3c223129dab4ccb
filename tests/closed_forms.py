"""Closed forms for the open nested circuit, derived by hand, not stepped.

Nothing here is imported from ``zenoport``, like ``tests/oracle.py``, so the
presence engines are checked against a third, independent evaluation at any
depth.  The open circuit (no blocks, no entrance blocks) with end-to-end
boundaries: the source S,H at t0, the F projector at t_final.  With
c = cos(pi/2M), s = sin(pi/2M) and phi_j = j*pi/2N, in outer cycle m at inner
stamp c{m}.in{j}:

* forward: A,H = c^m, C,H = -c^(m-1)*s*sin(phi_j), B,V = c^(m-1)*s*cos(phi_j);
  the inner chain turns V into H over N steps and the exhaust takes it, so
  each cycle starts from S,H = c^(m-1);
* backward from the F projector, normalized: A,H = 1 alone in cycle M; in
  cycle m < M, A,H = c^(M-m), C,H = -s*c^(M-m-1)*cos(phi_j) and
  B,V = -s*c^(M-m-1)*sin(phi_j);
* their transition amplitude is c^M at every stamp.

So w_C = -w_B = tan^2(pi/2M)*sin(j*pi/N)/2 for m < M, w_C = w_B = 0 in cycle
M, and w_A = 1.  A probe coupled to C at every stamp reads, to first order,
epsilon times the sum of Re w_C over the run, which is c1 below.

The lossless module (no leaks, no entrance blocks) on a plain H photon has a
closed form too.  A dwell turns its V input by pi/2N per inner cycle, and the
channel visit after each turn either reflects the H component whole (bit 0)
or absorbs it (bit 1).  So bit 0's dwell turns V fully into H, which the
exhaust takes, and passes t = 0 of V; bit 1's keeps t = cos(pi/2N)^N of V.
One outer cycle is then diag(1, t)·R(pi/2M) on (H, V), and the module's
output is its M-th power applied to (1, 0).
"""

import math

from mpmath import mp


def weak_values(M, N, m, j):
    """Weak value of each inner-cycle arm at stamp c{m}.in{j}, as {arm: value}."""
    w_c = math.tan(math.pi / (2 * M)) ** 2 * math.sin(j * math.pi / N) / 2 if m < M else 0.0
    return {"A": 1.0, "B": -w_c, "C": w_c}


def channel_probe_c1(M, N):
    """First-order coefficient of the channel probe: the sum of w_C over every
    inner stamp, (M - 1)*tan^2(pi/2M)*cot(pi/2N)/2, and 0 at N = 1."""
    if N == 1:
        return 0.0
    return (M - 1) * math.tan(math.pi / (2 * M)) ** 2 / math.tan(math.pi / (2 * N)) / 2


def lossless_module(bit, M, N, dps=40):
    """F-H and F-V amplitudes of the lossless module for control bit `bit`,
    as floats from a dps-digit evaluation."""
    with mp.workdps(dps):
        c, s = mp.cos(mp.pi / (2 * M)), mp.sin(mp.pi / (2 * M))
        t = 0 if bit == 0 else mp.cos(mp.pi / (2 * N)) ** N
        cycle = mp.matrix([[1, 0], [0, t]]) * mp.matrix([[c, -s], [s, c]])
        out = cycle ** M * mp.matrix([1, 0])
        return float(out[0]), float(out[1])
