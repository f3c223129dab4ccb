"""High-precision oracle for the chained-Zeno module and the two-round protocol.

Everything here is stepped one event at a time in mpmath at DPS digits:
every inner cycle of every outer cycle, with the dwell run again for each
outer cycle's own V amplitude.  There is no lifting, no squaring and no
caching, and nothing is imported from ``zenoport``, so the package's two
module tiers and its closed-form protocol are checked against a third,
independent evaluation.  The cost is O(M·(1+av_rounds)·N) per module, so
keep that product to a few thousand.

The model, as the package documents it: an outer cycle rotates the photon
polarization by pi/2M and sends the V component through a dwell.  A dwell
of (1+a)N inner cycles rotates by pi/2N each; after rotations N, 2N, ...,
aN the H component is absorbed at the channel entrance ("AV"), and after
every other rotation the H component visits the channel: control bit 0
reflects it with amplitude sqrt(1-eps_reflect) and loses the rest ("DB"),
bit 1 absorbs it but for sqrt(eps_block) ("Block").  With eps_block_per
"outer" that leak acts at the first visit of each dwell only, and later
visits absorb fully.  The H component that leaves the dwell is exhausted
("DA"), and its V component returns to the outer cycle.
"""

from mpmath import mp, mpc, mpf

DPS = 40
FAMILIES = ("DA", "DB", "Block", "AV")


def _rotation(cycles):
    """cos and sin of pi/(2*cycles)."""
    angle = mp.pi / (2 * cycles)
    return mp.cos(angle), mp.sin(angle)


def _dwell(v, rotation, n, av_rounds, family, keeps, loss):
    """Run one dwell on the V amplitude v, adding each loss to `loss`;
    returns the H and V amplitudes that leave it.  keeps holds the intensity
    and the amplitude a channel visit retains, at the first visit and at
    later ones."""
    c, s = rotation
    h = mpf(0)
    visits = 0
    for j in range(1, (1 + av_rounds) * n + 1):
        h, v = c * h - s * v, s * h + c * v
        if j % n == 0 and j // n <= av_rounds:  # entrance block
            loss["AV"] += h * h
            h = mpf(0)
        else:  # channel visit
            keep2, keep = keeps[min(visits, 1)]
            loss[family] += (1 - keep2) * h * h
            h *= keep
            visits += 1
    return h, v


def module(bit, m, n, eps_reflect=0.0, eps_block=0.0, av_rounds=0, eps_block_per="inner"):
    """One module for control bit `bit` on a unit H photon: returns the
    output H and V amplitudes and a dict of the four loss families."""
    with mp.workdps(DPS):
        if bit == 0:
            family, keeps = "DB", (1 - mpf(eps_reflect),) * 2
        else:
            family = "Block"
            keeps = (mpf(eps_block), mpf(eps_block) if eps_block_per == "inner" else mpf(0))
        keeps = [(k2, mp.sqrt(k2)) for k2 in keeps]
        outer, inner = _rotation(m), _rotation(n)
        h, v = mpf(1), mpf(0)
        loss = {fam: mpf(0) for fam in FAMILIES}
        for _ in range(m):
            h, v = outer[0] * h - outer[1] * v, outer[1] * h + outer[0] * v
            exhaust, v = _dwell(v, inner, n, av_rounds, family, keeps, loss)
            loss["DA"] += exhaust * exhaust
        return h, v, loss


def protocol(alpha, beta, m, n, eps_reflect=0.0, eps_block=0.0, av_rounds=0,
             eps_block_per="inner"):
    """Counterportation of the control qubit alpha|0> + beta|1>.

    The state is a dict from (path, polarization, control bit) to an
    amplitude.  Each module passage runs the module on a unit H photon for
    each control bit and scales it by the amplitude that enters.  Returns a
    dict with the final port amplitudes under "ports", the port and loss
    probabilities and both fidelity readings.
    """
    with mp.workdps(DPS):
        r = 1 / mp.sqrt(2)
        runs = {bit: module(bit, m, n, eps_reflect, eps_block, av_rounds, eps_block_per)
                for bit in (0, 1)}
        loss = {fam: mpf(0) for fam in FAMILIES}

        def through_module(amp, bit):  # an H photon of amplitude amp enters
            f_h, f_v, lost = runs[bit]
            for fam in FAMILIES:
                loss[fam] += abs(amp) ** 2 * lost[fam]
            return amp * f_h, amp * f_v

        def hadamard(a, b):
            return r * (a + b), r * (a - b)

        def had_pol(state, path):
            for bit in (0, 1):
                key_h, key_v = (path, "H", bit), (path, "V", bit)
                state[key_h], state[key_v] = hadamard(state[key_h], state[key_v])

        def had_bit(state, path):
            for pol in ("H", "V"):
                key0, key1 = (path, pol, 0), (path, pol, 1)
                state[key0], state[key1] = hadamard(state[key0], state[key1])

        target = (mpc(alpha), mpc(beta))
        state = {}
        # round 1: a plain H photon enters the module on each control branch
        for bit, w in enumerate(target):
            state[("F", "H", bit)], state[("F", "V", bit)] = through_module(w, bit)
        had_pol(state, "F")
        had_bit(state, "F")
        # round 2: H rides rail 1; V is flipped to H onto rail 2, passes its
        # own module and is flipped back; a 50/50 splitter joins the rails
        for bit in (0, 1):
            rail1 = through_module(state.pop(("F", "H", bit)), bit)
            rail2_h, rail2_v = through_module(state.pop(("F", "V", bit)), bit)
            rail2 = (rail2_v, rail2_h)
            for pol, a1, a2 in zip(("H", "V"), rail1, rail2):
                state[("Port2", pol, bit)] = r * (a1 + a2)
                state[("Port1", pol, bit)] = r * (a1 - a2)
        for port in ("Port1", "Port2"):
            had_bit(state, port)
            had_pol(state, port)
        for bit in (0, 1):  # the Port1 polarization flip
            state[("Port1", "H", bit)], state[("Port1", "V", bit)] = (
                state[("Port1", "V", bit)], state[("Port1", "H", bit)])

        p_port = {port: sum(abs(a) ** 2 for (p, _, _), a in state.items() if p == port)
                  for port in ("Port1", "Port2")}
        overlap = sum(abs(mp.conj(target[0]) * state[(port, "H", bit)]
                          + mp.conj(target[1]) * state[(port, "V", bit)]) ** 2
                      for port in ("Port1", "Port2") for bit in (0, 1))
        p_success = p_port["Port1"] + p_port["Port2"]
        return {
            "ports": state,
            "p_port1": p_port["Port1"],
            "p_port2": p_port["Port2"],
            "p_lost": sum(loss.values()),
            "loss": loss,
            "fidelity": overlap,
            "fidelity_post_selected": overlap / p_success if p_success else mpf(0),
        }
