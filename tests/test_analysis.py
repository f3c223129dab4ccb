"""Forward/backward conditioning, weak values, probes, and history families."""

import json
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import presence_reference as ref
import zenoport.analysis as analysis
import zenoport.optics as optics
from zenoport.analysis import (
    BoundaryPair,
    Family,
    History,
    InconsistentFamilyError,
    OrthogonalBoundariesError,
    arm_paths,
    backward_state,
    builtin_families,
    chain_ket,
    channel_probe_signal,
    cycle_boundaries,
    end_to_end_boundaries,
    evaluate_family,
    family_from_text,
    family_to_text,
    forward_state,
    history_probability,
    is_consistent,
    paradox_report,
    simulate_weak_probe,
    weak_trace_map,
    weak_value,
)
from zenoport.cli import main
from zenoport.optics import CircuitSchedule, block, build_paradox_circuit, pbs, route, spr
from zenoport.qstate import (
    ConservationError,
    LinearMap,
    QStateError,
    StateVector,
    inner,
    is_sink,
    label,
    project,
    projector,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


@pytest.fixture(scope="module")
def circuit():
    return build_paradox_circuit(2, 2)


@pytest.fixture(scope="module")
def bounds(circuit):
    return end_to_end_boundaries(circuit)


def test_forward_state_midpoints(circuit, bounds):
    f2 = forward_state(circuit, bounds.pre, "t2")
    assert abs(f2.amp(label("A", "H")) - INV_SQRT2) < 1e-12
    assert abs(f2.amp(label("C", "H")) + 0.5) < 1e-12
    assert abs(f2.amp(label("B", "V")) - 0.5) < 1e-12


def test_backward_state_midpoints(circuit, bounds):
    b2 = backward_state(circuit, bounds.post, "t2")
    assert abs(b2.amp(label("A", "H")) - INV_SQRT2) < 1e-12
    assert abs(b2.amp(label("C", "H")) + 0.5) < 1e-12
    assert abs(b2.amp(label("B", "V")) + 0.5) < 1e-12
    b3 = backward_state(circuit, bounds.post, "t3")
    assert abs(b3.amp(label("A", "H")) - INV_SQRT2) < 1e-12
    assert abs(b3.amp(label("B", "V")) + INV_SQRT2) < 1e-12
    assert abs(b3.amp(label("C", "H"))) < 1e-12


def test_boundary_overlap_is_stamp_independent(circuit, bounds):
    """Adjoint evolution: the two-state overlap cannot depend on when it
    is evaluated."""
    overlaps = [inner(backward_state(circuit, bounds.post, t),
                      forward_state(circuit, bounds.pre, t))
                for t in circuit.stamps]
    for d in overlaps:
        assert abs(d - overlaps[0]) < 1e-12
    assert abs(overlaps[0] - 0.5) < 1e-12


def test_end_to_end_weak_values(circuit, bounds):
    w = {arm: weak_value(projector(paths=arm), bounds, "t2", circuit)
         for arm in ("A", "B", "C")}
    assert abs(w["A"] - 1.0) < 1e-10
    assert abs(w["B"] + 0.5) < 1e-10
    assert abs(w["C"] - 0.5) < 1e-10
    assert abs(sum(w.values()) - 1.0) < 1e-10
    assert abs(weak_value(projector(paths="C"), bounds, "t3", circuit)) < 1e-10
    assert abs(weak_value(projector(paths="C"), bounds, "t'2", circuit)) < 1e-10


def test_per_cycle_weak_values_vanish_off_the_a_arm(circuit):
    b1 = cycle_boundaries(circuit, 1)
    assert abs(weak_value(projector(paths="A"), b1, "t2", circuit) - 1.0) < 1e-10
    assert abs(weak_value(projector(paths="B"), b1, "t2", circuit)) < 1e-10
    assert abs(weak_value(projector(paths="C"), b1, "t2", circuit)) < 1e-10
    b2 = cycle_boundaries(circuit, 2)
    assert abs(weak_value(projector(paths="C"), b2, "t'2", circuit)) < 1e-10


def test_identity_projector_weak_value_is_one(circuit, bounds):
    for t in ("t0", "t2", "t'3", "t_final"):
        assert abs(weak_value(projector(), bounds, t, circuit) - 1.0) < 1e-12


def test_orthogonal_boundaries_are_refused(circuit):
    dead_state = BoundaryPair(pre=("t0", StateVector({label("S", "H"): 1.0})),
                              post=("t_final", StateVector({label("F", "V"): 1.0})))
    with pytest.raises(OrthogonalBoundariesError):
        weak_value(projector(paths="A"), dead_state, "t2", circuit)
    dead_proj = BoundaryPair(pre=("t0", StateVector({label("S", "H"): 1.0})),
                             post=("t_final", projector(paths=("F",), pols=("V",))))
    with pytest.raises(OrthogonalBoundariesError):
        backward_state(circuit, dead_proj.post, "t2")


def test_boundary_pair_validation(circuit):
    backwards = BoundaryPair(pre=("t3", StateVector({label("S", "H"): 1.0})),
                             post=("t1", projector(paths="F")))
    with pytest.raises(QStateError):
        weak_value(projector(paths="A"), backwards, "t2", circuit)
    fat = BoundaryPair(pre=("t0", StateVector({label("S", "H"): 2.0})),
                       post=("t_final", projector(paths="F")))
    with pytest.raises(QStateError, match="normalized"):
        weak_value(projector(paths="A"), fat, "t2", circuit)


_SH = StateVector({label("S", "H"): 1.0})


@pytest.mark.parametrize("call, message", [
    (lambda c: forward_state(c, ("t2", _SH), "t1"), "stamp 't1' lies before the pre stamp 't2'"),
    (lambda c: backward_state(c, ("t2", projector(paths="F")), "t3"),
     "stamp 't3' lies after the post stamp 't2'"),
    (lambda c: cycle_boundaries(CircuitSchedule(c.stamps, c.steps, c.universe, c.pre_state,
                                                c.post_projector, c.aliases, meta={}), 1),
     "cycle boundaries are defined for nested-paradox schedules"),
    (lambda c: end_to_end_boundaries(CircuitSchedule(c.stamps, c.steps, c.universe, c.pre_state,
                                                     None, c.aliases, c.meta)),
     "schedule declares no post projector"),
    (lambda c: analysis.FamilyEvaluation(builtin_families(c)["cycle1"], (), None, 0.0)
     .probabilities(), "family 'cycle1' has zero total weight"),
], ids=["forward-before-pre", "backward-after-post", "cycle-not-paradox",
        "end-to-end-no-post", "family-zero-weight"])
def test_boundary_and_family_input_checks(circuit, call, message):
    with pytest.raises(QStateError) as info:
        call(circuit)
    assert info.type is QStateError
    assert str(info.value) == message


def test_weak_trace_map_end_to_end(circuit, bounds):
    trace = weak_trace_map(circuit, bounds)
    arms = arm_paths(circuit)
    assert arms == ("S", "A", "B", "C", "D", "F")
    assert len(trace) == len(arms) * len(circuit.stamps)
    assert all(v is not None for v in trace.values())
    assert abs(trace[("A", "c1.in1")] - 1.0) < 1e-10
    assert abs(trace[("C", "c1.in1")] - 0.5) < 1e-10
    assert abs(trace[("B", "c1.in1")] + 0.5) < 1e-10
    assert abs(trace[("C", "c2.in1")]) < 1e-10
    for stamp in circuit.stamps:
        total = sum(trace[(a, stamp)] for a in arms)
        assert abs(total - 1.0) < 1e-10


def test_weak_trace_map_masks_cells_outside_the_window(circuit):
    trace = weak_trace_map(circuit, cycle_boundaries(circuit, 1))
    assert trace[("A", "c2.t1")] is None
    assert trace[("C", "t_final")] is None
    assert abs(trace[("A", "c1.in1")] - 1.0) < 1e-10
    assert abs(trace[("C", "c1.in1")]) < 1e-10


def test_probe_vanishes_at_zero_coupling(circuit):
    assert simulate_weak_probe(circuit, "C", "t2", 0.0) == 0.0


def test_a_probe_holds_only_its_current_pair_of_branches():
    # the walk keeps no state per stamp, so its memory does not grow with
    # depth (stepping through evolve's per-stamp lists peaked at 6.3 MB here)
    c = build_paradox_circuit(10, 1600)
    c._plan()
    tracemalloc.start()
    try:
        signal = simulate_weak_probe(c, "C", "c1.in1", 1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert math.isfinite(signal) and signal != 0.0
    assert peak < 64 * 1024


def test_probe_outside_window_rejected(circuit):
    with pytest.raises(QStateError):
        simulate_weak_probe(circuit, "C", "t_final", 1e-3,
                            boundaries=cycle_boundaries(circuit, 1))


@pytest.mark.parametrize("arm", ["A", "C"])
@pytest.mark.parametrize("which", ["end-to-end", "cycle1"])
def test_probe_first_order_law(circuit, arm, which):
    b = end_to_end_boundaries(circuit) if which == "end-to-end" \
        else cycle_boundaries(circuit, 1)
    w = weak_value(projector(paths=arm), b, "t2", circuit).real
    for eps in (1e-2, 1e-3, 1e-4):
        sig = simulate_weak_probe(circuit, arm, "t2", eps, boundaries=b)
        assert abs(sig / eps - w) <= 0.01 * eps


def test_probe_in_cycle_one_channel_is_exactly_dark(circuit):
    b1 = cycle_boundaries(circuit, 1)
    assert simulate_weak_probe(circuit, "C", "t2", 1e-3, boundaries=b1) == 0.0


def test_probe_second_order_where_weak_value_vanishes(circuit):
    # at t'2 the first-order term is gone, so signal/eps keeps shrinking
    ratios = [abs(simulate_weak_probe(circuit, "C", "t'2", eps)) / eps
              for eps in (1e-2, 1e-3, 1e-4)]
    assert ratios[1] < ratios[0] / 5
    assert ratios[2] < ratios[1] / 5


def test_channel_probe_signal_frozen_values():
    base = build_paradox_circuit(2, 2)
    assert abs(channel_probe_signal(base, 1e-3) - 4.999999479166589e-4) < 1e-12
    av1 = build_paradox_circuit(2, 2, av_rounds=1)
    av2 = build_paradox_circuit(2, 2, av_rounds=2)
    s1 = channel_probe_signal(av1, 1e-3)
    s2 = channel_probe_signal(av2, 1e-3)
    assert abs(s1 - 6.25e-11) < 1e-15
    assert abs(s2 + 3.125e-11) < 1e-15
    assert abs(s2) < abs(s1)
    assert channel_probe_signal(base, 0.0) == 0.0


def test_report_structure_and_values():
    rep = paradox_report(2, 2, av_rounds=1)
    assert set(rep) == {"M", "N", "av_rounds", "epsilon", "rows",
                        "channel_probe_signal"}
    by = {(r["boundaries"], r["arm"], r["stamp"]): r for r in rep["rows"]}
    assert len(rep["rows"]) == 6
    assert abs(by[("end-to-end", "S", "t0")]["weak_value"][0] - 1.0) < 1e-10
    assert abs(by[("end-to-end", "C", "c1.in1")]["weak_value"][0] - 0.5) < 1e-10
    assert abs(by[("end-to-end", "C", "c2.in1")]["weak_value"][0]) < 1e-10
    assert abs(by[("cycle1", "C", "c1.in1")]["weak_value"][0]) < 1e-10
    assert abs(by[("cycle2", "C", "c2.in1")]["weak_value"][0]) < 1e-10
    assert set(rep["channel_probe_signal"]) == {"end-to-end", "end-to-end+av"}
    json.dumps(rep)  # must be plain data


def test_builtin_families_inventory(circuit):
    fams = builtin_families(circuit)
    assert sorted(fams) == ["cycle1", "cycle2", "final_via_cycle1",
                            "final_via_cycle2"]
    for f in fams.values():
        f.validate(circuit)
        assert len(f.histories()) == 18


def test_consistent_families_put_everything_on_the_a_arm(circuit):
    fams = builtin_families(circuit)
    for name in ("cycle1", "cycle2", "final_via_cycle2"):
        f = fams[name]
        ok, pair = is_consistent(f, circuit)
        assert ok and pair is None
        probs = {str(h): history_probability(h, f, circuit) for h in f.histories()}
        assert abs(sum(probs.values()) - 1.0) < 1e-10
        assert abs(probs["(A,A,A)"] - 1.0) < 1e-10
        for name_h, p in probs.items():
            if name_h != "(A,A,A)":
                assert p < 1e-10


def test_inconsistent_family_detected(circuit):
    f = builtin_families(circuit)["final_via_cycle1"]
    ok, pair = is_consistent(f, circuit)
    assert not ok
    assert tuple(str(h) for h in pair) == ("(A,A,A)", "(D,B,B)")
    with pytest.raises(InconsistentFamilyError):
        history_probability(f.histories()[0], f, circuit)


def test_evaluate_family_matches_the_per_history_engines(circuit):
    for f in builtin_families(circuit).values():
        ev = evaluate_family(f, circuit)
        assert tuple(k.history for k in ev.kets) == f.histories()
        for k in ev.kets:
            assert k.state == chain_ket(k.history, f, circuit).state
        assert (ev.offending_pair is None, ev.offending_pair) == is_consistent(f, circuit)
        assert ev.total == sum(k.weight for k in ev.kets)
        if ev.offending_pair is None:
            assert ev.probabilities() == tuple(
                history_probability(h, f, circuit) for h in f.histories())
        else:
            with pytest.raises(InconsistentFamilyError):
                ev.probabilities()


@pytest.mark.parametrize("engine", ["is_consistent", "history_probability"])
def test_library_engines_validate_once_and_compute_each_ket_once(circuit, analysis_work,
                                                                  engine):
    f = builtin_families(circuit)["cycle1"]
    if engine == "is_consistent":
        is_consistent(f, circuit)
    else:
        history_probability(f.histories()[0], f, circuit)
    # 18 kets from a prefix tree of menus (2, 3, 3): 1 + 2 + 3 + 5 evolutions of
    # nonempty prefixes, one step each, instead of 4 per history (72)
    assert analysis_work == {"validate": 1, "evolve": 11, "steps": 11}


def test_paradox_report_evolves_each_boundary_pair_once(analysis_work, monkeypatch):
    kernel, applied = optics._accumulate, []

    def counted_kernel(m, s):
        applied.append(m)
        return kernel(m, s)

    monkeypatch.setattr(optics, "_accumulate", counted_kernel)
    paradox_report(4, 12, av_rounds=1)
    # 4 pairs x 2 trajectories; the pointer walk steps the two branches of each
    # of 6 cells (280 steps) and of each channel probe (57 and 105 steps) itself,
    # so it makes no evolve call but still applies 2 step maps per step.  A report
    # made 368 calls and 1,540 steps when every cell evolved its own pair, 344 calls
    # and 1,264 steps when each channel probe called evolve once per branch and
    # step, and 20 calls and 940 steps when each cell's branches called evolve
    assert analysis_work == {"validate": 0, "evolve": 8, "steps": 380}
    assert len(applied) == 380 + 2 * (280 + 57 + 105) == 1264


def test_the_engines_keep_only_the_states_they_read(monkeypatch):
    # a report reads at most 3 cells of a boundary pair's trajectories, and a
    # family only the state at the end of each leg
    evolve, kept = analysis.evolve, []

    def recorded(*args, **kwargs):
        end, states = evolve(*args, **kwargs)
        assert isinstance(states, dict)
        kept.append(len(states))
        return end, states

    monkeypatch.setattr(analysis, "evolve", recorded)
    paradox_report(20, 100, av_rounds=1)
    assert kept and max(kept) <= 3
    kept.clear()
    c = build_paradox_circuit(10, 50)
    for f in builtin_families(c).values():
        evaluate_family(f, c)
    assert kept and set(kept) == {0}


def test_history_probability_error_order(circuit):
    fams = builtin_families(circuit)
    foreign = fams["final_via_cycle2"].histories()[0]
    # an inconsistent family is reported before the history is looked at
    with pytest.raises(InconsistentFamilyError):
        history_probability(foreign, fams["final_via_cycle1"], circuit)
    with pytest.raises(QStateError) as exc:
        history_probability(foreign, fams["cycle1"], circuit)
    assert not isinstance(exc.value, InconsistentFamilyError)


def test_history_probability_of_an_offered_partial_history(circuit, analysis_work):
    f = builtin_families(circuit)["cycle1"]
    partial = History(names=("A",), events=(f.histories()[0].events[0],))
    prob = history_probability(partial, f, circuit)
    assert analysis_work["validate"] == 1
    total = sum(chain_ket(h, f, circuit).weight for h in f.histories())
    assert prob == chain_ket(partial, f, circuit).weight / total


@pytest.mark.parametrize("stamps", [("c1.in2", "c1.in1"), ("c1.in1", "c1.in1")],
                         ids=["reversed", "same-stamp"])
def test_chain_ket_refuses_histories_out_of_time_order(circuit, stamps):
    f = builtin_families(circuit)["cycle1"]
    h = History(names=("A", "B"), events=((stamps[0], projector(paths="A")),
                                          (stamps[1], projector(paths="B"))))
    with pytest.raises(QStateError, match="strictly increase"):
        chain_ket(h, f, circuit)
    with pytest.raises(QStateError, match="strictly increase"):
        history_probability(h, f, circuit)


def test_chain_kets_of_the_final_boundary_family(circuit):
    f = builtin_families(circuit)["final_via_cycle1"]
    kets = {str(h): chain_ket(h, f, circuit) for h in f.histories()}
    assert abs(kets["(A,A,A)"].state.amp(label("F", "H")) - 0.5) < 1e-12
    assert abs(kets["(D,C,B)"].state.amp(label("F", "H")) - 0.25) < 1e-12
    assert abs(kets["(D,B,B)"].state.amp(label("F", "H")) + 0.25) < 1e-12
    assert kets["(D,C,B)"].weight > 1e-10  # a channel-crossing history survives
    overlap = inner(kets["(A,A,A)"].state, kets["(D,C,B)"].state)
    assert abs(overlap - 0.125) < 1e-12


def test_cycle_family_kills_channel_histories(circuit):
    # within one cycle both engines agree: nothing ever leaves the A arm
    f = builtin_families(circuit)["cycle1"]
    for h in f.histories():
        if any(n in ("B", "C", "D") for n in h.names):
            assert chain_ket(h, f, circuit).weight < 1e-10
    b1 = cycle_boundaries(circuit, 1)
    for arm in ("B", "C", "D"):
        assert abs(weak_value(projector(paths=arm), b1, "t2", circuit)) < 1e-10


def test_chain_ket_rejects_foreign_history(circuit):
    fams = builtin_families(circuit)
    f7 = fams["cycle1"]
    # a second-cycle history lives at stamps the first-cycle family never offers
    foreign = fams["final_via_cycle2"].histories()[0]
    with pytest.raises(QStateError):
        chain_ket(foreign, f7, circuit)
    made_up = History(names=("D",), events=(("c1.in1", projector(paths="D")),))
    with pytest.raises(QStateError):
        chain_ket(made_up, f7, circuit)


def test_family_validation_errors(circuit):
    pre = ("t0", StateVector({label("S", "H"): 1.0}))
    post = ("t_final", projector(paths="F"))
    overlapping = Family(
        name="bad", pre=pre, post=post,
        slots=((("c1.in1"), (("X", projector(paths=("A", "B"))),
                             ("Y", projector(paths="B")))),))
    with pytest.raises(QStateError, match="overlapping"):
        overlapping.validate(circuit)
    empty = Family(name="bad", pre=pre, post=post, slots=(("c1.in1", ()),))
    with pytest.raises(QStateError, match="no projectors"):
        empty.validate(circuit)
    disordered = Family(
        name="bad", pre=pre, post=post,
        slots=(("c1.in2", (("X", projector(paths="A")),)),
               ("c1.in1", (("Y", projector(paths="A")),))))
    with pytest.raises(QStateError, match="time order"):
        disordered.validate(circuit)
    inverted = Family(name="bad", pre=("t_final", pre[1]),
                      post=("t0", projector(paths="F")), slots=())
    with pytest.raises(QStateError, match="precede"):
        inverted.validate(circuit)


# offers whose history labels collide: a name repeated in one slot, and names
# with commas that make (A,B)+(C) and (A)+(B,C) both read "(A,B,C)"
_CLASHING_OFFERS = {
    "repeated-name": ((("c1.in1", (("X", "A"), ("X", "B"), ("Y", "C"))),), "twice"),
    "comma-in-name": ((("c1.t1", (("A,B", "A"), ("A", "D"))),
                       ("c1.in1", (("C", "A"), ("B,C", "B")))), "','"),
}


@pytest.mark.parametrize("slots, message", _CLASHING_OFFERS.values(), ids=_CLASHING_OFFERS)
def test_history_labels_that_would_collide_are_rejected(circuit, slots, message):
    pre = ("t0", StateVector({label("S", "H"): 1.0}))
    f = Family(name="clash", pre=pre, post=("t_final", projector(paths="F")),
               slots=tuple((stamp, tuple((nm, projector(paths=path)) for nm, path in offers))
                           for stamp, offers in slots))
    with pytest.raises(QStateError, match=message):
        evaluate_family(f, circuit)


def test_family_text_round_trip(circuit):
    f = builtin_families(circuit)["final_via_cycle1"]
    text = family_to_text(f)
    again = family_from_text(text)
    assert again == f
    assert family_to_text(again) == text
    ok_a, pair_a = is_consistent(again, circuit)
    ok_b, pair_b = is_consistent(f, circuit)
    assert ok_a == ok_b
    assert tuple(map(str, pair_a)) == tuple(map(str, pair_b))


def test_family_text_keeps_an_empty_projector(circuit):
    """[] (matches nothing) must not come back as null (matches everything)."""
    f = builtin_families(circuit)["final_via_cycle1"]
    dark = Family(f.name, f.pre, ("t_final", projector(paths="F", pols=())), f.slots)
    again = family_from_text(family_to_text(dark))
    assert again == dark
    h = dark.histories()[0]
    assert chain_ket(h, f, circuit).weight == pytest.approx(0.25, abs=1e-12)
    assert chain_ket(h, dark, circuit).weight == 0.0
    assert chain_ket(h, again, circuit).weight == 0.0


def test_family_text_rejects_garbage():
    with pytest.raises(QStateError):
        family_from_text("")
    with pytest.raises(QStateError):
        family_from_text("once upon a time\n")


def test_builtin_families_need_a_two_level_schedule():
    with pytest.raises(QStateError):
        builtin_families(build_paradox_circuit(1, 2))
    from zenoport.optics import CircuitSchedule
    bare = CircuitSchedule(stamps=("a", "b"), steps=((),),
                           universe=(label("S", "H"), label("S", "V")),
                           pre_state=StateVector({label("S", "H"): 1.0}))
    with pytest.raises(QStateError):
        builtin_families(bare)


def _scaled(maps, step, rows=None):
    """maps with the one at step scaled by 0.5 (only in the rows that rows()
    accepts, when given), as a general map that the audit does not refuse."""
    maps = list(maps)
    m = maps[step]
    maps[step] = LinearMap({src: {dst: 0.5 * a if rows is None or rows(dst) else a
                                  for dst, a in col.items()}
                            for src, col in m.columns.items()}, kind="general", name="lossy",
                           domain=m.domain)
    return tuple(maps)


def _drift(c, step, forward=True, backward=False, rows=None):
    """c with the plan's map at step (forward) and its adjoint (backward) scaled.
    The engines step the plan, and the public views step the maps derived from
    it; a forward drift alone carries over to the adjoint."""
    plan = c._plan()
    c._engine = optics._Plan(_scaled(plan.maps, step, rows) if forward else plan.maps,
                             plan.feeds, plan.fresh)
    if backward:
        c._engine.adjoints = _scaled(plan.adjoints, step, rows)
    return c


def drifting_circuit(step=0, adjoint=False):
    """The (2, 2) circuit with one step map (or its adjoint) scaled to lose probability."""
    return _drift(build_paradox_circuit(2, 2), step, not adjoint, adjoint)


def _cycle1_ket(c):
    fam = builtin_families(c)["cycle1"]  # a history through the channel arm C at c1.in1
    return chain_ket(next(h for h in fam.histories() if h.names[:2] == ("D", "C")), fam, c)


ENGINES = {
    "forward_state": lambda c: forward_state(c, ("t0", c.pre_state), "t_final"),
    "backward_state": lambda c: backward_state(c, ("t_final", StateVector({label("F", "H"): 1.0})),
                                               "t0"),
    "weak_value": lambda c: weak_value(projector(paths="C"), end_to_end_boundaries(c), "c1.in1", c),
    "weak_trace_map": lambda c: weak_trace_map(c, end_to_end_boundaries(c)),
    "simulate_weak_probe": lambda c: simulate_weak_probe(c, "C", "c1.in1", 1e-3),
    "channel_probe_signal": lambda c: channel_probe_signal(c, 1e-3),
    "chain_ket": _cycle1_ket,
    "evaluate_family": lambda c: evaluate_family(builtin_families(c)["cycle1"], c),
}


@pytest.mark.parametrize("engine", ENGINES.values(), ids=ENGINES)
def test_every_engine_checks_conservation_per_stamp(engine):
    with pytest.raises(ConservationError, match="drifted"):
        engine(drifting_circuit())


@pytest.mark.parametrize("name", ENGINES)
def test_a_drift_in_what_a_step_feeds_a_sink_is_caught_at_its_stamp(name):
    # step 2 of the blocked (2, 2) circuit feeds SinkBlock#1.1, which the engines
    # keep in a ledger, out of the state they step: only the ledger's norm**2
    # shows that the step and its adjoint feed the sink half of what they take
    c = _drift(build_paradox_circuit(2, 2, block_channel=True), 2, True, True,
               rows=lambda dst: dst.path == "SinkBlock#1.1")
    stamp = "c1.in1" if name == "backward_state" else "c1.in2"  # the adjoint step leads back
    with pytest.raises(ConservationError, match=f"drifted to .* at stamp {stamp} "):
        ENGINES[name](c)


@pytest.mark.parametrize("adjoint", [False, True], ids=["forward", "adjoint"])
def test_a_drift_reaches_the_full_states_after_the_maps_were_derived(adjoint):
    # run_schedule and the full backward states step the public maps, which
    # the drifted plan derives anew although the first plan's were in use
    c = build_paradox_circuit(2, 2)
    c.step_maps(), c.adjoint_step_maps()
    _drift(c, 0, not adjoint, adjoint)
    with pytest.raises(ConservationError, match="drifted"):
        if adjoint:
            optics.evolve(c, StateVector({label("F", "H"): 1.0}), len(c.stamps) - 1, 0)
        else:
            optics.run_schedule(c)


def test_paradox_conservation_breach_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(analysis, "build_paradox_circuit", lambda *a, **k: drifting_circuit())
    assert main(["paradox"]) == 3
    # the weak-value cells report the breach themselves, not as undefined cells
    monkeypatch.setattr(analysis, "channel_probe_signal", lambda *a, **k: 0.0)
    assert main(["paradox"]) == 3
    assert "conservation breach" in capsys.readouterr().err


# ------------------------------------- shared trajectories and shared prefixes

def _hex(z):
    return [z.real.hex(), z.imag.hex()]


def _bits(s):
    return [(k, *_hex(v)) for k, v in s.items()]


def _hexed(z):
    return None if z is None else _hex(z)


@pytest.mark.parametrize("av", [0, 1])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_paradox_rows_equal_the_per_cell_engines_bitwise(m, av):
    eps = 2.5e-3
    for n in range(2, 13):
        report = paradox_report(m, n, av_rounds=av, epsilon=eps)
        c = build_paradox_circuit(m, n)
        pairs = {"end-to-end": (c, end_to_end_boundaries(c)),
                 "cycle1": (c, cycle_boundaries(c, 1)), "cycle2": (c, cycle_boundaries(c, 2))}
        channel = {"end-to-end": ref.channel_probe_signal(c, eps, pairs["end-to-end"][1])}
        if av:
            cav = build_paradox_circuit(m, n, av_rounds=av)
            pairs["end-to-end+av"] = (cav, end_to_end_boundaries(cav))
            channel["end-to-end+av"] = ref.channel_probe_signal(cav, eps, pairs["end-to-end+av"][1])
        assert [r["boundaries"] for r in report["rows"]] == \
            ["end-to-end"] * 3 + ["cycle1", "cycle2"] + ["end-to-end+av"] * av
        for row in report["rows"]:
            sched, b = pairs[row["boundaries"]]
            wv = row["weak_value"]
            assert (None if wv is None else _hex(complex(*wv))) == \
                _hexed(ref.weak_value(projector(paths=row["arm"]), b, row["stamp"], sched))
            probe = ref.simulate_weak_probe(sched, row["arm"], row["stamp"], eps, b)
            assert row["probe_signal"].hex() == probe.hex()
        assert {k: v.hex() for k, v in report["channel_probe_signal"].items()} == \
            {k: v.hex() for k, v in channel.items()}


_AMPS = st.sampled_from([0.0, -0.0, 1e-16, -2e-16, 0.3, -0.45, 1e-3, 0.7071067811865476])
_STATES = st.dictionaries(
    st.sampled_from([label(p, pol) for p in ("C", "B", "SinkX") for pol in ("H", "V")]),
    st.builds(complex, _AMPS, _AMPS), max_size=6).map(StateVector)


@settings(max_examples=200, deadline=None)
@given(psi0=_STATES, psi1=_STATES,
       epsilon=st.sampled_from([1e-9, 1e-4, 2.5e-3, 0.5, math.pi, 2.0 * math.pi]))
def test_pointer_coupling_sums_like_state_vector_arithmetic(psi0, psi1, epsilon):
    pi = projector(paths="C")
    p0, _ = project(pi, psi0)
    p1, _ = project(pi, psi1)
    cm1 = math.cos(epsilon / 2.0) - 1.0
    sn = math.sin(epsilon / 2.0)
    ref0, ref1 = (psi0 + p0 * cm1 + p1 * sn * -1).pruned(), (psi1 + p1 * cm1 + p0 * sn).pruned()
    (out0, n0), (out1, n1) = analysis._couple_pointer("C", psi0, psi1, epsilon)
    assert (_bits(out0), _bits(out1)) == (_bits(ref0), _bits(ref1))
    assert (n0.hex(), n1.hex()) == (float(out0.norm2()).hex(), float(out1.norm2()).hex())


def _dark_first_family(c):
    """A family whose first slot offers C at c1.t1, where the photon never is."""
    menu = tuple((a, projector(paths=a)) for a in ("A", "B", "C"))
    entry = tuple((a, projector(paths=a)) for a in ("C", "A", "D"))
    return Family("dark-first", ("t0", StateVector({label("S", "H"): 1.0})),
                  ("t_final", projector(paths="F")),
                  (("c1.t1", entry), ("c1.in1", menu), ("c1.in2", menu)))


@pytest.mark.parametrize("m, n", [(2, 2), (3, 7), (4, 12)])
def test_family_kets_equal_chain_kets_bitwise(m, n):
    c = build_paradox_circuit(m, n)
    dark = _dark_first_family(c)
    assert not project(projector(paths="C"), forward_state(c, dark.pre, "c1.t1"))[0]
    for f in [*builtin_families(c).values(), dark]:
        ev = evaluate_family(f, c)
        assert tuple(k.history for k in ev.kets) == f.histories()
        for k in ev.kets:
            assert _bits(k.state) == _bits(ref.history_ket(k.history, f, c))
            assert _bits(chain_ket(k.history, f, c).state) == _bits(k.state)
    dark_kets = evaluate_family(dark, c).kets
    assert all(not k.state for k in dark_kets[:9]) and any(k.state for k in dark_kets[9:])


def _boundary_pairs(c):
    """The three standard pairs, a state post, and two orthogonal pairs: a post
    projector that annihilates the forward state and a post state orthogonal
    to it at every stamp."""
    sh, fh = StateVector({label("S", "H"): 1.0}), StateVector({label("F", "H"): 1.0})
    return {"end-to-end": end_to_end_boundaries(c), "cycle1": cycle_boundaries(c, 1),
            "cycle2": cycle_boundaries(c, 2),
            "state-post": BoundaryPair(("t0", sh), ("t_final", fh)),
            "dark-projector": BoundaryPair(("t0", sh), ("c1.t1", projector(paths="C"))),
            "dark-state": BoundaryPair(("t0", sh), ("c1.t1", StateVector({label("C", "H"): 1.0})))}


@pytest.mark.parametrize("blocked", [False, True], ids=["open", "blocked"])
@pytest.mark.parametrize("av", [0, 1, 2])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_public_views_equal_the_reference_bitwise(m, av, blocked):
    eps = 2.5e-3
    # every N for open circuits; blocked ones carry a sink per channel visit and
    # cost more, so each (M, av_rounds) takes every third N, offset so that every
    # (M, N) and every (av_rounds, N) pair still occurs
    for n in range(2 + (m + av) % 3, 13, 3) if blocked else range(2, 13):
        c = build_paradox_circuit(m, n, block_channel=blocked, av_rounds=av)
        arms = arm_paths(c)
        pairs = _boundary_pairs(c)
        for j, (name, b) in enumerate(pairs.items()):
            want_trace = ref.weak_trace_map(c, b)
            trace = weak_trace_map(c, b)
            assert {k: _hexed(v) for k, v in trace.items()} == \
                {k: _hexed(v) for k, v in want_trace.items()}
            assert name.startswith("dark") == all(v is None for v in trace.values())
            # one cell per pair, spread over the arms and the window
            i_pre, i_post = c.index_of(b.pre[0]), c.index_of(b.post[0])
            arm, stamp = arms[(n + j) % len(arms)], c.stamps[i_pre + 3 * n % (i_post - i_pre + 1)]
            want = want_trace[(arm, stamp)]  # the reference sums a cell as weak_value does
            if want is None:
                with pytest.raises(OrthogonalBoundariesError):
                    weak_value(projector(paths=arm), b, stamp, c)
            else:
                assert _hex(weak_value(projector(paths=arm), b, stamp, c)) == _hex(want)
            assert simulate_weak_probe(c, arm, stamp, eps, boundaries=b).hex() == \
                ref.simulate_weak_probe(c, arm, stamp, eps, b).hex()
        b = list(pairs.values())[n % len(pairs)]
        assert channel_probe_signal(c, eps, boundaries=b).hex() == \
            ref.channel_probe_signal(c, eps, b).hex()


def _same_as_the_reference(c, b, family_menus=()):
    """weak_trace_map, both probes and (given slot menus) a family's kets of one
    boundary pair equal the full-state reference replay bit for bit."""
    assert {k: _hexed(v) for k, v in weak_trace_map(c, b).items()} == \
        {k: _hexed(v) for k, v in ref.weak_trace_map(c, b).items()}
    t = c.stamps[c.index_of(b.pre[0]) + 1]
    for arm in arm_paths(c):
        assert channel_probe_signal(c, 2.5e-3, b, arm).hex() == \
            ref.channel_probe_signal(c, 2.5e-3, b, arm).hex()
        assert simulate_weak_probe(c, arm, t, 2.5e-3, b).hex() == \
            ref.simulate_weak_probe(c, arm, t, 2.5e-3, b).hex()
    if family_menus:
        f = Family("f", b.pre, b.post, family_menus)
        for k in evaluate_family(f, c).kets:
            assert _bits(k.state) == _bits(ref.history_ket(k.history, f, c))


def test_sink_amplitude_in_a_boundary_steps_like_the_full_maps():
    # SinkBlock#1.1 is fed at c1.in2, after the pre stamp: a pre or post state
    # holding amplitude on it, or a projector that matches it, makes the engines
    # step full states, as the reference does
    c = build_paradox_circuit(2, 3, block_channel=True)
    sh, fh, sink = label("S", "H"), label("F", "H"), label("SinkBlock#1.1", "H")
    menus = builtin_families(c)["final_via_cycle1"].slots  # a family needs a projector post
    for b, family_menus in (
            (BoundaryPair(("t0", StateVector({sh: 0.6, sink: 0.8})),
                          ("t_final", projector(paths="F"))), menus),
            (BoundaryPair(("t0", StateVector({sh: 1.0})),
                          ("t_final", StateVector({fh: 0.6, sink: 0.8}))), ()),
            (BoundaryPair(("t0", StateVector({sh: 1.0})),
                          ("t_final", projector(paths=("F", "SinkBlock#1.1")))), menus)):
        assert not analysis._live(c, b.pre[1], b.post[1])
        _same_as_the_reference(c, b, family_menus)


def test_a_sink_that_two_steps_touch_stays_live():
    # SinkX is fed at step 1 and emptied into A at step 3, so it is no fresh
    # sink: the engines step it with the live labels; SinkY is fed once
    uni = (*(label(p, pol) for p in ("S", "A") for pol in ("H", "V")),
           label("SinkX", "H"), label("SinkY", "V"))
    steps = ((spr(0.3, "S"),), (block("S", "SinkX"),), (spr(0.5, "S"),),
             (route("SinkX", "H", "A"), block("S", "SinkY", ("V",))), (spr(0.2, "A"),))
    c = CircuitSchedule(stamps=tuple(f"t{k}" for k in range(6)), steps=steps, universe=uni,
                        pre_state=StateVector({label("S", "H"): 1.0}))
    assert c._plan().fresh == {"SinkY"}
    b = BoundaryPair(("t0", c.pre_state), ("t5", projector(paths="A")))
    assert analysis._live(c, b.pre[1], b.post[1])
    _same_as_the_reference(c, b, (("t2", ((a, projector(paths=a)) for a in ("S", "A"))),))


# two state posts of the blocked (2, 3) circuit, and a probe that each sums to
# other bits over the other state: at the post stamp a probe branch holds fewer
# labels than the post, but more once the sinks its evolution fed are counted
_POSTS = [
    ("c2.in2", {("S", "H"): 0.7387479589315287+0.9042494965729735j,
                ("A", "H"): -0.16807997300018007-0.9760311053020514j,
                ("B", "V"): -0.6752891595109647-0.41843330787719224j,
                ("A", "V"): -0.7683886374318585-0.13875854123811315j,
                ("D", "V"): 0.22594090130038413-0.44337292974499465j,
                ("F", "H"): 0.5362916984281652+0.437997573100648j,
                ("C", "H"): -0.01169782018614507-0.43739083992611305j}, ("B", "c2.in1")),
    ("c2.in3", {("C", "H"): -0.9100924643553021+0.5521399708409429j,
                ("B", "V"): 0.5192460790685862+0.0870820119688076j,
                ("D", "H"): 0.44443985023097765+0.3100922990529502j,
                ("A", "H"): -0.37988815753223903-0.04896688260498494j,
                ("S", "V"): -0.9579471542341174-0.09763669321379931j,
                ("B", "H"): 0.9814265917040286+0.34817560879449894j,
                ("F", "H"): -0.3098872835080553+0.4235515797628797j,
                ("C", "V"): 0.7122279736081096+0.5352792440553378j}, None),
]


@pytest.mark.parametrize("stamp, amps, cell", _POSTS, ids=["probe", "channel"])
def test_a_probe_branch_meets_a_state_post_by_full_size(stamp, amps, cell):
    c = build_paradox_circuit(2, 3, block_channel=True)
    post = StateVector({label(*k): v for k, v in amps.items()}).normalized()
    b = BoundaryPair(("t0", c.pre_state), (stamp, post))
    assert analysis._live(c, b.pre[1], b.post[1])
    if cell is None:
        assert channel_probe_signal(c, 2.5e-3, b).hex() == \
            ref.channel_probe_signal(c, 2.5e-3, b).hex()
    else:
        assert simulate_weak_probe(c, *cell, 2.5e-3, b).hex() == \
            ref.simulate_weak_probe(c, *cell, 2.5e-3, b).hex()


@pytest.mark.parametrize("blocked, av", [(True, 0), (False, 2)])
def test_no_returned_state_counts_fed_sinks(blocked, av):
    # the engines step live states that count the sinks they fed; the states
    # they return count none and hold their sinks as full states do
    c = build_paradox_circuit(3, 5, block_channel=blocked, av_rounds=av)
    f = builtin_families(c)["final_via_cycle1"]
    pre, post = (c.stamps[0], c.pre_state), (c.stamps[-1], c.post_projector)
    assert analysis._live(c, pre[1], post[1])
    states = [*optics.run_schedule(c).states.values(),
              *(forward_state(c, pre, t) for t in c.stamps),
              *(backward_state(c, post, t) for t in c.stamps),
              chain_ket(f.histories()[0], f, c).state,
              *(k.state for k in evaluate_family(f, c).kets)]
    assert all(s._fed == 0 and s._fed_n2 == 0.0 for s in states)
    assert any(is_sink(k.path) for s in states for k in s)


_ROTATION, _SPLIT, _MERGE = spr(0.7, "S"), pbs("S", "A", "B"), pbs("S", "A", "B", name="merge")
_SINKS = tuple(f"Sink{k}" for k in range(5))


@st.composite
def _schedules(draw):
    """A small schedule over S, A, B and five sinks: each step is a rotation or
    splitter shared by object, then maybe a new block or route element that
    feeds or empties a sink, some sinks from two steps.  The universe order is
    drawn: anywhere, or with the sinks that one step touches after all other
    labels."""
    plain = st.sampled_from([(_ROTATION, _SPLIT), (_MERGE, _ROTATION)])
    feed = st.builds(lambda arm, sink: (block(arm, sink, ("H", "V")),),
                     st.sampled_from("AB"), st.sampled_from(_SINKS))
    empty = st.builds(lambda sink, pol, arm: (route(sink, pol, arm),),
                      st.sampled_from(_SINKS), st.sampled_from("HV"), st.sampled_from("SAB"))
    step = st.builds(lambda shared, sink: shared + sink, plain, st.one_of(feed, empty, st.just(())))
    steps = draw(st.lists(step, min_size=3, max_size=8))
    # and a few steps of one shape that differ only in sinks that no other step touches
    shared, arm = draw(plain), draw(st.sampled_from("AB"))
    for k in range(draw(st.integers(0, 3))):
        steps.insert(draw(st.integers(0, len(steps))), (*shared, block(arm, f"SinkR{k}")))
    steps = tuple(steps)
    touches = [a for els in steps for a in {a for el in els for a in el.arms}]
    paths = ("S", "A", "B", *_SINKS, "SinkR0", "SinkR1", "SinkR2")
    labels = [label(p, pol) for p in paths for pol in ("H", "V")]
    if draw(st.booleans()):
        fresh = [lbl for lbl in labels if touches.count(lbl.path) == 1]
        rest = [lbl for lbl in labels if lbl not in fresh]
        universe = (*draw(st.permutations(rest)), *draw(st.permutations(fresh)))
    else:
        universe = tuple(draw(st.permutations(labels)))
    stamps = tuple(f"t{k}" for k in range(len(steps) + 1))
    return CircuitSchedule(stamps=stamps, steps=steps, universe=universe,
                           pre_state=StateVector({label("S", "H"): 1.0}))


@settings(max_examples=150, deadline=None)
@given(c=_schedules(), arm=st.sampled_from("SAB"))
def test_drawn_schedules_step_like_the_full_maps(c, arm):
    def entries(m):
        return [(src, [(dst, repr(a)) for dst, a in col.items()]) for src, col in m.columns.items()]
    for els, m in zip(c.steps, c.step_maps()):  # the shared compile, renamed per step
        assert entries(m) == entries(optics.step_map(els, c.universe))
    b = BoundaryPair(("t0", c.pre_state), (c.stamps[-1], projector(paths=arm)))
    assert {k: _hexed(v) for k, v in weak_trace_map(c, b).items()} == \
        {k: _hexed(v) for k, v in ref.weak_trace_map(c, b).items()}
    assert channel_probe_signal(c, 2.5e-3, b, arm).hex() == \
        ref.channel_probe_signal(c, 2.5e-3, b, arm).hex()


@pytest.mark.parametrize("kw", [{"M": 2, "N": 2}, {"M": 4, "N": 12},
                                {"M": 3, "N": 7, "av_rounds": 1},
                                {"M": 4, "N": 12, "av_rounds": 2},
                                {"M": 3, "N": 5, "block_channel": True}],
                         ids=["2-2", "4-12", "3-7-av1", "4-12-av2", "3-5-blocked"])
def test_probe_signals_are_odd_in_epsilon(kw):
    c = build_paradox_circuit(**kw)
    for eps in (1e-2, 3e-3, 1e-4):
        assert channel_probe_signal(c, -eps) == -channel_probe_signal(c, eps)
        for arm, stamp in (("C", "c1.in1"), ("A", "c1.in2"), ("C", "c2.in1")):
            assert simulate_weak_probe(c, arm, stamp, -eps) == \
                -simulate_weak_probe(c, arm, stamp, eps)


@pytest.mark.parametrize("step, adjoint", [(0, False), (-1, False), (0, True)],
                         ids=["first-step", "last-step", "first-adjoint"])
def test_shared_trajectories_check_conservation(monkeypatch, step, adjoint):
    monkeypatch.setattr(analysis, "build_paradox_circuit",
                        lambda *a, **k: drifting_circuit(step, adjoint))
    with pytest.raises(ConservationError, match="drifted"):
        paradox_report(2, 2, av_rounds=1)


@pytest.mark.parametrize("step", [0, -1], ids=["first-step", "last-step"])
def test_shared_prefixes_check_conservation(step):
    c = drifting_circuit(step)
    with pytest.raises(ConservationError, match="drifted"):
        evaluate_family(builtin_families(c)["final_via_cycle1"], c)
