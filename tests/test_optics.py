"""Optical elements, schedules, and the nested interferometer builder."""

import math
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import zenoport.optics as optics
from zenoport.optics import (
    CircuitSchedule,
    Element,
    block,
    build_paradox_circuit,
    element_map,
    evolve,
    pbs,
    route,
    run_schedule,
    spr,
    step_map,
)
from zenoport.qstate import (
    PRUNE_EPS,
    ConservationError,
    LabelMismatchError,
    LinearMap,
    QStateError,
    StateVector,
    apply,
    compose,
    is_sink,
    label,
    project,
    projector,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def small_universe():
    return tuple(label(p, pol) for p in ("S", "A", "D") for pol in ("H", "V"))


def test_spr_rotates_h_toward_v():
    m = element_map(spr(math.pi / 4, "S"), small_universe())
    out = apply(m, StateVector({label("S", "H"): 1.0}))
    assert abs(out.amp(label("S", "H")) - INV_SQRT2) < 1e-12
    assert abs(out.amp(label("S", "V")) - INV_SQRT2) < 1e-12


def test_spr_v_column_sign():
    # V picks up -sin on H, so a full quarter turn sends V to -H
    m = element_map(spr(math.pi / 2, "S"), small_universe())
    out = apply(m, StateVector({label("S", "V"): 1.0}))
    assert abs(out.amp(label("S", "H")) + 1.0) < 1e-12


def test_pbs_splits_by_polarization():
    m = element_map(pbs("S", "A", "D"), small_universe())
    out = apply(m, StateVector({label("S", "H"): INV_SQRT2,
                                label("S", "V"): INV_SQRT2}))
    assert abs(out.amp(label("A", "H")) - INV_SQRT2) < 1e-12
    assert abs(out.amp(label("D", "V")) - INV_SQRT2) < 1e-12
    assert out.amp(label("S", "H")) == 0


def test_element_map_is_unitary_identity_elsewhere():
    uni = small_universe()
    m = element_map(spr(0.3, "A"), uni)
    for l in uni:
        out = apply(m, StateVector({l: 1.0}))
        assert abs(out.norm2() - 1.0) < 1e-12
    untouched = apply(m, StateVector({label("D", "V"): 1.0}))
    assert untouched.amp(label("D", "V")) == 1.0


def test_element_missing_arm_rejected():
    with pytest.raises(QStateError):
        element_map(pbs("S", "A", "Z"), small_universe())


@pytest.mark.parametrize("el", [route("A", "H", "A"), pbs("S", "S", "A"), block("S", "S")],
                         ids=["route", "pbs", "block"])
def test_element_pair_that_couples_a_label_with_itself_is_refused(el):
    # its matrix would send the label to two places at once
    with pytest.raises(QStateError, match=r"couples \|.*> with itself"):
        element_map(el, small_universe())


def test_step_map_composes_in_listed_order():
    uni = small_universe()
    m = step_map((spr(math.pi / 2, "S"), pbs("S", "A", "D")), uni)
    out = apply(m, StateVector({label("S", "H"): 1.0}))
    # rotate first (H -> V), then split (V -> D)
    assert abs(out.amp(label("D", "V")) - 1.0) < 1e-12


def test_schedule_stamp_step_count_mismatch():
    uni = small_universe()
    with pytest.raises(QStateError):
        CircuitSchedule(stamps=("t0",), steps=((),), universe=uni,
                        pre_state=StateVector({label("S", "H"): 1.0}))


def test_schedule_duplicate_stamps_rejected():
    uni = small_universe()
    with pytest.raises(QStateError):
        CircuitSchedule(stamps=("t0", "t0"), steps=((),), universe=uni,
                        pre_state=StateVector({label("S", "H"): 1.0}))


def test_index_of_unknown_stamp():
    c = build_paradox_circuit(2, 2)
    with pytest.raises(QStateError):
        c.index_of("t99")


@pytest.mark.parametrize("kw", [{}, {"av_rounds": 2}, {"block_channel": True}],
                         ids=["open", "av2", "blocked"])
def test_index_of_finds_every_stamp_and_alias(kw):
    for m, n in ((2, 2), (3, 4)):
        c = build_paradox_circuit(m, n, **kw)
        assert [c.index_of(s) for s in c.stamps] == list(range(len(c.stamps)))
        assert {a: c.index_of(a) for a in c.aliases} == \
            {a: c.stamps.index(s) for a, s in c.aliases.items()}
        with pytest.raises(QStateError, match="^stamp 'c9.in1' not in schedule$"):
            c.index_of("c9.in1")


def test_paradox_forward_amplitudes_m2_n2():
    """Midpoint and endpoint amplitudes of the two-cycle nested run."""
    c = build_paradox_circuit(2, 2)
    tr = run_schedule(c)
    t2 = tr.at("t2")
    assert abs(t2.amp(label("A", "H")) - INV_SQRT2) < 1e-12
    assert abs(t2.amp(label("C", "H")) + 0.5) < 1e-12
    assert abs(t2.amp(label("B", "V")) - 0.5) < 1e-12
    t3 = tr.at("t3")
    assert abs(t3.amp(label("A", "H")) - INV_SQRT2) < 1e-12
    assert abs(t3.amp(label("C", "H")) + INV_SQRT2) < 1e-12
    assert abs(t3.amp(label("B", "V"))) < 1e-12


def test_paradox_open_channel_final_probability():
    c = build_paradox_circuit(2, 2)
    tr = run_schedule(c)
    kept, prob = project(c.post_projector, tr.at("t_final"))
    assert abs(prob - 0.25) < 1e-12
    assert abs(kept.amp(label("F", "H")) - 0.5) < 1e-12
    assert abs(kept.amp(label("F", "V"))) < 1e-12


def test_paradox_blocked_channel_final_probability():
    c = build_paradox_circuit(2, 2, block_channel=True)
    tr = run_schedule(c)
    kept, prob = project(c.post_projector, tr.at("t_final"))
    assert abs(prob - 0.203125) < 1e-12
    assert abs(kept.amp(label("F", "H")) - 0.25) < 1e-12
    assert abs(kept.amp(label("F", "V")) - 0.375) < 1e-12


def test_paradox_entrance_block_rounds():
    # one interrupt round doubles the dwell and absorbs at the entrance
    c = build_paradox_circuit(2, 2, av_rounds=1)
    assert len(c.stamps) == 2 + 2 * (2 + 4)  # t0, per cycle t1/4 inner/t4, t_final
    tr = run_schedule(c)
    kept, prob = project(c.post_projector, tr.at("t_final"))
    assert abs(prob - 0.25) < 1e-12
    assert abs(kept.amp(label("F", "H")) - 0.5) < 1e-12


def test_paradox_entrance_block_with_blocked_channel():
    c = build_paradox_circuit(2, 2, block_channel=True, av_rounds=1)
    tr = run_schedule(c)
    _, prob = project(c.post_projector, tr.at("t_final"))
    assert abs(prob - 0.1650390625) < 1e-12


def test_paradox_aliases_only_for_two_by_two():
    c = build_paradox_circuit(2, 2)
    assert c.resolve("t'2") == "c2.in1"
    assert len(c.aliases) == 9
    assert build_paradox_circuit(3, 5).aliases == {}


def test_paradox_rejects_bad_sizes():
    with pytest.raises(QStateError):
        build_paradox_circuit(0, 2)
    with pytest.raises(QStateError):
        build_paradox_circuit(2, 2, av_rounds=-1)


@pytest.mark.parametrize("args, kwargs, message", [
    ((True, 2), {}, "M and N must be integers >= 1"),
    ((2, True), {}, "M and N must be integers >= 1"),
    ((2, 2), {"av_rounds": True}, "av_rounds must be an integer >= 0"),
])
def test_paradox_refuses_booleans(args, kwargs, message):
    with pytest.raises(QStateError, match=message):
        build_paradox_circuit(*args, **kwargs)


def test_a_trajectory_refuses_a_stamp_outside_its_schedule():
    tr = run_schedule(build_paradox_circuit(2, 2))
    assert tr.at("t2") is tr.states["c1.in1"]
    for stamp in ("nope", 3):
        with pytest.raises(QStateError, match=f"^stamp {stamp!r} not in schedule$"):
            tr.at(stamp)


def test_trajectory_conserves_probability_at_every_stamp():
    c = build_paradox_circuit(3, 4, block_channel=True)
    tr = run_schedule(c)
    for stamp in c.stamps:
        assert abs(tr.at(stamp).norm2() - 1.0) < 1e-12


def test_run_schedule_flags_probability_drift():
    uni = small_universe()
    c = CircuitSchedule(stamps=("t0", "t1"), steps=((),), universe=uni,
                        pre_state=StateVector({label("S", "H"): 1.0}))
    lossy = LinearMap({l: {l: 0.5} for l in uni}, kind="general", name="lossy")
    plan = c._plan()
    c._engine = optics._Plan((lossy,), plan.feeds, plan.fresh)  # step_maps() derive from it
    with pytest.raises(ConservationError):
        run_schedule(c)


def sink_convention_faults(c):
    """Breaches of the builder's sink convention, one line each.

    Every sink label of the universe is fed in exactly one step, and every
    element arm names a path of the universe.
    """
    paths = {l.path for l in c.universe}
    fed = Counter()
    faults = []
    for els in c.steps:
        arms = {arm for el in els for arm in el.arms}
        faults += [f"unknown arm {arm!r}" for arm in sorted(arms - paths)]
        fed.update(arm for arm in arms if is_sink(arm))
    for sink in sorted(p for p in paths if is_sink(p)):
        if fed[sink] != 1:
            faults.append(f"sink {sink} fed in {fed[sink]} steps")
    return faults


def test_validate_rejects_sink_fed_twice():
    uni = small_universe() + (label("SinkX", "H"),)
    steps = ((route("S", "H", "SinkX"),), (route("A", "H", "SinkX"),))
    c = CircuitSchedule(stamps=("t0", "t1", "t2"), steps=steps, universe=uni,
                        pre_state=StateVector({label("S", "H"): 1.0}))
    assert sink_convention_faults(c) == ["sink SinkX fed in 2 steps"]
    never = CircuitSchedule(stamps=("t0", "t1"), steps=((route("S", "H", "A"),),),
                            universe=uni, pre_state=c.pre_state)
    assert sink_convention_faults(never) == ["sink SinkX fed in 0 steps"]
    stray = CircuitSchedule(stamps=("t0", "t1"), steps=((route("S", "H", "SinkY"),),),
                            universe=uni, pre_state=c.pre_state)
    assert sink_convention_faults(stray) == ["unknown arm 'SinkY'", "sink SinkX fed in 0 steps"]


def test_validate_accepts_builder_output():
    for m in range(1, 5):
        for n in range(1, 7):
            for blocked in (False, True):
                for av in range(3):
                    c = build_paradox_circuit(m, n, block_channel=blocked, av_rounds=av)
                    assert sink_convention_faults(c) == [], (m, n, blocked, av)


ROTATION = ((0, "H", 0, "V"),)
SPLIT = ((0, "H", 1, "H"), (0, "V", 2, "V"))
MOVE = ((0, "H", 1, "H"),)
EXCHANGE = (0.0, 1.0, 1.0, 0.0)


@pytest.mark.parametrize("arms, pairs", [
    (("S", "D"), ROTATION),
    ((), ROTATION),
    (("S", "A"), SPLIT),
    (("C",), MOVE),
    (("S", "A", "D"), MOVE),
    (("S", 1), MOVE),
], ids=["spr-two", "spr-none", "pbs-two", "block-one", "route-three", "route-non-string"])
def test_element_checks_its_arm_count(arms, pairs):
    # its pairs must couple each of its arms and no other
    with pytest.raises(QStateError, match="arms"):
        Element("el", arms, pairs, EXCHANGE)


@pytest.mark.parametrize("build", [
    lambda: spr("abc"),
    lambda: spr("0.5"),
    lambda: spr(True),
    lambda: spr(math.inf),
    lambda: spr(10 ** 400),
    lambda: block("C", "Sink1", ()),
    lambda: block("C", "Sink1", "H"),
    lambda: block("C", "Sink1", ("H", "X")),
    lambda: route("A", "X", "B"),
    lambda: route("A", None, "B"),
    lambda: Element("x", None, ROTATION, EXCHANGE),
    lambda: Element("x", ["S"], ROTATION, EXCHANGE),
    lambda: Element("b", ("C", "Sink1"), (), EXCHANGE),
    lambda: Element("x", ("S",), list(ROTATION), EXCHANGE),
    lambda: Element("x", ("S",), (("theta", 1),), EXCHANGE),
    lambda: Element("x", ("S",), ((0, "H", 0),), EXCHANGE),
    lambda: Element("x", ("S",), ((0, "H", -1, "V"),), EXCHANGE),
    lambda: Element("x", ("S",), ((False, "H", 0, "V"),), EXCHANGE),
    lambda: Element("x", ("S",), ((0, "H", 0, "X"),), EXCHANGE),
    lambda: Element("x", ("S",), ((0, None, 0, "V"),), EXCHANGE),
    lambda: Element("x", ("S",), ROTATION, ()),
    lambda: Element("x", ("S",), ROTATION, (0.0, 1.0, 1.0)),
    lambda: Element("x", ("S",), ROTATION, [0.0, 1.0, 1.0, 0.0]),
    lambda: Element("x", ("S",), ROTATION, ("0", 1.0, 1.0, 0.0)),
    lambda: Element("x", ("S",), ROTATION, (0.0, math.inf, 1.0, 0.0)),
    lambda: Element("x", ("S",), ROTATION, (0.0, True, 1.0, 0.0)),
    lambda: Element("x", ("S",), ROTATION, (0.0, 1j, 1.0, 0.0)),
    lambda: Element("x", ("S",), ROTATION, (0.0, 2.0, 1.0, 0.0)),
], ids=["spr-text", "spr-numeric-text", "spr-bool", "spr-inf", "spr-huge-int",
        "block-empty", "block-string", "block-unknown-pol", "route-unknown-pol", "route-no-pol",
        "arms-not-a-tuple", "arms-a-list", "no-pairs", "pairs-a-list", "pairs-not-quadruples",
        "pair-short", "index-negative", "index-bool", "unknown-pol", "no-pol", "no-matrix",
        "matrix-short", "matrix-a-list", "matrix-text", "matrix-inf", "matrix-bool",
        "matrix-complex", "matrix-above-one"])
def test_element_checks_its_parameters(build):
    # a QStateError itself, not a TypeError or IndexError
    with pytest.raises(QStateError) as info:
        build()
    assert info.type is QStateError


@pytest.mark.parametrize("el, fields", [
    (spr(0.5, "D", "HWP2"), ("HWP2", ("D",), ROTATION,
                             (math.cos(0.5), math.sin(0.5), -math.sin(0.5), math.cos(0.5)))),
    (pbs("S", "A", "D"), ("PBS", ("S", "A", "D"), SPLIT, EXCHANGE)),
    (block("C", "SinkX", ("V", "H")), ("Block", ("C", "SinkX"),
                                       ((0, "V", 1, "V"), (0, "H", 1, "H")), EXCHANGE)),
    (route("A", "V", "B"), ("route", ("A", "B"), ((0, "V", 1, "V"),), EXCHANGE)),
], ids=["spr", "pbs", "block", "route"])
def test_element_constructors_build_checked_records(el, fields):
    # each constructor skips Element's checks, and builds what they accept
    assert type(el) is Element and el == Element(*fields)


def test_element_parameters_that_label_accepts_construct():
    assert spr(1) == spr(1.0)
    assert all(map(math.isnan, spr(math.nan).matrix))  # the unitarity audit refuses it
    # R and L name circular polarizations, which label refuses too
    for build in (lambda: block("C", "SinkX", ("R", "V")), lambda: route("A", "L", "B")):
        with pytest.raises(QStateError, match="polarization"):
            build()


def test_nan_rotation_fails_the_unitarity_audit():
    with pytest.raises(QStateError, match="nan"):
        element_map(spr(math.nan, "S"), small_universe())


@settings(max_examples=25, deadline=None)
@given(m=st.integers(1, 5), n=st.integers(1, 5), blocked=st.booleans(),
       av=st.integers(0, 1))
def test_any_paradox_run_conserves_probability(m, n, blocked, av):
    c = build_paradox_circuit(m, n, block_channel=blocked, av_rounds=av)
    tr = run_schedule(c)
    assert abs(tr.at("t_final").norm2() - 1.0) < 1e-12
    _, prob = project(c.post_projector, tr.at("t_final"))
    assert -1e-12 <= prob <= 1.0 + 1e-12


# ------------------------------------------------------ local-support maps

AUDIT_ERRORS = ("has norm^2", "not orthogonal", "domain and range differ")


def dense_audit(m):
    """Reference unitarity audit: write out the identity column of every
    unstored domain label, then check every column and every pair."""
    cols = {l: {l: 1.0 + 0j} for l in m.domain}
    cols.update(m.columns)
    srcs = list(cols)
    for si in srcs:
        if not abs(sum(abs(a) ** 2 for a in cols[si].values()) - 1.0) <= 1e-12:
            return "has norm^2"
    for i, si in enumerate(srcs):
        for sj in srcs[i + 1:]:
            ov = sum(cols[si][d].conjugate() * cols[sj][d] for d in cols[si].keys() & cols[sj].keys())
            if not abs(ov) <= 1e-12:
                return "not orthogonal"
    if {d for col in cols.values() for d in col} != set(m.domain):
        return "domain and range differ"
    return None


def local_audit(columns, domain):
    """The verdict of LinearMap's own audit, as one of AUDIT_ERRORS or None."""
    try:
        LinearMap(columns, kind="unitary", domain=domain)
    except QStateError as exc:
        return next(e for e in AUDIT_ERRORS if e in str(exc))
    return None


def controlled_universe():
    """Every arm with both polarizations and both control bits, plus a sink."""
    return tuple(label(p, pol, b) for p in ("S", "A", "B", "C", "D", "SinkX")
                 for pol in ("H", "V") for b in ("0", "1"))


@pytest.mark.parametrize("el, touched", [
    (spr(0.3, "S"), "SH SV"),
    (pbs("S", "A", "D"), "SH SV AH DV"),
    (block("C", "SinkX", ("H", "V")), "CH CV SinkXH SinkXV"),
    (route("D", "H", "B"), "DH BH"),
], ids=["spr", "pbs", "block", "route"])
def test_element_maps_store_only_touched_labels_and_pass_the_dense_audit(el, touched):
    uni = controlled_universe()
    m = element_map(el, uni)
    assert m.domain == frozenset(uni)
    assert set(m.columns) == {label(t[:-1], t[-1], b) for t in touched.split() for b in "01"}
    assert dense_audit(m) is None
    assert local_audit(m.columns, m.domain) is None


def test_step_maps_store_only_touched_labels_and_pass_the_dense_audit():
    c = build_paradox_circuit(3, 3, block_channel=True, av_rounds=1)
    for els, m, adj in zip(c.steps, c.step_maps(), c.adjoint_step_maps()):
        assert {l.path for l in m.columns} <= {arm for el in els for arm in el.arms}
        assert list(m.columns) == sorted(m.columns, key=c.universe.index)
        for mm in (m, adj):
            assert mm.domain == frozenset(c.universe)
            assert dense_audit(mm) is None
            assert local_audit(mm.columns, mm.domain) is None


def test_blocked_step_maps_stay_small():
    c = build_paradox_circuit(10, 50, block_channel=True)
    assert len(c.universe) == 522
    assert max(len(m.columns) for m in c.step_maps()) <= 16


R = 1.0 / math.sqrt(2.0)
SH, SV, AH, FH = label("S", "H"), label("S", "V"), label("A", "H"), label("F", "H")
COS, SIN = math.cos(0.3), math.sin(0.3)


@pytest.mark.parametrize("columns, verdict", [
    ({SH: {SH: COS, SV: SIN, AH: 1e-11}, SV: {SH: -SIN, SV: COS}}, "not orthogonal"),
    ({SH: {SH: COS, SV: SIN, AH: 1e-13}, SV: {SH: -SIN, SV: COS}}, None),
    ({SH: {SH: R, FH: R}}, "domain and range differ"),
    ({SH: {AH: 1.0}, AH: {FH: 1.0}}, "domain and range differ"),
    ({SH: {SH: math.sqrt(1.0 + 1e-11)}}, "has norm^2"),
    # columns SH and SV share rows SH and SV: overlaps that cancel exactly, then a 1e-11 residue
    ({SH: {SH: COS, SV: SIN}, SV: {SH: -SIN, SV: COS}}, None),
    ({SH: {SH: COS, SV: SIN}, SV: {SH: -math.sin(0.3 + 1e-11), SV: math.cos(0.3 + 1e-11)}},
     "not orthogonal"),
    ({SH: {AH: 1.0}, AH: {SH: 1.0}, SV: {SV: -1.0}}, None),  # no two columns share a row
], ids=["leak-1e-11", "leak-1e-13", "lands-outside", "unreached-label", "norm-1e-11",
        "shared-rows-cancel", "shared-rows-residue-1e-11", "no-shared-row"])
def test_local_audit_matches_the_dense_audit(columns, verdict):
    dom = small_universe()
    assert dense_audit(LinearMap(columns, domain=dom)) == verdict
    assert local_audit(columns, dom) == verdict


def test_apply_passes_unstored_domain_labels_through():
    m = element_map(spr(0.3, "S"), small_universe())
    assert label("A", "V") not in m.columns and label("A", "V") in m.domain
    s = StateVector({label("A", "V"): 0.6 + 0.8j})
    assert apply(m, s) == s
    out = apply(m, StateVector({label("S", "H"): R, label("D", "V"): R * 1j}))
    assert out.amp(label("D", "V")) == R * 1j
    assert out.amp(label("S", "V")) == SIN * R


def test_apply_rejects_a_label_outside_an_element_maps_domain():
    m = element_map(spr(0.3, "S"), small_universe())
    with pytest.raises(LabelMismatchError):
        apply(m, StateVector({label("F", "H"): 1.0}))


# ------------------------------------------- one compile per distinct step

def _ordered(m):
    """Columns with their keys and entries in stored order."""
    return [(src, list(col.items())) for src, col in m.columns.items()]


def _audited_product(els, universe):
    """The step's element maps composed, then rebuilt and audited again in universe order."""
    product = element_map(els[0], universe)
    for el in els[1:]:
        product = compose(product, element_map(el, universe))
    return LinearMap({l: product.columns[l] for l in sorted(product.columns, key=universe.index)},
                     kind="unitary", name=product.name, domain=frozenset(universe))


@pytest.mark.parametrize("m, n, blocked, av", [(3, 7, False, 0), (4, 12, False, 1),
                                               (3, 3, True, 0)],
                         ids=["open-3-7", "av1-4-12", "blocked-3-3"])
def test_shared_compile_matches_an_independent_one(m, n, blocked, av):
    c = build_paradox_circuit(m, n, block_channel=blocked, av_rounds=av)
    maps, adjs = c.step_maps(), c.adjoint_step_maps()
    for els, shared, adj in zip(c.steps, maps, adjs):
        alone = step_map(els, c.universe)
        assert _ordered(shared) == _ordered(alone) == _ordered(_audited_product(els, c.universe))
        assert shared.domain == alone.domain and shared.name == alone.name
        assert _ordered(adj) == _ordered(alone.adjoint())
    distinct = {id(x): x for x in maps}
    assert len(distinct) == len(set(c.steps)) < len(c.steps)
    assert len({id(x) for x in adjs}) == len(distinct)
    for x in distinct.values():
        assert dense_audit(x) is None


def _exact(m):
    """Columns, entries (type and bits), domain, kind and name of a map, in stored order."""
    cols = [(src, [(dst, type(a), a.real.hex(), a.imag.hex()) for dst, a in col.items()])
            for src, col in m.columns.items()]
    return cols, m.domain, m.kind, m.name


@pytest.mark.parametrize("blocked, av", [(False, 0), (True, 0), (False, 1)],
                         ids=["open", "blocked", "av1"])
def test_products_equal_what_the_constructor_builds_from_their_columns(blocked, av):
    c = build_paradox_circuit(3, 7, block_channel=blocked, av_rounds=av)
    checked = [*c.adjoint_step_maps()]
    for els in dict.fromkeys(c.steps):
        product = element_map(els[0], c.universe)
        checked.append(product.adjoint())
        for el in els[1:]:
            product = compose(product, element_map(el, c.universe))
            checked += (product, product.adjoint())
    for m in checked:
        assert _exact(m) == _exact(LinearMap(m.columns, kind=m.kind, name=m.name,
                                             domain=m.domain))


SHAPES = [(False, 0), (True, 0), (False, 1), (True, 1), (False, 2), (True, 2)]


@pytest.mark.parametrize("m", range(1, 6))
def test_compiled_step_maps_equal_the_public_step_map(m):
    # one compile shares element maps and step maps across steps;
    # step_map compiles each step on its own.  N runs 1..12 and each
    # (M, N) takes one circuit shape in turn, so every M meets all six.
    for n in range(1, 13):
        blocked, av = SHAPES[(m + n) % len(SHAPES)]
        c = build_paradox_circuit(m, n, block_channel=blocked, av_rounds=av)
        maps, adjs = c.step_maps(), c.adjoint_step_maps()
        alone: dict = {}
        for els, shared, adj in zip(c.steps, maps, adjs):
            if els not in alone:
                ref = step_map(els, c.universe)
                alone[els] = (shared, _exact(ref), _exact(ref.adjoint()))
            first, want, want_adj = alone[els]
            assert shared is first
            assert _exact(shared) == want and _exact(adj) == want_adj
        assert len({id(x) for x in maps}) == len(alone)


@pytest.mark.parametrize("m", range(1, 6))
def test_compiled_step_maps_equal_a_left_fold_bit_for_bit(m):
    # the compile folds each step from the right;
    # _audited_product folds it from the left, with no sharing
    for n in range(1, 13):
        blocked, av = SHAPES[(m + n) % len(SHAPES)]
        c = build_paradox_circuit(m, n, block_channel=blocked, av_rounds=av)
        want: dict = {}
        for els, shared, adj in zip(c.steps, c.step_maps(), c.adjoint_step_maps()):
            if els not in want:
                ref = _audited_product(els, c.universe)
                want[els] = _exact(ref), _exact(ref.adjoint())
            assert (_exact(shared), _exact(adj)) == want[els]


def test_a_blocked_compile_makes_one_compose_per_new_blocked_inner_step(monkeypatch):
    made = []
    monkeypatch.setattr(optics, "compose", lambda a, b: made.append(a) or compose(a, b))
    c = build_paradox_circuit(4, 12, block_channel=True)
    c.step_maps()
    c.adjoint_step_maps()
    # the one compile behind the engines and the public maps: one each for
    # HWP1;PBS1 and HWP2;PBS2, three for the blocked inner steps, which differ
    # only in their fresh sinks, four for the outer merges and one for the exit.
    # Sharing suffix products made 9, compiling each step 64 (3 + 4 x 11 + 4 x 4
    # + 1), and folding each step from the left 151
    assert len(made) == 1 + 1 + 3 + 4 + 1 == 10
    made.clear()
    assert c._plan() is c._plan() and c.step_maps() is c.step_maps() and not made


# ------------------------------------------------------------ the engines' plan

def test_steps_share_a_map_only_where_renaming_keeps_the_column_order():
    # the two steps differ only in their fresh sink; a sink labelled before S
    # would sort first among its step's columns, the other after S
    rotation = spr(0.3, "S")
    steps = tuple((rotation, block("S", sink)) for sink in ("SinkX", "SinkY"))
    s = StateVector({label("S", "H"): 1.0})
    sx, sy = label("SinkX", "H"), label("SinkY", "H")
    for universe, shared in (((*small_universe(), sx, sy), True),
                             ((sx, *small_universe(), sy), False)):
        c = CircuitSchedule(stamps=("t0", "t1", "t2"), steps=steps, universe=universe,
                            pre_state=s)
        plan = c._plan()
        assert plan.fresh == {"SinkX", "SinkY"} and (plan.maps[0] is plan.maps[1]) == shared
        for els, m in zip(c.steps, c.step_maps()):
            assert _exact(m) == _exact(step_map(els, universe))


def test_a_replaced_schedule_compiles_its_own_maps():
    c = build_paradox_circuit(2, 2)
    c.step_maps()
    lone = CircuitSchedule(c.stamps, c.steps[:-1] + ((),), c.universe, c.pre_state,
                           c.post_projector, c.aliases, c.meta)
    assert lone.step_maps()[-1].columns == {} != c.step_maps()[-1].columns


def _renamed(m, pairs):
    """_exact(m) with each label a of the (a, b) pairs renamed b."""
    ren = dict(pairs)
    cols, domain, kind, name = _exact(m)
    return ([(ren.get(src, src), [(ren.get(dst, dst), *rest) for dst, *rest in col])
             for src, col in cols], domain, kind, name)


@pytest.mark.parametrize("m", range(1, 6))
def test_plan_maps_are_the_step_maps_up_to_their_fresh_sink_names(m):
    for n in range(1, 13):
        blocked, av = SHAPES[(m + n) % len(SHAPES)]
        c = build_paradox_circuit(m, n, block_channel=blocked, av_rounds=av)
        plan = c._plan()
        fed = {own.path for pairs in plan.feeds for _, own in pairs}
        assert fed == plan.fresh == {lbl.path for lbl in c.universe if is_sink(lbl.path)}
        for k, (full, adj) in enumerate(zip(c.step_maps(), c.adjoint_step_maps())):
            assert _renamed(plan.maps[k], plan.feeds[k]) == _exact(full)
            assert _renamed(plan.adjoints[k], plan.feeds[k]) == _exact(adj)


@pytest.mark.parametrize("blocked, av", SHAPES)
def test_the_engines_compile_at_most_six_step_maps(monkeypatch, blocked, av):
    # one map per step shape; one per distinct step made 14, 24 and 503 at
    # (10, 50) for the open, av_rounds 1 and blocked circuits
    made = []
    compile_step = optics._step_map
    monkeypatch.setattr(optics, "_step_map", lambda *a: made.append(a) or compile_step(*a))
    for m in (1, 2, 3, 10):
        for n in (1, 2, 3, 7, 50):
            made.clear()
            plan = build_paradox_circuit(m, n, block_channel=blocked, av_rounds=av)._plan()
            assert len(made) == len({id(x) for x in plan.maps}) <= 6


@pytest.mark.parametrize("blocked, av", SHAPES)
def test_live_states_are_the_full_states_without_their_fed_sinks(blocked, av):
    c = build_paradox_circuit(3, 5, block_channel=blocked, av_rounds=av)
    fresh = c._plan().fresh
    last = len(c.stamps) - 1
    post = StateVector({label("F", "H"): 0.6, label("F", "V"): 0.8j})
    mid = StateVector({label("D", "V"): 1.0})  # the inner carrier, from mid-circuit on
    for s, i0, i1 in ((c.pre_state, 0, last), (post, last, 0),
                      (mid, c.index_of("c2.t1"), c.index_of("c3.in3"))):
        step = 1 if i1 >= i0 else -1
        every = range(i0, i1 + step, step)  # every stamp, in stepping order
        full_end, full = evolve(c, s, i0, i1, keep=every)
        live_end, live = evolve(c, s, i0, i1, live=True, keep=every)
        assert list(live) == list(full) == list(every)
        assert live_end is live[i1] and full_end is full[i1] and live_end._fed
        for f, x in zip(full.values(), live.values()):
            fed = [v for k, v in f.items() if k.path in fresh]
            assert _hex(x) == _hex({k: v for k, v in f.items() if k.path not in fresh})
            assert x._fed == len(fed) and f._fed == 0 and f._fed_n2 == 0.0
            assert math.isclose(x._fed_n2, sum(abs(v) ** 2 for v in fed), rel_tol=1e-12)


@pytest.mark.parametrize("blocked, av", [(True, 0), (False, 2)])
def test_a_live_state_is_a_plain_state_of_its_items(blocked, av):
    c = build_paradox_circuit(3, 5, block_channel=blocked, av_rounds=av)
    last = len(c.stamps) - 1
    for x in evolve(c, c.pre_state, 0, last, live=True, keep=range(1, last + 1))[1].values():
        plain = StateVector(dict(x.items()))
        assert x == plain and plain == x and x != dict(x.items(), Z=1.0)
        assert list(x) == list(plain) and len(x) == len(plain)
        assert repr(x) == repr(plain) and x.norm2() == plain.norm2()
    assert x._fed and x._fed_n2 > 0.0 and not plain._fed and plain._fed_n2 == 0.0


def _bits(s):
    return [(k, repr(v)) for k, v in s.items()]


def _hex(s):
    return [(k, v.real.hex(), v.imag.hex()) for k, v in s.items()]


# parts that cancel exactly, sum to at most PRUNE_EPS, lie just beyond it, or are NaN
_PARTS = (st.sampled_from([1.0, -1.0, 0.5, -0.5, PRUNE_EPS, PRUNE_EPS / 10, -PRUNE_EPS / 10,
                           PRUNE_EPS * 1.0002, PRUNE_EPS * 1.001, math.nan])
          | st.floats(-2, 2))
_AMPS = st.builds(complex, _PARTS, _PARTS)
_LABELS = small_universe()


def _amplitudes(size):
    return st.dictionaries(st.sampled_from(_LABELS), _AMPS, max_size=size)


_S, _A = label("S", "H"), label("A", "H")


@settings(max_examples=300, deadline=None)
@given(cols=st.dictionaries(st.sampled_from(_LABELS), _amplitudes(3), max_size=6),
       amps=_amplitudes(6))
@example(cols={_S: {_A: 1.0}, label("S", "V"): {_A: -1.0}},
         amps={_S: 1.0, label("S", "V"): 1.0})  # a sum that cancels exactly
@example(cols={}, amps={_S: 1.0, _A: PRUNE_EPS / 10})  # a sum below PRUNE_EPS
@example(cols={}, amps={_S: 0.6, _A: complex(math.nan, 0.8)})
def test_checked_step_is_apply_then_prune_bit_for_bit(cols, amps):
    m = LinearMap(cols, kind="general", name="drawn", domain=_LABELS)
    s = StateVector(amps)
    c = CircuitSchedule(stamps=("t0", "t1"), steps=((),), universe=_LABELS, pre_state=s)
    want = apply(m, s).pruned()
    n2 = want.norm2()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optics, "ATOL_CONSERVE", 0.0)  # passes at the exact norm**2 only
        assert _hex(optics._checked_step(c, m, s, n2, 1)) == _hex(want)
        with pytest.raises(ConservationError):
            optics._checked_step(c, m, s, math.nextafter(n2, math.inf), 1)
    base = s.norm2()
    if abs(n2 - base) <= 1e-12:
        assert _hex(optics._checked_step(c, m, s, base, 1)) == _hex(want)
    else:
        with pytest.raises(ConservationError) as err:
            optics._checked_step(c, m, s, base, 1)
        assert str(err.value) == (f"probability drifted to {n2:.15f} at stamp t1 "
                                  f"(started at {base:.15f})")


def test_evolve_steps_exactly_like_apply_then_prune():
    c = build_paradox_circuit(3, 3, block_channel=True, av_rounds=1)
    last = len(c.stamps) - 1
    every = range(last + 1)
    fwd_end, fwd = evolve(c, c.pre_state, 0, last, keep=every)
    assert list(fwd) == list(every) and fwd_end is fwd[last]
    s, ref = c.pre_state, [c.pre_state]
    for m in c.step_maps():
        s = apply(m, s).pruned()
        assert abs(s.norm2() - 1.0) <= 1e-12
        ref.append(s)
    assert [_bits(x) for x in fwd.values()] == [_bits(x) for x in ref]
    post = StateVector({label("F", "H"): 0.6, label("F", "V"): 0.8j})
    bwd_end, bwd = evolve(c, post, last, 0, keep=every)
    assert list(bwd) == list(every)[::-1] and bwd_end is bwd[0]
    s, ref = post, [post]
    for m in reversed(c.adjoint_step_maps()):
        s = apply(m, s).pruned()
        assert abs(s.norm2() - 1.0) <= 1e-12
        ref.append(s)
    assert [_bits(x) for x in bwd.values()] == [_bits(x) for x in ref]


def test_evolve_rejects_a_label_outside_the_universe():
    c = build_paradox_circuit(2, 2)
    stray = StateVector({label("S", "H"): 0.6, label("Z", "V"): 0.8})
    last = len(c.stamps) - 1
    with pytest.raises(LabelMismatchError):
        evolve(c, stray, 0, last)
    with pytest.raises(LabelMismatchError):
        evolve(c, stray, last, 0)


# ------------------------------------------------- builder and shared elements

def _reference_build(M, N, block_channel, av_rounds):
    """Stamps, steps, universe, aliases and meta as the builder made them with a
    fresh element for every use."""
    theta_m, theta_n, total = math.pi / (2 * M), math.pi / (2 * N), (1 + av_rounds) * N
    universe = [label(arm, pol) for arm in ("S", "A", "B", "C", "D", "F") for pol in ("H", "V")]
    for m in range(1, M + 1):
        universe.append(label(f"SinkD3#{m}", "H"))
        universe += [label(f"SinkAV#{m}.{k}", "H") for k in range(1, av_rounds + 1)]
        if block_channel:
            universe += [label(f"SinkBlock#{m}.{j}", "H") for j in range(1, total + 1)]
    stamps, steps = ["t0"], []
    for m in range(1, M + 1):
        steps.append((spr(theta_m, "S", "HWP1"), pbs("S", "A", "D", "PBS1")))
        stamps.append(f"c{m}.t1")
        for j in range(1, total + 1):
            els = []
            if block_channel and j > 1:
                els.append(block("C", f"SinkBlock#{m}.{j - 1}", name="BobBlock"))
            if j > 1:
                els.append(pbs("D", "C", "B", "PBS2"))
            els.append(spr(theta_n, "D", "HWP2"))
            if j % N == 0 and j // N <= av_rounds:
                els.append(route("D", "H", f"SinkAV#{m}.{j // N}", name="EntranceBlock"))
                els.append(route("D", "V", "B", name="PBS2"))
            else:
                els.append(pbs("D", "C", "B", "PBS2"))
            steps.append(tuple(els))
            stamps.append(f"c{m}.in{j}")
        els = [block("C", f"SinkBlock#{m}.{total}", name="BobBlock")] if block_channel else []
        els += [pbs("D", "C", "B", "PBS2"), route("A", "H", "S", name="OuterMerge"),
                route("D", "V", "S", name="OuterMerge"),
                route("D", "H", f"SinkD3#{m}", name="D3Exhaust")]
        steps.append(tuple(els))
        stamps.append(f"c{m}.t4")
    steps.append((route("S", "H", "F", name="Exit"), route("S", "V", "F", name="Exit")))
    stamps.append("t_final")
    aliases = {}
    if M == 2 and N == 2:
        aliases = {"t1": "c1.t1", "t2": "c1.in1", "t3": "c1.in2", "t4": "c1.t4",
                   "t'0": "c1.t4", "t'1": "c2.t1", "t'2": "c2.in1", "t'3": "c2.in2",
                   "t'4": "c2.t4"}
    meta = {"kind": "nested-paradox", "M": M, "N": N, "block_channel": block_channel,
            "av_rounds": av_rounds}
    return tuple(stamps), tuple(steps), tuple(universe), aliases, meta


def test_builder_matches_a_fresh_element_builder():
    for m in range(1, 6):
        for n in range(1, 13):
            for blocked in (False, True):
                for av in range(3):
                    c = build_paradox_circuit(m, n, block_channel=blocked, av_rounds=av)
                    assert (c.stamps, c.steps, c.universe, c.aliases, c.meta) == \
                        _reference_build(m, n, blocked, av)


def test_equal_elements_hash_equal():
    a, b = pbs("D", "C", "B", "PBS2"), pbs("D", "C", "B", "PBS2")
    assert a is not b and a == b and hash(a) == hash(b)
    assert spr(0.0) == spr(-0.0) and hash(spr(0.0)) == hash(spr(-0.0))
    assert len({a, b, spr(0.1, "D", "HWP2"), block("C", "SinkBlock#1.1")}) == 3


@pytest.mark.parametrize("av", [0, 1])
def test_compile_hashes_no_element_for_a_run_of_inner_steps(av, monkeypatch):
    # the builder shares one tuple per plain inner step, so a longer run of
    # inner cycles adds no step lookup that hashes elements
    hashes = []
    element_hash = Element.__hash__
    monkeypatch.setattr(Element, "__hash__", lambda el: hashes.append(1) or element_hash(el))
    counts = []
    for n in (3, 40):
        c = build_paradox_circuit(3, n, av_rounds=av)
        hashes.clear()
        c.step_maps()
        counts.append(len(hashes))
        assert len(set(map(id, c.steps))) == len(set(c.steps))
    assert counts[0] == counts[1]
