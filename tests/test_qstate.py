"""Unit tests for labels, states, projectors and linear maps."""

import math

import pytest
from hypothesis import given, strategies as st

from zenoport.qstate import (
    BasisLabel,
    ConservationError,
    LabelMismatchError,
    LinearMap,
    NormalizationError,
    QStateError,
    StateVector,
    apply,
    compose,
    inner,
    is_sink,
    label,
    project,
    projector,
    projector_from_spec,
    projector_to_spec,
)


@pytest.mark.parametrize("make, message", [
    (lambda pol: label("S", pol), "unknown polarization '{}'"),
    (lambda pol: projector(pols=("H", pol)), "unknown polarization '{}'"),
    (lambda pol: projector_from_spec(f'{{"pols": ["{pol}"]}}'),
     'malformed projector spec \'{{"pols": ["{}"]}}\''),
], ids=["label", "projector", "projector-spec"])
def test_label_refuses_circular_polarizations(make, message):
    # R and L name circular polarizations, not H and V
    for pol in ("R", "L"):
        with pytest.raises(QStateError) as info:
            make(pol)
        assert str(info.value) == message.format(pol)


def test_label_builds_each_part():
    assert label("S", "V") == BasisLabel("S", "V", "-")
    assert label("F", "H", 0) == BasisLabel("F", "H", "0")
    assert label("F", "H", 1).bob == "1"
    assert label("F").bob == "-"


def test_label_rejects_unknown_parts():
    with pytest.raises(QStateError):
        label("S", "X")
    with pytest.raises(QStateError):
        label("S", "H", "2")


@pytest.mark.parametrize("make", [
    lambda: projector(pols="X"),
    lambda: label("S", "X"),
], ids=["projector", "label"])
def test_unknown_polarization_is_a_qstate_error_everywhere(make):
    with pytest.raises(QStateError, match="unknown polarization 'X'"):
        make()


@pytest.mark.parametrize("make, shown", [
    (lambda: label("S", ["H"]), "['H']"),
    (lambda: projector(pols=[["H"]]), "['H']"),
    (lambda: label("S", {"H": 1}), "{'H': 1}"),
], ids=["label", "projector", "label-dict"])
def test_unhashable_polarization_is_a_qstate_error(make, shown):
    with pytest.raises(QStateError) as info:
        make()
    assert str(info.value) == f"unknown polarization {shown}"


def test_is_sink():
    assert is_sink("SinkD3#1")
    assert not is_sink("S")


def test_statevector_drops_zero_amplitudes():
    s = StateVector({label("S"): 1.0, label("A"): 0.0})
    assert len(s) == 1
    assert s.amp(label("A")) == 0


def test_statevector_views_hold_the_stored_amplitudes():
    s = StateVector({label("S"): 0.6, label("A"): 0.0, label("B", "V"): 0.8j})
    assert list(s.items()) == [(label("S"), 0.6), (label("B", "V"), 0.8j)]
    assert list(s.values()) == [0.6, 0.8j]
    assert list(s.keys()) == [label("S"), label("B", "V")]
    assert inner(s, StateVector({label("B", "V"): 1j, label("C"): 1.0})) == 0.8


def test_statevector_arithmetic_and_norm():
    a = StateVector({label("S"): 0.6})
    b = StateVector({label("A"): 0.8})
    s = a + b
    assert s.norm2() == pytest.approx(1.0, abs=1e-15)
    assert (s + a * -1).norm() == pytest.approx(0.8, abs=1e-15)
    scaled = s * 0.5
    assert scaled.amp(label("S")) == pytest.approx(0.3)


def test_statevector_normalized_and_pruned():
    s = StateVector({label("S"): 2.0, label("A"): 1e-20})
    n = s.normalized()
    assert n.norm() == pytest.approx(1.0, abs=1e-15)
    assert label("A") not in s.pruned()
    with pytest.raises(NormalizationError):
        StateVector().normalized()


def test_statevector_restricted():
    s = StateVector({label("S", "H"): 0.5, label("S", "V"): 0.5,
                     label("A", "H", 1): 0.5, label("F", "V", 0): 0.5})
    assert set(project(projector(paths=("S",)), s)[0]) == {label("S", "H"), label("S", "V")}
    kept, p = project(projector(pols=("V",), bobs=("0",)), s)
    assert set(kept) == {label("F", "V", 0)} and p == 0.25


def test_projector_matching_and_project():
    s = StateVector({label("S", "H"): 0.6, label("A", "V"): 0.8})
    kept, p = project(projector(paths="S"), s)
    assert p == pytest.approx(0.36, abs=1e-15)
    assert set(kept) == {label("S", "H")}
    kept_all, p_all = project(projector(), s)
    assert p_all == pytest.approx(1.0, abs=1e-15)
    assert len(kept_all) == 2


def test_projector_spec_keeps_any_value_apart_from_no_value():
    anything = projector(paths="F")
    nothing = projector(paths="F", pols=())
    assert projector_to_spec(anything) == '{"bobs": null, "paths": ["F"], "pols": null}'
    assert projector_to_spec(nothing) == '{"bobs": null, "paths": ["F"], "pols": []}'
    for pi in (anything, nothing, projector(paths=("A", "B"), pols="V", bobs=(0, 1))):
        assert projector_from_spec(projector_to_spec(pi)) == pi
    assert not projector_from_spec(projector_to_spec(nothing)).matches(label("F", "H"))


@pytest.mark.parametrize("text", [
    '{"pols": ["X"]}', "paths=F", '["F"]', '{"path": ["F"]}', '{"paths": "F"}',
    '{"paths": [1]}', "",
])
def test_projector_spec_rejects_malformed_text(text):
    with pytest.raises(QStateError, match="malformed projector spec"):
        projector_from_spec(text)


def test_inner_is_conjugate_linear_in_first_argument():
    a = StateVector({label("S"): 1j})
    b = StateVector({label("S"): 2.0})
    assert inner(a, b) == pytest.approx(-2j)
    assert inner(b, a) == pytest.approx(2j)


def test_inner_iterates_the_state_smaller_by_full_size():
    # the sum's order decides its bits: over a's order 1e16 + 1 rounds to 1e16
    x, y, z = label("A"), label("B"), label("C")
    a = StateVector({x: 1.0, y: 1.0, z: 1.0})
    b = StateVector({x: 1e16, z: -1e16, y: 1.0})
    assert inner(a, b) == 0.0 and inner(b, a) == 1.0
    # a state's fed sinks (moved out by a live evolution) count toward its size
    assert inner(a, StateVector._wrap(dict(b.items()), 2, 0.5)) == 0.0
    assert inner(StateVector._wrap(dict(a.items()), 2, 0.5), b) == 1.0


def test_linear_map_requires_isometric_columns():
    with pytest.raises(QStateError):
        LinearMap({label("S"): {label("S"): 0.5}}, kind="unitary")
    with pytest.raises(QStateError, match="nan"):
        LinearMap({label("S"): {label("S"): math.nan}}, kind="unitary")
    r = 1.0 / math.sqrt(2.0)
    with pytest.raises(QStateError, match="not orthogonal"):
        LinearMap({label("S"): {label("S"): r, label("A"): r},
                   label("A"): {label("S"): r, label("A"): r}}, kind="unitary")


SH, SV, AH, FH = label("S", "H"), label("S", "V"), label("A", "H"), label("F", "H")
AUDIT_DOMAIN = (SH, SV, AH)
R2 = 1.0 / math.sqrt(2.0)


# one broken map per audit check, each passing every other check, and the
# exact message it raises; a check that is skipped lets its map construct
@pytest.mark.parametrize("columns, name, message", [
    ({SH: {SH: 0.5}}, "bad", "map bad: column |S,H> has norm^2 0.25"),
    ({SH: {SH: 1.0}, SV: {}}, "", "map unitary: column |S,V> has norm^2 0"),
    # the columns of spr(nan), a rotation by a NaN angle
    ({SH: {SH: math.nan, SV: math.nan}, SV: {SH: math.nan, SV: math.nan}}, "SPR",
     "map SPR: column |S,H> has norm^2 nan"),
    # columns |S,H> and |S,V> share both rows and overlap by 1
    ({SH: {SH: R2, SV: R2}, SV: {SH: R2, SV: R2}}, "bad",
     "map bad: columns |S,H>,|S,V> not orthogonal"),
    # |S,H> leaks into row |A,H>, whose column is the implied identity
    ({SH: {SH: math.cos(0.3), AH: math.sin(0.3)}}, "bad",
     "map bad: columns |S,H>,|A,H> not orthogonal"),
    ({SH: {AH: 1.0}, AH: {FH: 1.0}}, "bad", "map bad: domain and range differ"),
    # every column's norm is checked before any overlap
    ({SH: {SH: R2, SV: R2}, SV: {SH: R2, SV: R2}, AH: {AH: 0.5}}, "bad",
     "map bad: column |A,H> has norm^2 0.25"),
], ids=["norm", "empty-column", "nan-angle", "shared-row-overlap", "implied-identity-row",
        "range-outside-domain", "norms-before-overlaps"])
def test_unitarity_audit_messages(columns, name, message):
    with pytest.raises(QStateError) as info:
        LinearMap(columns, kind="unitary", name=name, domain=AUDIT_DOMAIN)
    assert str(info.value) == message
    stored = {src: {dst: complex(a) for dst, a in col.items()} for src, col in columns.items()}
    with pytest.raises(QStateError) as info:
        LinearMap._trusted(stored, "unitary", name, frozenset(AUDIT_DOMAIN))
    assert str(info.value) == message


def test_linear_map_drops_zero_entries_before_checking_their_keys():
    m = LinearMap({SH: {SH: 1.0, "not a label": 0.0, SV: 0j}}, kind="unitary")
    assert m.columns == {SH: {SH: 1 + 0j}} and type(m.columns[SH][SH]) is complex


@pytest.mark.parametrize("kind", ["unitary", "general"])
def test_linear_map_rejects_keys_that_are_not_labels(kind):
    with pytest.raises(QStateError, match="BasisLabel"):
        LinearMap({("S", "H", "-"): {label("S"): 1.0}}, kind=kind)
    with pytest.raises(QStateError, match="BasisLabel"):
        LinearMap({label("S"): {"S": 1.0}}, kind=kind)


def test_linear_map_apply_and_domain():
    m = LinearMap({label("S"): {label("A"): 1.0}, label("A"): {label("S"): 1.0}},
                  kind="unitary")
    out = apply(m, StateVector({label("S"): 1.0}))
    assert out.amp(label("A")) == 1.0
    with pytest.raises(LabelMismatchError):
        apply(m, StateVector({label("F"): 1.0}))


def test_adjoint_inverts_unitary():
    c, s = math.cos(0.3), math.sin(0.3)
    m = LinearMap({label("S", "H"): {label("S", "H"): c, label("S", "V"): s},
                   label("S", "V"): {label("S", "H"): -s, label("S", "V"): c}},
                  kind="unitary")
    both = compose(m, m.adjoint())
    v = StateVector({label("S", "H"): 0.6, label("S", "V"): 0.8j})
    assert (apply(both, v) + v * -1).norm() < 1e-12


def test_compose_order():
    to_a = LinearMap({label("S"): {label("A"): 1.0}, label("A"): {label("S"): 1.0},
                      label("B"): {label("B"): 1.0}}, kind="unitary")
    to_b = LinearMap({label("A"): {label("B"): 1.0}, label("B"): {label("A"): 1.0},
                      label("S"): {label("S"): 1.0}}, kind="unitary")
    m = compose(to_a, to_b)  # first to_a, then to_b
    assert apply(m, StateVector({label("S"): 1.0})).amp(label("B")) == 1.0


def test_compose_stores_no_entry_whose_sum_cancels_exactly():
    h, v, r = label("S", "H"), label("S", "V"), 1.0 / math.sqrt(2.0)
    had = LinearMap({h: {h: r, v: r}, v: {h: r, v: -r}}, kind="unitary")
    twice = compose(had, had)  # the off-diagonal sums r*r - r*r are exactly zero
    assert {src: list(col) for src, col in twice.columns.items()} == {h: [h], v: [v]}


def test_a_trusted_unitary_product_is_still_audited():
    a, b = label("S", "H"), label("S", "V")
    with pytest.raises(QStateError, match="norm"):
        LinearMap._trusted({a: {a: 2 + 0j}}, "unitary", "bad", frozenset({a}))
    with pytest.raises(QStateError, match="not orthogonal"):
        LinearMap._trusted({a: {a: 1 + 0j}, b: {a: 1 + 0j}}, "unitary", "bad", frozenset({a, b}))


def test_compose_rejects_a_range_outside_the_second_domain():
    swap = LinearMap({label("S"): {label("A"): 1.0}, label("A"): {label("S"): 1.0}},
                     kind="unitary", domain=(label("S"), label("A"), label("B")))
    only_s_a = LinearMap({}, kind="unitary", domain=(label("S"), label("A")))
    with pytest.raises(LabelMismatchError, match="composition gap"):
        compose(swap, only_s_a)  # B is passed through by swap but unknown to the second map
    leaky = LinearMap({label("S"): {label("F"): 1.0}}, kind="general")
    with pytest.raises(LabelMismatchError, match="composition gap"):
        compose(leaky, swap)  # F is reached by a stored column
    assert apply(compose(only_s_a, swap), StateVector({label("S"): 1.0})).amp(label("A")) == 1.0


def test_local_maps_compose_and_invert_on_their_domain():
    c, s = math.cos(0.3), math.sin(0.3)
    dom = (label("S", "H"), label("S", "V"), label("A", "H"), label("A", "V"))
    rot = LinearMap({label("S", "H"): {label("S", "H"): c, label("S", "V"): s},
                     label("S", "V"): {label("S", "H"): -s, label("S", "V"): c}},
                    kind="unitary", domain=dom)
    swap = LinearMap({label("S", "V"): {label("A", "V"): 1.0},
                      label("A", "V"): {label("S", "V"): 1.0}}, kind="unitary", domain=dom)
    both = compose(rot, swap)
    assert both.domain == frozenset(dom) and rot.adjoint().domain == frozenset(dom)
    assert set(both.columns) == {label("S", "H"), label("S", "V"), label("A", "V")}
    v = StateVector({label("S", "H"): 0.6, label("A", "H"): 0.8j})
    out = apply(both, v)
    assert out.amp(label("A", "V")) == pytest.approx(0.6 * s)
    assert out.amp(label("A", "H")) == 0.8j
    assert (apply(both.adjoint(), out) + v * -1).norm() < 1e-12


def test_adjoint_keeps_the_identity_of_a_label_a_tolerated_leak_reaches():
    c, s = math.cos(0.3), math.sin(0.3)
    dom = (label("S", "H"), label("S", "V"), label("A", "H"))
    m = LinearMap({label("S", "H"): {label("S", "H"): c, label("S", "V"): s, label("A", "H"): 1e-13},
                   label("S", "V"): {label("S", "H"): -s, label("S", "V"): c}},
                  kind="unitary", domain=dom)
    adj = m.adjoint()
    identity = adj.columns[label("A", "H")][label("A", "H")]
    assert identity == 1.0 and type(identity) is complex  # as LinearMap(...) would store it
    v = StateVector({label("S", "H"): 0.6, label("A", "H"): 0.8})
    assert (apply(compose(m, adj), v) + v * -1).norm() < 1e-12


def test_adjoint_of_a_general_map_has_a_zero_row_where_nothing_lands():
    m = LinearMap({label("S"): {label("A"): 0.5}}, domain=(label("S"), label("A")))
    adj = m.adjoint()
    assert apply(adj, StateVector({label("S"): 1.0})) == StateVector()
    assert apply(adj, StateVector({label("A"): 1.0})).amp(label("S")) == 0.5


def test_conservation_error_is_qstate_error():
    assert issubclass(ConservationError, QStateError)
    assert issubclass(NormalizationError, QStateError)


@given(st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False))
def test_rotation_maps_preserve_norm(theta):
    """Any polarization rotation is unitary, so norms survive exactly."""
    c, s = math.cos(theta), math.sin(theta)
    m = LinearMap({label("S", "H"): {label("S", "H"): c, label("S", "V"): s},
                   label("S", "V"): {label("S", "H"): -s, label("S", "V"): c}},
                  kind="unitary")
    v = StateVector({label("S", "H"): 0.6, label("S", "V"): 0.8j})
    assert abs(apply(m, v).norm2() - v.norm2()) < 1e-12
