"""The public record classes: NamedTuples that keep their field names and order,
their defaults and their immutability, compare and hash by value, and build a
new dict for each omitted dict field."""

import pickle

import numpy as np
import pytest

from zenoport.analysis import BoundaryPair, ChainKet, Family, FamilyEvaluation, History
from zenoport.counterport import BlochSample, CounterportResult, FidelityGrid
from zenoport.cqze import BobQubit, CnotOutcome, CqzeOutcome, ProtocolConfig
from zenoport.optics import Element, TrajectoryRecord, build_paradox_circuit
from zenoport.qstate import Projector, StateVector, label

_SV = StateVector({label("S", "H"): 1.0})
_PI = Projector(paths=frozenset({"F"}))
_HISTORY = History(names=("a",), events=(("t1", _PI),))
_FAMILY = Family(name="f", pre=("t0", _SV), post=("t_final", _PI), slots=())
_ZEROS = np.zeros((1, 1))

# class -> (its fields in declaration order, the keyword arguments that build
# one, {omitted field: its default})
RECORDS = {
    Projector: (("paths", "pols", "bobs"), {},
                {"paths": None, "pols": None, "bobs": None}),
    TrajectoryRecord: (("schedule", "states"),
                       {"schedule": build_paradox_circuit(1, 1), "states": {"t0": _SV}}, {}),
    BoundaryPair: (("pre", "post"), {"pre": ("t0", _SV), "post": ("t_final", _PI)}, {}),
    History: (("names", "events"), {"names": ("a",), "events": (("t1", _PI),)}, {}),
    Family: (("name", "pre", "post", "slots"),
             {"name": "f", "pre": ("t0", _SV), "post": ("t_final", _PI),
              "slots": (("t1", (("a", _PI),)),)}, {}),
    ChainKet: (("history", "state"), {"history": _HISTORY, "state": _SV}, {}),
    FamilyEvaluation: (("family", "kets", "offending_pair", "total"),
                       {"family": _FAMILY, "kets": (), "offending_pair": None, "total": 0.0}, {}),
    BlochSample: (("qubits", "scheme"),
                  {"qubits": (BobQubit(1.0, 0.0),), "scheme": "fibonacci"}, {}),
    FidelityGrid: (("m_values", "n_values", "avg_fidelity", "avg_success_prob", "meta"),
                   {"m_values": (1,), "n_values": (1,), "avg_fidelity": _ZEROS,
                    "avg_success_prob": _ZEROS}, {"meta": {}}),
    ProtocolConfig: (("M", "N", "eps_reflect", "eps_block", "av_rounds", "eps_block_per"),
                     {"M": 2, "N": 3},
                     {"eps_reflect": 0.0, "eps_block": 0.0, "av_rounds": 0,
                      "eps_block_per": "inner"}),
    BobQubit: (("alpha", "beta"), {"alpha": 0.6, "beta": 0.8j}, {}),
    Element: (("kind", "name", "arms", "params"),
              {"kind": "pbs", "name": "PBS", "arms": ("S", "A", "D")}, {"params": ()}),
    CqzeOutcome: (("joint", "p_success", "p_loss_DA", "p_loss_DB", "loss_breakdown"),
                  {"joint": _SV, "p_success": 0.9, "p_loss_DA": 0.1, "p_loss_DB": 0.0},
                  {"loss_breakdown": {}}),
    CnotOutcome: (("joint", "port1", "port2", "z_pending", "probs", "loss_breakdown"),
                  {"joint": _SV, "port1": _SV, "port2": _SV, "z_pending": False,
                   "probs": {"Port1": 1.0}, "loss_breakdown": {}}, {}),
    CounterportResult: (("port1", "port2", "p_port1", "p_port2", "p_lost", "loss_breakdown",
                         "fidelity", "fidelity_post_selected", "bob_purity", "round_trace"),
                        {"port1": _SV, "port2": _SV, "p_port1": 0.5, "p_port2": 0.5,
                         "p_lost": 0.0, "loss_breakdown": {}, "fidelity": 1.0,
                         "fidelity_post_selected": 1.0, "bob_purity": {}, "round_trace": {}},
                        {}),
}


def _hashable(values) -> bool:
    try:
        hash(tuple(values))
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    names, kwargs, defaults = RECORDS[cls]
    assert cls._fields == names
    assert set(kwargs) | set(defaults) == set(names)
    a, b = cls(**kwargs), cls(**kwargs)
    assert type(a) is cls and a is not b
    for name, value in defaults.items():
        assert getattr(a, name) == value, name
    for name, value in kwargs.items():
        assert getattr(a, name) is value or getattr(a, name) == value, name
    with pytest.raises(AttributeError):
        setattr(a, names[0], getattr(b, names[0]))
    with pytest.raises(AttributeError):
        a.extra = 1  # no instance __dict__
    assert a == b
    if _hashable(a):
        assert hash(a) == hash(b)
    else:  # a dict or array field, as before
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("cls, name", [(FidelityGrid, "meta"), (CqzeOutcome, "loss_breakdown")])
def test_an_omitted_dict_field_is_a_new_dict(cls, name):
    _, kwargs, _ = RECORDS[cls]
    a, b = getattr(cls(**kwargs), name), getattr(cls(**kwargs), name)
    assert a == b == {} and a is not b
    a["x"] = 1.0
    assert getattr(cls(**kwargs), name) == {}


@pytest.mark.parametrize("record", [ProtocolConfig(3, 4, 0.1, 1, 2, "outer"),
                                    BobQubit(0.6, 0.8j), BobQubit._unit(0.6 + 0j, 0.8j)],
                         ids=["config", "qubit", "unit-qubit"])
def test_pool_records_pickle_to_their_class(record):
    # a sweep sends its template and its qubits to pool workers by pickle
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record) and back == record
    assert [type(v) for v in back] == [type(v) for v in record]
