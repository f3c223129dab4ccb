"""State-vector simulator and analysis toolkit for exchange-free qubit transport.

The package models nested interferometer cycles whose repeated small
rotations and projections discriminate a remote reflect/block choice,
composes them into a two-round protocol that transports an unknown
polarization qubit, and offers two engines (two-state-vector weak values
and consistent-histories chain kets) for asking where the carrier photon
actually was.
"""

from .qstate import (
    NO_BOB,
    POLS,
    BasisLabel,
    ConservationError,
    LabelMismatchError,
    LinearMap,
    NormalizationError,
    Projector,
    QStateError,
    StateVector,
    apply,
    compose,
    inner,
    is_sink,
    label,
    project,
    projector,
)
from .optics import (
    CircuitSchedule,
    Element,
    TrajectoryRecord,
    block,
    build_paradox_circuit,
    element_map,
    pbs,
    route,
    run_schedule,
    spr,
    step_map,
)
from .cqze import (
    BobQubit,
    CnotOutcome,
    CqzeOutcome,
    ProtocolConfig,
    counterfactual_cnot,
    run_cqze,
)
from .counterport import (
    BlochSample,
    CounterportResult,
    FidelityGrid,
    counterport,
    sample_bloch,
    sweep,
)
from .analysis import (
    BoundaryPair,
    ChainKet,
    Family,
    FamilyEvaluation,
    History,
    InconsistentFamilyError,
    OrthogonalBoundariesError,
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

__version__ = "0.1.0"
