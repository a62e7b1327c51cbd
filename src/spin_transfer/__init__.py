"""Exact simulator of entanglement transfer between spin pairs coupled by
pairwise isotropic exchange.

The lower layers stay importable from their own modules: ``kron`` and
``propagator`` from ``spin_transfer.qla``; ``TransferModel``,
``full_evolution``, ``pair_propagator``, ``closed_form_propagator``,
``heisenberg_pair`` and ``spin_operators`` from ``spin_transfer.model``;
``initial_full_state`` and ``evolve_and_reduce`` (the target|source cut)
from ``spin_transfer.transfer``.
"""

from .entanglement import (
    NegativityValue,
    XStateCoeffs,
    negativity,
    negativity_xstate,
    schmidt_angle_from_negativity,
)
from .protocol import MODE_MIXED, MODE_PURE_RESET, IterationRecord, iterate_transfer
from .qla import Operator
from .qutritmax import (
    FIG3_THETA_GRID,
    InvariantPoint,
    LowerBoundary,
    MaximizationResult,
    SearchBudget,
    extract_lower_boundary,
    fit_I1_of_theta,
    frontier_line,
    invariants,
    maximize_E12_half_period,
    negativity_at_half_period,
    sample_physical_region,
)
from .transfer import (
    QUBIT_SOURCE_PERIOD,
    QUTRIT_HALF_PERIOD,
    QUTRIT_SOURCE_PERIOD,
    STATE_A,
    STATE_B,
    STATE_C,
    QubitPairState,
    QutritPairState,
    TransferTrace,
    closed_form_rho12_qubit,
    closed_form_rho12_qutrit,
    entanglement_curve,
    evolve_reduced,
    qutrit_closed_form_discrepancy,
)

__all__ = [
    "FIG3_THETA_GRID",
    "InvariantPoint",
    "IterationRecord",
    "LowerBoundary",
    "MaximizationResult",
    "MODE_MIXED",
    "MODE_PURE_RESET",
    "NegativityValue",
    "Operator",
    "QUBIT_SOURCE_PERIOD",
    "QUTRIT_HALF_PERIOD",
    "QUTRIT_SOURCE_PERIOD",
    "QubitPairState",
    "QutritPairState",
    "STATE_A",
    "STATE_B",
    "STATE_C",
    "SearchBudget",
    "TransferTrace",
    "XStateCoeffs",
    "closed_form_rho12_qubit",
    "closed_form_rho12_qutrit",
    "entanglement_curve",
    "evolve_reduced",
    "extract_lower_boundary",
    "fit_I1_of_theta",
    "frontier_line",
    "invariants",
    "iterate_transfer",
    "maximize_E12_half_period",
    "negativity",
    "negativity_at_half_period",
    "negativity_xstate",
    "qutrit_closed_form_discrepancy",
    "sample_physical_region",
    "schmidt_angle_from_negativity",
    "__version__",
]

__version__ = "0.1.0"
