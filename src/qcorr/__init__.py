"""Quantum correlation measures for qudit-qubit states and XY spin chains.

The package computes quantum discord, generalized measurement-conditional
entropies and generalized information deficits, including closed-form
solutions for the quadratic entropy, and studies their behavior on spin
pairs in exact ground states of finite XY chains in transverse and tilted
magnetic fields.
"""

from . import errors
from .deficit import (
    DeficitMatrix,
    deficit,
    deficit_matrix,
    quadratic_deficit_closed,
    renyi_deficit,
    stationarity_residual,
)
from .discord import (
    CorrelationEllipsoid,
    OptimizationResult,
    SearchConfig,
    conditional_entropy_min,
    discord,
    ellipsoid,
    quadratic_closed_form,
)
from .entropy import (
    QUADRATIC,
    VON_NEUMANN,
    EntropyFunctional,
    PairEntanglement,
    binary_entropy,
    concurrence,
    entanglement_of_formation,
    entropy,
    f_prime_matrix,
    renyi,
    spectrum_entropy,
    tsallis,
)
from .measurement import (
    ConditionalEnsemble,
    MeasurementDirection,
    QubitPOVM,
    condition_on_measurement,
    conditional_entropy,
    projective_povm,
    projector,
    unread_state,
)
from .spinchain import (
    FactorizationData,
    GroundState,
    PairObservables,
    SpinChainSpec,
    afm_map,
    build_hamiltonian,
    canted_qubit,
    concurrence_side_limits,
    factorizing_field,
    ground_state,
    parity_crossings,
    parity_sector_energies,
    parity_sectors,
    reduced_pair,
    rho_theta,
)
from .statekit import (
    PAULI,
    BipartiteLayout,
    BlochDecomposition,
    DensityMatrix,
    OperatorBasis,
    bloch_decompose,
    from_json,
    gellmann_basis,
    make_density,
    partial_trace,
    purity,
    reconstruct,
    tensor,
    to_json,
)
from .sweep import (
    ALL_MEASURES,
    MeasureCell,
    SweepConfig,
    SweepRow,
    load_config,
    measure_state,
    pair_observables,
    parse_config,
    render_csv,
    report_limits,
    run_sweep,
)

__version__ = "0.1.0"
