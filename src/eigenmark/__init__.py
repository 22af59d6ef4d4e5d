"""eigenmark: state-vector simulations of eigenstate marking.

A marking operator applies a phase to one unknown eigenstate of a unitary
and leaves the rest alone.  This package builds the three constructions
that approximate it on an ancilla workspace - plain phase estimation, a
majority-voting tensor of estimators, and the pi/3 fixed-point recursion -
measures their errors exactly from amplitudes, and keeps exact counts of
operator applications and ancilla qubits.
"""

from .statevec import (
    JointState,
    LinearOperator,
    SubspaceProjector,
    Tally,
    apply,
    compose,
    dense_materialize,
    from_matrix,
    identity,
    product_state,
    subspace_amplitude,
)
from .spectral import (
    MarkTarget,
    SpectralUnitary,
    build_shifted,
    circle_distance,
    ideal_marker,
    load_model,
    load_model_file,
    unitary_of,
    wrap_angle,
)
from .pea import (
    CalibrationResult,
    EtaReport,
    WorkspaceLayout,
    best_window,
    build_pea,
    calibrate_workspace,
    measure_eta,
    verification_model,
    window_response_mass,
)
from .fpqs import (
    RecursionSchedule,
    SchedulePrediction,
    SelectivePhaseSpec,
    build_fixed_point,
    pi3_balance,
    pi3_compress,
    predict_schedule,
    selective_phase,
)
from .voting import (
    VotingModel,
    build_h_tensor,
    hoeffding_amplitude_bound,
    majority_projector,
    majority_tail_amplitude,
)
from .marker import (
    MarkerAssembly,
    MarkerErrorReport,
    application_counters,
    assemble_marker,
    build_assembly,
    evaluate_marker,
)
from .complexity import (
    ComplexityCounters,
    PlanRequest,
    plan_recursion,
    tabulate,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
