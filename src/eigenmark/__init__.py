"""eigenmark: state-vector simulations of eigenstate marking.

A marking operator applies a phase to one unknown eigenstate of a unitary
and leaves the rest alone.  This package builds the three constructions
that approximate it on an ancilla workspace - plain phase estimation, a
majority-voting tensor of estimators, and the pi/3 fixed-point recursion -
measures their errors exactly from amplitudes, and keeps exact counts of
operator applications and ancilla qubits.
"""

from .statevec import (
    LinearOperator,
    SubspaceProjector,
    Tally,
    apply,
    compose,
    dense_materialize,
    from_matrix,
    identity,
)
from .spectral import (
    MarkTarget,
    SpectralUnitary,
    build_shifted,
    circle_distance,
    haar_unitary,
    ideal_marker,
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
    estimation_factors,
    measure_eta,
    verification_model,
    walsh_hadamard,
    window_response_mass,
)
from .fpqs import (
    RecursionSchedule,
    SchedulePrediction,
    build_fixed_point,
    pi3_balance,
    pi3_compress,
    predict_schedule,
    selective_phase,
)
from .voting import (
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
    measured_cell,
)
from .complexity import (
    ComplexityCounters,
    plan_recursion,
    tabulate,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
