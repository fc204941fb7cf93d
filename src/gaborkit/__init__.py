"""gaborkit: frame diagnostics for time-frequency shift systems on Z_L.

The toolkit realizes the operator calculus of Gabor analysis on the cyclic
group Z_L: unitary time-frequency shifts, separable lattices with exact
adjoints, the analysis/synthesis/frame/Gramian operators, the twisted
convolution algebra with its shift-series representation, a fourteen-way
frame-equivalence consistency harness, canonical dual windows, and a
gallery of constructive counterexamples.
"""

from types import ModuleType as _ModuleType

from ._version import __version__
from .errors import (
    ConfigError,
    CutoffError,
    GaborkitError,
    LatticeError,
    MemoryGuardError,
    NonCommutativeLatticeError,
    NotAFrameError,
    PartitionOfUnityError,
    ShapeMismatchError,
    SingularAlgebraError,
)
from .lattice import (
    FiniteModel,
    LatticeCoefficients,
    PhasePoint,
    SeparableLattice,
    TwistedSequence,
    adjoint_lattice,
    compose_shifts,
    shift_matrix,
    shifts_commute,
    tf_shift,
)
from .operators import (
    SystemSpectra,
    Window,
    analysis_matrix,
    atom_stack,
    coefficient_map,
    frame_operator_apply,
    frame_operator_matrix,
    gramian_matrix,
    operator_norms,
    shift_autocorrelation,
    synthesis_map,
    synthesis_matrix,
)
from .twisted import (
    algebra_adjoint,
    index_commutative,
    janssen_coefficients,
    kernel_basis,
    represent,
    right_multiplier_matrix,
    twisted_convolve,
    twisted_invert,
)
from .diagnostics import (
    BoundsReport,
    DualityRecord,
    EquivalenceVerdict,
    check_all_conditions,
    cross_gramian,
    cross_gramian_row_sum_gap,
    duality_check,
    frame_bounds,
    modulation_norm_proxy,
    reconstruction_residual,
    stft_grid,
    wexler_raz_dual,
    wexler_raz_residual,
)
from .gallery import (
    AlternatingProbeResult,
    WindowRecipe,
    gaussian_alternating_kernel_probe,
    load_window,
    make_window,
    partition_of_unity_deviation,
    partition_of_unity_kernel,
    periodized_gaussian,
    random_window,
    save_window,
)
from .reporting import AnalysisConfig, DiagnosticsReport, divisor_pairs, run, sweep
from .tolerances import DEFAULT_TOL_SCALE, margin_cutoff, rank_tolerance

# Importing a submodule binds its name here too; those are not exports.
__all__ = sorted(
    name for name, value in vars().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
