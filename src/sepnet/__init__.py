"""Separable approximations of density matrices via neural decompositions."""

from .linalg import (
    DensityMatrix,
    hermitianize,
    hs_distance,
    min_eigenvalue,
    partial_transpose,
    purity,
    trace_distance,
)
from .model import (
    DecompositionModel,
    SeparabilityStructure,
    assemble,
    biseparable,
    fixed_partition,
    full_separability,
    init_model,
    output_width,
    load_checkpoint,
    parse_structure,
    save_checkpoint,
    size_constrained_biseparable,
    triseparable,
)
from .optim import (
    GdConfig,
    GdResult,
    TrainConfig,
    TrainResult,
    TrainingDivergedError,
    derived_seed,
    distance,
    naive_gd,
    train,
)
from .certify import (
    AnsatzResult,
    CertificateResult,
    PptProjection,
    ThresholdEstimate,
    certify_grid,
    certify_lower_bound,
    certify_state,
    closest_ppt_hs,
    css_ansatz_two_qubit,
    estimate_threshold,
    is_npt,
    ppt_min_eigenvalue,
    purity_ball_bound,
)
from .scan import ScanPoint, scan_family
from .states import (
    FamilySpec,
    bell_ansatz_state,
    flip_operator,
    ghz,
    horodecki_3x3,
    isotropic,
    max_entangled,
    noisy_mix,
    random_density_matrix,
    random_two_qubit,
    reference_distance,
    w_state,
    werner,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
