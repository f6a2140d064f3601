"""Graph representations of sampled spheres and their rotation-equivariance diagnostics."""

from .errors import (
    IllPosedAnalysisError,
    InvalidArgumentError,
    NumericalFailureError,
    SingularWeightError,
    SphereGraphError,
    UndefinedNormalizationError,
)
from .samplings import (
    Sampling,
    SamplingGeometry,
    equiangular_sampling,
    healpix_sampling,
    icosahedral_sampling,
    random_uniform_sampling,
    reliable_band,
    rotation_permutation,
    sampling_geometry,
    z_rotation_matrix,
)
from .graphs import (
    GaussianGraphFamily,
    Graph,
    WeightScheme,
    build_graph,
    heuristic_kernel_width,
    knn_edges,
    laplacian,
    largest_eigenvalue,
)
from .harmonics import (
    AnalysisPlan,
    HarmonicCoeffs,
    Rotation,
    RotationOperator,
    analysis,
    coeff_index,
    degree_slice,
    equiangular_quadrature_weights,
    evaluate_basis,
    power_spectrum,
    quadrature_energy,
    random_degree_signal,
    random_rotation,
    rotate_coeffs,
    synthesis,
    wigner_D_matrix,
    wigner_d_matrix,
)
from .filters import (
    FilterCoeffs,
    chebyshev_from_monomial,
    filter_apply,
    monomial_from_chebyshev,
    pool,
    unpool,
)
from .equivariance import (
    EquivarianceConfig,
    MeanError,
    SweepEngine,
    SweepRow,
    equivariance_error,
    equivariance_sweep,
    extended_equivariance_check,
    extended_laplacian_apply,
    fit_power_law,
    mean_equivariance_error,
    optimize_kernel_width,
)

__version__ = "0.1.0"
