"""matmean: matrix-mean majorization checks with exact certificates.

Computes Kubo-Ando and spectral geometric means, quadratic Heron and
Bures-Wasserstein expressions, checks the weak-majorization comparisons
between them on random and fixed instances, and certifies the two
incomparability counterexamples in exact rational arithmetic.
"""

from .errors import (
    InvalidWeightsError,
    MatrixFormatError,
    NotPositiveDefiniteError,
    NumericalFailure,
)
from .linalg import (
    HermitianMatrix,
    PDMatrix,
    SpectralDecomposition,
    congruence,
    eig_hermitian,
    inverse,
    pd_power,
    positive_part,
    principal_sqrt,
    random_hermitian,
    random_pd,
)
from .majorization import (
    MajorizationVerdict,
    SpectrumVector,
    ky_fan_sums,
    ky_fan_threshold,
    log_majorization,
    majorization,
    spectrum,
    weak_majorization,
)
from .means import (
    MeanWeights,
    Pair,
    bw_geodesic,
    geometric_mean,
    geometric_mean_weighted,
    heron_kubo,
    heron_spectral,
    product_sqrt_pair,
    riccati_mean,
    spectral_mean,
    spectral_mean_weighted,
    wasserstein_expression,
)
from .schur import (
    MultiplierBundle,
    correlation_decomposition,
    gamma_multiplier,
    kubo_change_of_vars,
    pinching_map,
    schur_product,
    spectral_change_of_vars,
)
from .exact import (
    CertificateReport,
    RationalMatrix,
    certify_all,
    certify_direction_one,
    certify_direction_two,
    float_shadow,
    leading_principal_minors,
    rat_inverse,
    rat_matmul,
    sylvester_pd,
)
from .report import CheckReport
from .suite import RunReport, SuiteConfig, run_suite

__version__ = "0.1.0"
