"""Stein-Malliavin distance bounds on Wiener chaos over finite Gaussian models.

Subpackages:

- tensors: symmetric kernels, Gram metrics, contractions.
- chaos: multiple integrals, exact Wick moments, Malliavin identities.
- bounds: closed-form Gaussian/Gamma approximation bounds.
- breuer_major: exact Berry-Esseen bound terms for Hermite sums of fBm
  increments and the rate regimes.
- pearson: quadratic-tau densities, Stein equations and solution bounds.
- simulate: reproducible Monte Carlo and empirical distances.
- cli: the experiment driver.
"""

__version__ = "0.1.0"

from .tensors import (  # noqa: F401
    GramSpace,
    SymKernel,
    contract,
    gram_inner,
    symmetrize,
    tensor_power,
)
from .chaos import (  # noqa: F401
    ChaosVector,
    exact_moment,
    hermite,
    malliavin_inner,
    multiply,
    ou_semigroup,
)
from .bounds import (  # noqa: F401
    BoundReport,
    chi2_double_bound,
    gamma_bound_single,
    gamma_bound_sum,
    gauss_bound_single,
    gauss_bound_sum,
    second_chaos_gamma_bound,
    second_chaos_gauss_bound,
    stein_constants,
)
from .breuer_major import (  # noqa: F401
    BmInstance,
    bm_bound_exact,
    bm_rate,
    bm_table,
    rho,
    sigma,
)
from .pearson import (  # noqa: F401
    DensityModel,
    PearsonSpec,
    char_residual,
    density_from_tau,
    pearson_classify,
    stein_bound_check,
    stein_solve,
    tau_from_density,
)
from .simulate import (  # noqa: F401
    SampleBatch,
    chatterjee_weight,
    empirical_kolmogorov,
    empirical_wasserstein,
    sample_fbm_increments,
    sample_Zn,
)
