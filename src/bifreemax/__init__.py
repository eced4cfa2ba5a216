"""bifreemax: numerical calculus for bi-free max-convolution and bivariate
extreme values.

The package is organized around distribution functions (grid-backed or
closed-form) and the operations the max-convolution calculus needs:

* :mod:`bifreemax.distributions` - univariate/bivariate DFs, rectangle
  volumes, quasi-monotonicity, discrete planar measures;
* :mod:`bifreemax.copulas` - parametric copula families, Pickands
  dependence functions, and the ratio-form membership test;
* :mod:`bifreemax.convolution` - free and bi-free max-convolutions,
  convolution powers, the linearizing transforms, exponent measures;
* :mod:`bifreemax.extremes` - extreme-value types, max-stability and
  domain-of-attraction experiments;
* :mod:`bifreemax.gaussian` - the correlated bi-free Gaussian family:
  density, quadrature CDF, divisibility verdicts;
* :mod:`bifreemax.cli` - command-line driver emitting CSV/JSON artifacts.
"""

from .distributions import (
    BivariateDF,
    CoupledBDF,
    DiscreteMeasure,
    FuncUDF,
    GridBDF,
    GridUDF,
    SupportError,
    UnivariateDF,
    bdf_from_law,
    beta_free_df,
    dirac_df,
    eval_bdf,
    exponential_free_df,
    grid_probe,
    is_quasi_monotone,
    law_from_bdf,
    materialize,
    ones_df,
    pareto_free_df,
    product_df,
    semicircle_df,
    sup_distance,
    sup_distance_1d,
    tail_bdf,
    uniform_df,
    volume,
)
from .copulas import (
    AMHCopula,
    BiFreeCopula,
    ClaytonCopula,
    ComonotoneCopula,
    Copula,
    CouplingVerdict,
    EVCopula,
    FGMCopula,
    GridCopula,
    GumbelMixedCopula,
    IndependenceCopula,
    LogisticCopula,
    LomaxCopula,
    MarshallOlkinCopula,
    PickandsFn,
    SurvivalCopula,
    bifree_copula,
    check_copula_axioms,
    check_maxid_coupling,
    check_pickands,
    doa_iterate,
    ev_copula,
    gumbel_mixed_pickands,
    logistic_pickands,
    marshall_olkin_pickands,
    pickands_from_measure,
    pickands_lower,
    pickands_one,
    power_transform,
    survival_copula,
)
from .convolution import (
    CompoundPoissonReport,
    MaxIdVerdict,
    MeasureBDF,
    bifree_maxconv,
    bifree_power,
    classical_maxid_check,
    compound_poisson_limit,
    eventually_decreasing,
    free_maxconv,
    free_power,
    from_exponent_measure,
    is_bifree_maxid,
    maxid_from_tail_functional,
    product_ratio,
    tail_functional,
)
from .extremes import (
    DoAReport,
    GEVParams,
    MaxStabilityReport,
    NormalizingSequence,
    bifree_ev,
    check_max_stable,
    classical_mev,
    default_normalizers,
    doa_experiment,
    free_from_classical,
    gev_df,
    recover_pickands,
)
from .gaussian import (
    GaussianCorr,
    GaussianVerdict,
    NoDensityError,
    cdf_grid,
    comparison_integral,
    density,
    identity_check,
    kernel_denominator,
    maxid_verdict,
)

__version__ = "0.1.0"
