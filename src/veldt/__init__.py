"""veldt: variational analysis of higher-order quasi-linear problems at desk scale.

The package assembles discrete energies, gradients, and second variations of
integral functionals over Galerkin subspaces, decomposes the second variation
into a uniformly positive part plus a compact remainder, reduces degenerate
critical points onto the kernel, and detects and classifies branch points of
the parameterized family F - lambda * G.
"""

__version__ = "0.1.0"

from .bifurcation import (
    BifurcationReport,
    Branch,
    classify_conditions,
    classify_reduced_origin,
    detect_branches,
    morse_inequality_audit,
    necessary_test,
    orbit_group,
)
from .catalog import ModelProblem, load_problem, model_problem
from .functional import CombinedFunctional, DiscretizedFunctional, VariationalProblem, newton_polish
from .galerkin import (
    Discretization,
    Field,
    HessianSplit,
    assemble_functional,
    assemble_gradient,
    assemble_hessian,
    build_space,
    estimate_sobolev_constant,
    field_from_json,
    field_to_json,
    hessian_split,
    matrix_to_csv,
    q_compactness_audit,
)
from .lagrangian import (
    GrowthSpec,
    Jet,
    Lagrangian,
    MultiIndex,
    check_growth,
    enumerate_multi_indices,
    eval_jet_derivatives,
    ps_certificate,
)
from .reduction import (
    ReductionSetup,
    lipschitz_audit,
    make_reduction_setup,
    marino_prodi_perturb,
    reduced_gradient,
    reduced_hessian_at_origin,
    reduced_value,
    sample_reduced,
    solve_psi,
)
from .spectral import (
    PencilSpectrum,
    SpectralDecomposition,
    decompose,
    split_continuity_audit,
    index_jump,
    morse_index_by_formula,
    pencil_eigs,
)

__all__ = [name for name in dir() if not name.startswith("_")]
