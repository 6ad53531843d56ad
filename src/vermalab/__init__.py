"""Desk-scale computations in modular representation theory.

The package splits into arithmetic layers (root systems, depth and
block combinatorics of induced modules) and exact finite-field layers
(module arithmetic, rank-one kernel computations, commuting-variety
point counts), with a CLI front end over all of them.
"""
from .gf import GF
from .heisenberg import BudgetExceeded, closed_form, count_points, dimension_fit
from .modules import (
    CertificateError,
    FpModule,
    ModuleLibrary,
    Undecided,
    decompose,
    dump_text,
    ext1_dim,
    hom_space,
    is_indecomposable,
    is_isomorphic,
    is_projective_module,
    parse_text,
    syzygy,
)
from .rootsys import (
    CartanSpec,
    NotFiniteType,
    RootSystem,
    build_root_system,
    is_good_prime,
    is_pr_regular,
    psi_set,
)
from .sl2 import (
    Sl2Schema,
    build_simple,
    build_verma,
    frobenius_twist,
    library,
    rank_variety_scan,
    run_sl2_suites,
    steinberg,
    tensor,
)
from .verma import (
    NEG_INFINITY,
    BadPrime,
    DepthOutOfRange,
    VermaReport,
    block_contains,
    classify,
    depth,
    depth_reduce,
    is_projective_verma,
)

__version__ = "0.1.0"

__all__ = [
    "GF",
    "BudgetExceeded",
    "closed_form",
    "count_points",
    "dimension_fit",
    "CertificateError",
    "FpModule",
    "ModuleLibrary",
    "Undecided",
    "decompose",
    "dump_text",
    "ext1_dim",
    "hom_space",
    "is_indecomposable",
    "is_isomorphic",
    "is_projective_module",
    "parse_text",
    "syzygy",
    "CartanSpec",
    "NotFiniteType",
    "RootSystem",
    "build_root_system",
    "is_good_prime",
    "is_pr_regular",
    "psi_set",
    "Sl2Schema",
    "build_simple",
    "build_verma",
    "frobenius_twist",
    "library",
    "rank_variety_scan",
    "run_sl2_suites",
    "steinberg",
    "tensor",
    "NEG_INFINITY",
    "BadPrime",
    "DepthOutOfRange",
    "VermaReport",
    "block_contains",
    "classify",
    "depth",
    "depth_reduce",
    "is_projective_verma",
]
