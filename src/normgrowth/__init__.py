"""Explicit finite groups, character tables, and growth/mixing checks."""

__version__ = "0.1.0"

from .errors import NormGrowthError
from .permgroup import (
    ClassTable,
    FiniteGroup,
    Permutation,
    build_alternating,
    build_symmetric,
    closure,
    compute_classes,
    real_census,
    word_image,
)
from .psl import build_psl2, build_psl3
from .subsets import NormalSubset, Subset, parse_subset_expr
from .chartable import (
    CharacterTable,
    character_ratio,
    class_mult_tensor,
    class_tensor,
    compute_character_table,
    load_table,
    min_nontrivial_degree,
    save_table,
)
from .spectral import (
    convolve_rows,
    eigenvalues_normal,
    lambda_direct,
    lambda_normal,
    mixing_discrepancies,
    spectral_report,
)
from .growth import (
    class_pair_counts,
    dichotomy_check,
    gluck_report,
    product_set,
    pyber_report,
    square_growth_survey,
    word_growth_report,
)
from .distributions import (
    Distribution,
    check_bnp_star,
    convolve,
    from_subset,
    l2_dist_uniform,
    uniform,
    weighted_cayley_lambda,
)
from .context import GroupContext, get_context, parse_group_spec

__all__ = [
    "CharacterTable",
    "ClassTable",
    "Distribution",
    "FiniteGroup",
    "GroupContext",
    "NormGrowthError",
    "NormalSubset",
    "Permutation",
    "Subset",
    "build_alternating",
    "build_psl2",
    "build_psl3",
    "build_symmetric",
    "character_ratio",
    "check_bnp_star",
    "class_mult_tensor",
    "class_pair_counts",
    "class_tensor",
    "closure",
    "compute_character_table",
    "compute_classes",
    "convolve",
    "convolve_rows",
    "dichotomy_check",
    "eigenvalues_normal",
    "from_subset",
    "get_context",
    "gluck_report",
    "l2_dist_uniform",
    "lambda_direct",
    "lambda_normal",
    "load_table",
    "min_nontrivial_degree",
    "mixing_discrepancies",
    "parse_group_spec",
    "parse_subset_expr",
    "product_set",
    "pyber_report",
    "real_census",
    "save_table",
    "spectral_report",
    "square_growth_survey",
    "uniform",
    "weighted_cayley_lambda",
    "word_growth_report",
    "word_image",
]
