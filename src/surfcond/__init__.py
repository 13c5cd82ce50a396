"""surfcond: obstruction computations for condensing surface-operator
symmetries (finite abelian group functors, Steenrod arithmetic, mod-2
cohomology of Eilenberg-MacLane spaces, Atiyah-Hirzebruch spectral
sequences, and pi_0-level condensation bookkeeping)."""

from .abelian import (
    FinAbGroup,
    GroupExpr,
    dual,
    ext_group,
    hom_group,
    parse_group,
    quad_group,
    smith_normal_form,
    two_torsion,
)
from .ahss import (
    apply_d2,
    assemble_e2,
    declare_higher_differential,
    product_split,
    run_ahss,
    smash_freeness_check,
    total_degree_report,
)
from .coefficients import circle_row, spectrum
from .condense import (
    SkeletalCategory,
    condense_group_algebra,
    condense_phi,
    obstruction_verdict,
    parse_descriptor,
)
from .em_cohomology import EmAlgebra, EmSpace, algebra_for, poincare_series
from .steenrod import SteenrodMonomial, SteenrodWord, adem_normalize, excess

__all__ = [
    "apply_d2",
    "assemble_e2",
    "declare_higher_differential",
    "product_split",
    "run_ahss",
    "smash_freeness_check",
    "total_degree_report",
    "circle_row",
    "spectrum",
    "SkeletalCategory",
    "condense_group_algebra",
    "condense_phi",
    "obstruction_verdict",
    "parse_descriptor",
    "FinAbGroup",
    "GroupExpr",
    "dual",
    "ext_group",
    "hom_group",
    "parse_group",
    "quad_group",
    "smith_normal_form",
    "two_torsion",
    "EmAlgebra",
    "EmSpace",
    "algebra_for",
    "poincare_series",
    "SteenrodMonomial",
    "SteenrodWord",
    "adem_normalize",
    "excess",
]
