"""twistlab: exact computations with Dehn-twist monodromy factorizations of
Lefschetz fibrations."""

from .exact import (
    F2Matrix,
    IntMatrix,
    SmithForm,
    rank_over_rationals,
    smith_diagonal,
    smith_normal_form,
    solve_f2,
)
from .invariants import (
    Factorization,
    InvariantReport,
    euler_characteristic,
    fiber_sum,
    h1_total_space,
    invariant_report,
    mu,
    signature,
    torelli_certificate,
)
from .metaplectic import (
    LagrangianLine,
    MetaElement,
    boundary_multiplicity,
    cocycle,
    evaluate_meta_word,
    lift_generators,
    maslov_index,
    multiply,
    parse_meta_word,
    szpiro_check,
)
from .presentations import (
    AbelianInvariants,
    DoubleCover,
    FinitePresentation,
    SurfaceGroup,
    abelianize,
    lift_loop,
    quotient_by_normal_closure,
    reidemeister_schreier_double_cover,
)
from .surfaces import (
    Curve,
    HomologyClass,
    SurfaceData,
    intersection_pairing,
    is_symplectic,
    twist_transvection,
)
from .systems import (
    CurveSystem,
    DualGraph,
    build_geometric_presentation,
    dual_graph,
    verify_geometric_presentation,
)
from .words import HomologicalValue, TwistLetter, TwistWord, evaluate_homological, is_positive

__version__ = "0.1.0"
