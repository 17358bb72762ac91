"""quotcat: additive quotients of triangulated presentations, localised.

Build finite k-linear categories (notably type-A cluster categories), form
the quotient by the kernel of Hom(T, -) for a rigid T, certify preabelian
and integral structure, localise at the regular morphisms through a
calculus of fractions, and verify the equivalence with modules over the
opposite endomorphism algebra of T.
"""

from .clustergen import build_cluster_category, diagonal_dimension_oracle
from .errors import (
    BoundsExceeded,
    FieldMismatch,
    GenerationError,
    MissingSuspension,
    NoCokernel,
    NoKernel,
    NotInS,
    NotRegular,
    NotRigid,
    QuotcatError,
    ShapeError,
)
from .fincat import (
    CategoryPresentation,
    Morphism,
    Obj,
    approximation,
    compose,
    is_cluster_tilting,
    is_rigid,
    perp,
    validate_category,
)
from .linalg import GF, QQ, Matrix
from .localization import (
    Fraction,
    check_abelian,
    compose_fractions,
    fractions_equal,
    from_morphism,
    invert_regular,
    localised_cokernel,
    localised_kernel,
    verify_rf_axioms,
)
from .modcat import (
    HFunctor,
    endomorphism_algebra,
    h_fraction,
    in_s,
    module_hom_space,
    verify_equivalence,
)
from .preabelian import (
    Budget,
    coim_im_factorise,
    cokernel,
    is_epi,
    is_mono,
    is_regular,
    kernel,
    pullback,
    pushout,
    scan_properties,
)
from .quotient import QuotientCategory, build_quotient, x_t_objects
from .verify import run_cotorsion, run_verification

__version__ = "0.1.0"
