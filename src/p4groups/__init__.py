"""Construction, invariants, isomorphism testing, and classification of the
groups of order p^4 for odd primes p."""

from .residues import (
    AbelianElement,
    MixedModulusMatrix,
    ModulusProfile,
    SHAPE_ELEMENTARY,
    SHAPE_MIXED,
    fixed_points,
    image_subgroup,
    mat_apply,
    mat_inverse,
    mat_mul,
    mat_pow,
    norm_matrix,
)
from .groups import (
    FiniteGroup,
    Fingerprint,
    Subgroup,
    abelian_group,
    abelian_invariants,
    center,
    cyclic_group,
    derived_subgroup,
    element_order,
    fingerprint,
    isomorphic,
    order_census,
    quotient,
    subgroup_generated,
    verify_group_axioms,
)
from .extension import (
    ExtElement,
    ExtensionType,
    build_group,
    conjugate_type,
    multiply,
    norm_apply,
    power_substitute,
    shift_generator,
)
from .classify import (
    ClassificationError,
    ClassificationResult,
    ClassifyConfig,
    CandidateType,
    GroupClass,
    abelian_catalog,
    candidate_types,
    census_closed_form,
    classify_p4,
    emit_table1,
    emit_table2,
    least_nonresidue,
    render_table1,
    render_table2,
    tau_catalog,
    v_candidates,
    verify_prop_abelian_subgroup,
    verify_prop_no_cyclic,
)

__version__ = "0.1.0"
