"""Finite semiring structure toolkit: Cayley-table semirings, regularity
classification, Green's relations, decompositions into quasi skew-rings, and
strong b-lattice composition with exhaustive verification at desk scale."""

from .kernel import (
    ADD,
    MUL,
    FiniteSemiring,
    PartialSemiring,
    ReductFlag,
    ValidationReport,
    is_b_lattice,
    reduct_kind,
    repeat,
    validate,
    validate_semiring,
)
from .elements import (
    ElementClassification,
    InverseSet,
    additive_idempotents,
    additive_inverses,
    classify_element,
    cr_set,
    reg_plus,
)
from .relations import (
    Congruence,
    Partition,
    enumerate_congruences,
    green_plus,
    green_star_plus,
    is_idempotent_separating,
    quotient,
    rees_congruence,
)
from .structure import (
    Decomposition,
    PsiMap,
    check_psi_homomorphism,
    decompose,
    is_bi_ideal,
    is_ideal,
    is_k_ideal,
    is_nil_extension,
    psi,
    psi_tilde,
    quasi_skew_ring_check,
    skew_ring_kernel,
)
from .classify import (
    ClassReport,
    TheoremReport,
    classify,
    is_completely_archimedean,
    is_completely_simple,
    verify_equivalence,
    verify_ideal_corollary,
)
from .blattice import (
    ConditionReport,
    StrongBLatticeSpec,
    StructureMaps,
    build_phi,
    check_generalized_clifford_theorem,
    check_main_theorem_conditions,
    compose,
    search_structure_maps,
    validate_spec,
    verify_strong_blattice,
)
from .enumeration import (
    ImplicationQuery,
    canonical_form,
    canonical_hash,
    count_labeled_semirings,
    enumerate_semirings,
    find_counterexample,
    sample_semirings,
)
from .formats import load_sbl, load_srt, parse_sbl, parse_srt, save_srt, serialize_sbl, serialize_srt

__all__ = [name for name in dir() if not name.startswith("_")]
