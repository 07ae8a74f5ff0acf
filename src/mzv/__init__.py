"""Nested harmonic sums, their identity families, and weighted vacuum
diagrams, with exact-rational and high-precision numeric backends."""

from .algebra import (
    EliminationError,
    ProductTerm,
    ZetaCombination,
    combination_from_json,
    eliminate_divergent,
    normalize,
    one,
    shuffle,
    stuffle,
    zeta,
)
from .compositions import (
    Composition,
    composition,
    composition_from_json,
    iter_admissible,
    parse_composition,
    to_word,
)
from .diagrams import (
    Diagram,
    IrreducibleDiagramError,
    build_half_moon,
    build_peacock,
    build_seashell,
    diagram_from_json,
    reduce,
    rewrite_exchange_inner,
    rewrite_integrate_valence2,
    rewrite_partial_integration,
    rewrite_reverse_edge,
    rewrite_three_point,
)
from .identities import (
    FAMILIES,
    Identity,
    derive,
    identity_from_json,
    partial_integration,
    partial_integration_cross_check,
    partial_integration_length2,
    partial_integration_length3,
    permutation_identity,
    reflection,
    shuffle_identity,
    three_point_identity,
    trailing_one,
)
from .linalg import (
    BasisReduction,
    ExactMatrix,
    assemble_permutation_system,
    permutation_rank,
    reduce_to_basis,
)
from .numerics import (
    PrecisionValue,
    PropagatorValue,
    bernoulli_number,
    bernoulli_polynomial,
    eval_combination,
    eval_mzv_accel,
    eval_mzv_direct,
    eval_propagator,
    lnz_coefficients,
    propagator_real_closed_form,
    verify_identity,
)

__all__ = [name for name in dir() if not name.startswith("_")]
