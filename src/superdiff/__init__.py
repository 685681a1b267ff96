"""Exact symbolic calculus on superdomains and their diffeomorphism groups.

The package works over the rationals throughout.  Superfunctions on a
domain with m even and n odd coordinates are tensored with an external
Grassmann algebra on p generators; invertible families of substitutions
form a group whose points factor through an underlying substitution and
a family of vector fields, one per subset of the external generators.
"""

from .errors import (
    DimensionError,
    DomainError,
    InvertibilityError,
    LimitError,
    ParityError,
    ParseError,
    SuperdiffError,
)
from .grassmann import (
    GrassmannElement,
    GrassmannMorphism,
    merge_indices,
)
from .superfn import (
    Polynomial,
    Superfunction,
    map_external,
    substitute_generators,
)
from .substitution import UnderlyingMorphism
from .derivation import (
    IndexPartition,
    SuperDerivation,
    exp_nilpotent,
    log_unipotent,
    ordered_splits,
    pushforward,
    symmetrize_apply,
    unordered_partitions,
)
from .morphism import (
    SuperMorphism,
    certify_inverse,
    expand_factored,
    factorize,
    gr_push,
    hom_apply,
    subsets_of_rank,
)
from .sdiff import (
    InvertVerdict,
    SDiffPoint,
    SplitPoint,
    compose,
    compose_factored,
    differential_action,
    functor_map,
    invert,
    is_invertible,
    recombine,
    split,
)
from .sections import (
    LambdaSection,
    functor_action,
    reassemble,
    section_basis,
    skeleton_decompose,
)

__version__ = "0.1.0"

__all__ = [
    "DimensionError",
    "DomainError",
    "GrassmannElement",
    "GrassmannMorphism",
    "IndexPartition",
    "InvertVerdict",
    "InvertibilityError",
    "LambdaSection",
    "LimitError",
    "ParityError",
    "ParseError",
    "Polynomial",
    "SDiffPoint",
    "SplitPoint",
    "SuperDerivation",
    "SuperMorphism",
    "Superfunction",
    "SuperdiffError",
    "UnderlyingMorphism",
    "certify_inverse",
    "compose",
    "compose_factored",
    "differential_action",
    "exp_nilpotent",
    "expand_factored",
    "factorize",
    "functor_action",
    "functor_map",
    "gr_push",
    "hom_apply",
    "invert",
    "is_invertible",
    "log_unipotent",
    "map_external",
    "merge_indices",
    "ordered_splits",
    "pushforward",
    "reassemble",
    "recombine",
    "section_basis",
    "skeleton_decompose",
    "split",
    "subsets_of_rank",
    "substitute_generators",
    "symmetrize_apply",
    "unordered_partitions",
]
