"""Families of superdomain morphisms over a Grassmann algebra.

A `SuperMorphism` is an algebra map from the coordinate ring of R^{m|n}
into the same ring tensored with p external odd generators t[1..p]; it
is its image vector, the parity-correct images of the m + n
coordinates, x's first.  It rests on the same base as
`UnderlyingMorphism`, `substitution._Substitution`, which stores that
vector, checks it once and owns the substitution path, the identity and
unipotency tests and equality.  A family builds its substitution plan
per call and keeps none: families are often kept long and applied
rarely, so retained plans would only hold memory.
Such a family decomposes uniquely as

    phi = exp( sum_I t[I] * X_I ) o phi0

where phi0 is the ordinary substitution obtained by dropping every t
factor and each X_I is a field without external part whose parity
equals len(I) mod 2.  `factorize` recovers (phi0, {X_I}) from the
images, `expand_factored` rebuilds the images from the data, and the
two are exact mutual inverses.

Inverse certification for the underlying substitution lives here too:
the affine part is inverted by exact linear algebra and the unipotent
remainder u by exp(-log u), one terminating series per coordinate.  The
candidate built from the two is checked exactly on every coordinate,
once.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from .derivation import (
    SuperDerivation,
    _combine,
    _exp_coeff,
    _series,
    log_unipotent,
    pushforward,
    symmetrize_apply,
    unordered_partitions,
)
from .errors import (
    DimensionError,
    DomainError,
    InvertibilityError,
    ParityError,
)
from .grassmann import GrassmannMorphism, _mask
from .substitution import UnderlyingMorphism, _coordinates, _Substitution
from .superfn import Polynomial, Superfunction, map_external

IndexTuple = tuple[int, ...]
FieldFamily = dict[IndexTuple, SuperDerivation]


def subsets_of_rank(p: int, include_empty: bool = False) -> list[IndexTuple]:
    """Increasing index tuples from {1..p}, ordered by size then lexicographically."""
    from itertools import combinations

    start = 0 if include_empty else 1
    out: list[IndexTuple] = []
    for size in range(start, p + 1):
        out.extend(combinations(range(1, p + 1), size))
    return out


class SuperMorphism(_Substitution):
    """An algebra map determined by coordinate images with external part."""

    __slots__ = ("inverse_hint",)

    def __init__(
        self,
        m: int,
        n: int,
        p: int,
        images_x: Sequence[Superfunction],
        images_th: Sequence[Superfunction],
        inverse_hint: Optional[UnderlyingMorphism] = None,
    ):
        super().__init__(m, n, p, images_x, images_th)
        # optional user-supplied inverse for the underlying part; checked
        # exactly before anything relies on it
        self.inverse_hint = inverse_hint

    @classmethod
    def _of(
        cls,
        m: int,
        n: int,
        p: int,
        images: Sequence[Superfunction],
        inverse_hint: Optional[UnderlyingMorphism] = None,
    ) -> "SuperMorphism":
        """The family with image vector `images`, x's first."""
        return cls(m, n, p, images[:m], images[m:], inverse_hint)

    @classmethod
    def identity(cls, m: int, n: int, p: int) -> "SuperMorphism":
        return cls._of(m, n, p, _coordinates(m, n, p))

    @classmethod
    def constant_family(cls, body: UnderlyingMorphism, p: int) -> "SuperMorphism":
        """The family with no external dependence at all."""
        return cls._of(body.m, body.n, 0, body.images).lift(p)

    def lift(self, p: int) -> "SuperMorphism":
        """The same family over p external generators, its hint kept."""
        if p < self.p:
            raise DimensionError(f"cannot lower the rank from {self.p} to {p}")
        images = [g.lift(p) for g in self.images]
        return SuperMorphism._of(self.m, self.n, p, images, self.inverse_hint)

    # -- action ------------------------------------------------------

    def apply_extended(self, h: Superfunction) -> Superfunction:
        """Apply to an element that may already contain t factors.

        The external generators are held fixed; this is the canonical
        extension of the map to the tensored ring.
        """
        if h.p != self.p:
            raise DimensionError("element lives on the wrong domain for this map")
        return self._substitute(h)

    def apply(self, f: Superfunction) -> Superfunction:
        """Apply to an element of the plain coordinate ring (no t factors)."""
        if f.p != 0:
            raise DimensionError(
                "apply expects an element without external generators; "
                "use apply_extended for those"
            )
        return self.apply_extended(f.lift(self.p))

    def skeleton(self, f: Superfunction) -> dict[IndexTuple, Superfunction]:
        """Components of the image of f along the external monomials.

        Returns a map J -> alpha_J(f) with every alpha_J(f) free of t
        factors; alpha_() is multiplicative, the others obey twisted
        Leibniz rules over it.  Only nonzero components are listed.
        """
        image = self.apply(f)
        out: dict[IndexTuple, Superfunction] = {}
        for tau_key in image.external_support():
            comp = image.external_coefficient(tau_key)
            if not comp.is_zero():
                out[tau_key] = comp
        return out

    def underlying(self) -> UnderlyingMorphism:
        """Drop all t terms from the images; the ordinary substitution below."""
        body = [g.external_coefficient(()) for g in self.images]
        return UnderlyingMorphism._of(self.m, self.n, body)

    def compose(self, inner: "SuperMorphism") -> "SuperMorphism":
        """self after inner, external generators shared and held fixed."""
        if (self.m, self.n, self.p) != (inner.m, inner.n, inner.p):
            raise DimensionError("cannot compose maps of different domains or ranks")
        plan = self._plan(self.p)
        images = [self._substitute(g, plan) for g in inner.images]
        return SuperMorphism._of(self.m, self.n, self.p, images)

    def __str__(self) -> str:
        from .parser import format_morphism

        return format_morphism(self)

    def __repr__(self) -> str:
        return f"SuperMorphism({self.m}|{self.n};{self.p})"


def hom_apply(phi: SuperMorphism, f: Superfunction) -> Superfunction:
    """Image of f under the ring map; t factors are carried along fixed."""
    if f.p > phi.p:
        raise DimensionError("element uses more external generators than the map")
    return phi.apply_extended(f.lift(phi.p))


def gr_push(morphism: GrassmannMorphism, phi: SuperMorphism) -> SuperMorphism:
    """Relabel the external generators of a family along a Grassmann map.

    The underlying substitution is untouched because generator monomials
    never map to terms of lower degree.
    """
    if phi.p != morphism.source_n:
        raise DimensionError(
            f"family has external rank {phi.p}, morphism expects {morphism.source_n}"
        )
    images = [map_external(g, morphism) for g in phi.images]
    return SuperMorphism._of(phi.m, phi.n, morphism.target_n, images, phi.inverse_hint)


# -- inverse certification ------------------------------------------------


def certify_inverse(
    body: UnderlyingMorphism, hint: Optional[UnderlyingMorphism] = None
) -> Optional[UnderlyingMorphism]:
    """Try to equip a substitution with an exactly verified inverse.

    Routes, in order: an already attached certificate; a user-supplied
    candidate (checked on every coordinate); the affine part inverted
    by rational linear algebra, times the inverse of the unipotent
    remainder u = body o affine^-1, read as exp(-log u) with one
    exponential series per coordinate (the identity takes this route:
    its affine part is the identity and its log is zero).  That
    candidate is checked by one `with_inverse` call, both composites on
    every coordinate.
    Returns None when no route certifies -- which means "unknown",
    never "not invertible".
    """
    if body.inverse is not None:
        return body
    if hint is not None:
        try:
            return body.with_inverse(hint)
        except DomainError:
            pass  # a bad hint only disables this route
    affine = body.affine_part()
    if affine is None:
        return None
    assert affine.inverse is not None
    # a parity-correct body moves each coordinate past its affine part by
    # terms of filtration >= 2, so body o affine^-1 is unipotent
    unipot = body.compose(affine.inverse)
    # unipot^-1 = exp(-log unipot); the candidate carries no certificate,
    # so compose builds no composite inverse and with_inverse is the one check
    step = (-log_unipotent(unipot)).apply
    backward = [_series(step, g, _exp_coeff) for g in _coordinates(body.m, body.n)]
    candidate = affine.inverse.compose(UnderlyingMorphism._of(body.m, body.n, backward))
    try:
        return body.with_inverse(candidate)
    except DomainError:
        return None


# -- factored form ----------------------------------------------------------


def _validate_family(
    m: int, n: int, p: int, fields: Mapping[IndexTuple, SuperDerivation]
) -> FieldFamily:
    clean: FieldFamily = {}
    for key, field in fields.items():
        key = tuple(key)
        if not key or any(key[i] >= key[i + 1] for i in range(len(key) - 1)):
            raise ValueError(f"field index {key} must be nonempty and increasing")
        if key[0] < 1 or key[-1] > p:
            raise DimensionError(f"field index {key} out of range for rank {p}")
        if (field.m, field.n, field.p) != (m, n, 0):
            raise DimensionError(f"field for {key} lives on the wrong domain")
        if field.is_zero():
            continue
        if field.parity() != len(key) % 2:
            raise ParityError(
                f"field for {key} must have parity {len(key) % 2}"
            )
        clean[key] = field
    return clean


def _prefixed(key: IndexTuple, field: SuperDerivation, p: int) -> SuperDerivation:
    """t[key] * X at rank p, for a field X without external part."""
    m, n = field.m, field.n
    prefix = Superfunction.monomial(m, n, p, Polynomial.const(1, m), (), key)
    return field.lift(p).premultiply(prefix)


def _family_operator(
    m: int, n: int, p: int, fields: Mapping[IndexTuple, SuperDerivation]
) -> SuperDerivation:
    """The even rank-p derivation  sum_I t[I] * X_I."""
    terms = [SuperDerivation.zero(m, n, p)] + [
        _prefixed(key, fields[key], p) for key in sorted(fields, key=lambda k: (len(k), k))
    ]
    return _combine([1] * len(terms), terms)


def expand_factored(
    body: UnderlyingMorphism,
    fields: Mapping[IndexTuple, SuperDerivation],
    p: int,
) -> SuperMorphism:
    """Rebuild the family exp(sum_I t[I] X_I) o body from its data."""
    m, n = body.m, body.n
    family = _validate_family(m, n, p, fields)
    op = _family_operator(m, n, p, family)
    images = [_series(op.apply, g.lift(p), _exp_coeff) for g in body.images]
    return SuperMorphism._of(m, n, p, images)


def _certified_body(
    phi: SuperMorphism, body: Optional[UnderlyingMorphism] = None
) -> UnderlyingMorphism:
    """The underlying part of phi with a certified inverse.

    A supplied body must equal the underlying part and carry a
    certificate; otherwise certification runs here and an
    InvertibilityError signals an underlying part no route can invert.
    """
    raw = phi.underlying()
    if body is None:
        body = certify_inverse(raw, phi.inverse_hint)
        if body is None:
            raise InvertibilityError(
                "the underlying substitution has no certified inverse"
            )
    else:
        if body != raw:
            raise DomainError("supplied body does not match the underlying part")
        if body.inverse is None:
            raise InvertibilityError("supplied body carries no certified inverse")
    return body


def factorize(
    phi: SuperMorphism, body: Optional[UnderlyingMorphism] = None
) -> tuple[UnderlyingMorphism, FieldFamily]:
    """Recover the unique factored form of a family of morphisms.

    Works one external index set at a time, smallest first: the part of
    each coordinate image sitting over t[I], minus the contributions of
    already known fields through symmetrized compositions, determines
    V = (t[I] X_I) o body on coordinates.  D = body^{-1} o V is then an
    ordinary even derivation, and t[I] X_I = body o D o body^{-1} is its
    `pushforward` along the certified inverse of the body, from which
    X_I is read off over t[I].

    A certified body may be passed in (it must equal the underlying
    part); otherwise certification runs here and an InvertibilityError
    signals an underlying part that no route can invert.
    """
    m, n, p = phi.m, phi.n, phi.p
    body = _certified_body(phi, body)
    inverse = body.inverse
    assert inverse is not None
    body_images = [g.lift(p) for g in body.images]

    fields: FieldFamily = {}
    operators: FieldFamily = {}

    def operator(block: IndexTuple) -> SuperDerivation:
        """t[block]·X_block, built once."""
        if block not in operators:
            operators[block] = _prefixed(block, fields[block], p)
        return operators[block]

    for index_set in subsets_of_rank(p):
        tau = _mask(index_set)
        values: list[Superfunction] = []
        for image, body_image in zip(phi.images, body_images):
            # the terms of the image over t[I] exactly, read from its stored form
            target = Superfunction._build(
                (m, n, p),
                {mask: poly for mask, poly in image._data.items() if mask >> n == tau},
                image._den,
            )
            # a partition with a zero component contributes nothing
            known = [
                symmetrize_apply([operator(block) for block in partition.blocks], body_image)
                for partition in unordered_partitions(index_set)
                if len(partition.blocks) > 1 and all(block in fields for block in partition.blocks)
            ]
            target = _combine([1] + [-1] * len(known), [target, *known])
            values.append(inverse.apply(target))
        pushed = pushforward(inverse, SuperDerivation._of(m, n, p, values))
        candidate = pushed._map(lambda g: g.external_coefficient(index_set), 0)
        if candidate.is_zero():
            continue
        if candidate.parity() != len(index_set) % 2:
            raise ParityError(
                f"component over t{list(index_set)} has inconsistent parity"
            )
        fields[index_set] = candidate
    return body, fields
