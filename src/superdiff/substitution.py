"""Substitution endomorphisms of a superdomain's coordinate ring.

Both morphism types rest on one private base, `_Substitution`: a
morphism is its image vector, the m + n coordinate images of R^{m|n}
(x's first) in the ring on m|n with p external generators, checked once
at construction, with one way to prepare them for substitution
(`_plan`) and one substitution path (`substitute_generators` with that
plan).  Each class builds itself from a vector with `_of`, the one
place the vector is split at m.  Identity and unipotency tests and
equality live there too; equality is per class, so a family at p = 0
never equals a substitution with the same images.

An `UnderlyingMorphism` is the base at p = 0: an even superfunction for
every x, an odd one for every th, with no external generators involved.
Applying it substitutes those images into an arbitrary element (whose
external generators, if any, are left alone).  It is applied one
element at a time, so it keeps its plan for each external rank; a
`morphism.SuperMorphism` builds a plan per call and keeps none, since
many families live long and are applied rarely.

Inverses are handled by certificate: a morphism either carries a
companion morphism that has been checked exactly on every coordinate,
or it carries nothing.  Nothing in this module ever guesses.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .errors import DimensionError, DomainError
from .grassmann import _combination, _unpack
from .superfn import (
    Superfunction,
    _check_images,
    _SubstitutionPlan,
    substitute_generators,
)


def _invert_matrix(rows: Sequence[Sequence[Fraction]]) -> Optional[list[list[Fraction]]]:
    """Exact inverse of a square rational matrix, or None if singular."""
    size = len(rows)
    aug = [
        [Fraction(v) for v in row]
        + [Fraction(1) if i == k else Fraction(0) for k in range(size)]
        for i, row in enumerate(rows)
    ]
    for col in range(size):
        pivot = next((r for r in range(col, size) if aug[r][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = 1 / aug[col][col]
        aug[col] = [v * inv_p if v else v for v in aug[col]]
        for r in range(size):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [v - factor * w if w else v for v, w in zip(aug[r], aug[col])]
    return [row[size:] for row in aug]


def _coordinates(m: int, n: int, p: int = 0) -> tuple[Superfunction, ...]:
    """x1..xm, then th1..thn, in the ring on m|n with p external generators."""
    return tuple(Superfunction.coordinate(i, m, n, p) for i in range(1, m + 1)) + tuple(
        Superfunction.theta(j, m, n, p) for j in range(1, n + 1)
    )


class _Substitution:
    """Coordinate images of R^{m|n} in the ring on m|n with p external generators.

    The morphism is its image vector `images`: m + n superfunctions,
    x's first.  `images_x` and `images_th` are views of its two parts.
    """

    __slots__ = ("m", "n", "p", "images")

    def __init__(
        self,
        m: int,
        n: int,
        p: int,
        images_x: Sequence[Superfunction],
        images_th: Sequence[Superfunction],
    ):
        self.m, self.n, self.p = m, n, p
        images_x, images_th = _check_images(images_x, images_th, m, n, p)
        self.images = images_x + images_th

    @property
    def images_x(self) -> tuple[Superfunction, ...]:
        return self.images[: self.m]

    @property
    def images_th(self) -> tuple[Superfunction, ...]:
        return self.images[self.m :]

    def _plan(self, p: int) -> _SubstitutionPlan:
        """A plan of the images lifted to external rank p."""
        lifted = [g.lift(p) for g in self.images]
        return _SubstitutionPlan(self.m, self.n, p, lifted[: self.m], lifted[self.m :])

    def _substitute(
        self, f: Superfunction, plan: Optional[_SubstitutionPlan] = None
    ) -> Superfunction:
        """f with every coordinate replaced by its image; t factors held fixed."""
        if (f.m, f.n) != (self.m, self.n):
            raise DimensionError(
                f"element lives on {f.m}|{f.n}, morphism on {self.m}|{self.n}"
            )
        plan = plan or self._plan(f.p)
        return substitute_generators(f, plan.x_images, plan.th_images, _plan=plan)

    def is_identity(self) -> bool:
        return self.images == _coordinates(self.m, self.n, self.p)

    def is_unipotent(self) -> bool:
        """True when every coordinate moves by a term of filtration >= 2."""
        return all(
            (g - e).j_degree() >= 2
            for g, e in zip(self.images, _coordinates(self.m, self.n, self.p))
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, type(self))
            and (self.m, self.n, self.p) == (other.m, other.n, other.p)
            and self.images == other.images
        )


class UnderlyingMorphism(_Substitution):
    """A parity-preserving substitution endomorphism of R^{m|n}.

    `inverse`, when present, is a certificate: both composites were
    verified to fix every coordinate exactly when it was attached.
    The images never change after construction, so the substitution
    plan built for each external rank is kept and reused.
    """

    __slots__ = ("inverse", "_plans")

    def __init__(
        self,
        m: int,
        n: int,
        images_x: Sequence[Superfunction],
        images_th: Sequence[Superfunction],
        inverse: Optional["UnderlyingMorphism"] = None,
    ):
        super().__init__(m, n, 0, images_x, images_th)
        self.inverse = inverse
        if inverse is not None and inverse.inverse is None:
            inverse.inverse = self  # a two-sided inverse certifies both ways
        self._plans: dict[int, _SubstitutionPlan] = {}

    @classmethod
    def _of(
        cls,
        m: int,
        n: int,
        images: Sequence[Superfunction],
        inverse: Optional["UnderlyingMorphism"] = None,
    ) -> "UnderlyingMorphism":
        """The substitution with image vector `images`, x's first."""
        return cls(m, n, images[:m], images[m:], inverse)

    @classmethod
    def identity(cls, m: int, n: int) -> "UnderlyingMorphism":
        phi = cls._of(m, n, _coordinates(m, n))
        phi.inverse = phi
        return phi

    def _plan(self, p: int) -> _SubstitutionPlan:
        plan = self._plans.get(p)
        if plan is None:
            plan = self._plans[p] = super()._plan(p)
        return plan

    def apply(self, f: Superfunction) -> Superfunction:
        """Substitute the coordinate images into f (external rank preserved)."""
        return self._substitute(f)

    def compose(self, inner: "UnderlyingMorphism") -> "UnderlyingMorphism":
        """self after inner, i.e. substitute self's images into inner's."""
        if (self.m, self.n) != (inner.m, inner.n):
            raise DimensionError("cannot compose morphisms of different domains")
        m, n = self.m, self.n
        composite = UnderlyingMorphism._of(m, n, [self.apply(g) for g in inner.images])
        if self.inverse is not None and inner.inverse is not None:
            images = [inner.inverse.apply(g) for g in self.inverse.images]
            composite.inverse = UnderlyingMorphism._of(m, n, images, composite)
        return composite

    def with_inverse(self, candidate: "UnderlyingMorphism") -> "UnderlyingMorphism":
        """Return a copy carrying `candidate`, after checking it exactly.

        Both composites are evaluated on every coordinate; any failure
        raises DomainError and nothing is attached.
        """
        if (self.m, self.n) != (candidate.m, candidate.n):
            raise DimensionError("candidate inverse lives on the wrong domain")
        coords = _coordinates(self.m, self.n)
        for outer, inner in ((self, candidate), (candidate, self)):
            if any(outer.apply(g) != e for g, e in zip(inner.images, coords)):
                raise DomainError("candidate inverse fails the exact check")
        forward = UnderlyingMorphism._of(self.m, self.n, self.images)
        backward = UnderlyingMorphism._of(self.m, self.n, candidate.images, forward)
        # same images, so the plans built by the check carry over
        forward._plans, backward._plans = self._plans, candidate._plans
        return forward

    def affine_part(self) -> Optional["UnderlyingMorphism"]:
        """The affine truncation, when it is exactly invertible.

        Of each coordinate's image it keeps the terms with as many th
        factors as the coordinate (none for an x, one for a th).  These
        must have degree at most 1 in all coordinates together, so they
        give x -> A x + shift, th -> C th: one block-diagonal matrix, A
        over C, and the x shift.  Returns None when a kept term has
        higher degree or A or C is singular.
        """
        m, n = self.m, self.n
        matrix = [[Fraction(0)] * (m + n) for _ in range(m + n)]
        shift = [Fraction(0)] * m
        for slot, (row, g) in enumerate(zip(matrix, self.images)):
            for mask, poly in g._data.items():
                if mask.bit_count() != (slot >= m):
                    continue  # nilpotent: more th factors than the coordinate
                th = tuple(mask >> l & 1 for l in range(n))
                for e, c in poly.items():
                    degrees = _unpack(e, m) + th
                    if sum(degrees) > 1:
                        return None
                    if 1 in degrees:
                        row[degrees.index(1)] = Fraction(c, g._den)
                    else:
                        shift[slot] = Fraction(c, g._den)
        return _affine(m, n, matrix, shift)

    def __str__(self) -> str:
        from .parser import format_underlying

        return format_underlying(self)

    def __repr__(self) -> str:
        tag = " with inverse" if self.inverse is not None else ""
        return f"UnderlyingMorphism({self.m}|{self.n}{tag})"


def _affine(
    m: int,
    n: int,
    matrix: Sequence[Sequence[Fraction]],
    shift: Sequence[Fraction],
) -> Optional[UnderlyingMorphism]:
    """x -> A x + shift, th -> C th with its exact inverse attached.

    `matrix` is block-diagonal, A over C.  The inverse is
    x -> A^-1 (x - shift), th -> C^-1 th; None when A or C is singular.
    """
    inverse = _invert_matrix(matrix)
    if inverse is None:
        return None
    inv_shift = [-sum((a * s for a, s in zip(row, shift)), Fraction(0)) for row in inverse[:m]]
    forward = UnderlyingMorphism._of(m, n, _affine_images(m, n, matrix, shift))
    backward = _affine_images(m, n, inverse, inv_shift)
    forward.inverse = UnderlyingMorphism._of(m, n, backward, forward)
    return forward


def _affine_images(
    m: int, n: int, matrix: Sequence[Sequence[Fraction]], shift: Sequence[Fraction]
) -> list[Superfunction]:
    """x -> A x + shift, th -> C th, each a combination of 1, x1.., th1.."""
    basis = (Superfunction.scalar(1, m, n, 0), *_coordinates(m, n))
    return [_combination((c, *row), basis) for row, c in zip(matrix, [*shift, *[0] * n])]
