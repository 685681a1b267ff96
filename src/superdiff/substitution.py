"""Substitution endomorphisms of a superdomain's coordinate ring.

An `UnderlyingMorphism` records where each coordinate of R^{m|n} goes:
an even superfunction for every x, an odd one for every th, with no
external generators involved.  Applying it substitutes those images
into an arbitrary element (whose external generators, if any, are left
alone).

Inverses are handled by certificate: a morphism either carries a
companion morphism that has been checked exactly on every coordinate,
or it carries nothing.  Nothing in this module ever guesses.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .errors import DimensionError, DomainError
from .superfn import (
    Polynomial,
    Superfunction,
    _check_images,
    _SubstitutionPlan,
    substitute_generators,
)


def invert_matrix(rows: Sequence[Sequence[Fraction]]) -> Optional[list[list[Fraction]]]:
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
        aug[col] = [v * inv_p for v in aug[col]]
        for r in range(size):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return [row[size:] for row in aug]


class UnderlyingMorphism:
    """A parity-preserving substitution endomorphism of R^{m|n}.

    `inverse`, when present, is a certificate: both composites were
    verified to fix every coordinate exactly when it was attached.
    The images never change after construction, so the substitution
    plan built for each external rank is kept and reused.
    """

    __slots__ = ("m", "n", "images_x", "images_th", "inverse", "_plans")

    def __init__(
        self,
        m: int,
        n: int,
        images_x: Sequence[Superfunction],
        images_th: Sequence[Superfunction],
        inverse: Optional["UnderlyingMorphism"] = None,
    ):
        self.m = m
        self.n = n
        self.images_x, self.images_th = _check_images(images_x, images_th, m, n, 0)
        self.inverse = inverse
        if inverse is not None and inverse.inverse is None:
            inverse.inverse = self  # a two-sided inverse certifies both ways
        self._plans: dict[int, _SubstitutionPlan] = {}

    @classmethod
    def identity(cls, m: int, n: int) -> "UnderlyingMorphism":
        phi = cls(
            m,
            n,
            [Superfunction.coordinate(i, m, n) for i in range(1, m + 1)],
            [Superfunction.theta(j, m, n) for j in range(1, n + 1)],
        )
        phi.inverse = phi
        return phi

    def is_identity(self) -> bool:
        return (
            self.images_x
            == tuple(Superfunction.coordinate(i, self.m, self.n) for i in range(1, self.m + 1))
            and self.images_th
            == tuple(Superfunction.theta(j, self.m, self.n) for j in range(1, self.n + 1))
        )

    def apply(self, f: Superfunction) -> Superfunction:
        """Substitute the coordinate images into f (external rank preserved)."""
        if (f.m, f.n) != (self.m, self.n):
            raise DimensionError(
                f"element lives on {f.m}|{f.n}, morphism on {self.m}|{self.n}"
            )
        plan = self._plans.get(f.p)
        if plan is None:
            plan = self._plans[f.p] = _SubstitutionPlan(
                self.m,
                self.n,
                f.p,
                [g.lift(f.p) for g in self.images_x],
                [g.lift(f.p) for g in self.images_th],
            )
        return substitute_generators(f, plan.x_images, plan.th_images, _plan=plan)

    def compose(self, inner: "UnderlyingMorphism") -> "UnderlyingMorphism":
        """self after inner, i.e. substitute self's images into inner's."""
        if (self.m, self.n) != (inner.m, inner.n):
            raise DimensionError("cannot compose morphisms of different domains")
        composite = UnderlyingMorphism(
            self.m,
            self.n,
            [self.apply(g) for g in inner.images_x],
            [self.apply(g) for g in inner.images_th],
        )
        if self.inverse is not None and inner.inverse is not None:
            inv = UnderlyingMorphism(
                self.m,
                self.n,
                [inner.inverse.apply(g) for g in self.inverse.images_x],
                [inner.inverse.apply(g) for g in self.inverse.images_th],
            )
            composite.inverse = inv
            inv.inverse = composite
        return composite

    def with_inverse(self, candidate: "UnderlyingMorphism") -> "UnderlyingMorphism":
        """Return a copy carrying `candidate`, after checking it exactly.

        Both composites are evaluated on every coordinate; any failure
        raises DomainError and nothing is attached.
        """
        if (self.m, self.n) != (candidate.m, candidate.n):
            raise DimensionError("candidate inverse lives on the wrong domain")
        ident = UnderlyingMorphism.identity(self.m, self.n)
        for outer, inner in ((self, candidate), (candidate, self)):
            for g, expected in zip(
                list(inner.images_x) + list(inner.images_th),
                list(ident.images_x) + list(ident.images_th),
            ):
                if outer.apply(g) != expected:
                    raise DomainError("candidate inverse fails the exact check")
        forward = UnderlyingMorphism(self.m, self.n, self.images_x, self.images_th)
        backward = UnderlyingMorphism(
            candidate.m, candidate.n, candidate.images_x, candidate.images_th
        )
        # same images, so the plans built by the check carry over
        forward._plans = self._plans
        backward._plans = candidate._plans
        forward.inverse = backward
        backward.inverse = forward
        return forward

    # -- structure tests ----------------------------------------------

    def is_unipotent(self) -> bool:
        """True when every coordinate moves by a term of filtration >= 2."""
        for i, g in enumerate(self.images_x, start=1):
            delta = g - Superfunction.coordinate(i, self.m, self.n)
            if delta.j_degree() < 2:
                return False
        for j, g in enumerate(self.images_th, start=1):
            delta = g - Superfunction.theta(j, self.m, self.n)
            if delta.j_degree() < 2:
                return False
        return True

    def affine_part(self) -> Optional["UnderlyingMorphism"]:
        """The affine truncation, when it is exactly invertible.

        Keeps the th-free part of each x image (which must be affine in
        the x's) and the constant-coefficient linear th part of each th
        image.  Returns None when either linear piece is singular or the
        truncation is not affine/constant as required.
        """
        m, n = self.m, self.n
        matrix_x = [[Fraction(0)] * m for _ in range(m)]
        shift = [Fraction(0)] * m
        for i, g in enumerate(self.images_x):
            base = g.terms.get(((), ()), Polynomial.zero(m))
            if base.degree() > 1:
                return None
            for exps, coeff in base.terms.items():
                total = sum(exps)
                if total == 0:
                    shift[i] = coeff
                else:
                    matrix_x[i][exps.index(1)] = coeff
        matrix_th = [[Fraction(0)] * n for _ in range(n)]
        for j, g in enumerate(self.images_th):
            for (theta_key, _), poly in g.terms.items():
                if len(theta_key) != 1:
                    continue
                if poly.degree() > 0:
                    return None  # th coefficient depends on x: not constant
                matrix_th[j][theta_key[0] - 1] = poly.terms.get((0,) * m, Fraction(0))
        inv_x, inv_th = invert_matrix(matrix_x), invert_matrix(matrix_th)
        if inv_x is None or inv_th is None:
            return None
        # exact inverse: x -> Ainv (x - shift), th -> Cinv th
        inv_shift = [
            -sum((row[k] * shift[k] for k in range(m)), Fraction(0)) for row in inv_x
        ]
        forward = _affine(m, n, matrix_x, shift, matrix_th)
        backward = _affine(m, n, inv_x, inv_shift, inv_th)
        forward.inverse = backward
        backward.inverse = forward
        return forward

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, UnderlyingMorphism)
            and (self.m, self.n) == (other.m, other.n)
            and self.images_x == other.images_x
            and self.images_th == other.images_th
        )

    def __str__(self) -> str:
        from .parser import format_underlying

        return format_underlying(self)

    def __repr__(self) -> str:
        tag = " with inverse" if self.inverse is not None else ""
        return f"UnderlyingMorphism({self.m}|{self.n}{tag})"


def _affine(
    m: int,
    n: int,
    matrix_x: Sequence[Sequence[Fraction]],
    shift: Sequence[Fraction],
    matrix_th: Sequence[Sequence[Fraction]],
) -> UnderlyingMorphism:
    """The substitution x -> A x + shift, th -> C th."""
    units = [tuple(1 if t == k else 0 for t in range(m)) for k in range(m)]
    images_x = [
        Superfunction.from_polynomial(
            Polynomial(m, {**dict(zip(units, row)), (0,) * m: const}), n
        )
        for row, const in zip(matrix_x, shift)
    ]
    images_th = [
        Superfunction(
            m, n, 0, {((l + 1,), ()): Polynomial.const(c, m) for l, c in enumerate(row)}
        )
        for row in matrix_th
    ]
    return UnderlyingMorphism(m, n, images_x, images_th)
