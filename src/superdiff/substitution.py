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

from .errors import DimensionError, DomainError, ParityError
from .superfn import Polynomial, Superfunction, _SubstitutionPlan, substitute_generators


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
        images_x = tuple(images_x)
        images_th = tuple(images_th)
        if len(images_x) != m or len(images_th) != n:
            raise DimensionError(
                f"expected {m} even and {n} odd images, "
                f"got {len(images_x)} and {len(images_th)}"
            )
        for i, g in enumerate(images_x, start=1):
            if (g.m, g.n, g.p) != (m, n, 0):
                raise DimensionError(f"image of x{i} lives on the wrong domain")
            if g.parity() != 0:
                raise ParityError(f"image of x{i} must be even")
        for j, g in enumerate(images_th, start=1):
            if (g.m, g.n, g.p) != (m, n, 0):
                raise DimensionError(f"image of th{j} lives on the wrong domain")
            if not g.is_zero() and g.parity() != 1:
                raise ParityError(f"image of th{j} must be odd")
        self.m = m
        self.n = n
        self.images_x = images_x
        self.images_th = images_th
        self.inverse = inverse
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
        inv_x = invert_matrix(matrix_x) if m else []
        inv_th = invert_matrix(matrix_th) if n else []
        if (m and inv_x is None) or (n and inv_th is None):
            return None
        # forward affine map
        fwd_x = [
            Superfunction.from_polynomial(
                Polynomial(
                    m,
                    {
                        **{
                            tuple(1 if t == k else 0 for t in range(m)): matrix_x[i][k]
                            for k in range(m)
                        },
                        (0,) * m: shift[i],
                    },
                ),
                n,
            )
            for i in range(m)
        ]
        fwd_th = [
            Superfunction(
                m,
                n,
                0,
                {((l + 1,), ()): Polynomial.const(matrix_th[j][l], m) for l in range(n)},
            )
            for j in range(n)
        ]
        # exact inverse: x -> Binv (x - shift), th -> Cinv th
        assert inv_x is not None and inv_th is not None
        bwd_x = []
        for i in range(m):
            const = -sum((inv_x[i][k] * shift[k] for k in range(m)), Fraction(0))
            bwd_x.append(
                Superfunction.from_polynomial(
                    Polynomial(
                        m,
                        {
                            **{
                                tuple(1 if t == k else 0 for t in range(m)): inv_x[i][k]
                                for k in range(m)
                            },
                            (0,) * m: const,
                        },
                    ),
                    n,
                )
            )
        bwd_th = [
            Superfunction(
                m,
                n,
                0,
                {((l + 1,), ()): Polynomial.const(inv_th[j][l], m) for l in range(n)},
            )
            for j in range(n)
        ]
        forward = UnderlyingMorphism(m, n, fwd_x, fwd_th)
        backward = UnderlyingMorphism(m, n, bwd_x, bwd_th)
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
