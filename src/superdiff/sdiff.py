"""Points of the diffeomorphism supergroup of a superdomain.

For a fixed external rank p, the invertible families form a group under
composition-with-shared-generators; an `SDiffPoint` is one such family
together with its certified invertible underlying substitution and its
factored form.  The group operations all stay exact:

* `compose` substitutes coordinate images directly (an independent
  formula through factored data is kept alongside as `compose_factored`
  for cross-checking),
* `invert` runs the closed inversion formula  phi0^{-1} o exp(-sum t[I] X_I)
  when the point already knows its fields, and otherwise inverts the
  unipotent kernel phi o phi0^{-1} by a terminating Neumann series, so it
  never factorizes,
* `split` realizes the semidirect decomposition into a unipotent-like
  kernel times a constant family,
* `functor_map` relabels external generators along a Grassmann-algebra
  morphism,
* `differential_action` transports fields with external coefficients.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .derivation import SuperDerivation, _exp_coeff, _series, pushforward
from .errors import DimensionError, InvertibilityError
from .grassmann import GrassmannMorphism
from .morphism import (
    FieldFamily,
    SuperMorphism,
    _certified_body,
    _family_operator,
    _validate_family,
    certify_inverse,
    expand_factored,
    factorize,
    gr_push,
)
from .substitution import UnderlyingMorphism, _coordinates


class InvertVerdict(NamedTuple):
    """Outcome of an invertibility check: certified or honestly unknown."""

    status: str  # "invertible" | "unknown"
    body: Optional[UnderlyingMorphism]


def is_invertible(phi: SuperMorphism) -> InvertVerdict:
    """Certify invertibility of a family via its underlying part.

    A family is invertible exactly when its underlying substitution is;
    when no certification route succeeds the verdict is "unknown", which
    deliberately is not a "no".
    """
    body = certify_inverse(phi.underlying(), phi.inverse_hint)
    if body is None:
        return InvertVerdict("unknown", None)
    return InvertVerdict("invertible", body)


class SDiffPoint:
    """An invertible family of superdomain automorphisms at rank p.

    The factored form always exists once the underlying substitution is
    certified, so it is computed on first use of `fields` rather than
    up front; composites whose components are never inspected skip the
    factorization entirely.
    """

    __slots__ = ("morphism", "body", "_fields")

    def __init__(self, morphism: SuperMorphism, body: Optional[UnderlyingMorphism] = None):
        self.morphism = morphism
        self.body = _certified_body(morphism, body)
        self._fields: Optional[FieldFamily] = None

    @property
    def fields(self) -> FieldFamily:
        if self._fields is None:
            _, self._fields = factorize(self.morphism, self.body)
        return self._fields

    @property
    def m(self) -> int:
        return self.morphism.m

    @property
    def n(self) -> int:
        return self.morphism.n

    @property
    def p(self) -> int:
        return self.morphism.p

    @classmethod
    def identity(cls, m: int, n: int, p: int) -> "SDiffPoint":
        return cls(
            SuperMorphism.identity(m, n, p), UnderlyingMorphism.identity(m, n)
        )

    @classmethod
    def constant_family(cls, body: UnderlyingMorphism, p: int) -> "SDiffPoint":
        certified = certify_inverse(body)
        if certified is None:
            raise InvertibilityError("constant family needs a certified body")
        return cls(SuperMorphism.constant_family(certified, p), certified)

    @classmethod
    def from_factored(
        cls, body: UnderlyingMorphism, fields: FieldFamily, p: int
    ) -> "SDiffPoint":
        certified = certify_inverse(body)
        if certified is None:
            raise InvertibilityError("factored data needs a certified body")
        point = cls(expand_factored(certified, fields, p), certified)
        # the components are unique, so the inputs are already the answer
        point._fields = _validate_family(body.m, body.n, p, fields)
        return point

    def is_identity(self) -> bool:
        return self.morphism.is_identity()

    def in_kernel(self) -> bool:
        """True when the underlying substitution is the identity."""
        return self.body.is_identity()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SDiffPoint) and self.morphism == other.morphism

    def __str__(self) -> str:
        return str(self.morphism)

    def __repr__(self) -> str:
        return f"SDiffPoint({self.m}|{self.n};{self.p})"


def compose(outer: SDiffPoint, inner: SDiffPoint) -> SDiffPoint:
    """Group multiplication: outer after inner, by direct substitution."""
    morph = outer.morphism.compose(inner.morphism)
    body = outer.body.compose(inner.body)
    return SDiffPoint(morph, body)


def compose_factored(outer: SDiffPoint, inner: SDiffPoint) -> SuperMorphism:
    """The same composite assembled from factored data only.

    Uses  exp(sum t X) o exp(sum t transport(Y)) o (phi0 o psi0)  where
    the inner fields are transported backwards along the outer body.
    This is a deliberately independent code path used to cross-check
    `compose`.
    """
    if (outer.m, outer.n, outer.p) != (inner.m, inner.n, inner.p):
        raise DimensionError("cannot compose points of different domains or ranks")
    m, n, p = outer.m, outer.n, outer.p
    if outer.body.inverse is None:
        raise InvertibilityError("outer body lacks a certified inverse")
    transported = {
        key: pushforward(outer.body.inverse, field)
        for key, field in inner.fields.items()
    }
    op_outer = _family_operator(m, n, p, outer.fields)
    op_inner = _family_operator(m, n, p, transported)
    base = outer.body.compose(inner.body)
    images = []
    for g in base.images:
        value = _series(op_inner.apply, g.lift(p), _exp_coeff)
        images.append(_series(op_outer.apply, value, _exp_coeff))
    return SuperMorphism._of(m, n, p, images)


def invert(point: SDiffPoint) -> SDiffPoint:
    """Group inverse: body^{-1} composed after the inverse of the kernel part.

    With the fields known, the kernel's inverse is exp of the negated
    fields.  Otherwise it is the Neumann series sum_k (id - psi)^k of the
    kernel psi = phi o body^{-1}, which ends because id - psi raises the
    t-degree; the fields are then never computed.
    """
    m, n, p = point.m, point.n, point.p
    inv_body = point.body.inverse
    if inv_body is None:
        raise InvertibilityError("point carries no certified inverse")
    if point._fields is None:
        psi = point.morphism.compose(SuperMorphism.constant_family(inv_body, p))
        plan = psi._plan(p)
        step, coeff = (lambda f: f - psi._substitute(f, plan)), (lambda k: 1)
    else:
        step, coeff = (-_family_operator(m, n, p, point.fields)).apply, _exp_coeff
    images = [inv_body.apply(_series(step, gen, coeff)) for gen in _coordinates(m, n, p)]
    return SDiffPoint(SuperMorphism._of(m, n, p, images), inv_body)


class SplitPoint(NamedTuple):
    """Semidirect decomposition: point == kernel o constant(body)."""

    kernel: SDiffPoint
    body: UnderlyingMorphism


def split(point: SDiffPoint) -> SplitPoint:
    """Split off the constant part; the kernel factor has identity body."""
    inv_body = point.body.inverse
    assert inv_body is not None
    kernel = compose(point, SDiffPoint.constant_family(inv_body, point.p))
    return SplitPoint(kernel, point.body)


def recombine(parts: SplitPoint) -> SDiffPoint:
    return compose(
        parts.kernel, SDiffPoint.constant_family(parts.body, parts.kernel.p)
    )


def functor_map(morphism: GrassmannMorphism, point: SDiffPoint) -> SDiffPoint:
    """Relabel the external generators of the point along a Grassmann map."""
    pushed = gr_push(morphism, point.morphism)
    return SDiffPoint(pushed, point.body)


def differential_action(point: SDiffPoint, field: SuperDerivation) -> SuperDerivation:
    """Transport a field with external coefficients along the point.

    Computes  exp(-ad of sum t[I] X_I) applied to the body transport of
    the field; the series terminates because each bracket with the
    family operator adds external factors.  Linear over even external
    coefficients.
    """
    if (field.m, field.n, field.p) != (point.m, point.n, point.p):
        raise DimensionError("field lives on the wrong domain for this point")
    base = pushforward(point.body, field)
    op = -_family_operator(point.m, point.n, point.p, point.fields)
    return _series(op.bracket, base, _exp_coeff)
