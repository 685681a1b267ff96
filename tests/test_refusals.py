"""Refusals of the public API that no other test reaches: each call, the
exception it raises and its message."""

import pytest

from superdiff import (
    GrassmannElement,
    GrassmannMorphism,
    LambdaSection,
    Polynomial,
    SDiffPoint,
    SuperDerivation,
    SuperMorphism,
    Superfunction,
    certify_inverse,
    compose_factored,
    functor_action,
    gr_push,
    hom_apply,
    invert,
    map_external,
    pushforward,
)
from superdiff import morphism
from superdiff.errors import DimensionError, InvertibilityError
from superdiff.substitution import UnderlyingMorphism


def _uncertified_point():
    """A point whose body's certificate was cleared after it was made."""
    point = SDiffPoint(SuperMorphism.identity(1, 1, 1), UnderlyingMorphism.identity(1, 1))
    point.body.inverse = None
    return point


_PAIR = GrassmannMorphism.identity(2)
_IDENTITY_1 = UnderlyingMorphism.identity(1, 0)
_FAMILY_1 = SuperMorphism.identity(1, 0, 1)

REFUSALS = [
    ("field with wrong counts", lambda: SuperDerivation(1, 1, 0, [], []),
     DimensionError, "expected 1 even and 1 odd coefficients, got 0 and 0"),
    ("field coefficient on another domain",
     lambda: SuperDerivation(1, 0, 0, [Superfunction.zero(2, 0)], []),
     DimensionError, "coefficient lives on the wrong domain"),
    ("field applied across domains",
     lambda: SuperDerivation.d_dx(1, 1, 0).apply(Superfunction.zero(2, 0)),
     DimensionError, "field and superfunction live on different domains"),
    ("pushforward across domains",
     lambda: pushforward(_IDENTITY_1, SuperDerivation.d_dx(1, 2, 0)),
     DimensionError, "substitution and field live on different domains"),
    ("sum across rings", lambda: Polynomial(1, {}) + Polynomial(2, {}),
     DimensionError, "Polynomial operands live in different rings ((1,) vs (2,))"),
    ("negative generator count", lambda: GrassmannElement(-1, {}),
     DimensionError, "number of generators must be nonnegative"),
    ("family applied at another rank",
     lambda: _FAMILY_1.apply_extended(Superfunction.zero(1, 0, 2)),
     DimensionError, "element lives on the wrong domain for this map"),
    ("family applied to t factors",
     lambda: _FAMILY_1.apply(Superfunction.tau(1, 1, 0, 1)),
     DimensionError,
     "apply expects an element without external generators; use apply_extended for those"),
    ("families composed across domains",
     lambda: _FAMILY_1.compose(SuperMorphism.identity(2, 0, 1)),
     DimensionError, "cannot compose maps of different domains or ranks"),
    ("hom_apply with more generators",
     lambda: hom_apply(_FAMILY_1, Superfunction.zero(1, 0, 2)),
     DimensionError, "element uses more external generators than the map"),
    ("gr_push at a wrong rank", lambda: gr_push(_PAIR, _FAMILY_1),
     DimensionError, "family has external rank 1, morphism expects 2"),
    ("substitution applied across domains",
     lambda: _IDENTITY_1.apply(Superfunction.zero(2, 0)),
     DimensionError, "element lives on 2|0, morphism on 1|0"),
    ("substitutions composed across domains",
     lambda: _IDENTITY_1.compose(UnderlyingMorphism.identity(2, 0)),
     DimensionError, "cannot compose morphisms of different domains"),
    ("inverse candidate on another domain",
     lambda: _IDENTITY_1.with_inverse(UnderlyingMorphism.identity(2, 0)),
     DimensionError, "candidate inverse lives on the wrong domain"),
    ("negative variable count", lambda: Polynomial(-1, {}),
     DimensionError, "number of variables must be nonnegative"),
    ("negative odd count", lambda: Superfunction(1, -1, 0, {}),
     DimensionError, "coordinate counts must be nonnegative"),
    ("variable 0", lambda: Polynomial.variable(0, 1),
     DimensionError, "variable index 0 out of range 1..1"),
    ("derivative along variable 0", lambda: Polynomial.variable(1, 1).diff(0),
     DimensionError, "variable index 0 out of range 1..1"),
    ("th0", lambda: Superfunction.theta(0, 1, 1),
     DimensionError, "odd coordinate index 0 out of range 1..1"),
    ("t0", lambda: Superfunction.tau(0, 1, 1, 1),
     DimensionError, "external index 0 out of range 1..1"),
    ("derivative along x0", lambda: Superfunction.zero(1, 1).diff_x(0),
     DimensionError, "variable index 0 out of range 1..1"),
    ("derivative along th0", lambda: Superfunction.zero(1, 1).diff_theta(0),
     DimensionError, "odd coordinate index 0 out of range 1..1"),
    ("polynomial shrunk", lambda: Polynomial.zero(2).extend(1),
     DimensionError, "cannot shrink the variable count"),
    ("superfunction shrunk", lambda: Superfunction.zero(2, 2).embed(1, 2, 0),
     DimensionError, "cannot shrink coordinate counts"),
    ("map_external at a wrong rank",
     lambda: map_external(Superfunction.zero(1, 0, 1), _PAIR),
     DimensionError, "element has external rank 1, morphism expects 2"),
    ("functor_action at a wrong rank",
     lambda: functor_action(_PAIR, LambdaSection(SuperDerivation.zero(1, 0, 1))),
     DimensionError, "section has external rank 1, morphism expects 2"),
    ("invert without a certificate", lambda: invert(_uncertified_point()),
     InvertibilityError, "point carries no certified inverse"),
    ("compose_factored without a certificate",
     lambda: compose_factored(_uncertified_point(), SDiffPoint.identity(1, 1, 1)),
     InvertibilityError, "outer body lacks a certified inverse"),
]


@pytest.mark.parametrize(
    "call, error, message", [case[1:] for case in REFUSALS], ids=[case[0] for case in REFUSALS]
)
def test_refusal(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error and str(caught.value) == message


def test_affine_route_candidate_failing_its_check_is_unknown(monkeypatch):
    # a wrong logarithm gives a wrong candidate, which the one exact check
    # refuses: the verdict is "unknown", never a wrong certificate
    x1 = Superfunction.coordinate(1, 1, 2)
    th1, th2 = (Superfunction.theta(j, 1, 2) for j in (1, 2))
    body = UnderlyingMorphism._of(1, 2, [x1 + th1 * th2, th1, th2])
    assert certify_inverse(body) is not None
    monkeypatch.setattr(morphism, "log_unipotent", lambda u: SuperDerivation.zero(u.m, u.n))
    assert certify_inverse(body) is None
