"""Fields with external odd coefficients, as a functor of the coefficient algebra.

A `LambdaSection` is a super vector field whose coefficients may involve
the external generators t[1..p] and whose total parity is even: each
d/dx coefficient has an even number of odd factors (th and t combined),
each d/dth coefficient an odd number.  These are exactly the elements
the group layer exponentiates, and their count over a basis matches the
dimension of (even part of Lambda_p) x (even fields) plus (odd part of
Lambda_p) x (odd fields).
"""

from __future__ import annotations

import math
from itertools import product

from .derivation import SuperDerivation
from .errors import DimensionError, LimitError, ParityError
from .grassmann import GrassmannMorphism, _mask, _pack
from .morphism import _family_operator, subsets_of_rank
from .superfn import Superfunction, map_external

IndexTuple = tuple[int, ...]


class LambdaSection:
    """An even super vector field with external odd coefficients."""

    __slots__ = ("field",)

    def __init__(self, field: SuperDerivation):
        if field.parity() != 0:
            raise ParityError("a section must be even overall")
        self.field = field

    def apply(self, f: Superfunction) -> Superfunction:
        return self.field.apply(f)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LambdaSection) and self.field == other.field

    def __str__(self) -> str:
        return str(self.field)

    def __repr__(self) -> str:
        return f"LambdaSection({self.field.m}|{self.field.n};{self.field.p})"


def _monomials_up_to(m: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples of total degree <= degree, in graded lex order; each
    variable extends only the tuples with degree left."""
    exponents: list[tuple[int, ...]] = [()]
    for _ in range(m):
        exponents = [e + (k,) for e in exponents for k in range(degree - sum(e) + 1)]
    return sorted(exponents, key=lambda t: (sum(t), t))


# the most coefficients, fields times m + n, that `section_basis` holds
_MAX_COEFFICIENTS = 1 << 16


def _basis_size(m: int, n: int, p: int, degree: int) -> int:
    """The length of `section_basis(m, n, p, degree)` (acceptance criterion
    10): (m + n) C(m + degree, m) 2^(n + p - 1), or m C(m + degree, m) when
    n + p = 0."""
    return (m + n) * math.comb(m + degree, m) << max(n + p - 1, 0)


def section_basis(m: int, n: int, p: int, degree: int) -> list[LambdaSection]:
    """Ordered basis of the even fields with coefficients of bounded degree.

    One basis element per (slot, monomial) pair: slots run over d/dx_1
    ... d/dx_m then d/dth_1 ... d/dth_n, and for each slot the coefficient
    monomials x^a th[K] t[J] run over deg(a) <= degree with len(K)+len(J)
    matching the slot parity (even for d/dx, odd for d/dth).  LimitError,
    before anything is built, past _MAX_COEFFICIENTS coefficients.
    """
    if degree < 0:
        raise DimensionError("degree bound must be nonnegative")
    if min(m, n, p) < 0:
        raise DimensionError("coordinate counts must be nonnegative")
    # with m + n > 0 the count is at least (m + n)^2 and 2^(n + p - 1), so a
    # shape past the limit on either is refused before the size is taken
    if m + n and (
        (m + n) ** 2 > _MAX_COEFFICIENTS
        or n + p > _MAX_COEFFICIENTS.bit_length()
        or (m + n) * _basis_size(m, n, p, degree) > _MAX_COEFFICIENTS
    ):
        raise LimitError(
            f"the section basis for {m}|{n};{p} at degree {degree} has more than "
            f"{_MAX_COEFFICIENTS} coefficients (fields times m + n)"
        )
    exponents = [_pack(e) for e in _monomials_up_to(m, degree)]
    zero = Superfunction.zero(m, n, p)
    basis: list[LambdaSection] = []
    for odd, slots in ((0, range(m)), (1, range(m, m + n))):
        # this parity's coefficients in (K, J, e) order, built only if a
        # slot takes them, one object each, shared by all those slots
        coefficients = [
            Superfunction._stored((m, n, p), {_mask(K) | _mask(J) << n: {e: 1}}, 1)
            for K, J in product(*(subsets_of_rank(k, include_empty=True) for k in (n, p)))
            if (len(K) + len(J)) % 2 == odd
            for e in exponents
        ] if slots else []
        for slot in slots:
            for coefficient in coefficients:
                coeffs = [zero] * (m + n)
                coeffs[slot] = coefficient
                basis.append(LambdaSection(SuperDerivation._of(m, n, p, coeffs)))
    return basis


def functor_action(morphism: GrassmannMorphism, section: LambdaSection) -> LambdaSection:
    """Relabel external generators of a section along a Grassmann map."""
    field = section.field
    if field.p != morphism.source_n:
        raise DimensionError(
            f"section has external rank {field.p}, morphism expects {morphism.source_n}"
        )
    return LambdaSection(field._map(lambda g: map_external(g, morphism), morphism.target_n))


def skeleton_decompose(section: LambdaSection) -> dict[IndexTuple, SuperDerivation]:
    """Write the section as  sum_J t[J] * X_J  with t-free fields X_J.

    Each X_J has parity len(J) mod 2; reassembling with `premultiply`
    recovers the section exactly.  Only nonzero components are listed.
    """
    field = section.field
    support: set[IndexTuple] = set()
    for g in field._coeffs:
        support.update(g.external_support())
    out: dict[IndexTuple, SuperDerivation] = {}
    for tau_key in sorted(support, key=lambda j: (len(j), j)):
        # tau_key is in a coefficient's support, so the component is nonzero
        component = field._map(lambda g: g.external_coefficient(tau_key), 0)
        if component.parity() != len(tau_key) % 2:
            raise ParityError("decomposition produced a component of wrong parity")
        out[tau_key] = component
    return out


def reassemble(
    m: int, n: int, p: int, components: dict[IndexTuple, SuperDerivation]
) -> LambdaSection:
    """Inverse of `skeleton_decompose`."""
    return LambdaSection(_family_operator(m, n, p, components))
