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

from itertools import product

from .derivation import SuperDerivation
from .errors import DimensionError, ParityError
from .grassmann import GrassmannMorphism
from .morphism import _family_operator, subsets_of_rank
from .superfn import Polynomial, Superfunction, map_external

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
    """Exponent tuples of total degree <= degree, in graded lex order."""
    exponents = product(range(degree + 1), repeat=m)
    return sorted((e for e in exponents if sum(e) <= degree), key=lambda t: (sum(t), t))


def section_basis(m: int, n: int, p: int, degree: int) -> list[LambdaSection]:
    """Ordered basis of the even fields with coefficients of bounded degree.

    One basis element per (slot, monomial) pair: slots run over d/dx_1
    ... d/dx_m then d/dth_1 ... d/dth_n, and for each slot the coefficient
    monomials x^a th[K] t[J] run over deg(a) <= degree with len(K)+len(J)
    matching the slot parity (even for d/dx, odd for d/dth).
    """
    if degree < 0:
        raise DimensionError("degree bound must be nonnegative")
    if m < 0 or n < 0:
        raise DimensionError("coordinate counts must be nonnegative")
    exponents = _monomials_up_to(m, degree)
    theta_sets, tau_sets = (subsets_of_rank(k, include_empty=True) for k in (n, p))
    basis: list[LambdaSection] = []

    def coefficient(exps, theta_key, tau_key) -> Superfunction:
        return Superfunction.monomial(
            m, n, p, Polynomial(m, {tuple(exps): 1}), theta_key, tau_key
        )

    zero = Superfunction.zero(m, n, p)
    for slot in range(m + n):
        odd = int(slot >= m)  # a d/dth slot takes odd coefficients
        for theta_key in theta_sets:
            for tau_key in tau_sets:
                if (len(theta_key) + len(tau_key)) % 2 != odd:
                    continue
                for exps in exponents:
                    coeffs = [zero] * (m + n)
                    coeffs[slot] = coefficient(exps, theta_key, tau_key)
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
