import math
import random
import re
from itertools import combinations, product

import pytest

from superdiff import (
    LambdaSection,
    Polynomial,
    SuperDerivation,
    Superfunction,
    functor_action,
    reassemble,
    section_basis,
    skeleton_decompose,
)
from superdiff.errors import DimensionError, LimitError, ParityError
from superdiff.sections import _MAX_COEFFICIENTS, _basis_size, _monomials_up_to
from superdiff.sampling import (
    random_derivation,
    random_grassmann_morphism,
    random_superfunction,
)


def monomial_count(m, degree):
    # solutions of e1+...+em <= degree
    return math.comb(m + degree, m)


def expected_basis_size(m, n, p, degree):
    half = 2 ** (p - 1) if p >= 1 else None
    even_lambda = half if p >= 1 else 1
    odd_lambda = half if p >= 1 else 0
    polys = monomial_count(m, degree)
    theta_even = sum(1 for r in range(n + 1) if r % 2 == 0 for _ in combinations(range(n), r))
    theta_odd = sum(1 for r in range(n + 1) if r % 2 == 1 for _ in combinations(range(n), r))
    even_coeff = polys * theta_even
    odd_coeff = polys * theta_odd
    even_fields = m * even_coeff + n * odd_coeff
    odd_fields = m * odd_coeff + n * even_coeff
    return even_lambda * even_fields + odd_lambda * odd_fields


def test_basis_count_small_grid():
    for m in range(3):
        for n in range(3):
            for p in range(4):
                for degree in range(3):
                    basis = section_basis(m, n, p, degree)
                    assert len(basis) == expected_basis_size(m, n, p, degree), (
                        m,
                        n,
                        p,
                        degree,
                    )


@pytest.mark.parametrize(
    "m, n, degree, message",
    [
        (1, 1, -1, "degree bound must be nonnegative"),
        (-1, 1, 1, "coordinate counts must be nonnegative"),
        (1, -2, 1, "coordinate counts must be nonnegative"),
    ],
)
def test_basis_rejects_negative_sizes(m, n, degree, message):
    with pytest.raises(DimensionError, match=message):
        section_basis(m, n, 1, degree)


def _recursive_monomials_up_to(m, degree):
    """The earlier `_monomials_up_to`, a recursion over the variables,
    kept as the reference for the filtered product."""
    out = []

    def rec(prefix, remaining):
        if remaining == 0:
            out.append(prefix)
            return
        for e in range(degree - sum(prefix) + 1):
            rec(prefix + (e,), remaining - 1)

    rec((), m)
    return sorted(out, key=lambda t: (sum(t), t))


def test_monomials_match_the_recursive_reference():
    for m, degree in [*product(range(5), range(5)), (30, 1), (12, 3)]:
        monomials = _monomials_up_to(m, degree)
        assert monomials == _recursive_monomials_up_to(m, degree)
        assert len(monomials) == monomial_count(m, degree)


def _two_loop_section_basis(m, n, p, degree):
    """The earlier `section_basis`, one loop block for the d/dx slots and
    one for the d/dth slots, kept as the reference for the basis order."""
    exponents = _monomials_up_to(m, degree)
    theta_sets = [
        key for size in range(n + 1) for key in combinations(range(1, n + 1), size)
    ]
    tau_sets = [
        key for size in range(p + 1) for key in combinations(range(1, p + 1), size)
    ]
    basis = []

    def coefficient(exps, theta_key, tau_key):
        return Superfunction.monomial(
            m, n, p, Polynomial(m, {tuple(exps): 1}), theta_key, tau_key
        )

    zero = Superfunction.zero(m, n, p)
    for slot in range(m):
        for theta_key in theta_sets:
            for tau_key in tau_sets:
                if (len(theta_key) + len(tau_key)) % 2 != 0:
                    continue
                for exps in exponents:
                    x_coeffs = [zero] * m
                    x_coeffs[slot] = coefficient(exps, theta_key, tau_key)
                    basis.append(
                        LambdaSection(
                            SuperDerivation(m, n, p, x_coeffs, [zero] * n)
                        )
                    )
    for slot in range(n):
        for theta_key in theta_sets:
            for tau_key in tau_sets:
                if (len(theta_key) + len(tau_key)) % 2 != 1:
                    continue
                for exps in exponents:
                    th_coeffs = [zero] * n
                    th_coeffs[slot] = coefficient(exps, theta_key, tau_key)
                    basis.append(
                        LambdaSection(
                            SuperDerivation(m, n, p, [zero] * m, th_coeffs)
                        )
                    )
    return basis


def test_basis_matches_two_loop_reference():
    for m, n, p, degree in product(range(3), repeat=4):
        basis = section_basis(m, n, p, degree)
        reference = _two_loop_section_basis(m, n, p, degree)
        assert [str(s) for s in basis] == [str(s) for s in reference], (m, n, p, degree)
        assert basis == reference


def test_basis_elements_are_even_sections():
    for sec in section_basis(2, 2, 2, 1):
        assert isinstance(sec, LambdaSection)
        assert sec.field.parity() == 0


def test_basis_is_linearly_independent():
    # no duplicate fields, and each has a single generating term
    basis = section_basis(1, 2, 2, 1)
    seen = set()
    for sec in basis:
        key = str(sec.field)
        assert key not in seen
        seen.add(key)


def test_section_parity_enforced():
    odd = SuperDerivation.d_dtheta(1, 1, 1, 0)
    with pytest.raises(ParityError):
        LambdaSection(odd)
    even = SuperDerivation.d_dx(1, 1, 1, 0)
    LambdaSection(even)


def test_decompose_reassemble_round_trip():
    rng = random.Random(80)
    for _ in range(40):
        field = random_derivation(rng, 2, 2, 2, degree=1, parity=0)
        section = LambdaSection(field)
        parts = skeleton_decompose(section)
        for key, comp in parts.items():
            assert comp.p == 0
            assert comp.parity() == len(key) % 2
        back = reassemble(2, 2, 2, parts)
        assert back.field == field


def test_decompose_lists_only_nonzero_components():
    rng = random.Random(85)
    assert skeleton_decompose(LambdaSection(SuperDerivation.zero(2, 2, 2))) == {}
    for _ in range(20):
        field = random_derivation(rng, 2, 2, 3, degree=1, parity=0)
        parts = skeleton_decompose(LambdaSection(field))
        support = {key for g in field._coeffs for key in g.external_support()}
        assert set(parts) == support
        assert not any(comp.is_zero() for comp in parts.values())


def test_decompose_refuses_a_component_of_the_wrong_parity():
    # t[1]*d/dx1 is odd, so no section holds it; one built around the
    # parity check still meets the decomposition's own check
    field = SuperDerivation.d_dx(1, 1, 1, 1).premultiply(Superfunction.tau(1, 1, 1, 1))
    forged = object.__new__(LambdaSection)
    forged.field = field
    with pytest.raises(ParityError, match="^decomposition produced a component of wrong parity$"):
        skeleton_decompose(forged)


def test_reassemble_then_decompose():
    rng = random.Random(81)
    for _ in range(20):
        parts = {}
        for key in [(), (1,), (2,), (1, 2)]:
            comp = random_derivation(rng, 1, 2, 0, degree=1, parity=len(key) % 2)
            if not comp.is_zero():
                parts[key] = comp
        section = reassemble(1, 2, 2, parts)
        again = skeleton_decompose(section)
        assert again == parts


def test_functor_action_is_linear():
    rng = random.Random(82)
    for _ in range(20):
        gm = random_grassmann_morphism(rng, 2, 3)
        a = random_derivation(rng, 1, 2, 2, degree=1, parity=0)
        b = random_derivation(rng, 1, 2, 2, degree=1, parity=0)
        lhs = functor_action(gm, LambdaSection(a + b))
        rhs = functor_action(gm, LambdaSection(a)).field + functor_action(
            gm, LambdaSection(b)
        ).field
        assert lhs.field == rhs


def test_functor_action_composes():
    rng = random.Random(83)
    for _ in range(15):
        g1 = random_grassmann_morphism(rng, 2, 3)
        g2 = random_grassmann_morphism(rng, 3, 3)
        sec = LambdaSection(random_derivation(rng, 1, 1, 2, degree=1, parity=0))
        assert (
            functor_action(g2.compose(g1), sec).field
            == functor_action(g2, functor_action(g1, sec)).field
        )


def test_sections_act_on_functions():
    rng = random.Random(84)
    sec = LambdaSection(random_derivation(rng, 2, 2, 2, degree=1, parity=0))
    f = random_superfunction(rng, 2, 2, 2, degree=1)
    g = random_superfunction(rng, 2, 2, 2, degree=1, parity=0)
    # even operator: ordinary Leibniz on an even first factor
    assert sec.apply(g * f) == sec.apply(g) * f + g * sec.apply(f)


def test_basis_size_is_the_closed_form_of_criterion_10():
    for m, n, p, degree in product(range(3), range(3), range(4), range(3)):
        assert _basis_size(m, n, p, degree) == len(section_basis(m, n, p, degree))


@pytest.mark.parametrize(
    "m, n, p, degree",
    [
        (1, 0, 30, 0),
        (30, 0, 0, 30),
        (0, 30, 0, 0),
        (257, 0, 0, 0),
        (1, 0, 0, _MAX_COEFFICIENTS),
        (1, 1, 16, 0),
        (10**9, 0, 0, 10**9),
    ],
)
def test_basis_past_the_limit_is_refused_before_it_is_built(monkeypatch, m, n, p, degree):
    def unreachable(*args):
        raise AssertionError("the basis was started")

    monkeypatch.setattr("superdiff.sections._monomials_up_to", unreachable)
    message = (
        f"the section basis for {m}|{n};{p} at degree {degree} has more than "
        f"{_MAX_COEFFICIENTS} coefficients (fields times m + n)"
    )
    with pytest.raises(LimitError, match=re.escape(message)):
        section_basis(m, n, p, degree)


@pytest.mark.parametrize("m, n, p, degree", [(256, 0, 0, 0), (0, 1, 16, 0)])
def test_basis_at_the_limit_is_built(m, n, p, degree):
    basis = section_basis(m, n, p, degree)
    assert len(basis) * (m + n) == _MAX_COEFFICIENTS
    assert len(basis) == _basis_size(m, n, p, degree)


def test_basis_without_slots_lists_no_blocks():
    # no field has a slot, so the 2^p external blocks are never listed
    assert section_basis(0, 0, 10**9, 10**9) == []


def test_parity_coefficients_are_shared_across_slots():
    basis = section_basis(2, 2, 3, 2)
    per_slot = len(basis) // 4
    x1, x2 = (basis[k * per_slot].field._coeffs[k] for k in range(2))
    th1, th2 = (basis[(2 + k) * per_slot].field._coeffs[2 + k] for k in range(2))
    assert x1 is x2 and th1 is th2 and x1 is not th1
