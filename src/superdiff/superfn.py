"""Polynomial superfunctions on a superdomain, with external odd constants.

The coordinate ring handled here is generated by

* even coordinates  x1, ..., xm   (ordinary polynomial variables),
* odd coordinates   th[1], ..., th[n],
* external odd constants t[1], ..., t[p] coming from a Grassmann
  algebra the ring is tensored with.

A `Superfunction` is a rational combination of monomials
x^e * th[K] * t[J], with K and J strictly increasing index tuples.  The
canonical monomial order puts all th factors before all t factors;
reordering an input expression into this form is where the sign flips
happen.  The parity of a term is (len(K) + len(J)) mod 2.  Coefficients
are exact rationals throughout.

`Polynomial` and `Superfunction` keep the one stored form of
`grassmann._Sparse`: integer numerators over one positive denominator,
in lowest terms, keyed by a bitmask and packed exponents (e_i in bits
32i .. 32i+31 of one int).  A polynomial keeps its numerators under the
mask 0.  A superfunction's mask has th[j] at bit j - 1 and t[k] at bit
n + k - 1, so the canonical order of the factors is the order of their
bits, two terms multiply to zero exactly when their masks meet, and the
sign of a product is the parity of the inversions between the two
masks.  The layout has no bound on m, n or p.  Products, derivatives
(d/dx_i and the signed left d/dth_j, on the numerators), substitution,
the field action of `derivation` and its series read and build the
stored form directly, and each result is reduced to lowest terms once.

`.terms` is a read-only view, built at each read and not kept::

    2*x1^2*x2*th[1,3] + 1/3*th[2]*t[2]
        <->  {((1, 3), ()): 2*x1^2*x2, ((2,), (2,)): 1/3}

a superfunction's maps (K, J) to `Polynomial` coefficients, a
polynomial's maps exponent tuples to `Fraction`s.  Exponents past
2**31 - 1 cannot be stored: the public constructors refuse them with
`LimitError`, and every product is checked before it is stored (see
`grassmann`).

The nilpotent filtration used by the higher layers counts th factors
only: `j_degree` is the minimum len(K) over the stored terms, and
products of more than n odd coordinates vanish identically.

`substitute_generators` replaces the coordinates by given images, as
a morphism of superdomains does.  An even image is its body b (the
coefficient of the unit monomial, a `Polynomial`) plus a nilpotent
rest N, and a coefficient polynomial is evaluated by Taylor expansion
in the nilpotent part::

    poly(b + N) = sum_k  (d^k poly / k!)(b) * N^k.

Every term of N has at least two odd factors, so N^k = 0 once
2|k| > n + p: the sum has only |k| <= (n+p)//2.  The terms over one odd
block th[K] are summed before the block's image th(K) is multiplied in
once, with t[J] moved left past it by th(K)*t[J] = (-1)^(|K||J|) t[J]*th(K).
The caches for one set of images live in a private plan, which keeps
each body over its own denominator and the rest over one shared D, so
that the Taylor data of each exponent vector are the plan's own;
morphisms build theirs once (per external rank) and keep it.  One
substitution scales each term to one common denominator, sums every
term over it and reduces the result once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import DimensionError, ParityError
from .grassmann import (
    _FIELD,
    _SIGNS,
    _WIDTH,
    GrassmannElement,
    GrassmannMorphism,
    IntegerBuckets,
    Integers,
    _as_fraction,
    _check_limit,
    _index_key,
    _indices,
    _mask,
    _multiply_buckets_into,
    _multiply_into,
    _over_lcm,
    _pack,
    _reduced,
    _sign,
    _Sparse,
    _unpack,
)

Scalar = Union[int, Fraction]
Exponents = tuple[int, ...]
IndexTuple = tuple[int, ...]
TermKey = tuple[IndexTuple, IndexTuple]


def _diff_x_buckets(buckets: IntegerBuckets, i: int) -> IntegerBuckets:
    """d/dx_i of stored numerators, i 0-based: each exponent e_i lowered by
    one, its numerator multiplied by e_i; buckets that vanish are dropped."""
    shift = _WIDTH * i
    out = {}
    for key, poly in buckets.items():
        poly = {e - (1 << shift): c * k for e, c in poly.items() if (k := e >> shift & _FIELD)}
        if poly:
            out[key] = poly
    return out


def _diff_theta_buckets(buckets: IntegerBuckets, j: int) -> IntegerBuckets:
    """Left derivative of stored numerators along th[j], j 1-based, with the
    signs that `Superfunction.diff_theta` explains: one per th factor at a
    lower bit.  Distinct K give distinct keys."""
    bit = 1 << (j - 1)
    out = {}
    for mask, poly in buckets.items():
        if mask & bit:
            odd = (mask & (bit - 1)).bit_count() % 2
            out[mask ^ bit] = {e: -c for e, c in poly.items()} if odd else poly
    return out


class Polynomial(_Sparse):
    """A polynomial in m commuting variables with rational coefficients."""

    __slots__ = ("m", "_data", "_den")

    def __init__(self, m: int, terms: Mapping[Exponents, Scalar]):
        if m < 0:
            raise DimensionError("number of variables must be nonnegative")
        coeffs = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != m or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps} for {m} variables")
            coeffs[_pack(exps)] = _as_fraction(coeff)
        numerators, self._den = _over_lcm(coeffs)
        self.m = m
        self._data = {0: numerators} if numerators else {}

    @property
    def terms(self) -> dict[Exponents, Fraction]:
        """Exponent tuples to nonzero Fractions: a view, built at each read."""
        m, den = self.m, self._den
        return {_unpack(e, m): Fraction(c, den) for e, c in self._data.get(0, {}).items()}

    @classmethod
    def zero(cls, m: int) -> "Polynomial":
        return cls(m, {})

    @classmethod
    def const(cls, value: Scalar, m: int) -> "Polynomial":
        return cls(m, {(0,) * m: value})

    @classmethod
    def variable(cls, i: int, m: int) -> "Polynomial":
        if not 1 <= i <= m:
            raise DimensionError(f"variable index {i} out of range 1..{m}")
        exps = tuple(1 if k == i - 1 else 0 for k in range(m))
        return cls(m, {exps: 1})

    def _one(self) -> "Polynomial":
        return self.const(1, self.m)

    def _space(self) -> tuple:
        return (self.m,)

    def _assign(self, space: tuple) -> None:
        (self.m,) = space

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        m = self.m
        return max((sum(_unpack(e, m)) for poly in self._data.values() for e in poly), default=-1)

    def diff(self, i: int) -> "Polynomial":
        """Partial derivative with respect to the i-th variable (1-based)."""
        if not 1 <= i <= self.m:
            raise DimensionError(f"variable index {i} out of range 1..{self.m}")
        return self._build((self.m,), _diff_x_buckets(self._data, i - 1), self._den)

    def extend(self, m_new: int) -> "Polynomial":
        """Reinterpret in a ring with extra trailing variables."""
        if m_new < self.m:
            raise DimensionError("cannot shrink the variable count")
        # the new variables take the empty top fields of every packed key
        return self._stored((m_new,), self._data, self._den)

    def __repr__(self) -> str:
        return f"Polynomial({self.m}, {self.terms!r})"


class Superfunction(_Sparse):
    """An element of the coordinate ring described in the module docstring."""

    __slots__ = ("m", "n", "p", "_data", "_den")

    def __init__(self, m: int, n: int, p: int, terms: Mapping[TermKey, Polynomial]):
        if n < 0 or p < 0:
            raise DimensionError("coordinate counts must be nonnegative")
        polys = {}
        for (theta_key, tau_key), poly in terms.items():
            theta_key, tau_key = _index_key(theta_key, n, "th"), _index_key(tau_key, p, "t")
            if poly.m != m:
                raise DimensionError(
                    f"coefficient polynomial has {poly.m} variables, expected {m}"
                )
            if poly:
                polys[_mask(theta_key) | _mask(tau_key) << n] = poly
        # each coefficient is in lowest terms, so over the lcm of their
        # denominators the whole is as well
        den = math.lcm(*[poly._den for poly in polys.values()])
        self.m, self.n, self.p = m, n, p
        self._data = {
            mask: {e: c * (den // poly._den) for e, c in poly._data[0].items()}
            for mask, poly in polys.items()
        }
        self._den = den

    @property
    def terms(self) -> dict[TermKey, Polynomial]:
        """(K, J) keys to nonzero Polynomial coefficients: a view, built at
        each read."""
        m, n, den = self.m, self.n, self._den
        theta = (1 << n) - 1
        return {
            (_indices(mask & theta), _indices(mask >> n)): Polynomial._build((m,), {0: poly}, den)
            for mask, poly in self._data.items()
        }

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, m: int, n: int, p: int = 0) -> "Superfunction":
        return cls(m, n, p, {})

    @classmethod
    def scalar(cls, value: Scalar, m: int, n: int, p: int = 0) -> "Superfunction":
        return cls(m, n, p, {((), ()): Polynomial.const(value, m)})

    @classmethod
    def coordinate(cls, i: int, m: int, n: int, p: int = 0) -> "Superfunction":
        return cls(m, n, p, {((), ()): Polynomial.variable(i, m)})

    @classmethod
    def theta(cls, j: int, m: int, n: int, p: int = 0) -> "Superfunction":
        if not 1 <= j <= n:
            raise DimensionError(f"odd coordinate index {j} out of range 1..{n}")
        return cls(m, n, p, {((j,), ()): Polynomial.const(1, m)})

    @classmethod
    def tau(cls, k: int, m: int, n: int, p: int) -> "Superfunction":
        if not 1 <= k <= p:
            raise DimensionError(f"external index {k} out of range 1..{p}")
        return cls(m, n, p, {((), (k,)): Polynomial.const(1, m)})

    @classmethod
    def from_polynomial(cls, poly: Polynomial, n: int, p: int = 0) -> "Superfunction":
        return cls(poly.m, n, p, {((), ()): poly})

    @classmethod
    def monomial(
        cls,
        m: int,
        n: int,
        p: int,
        poly: Polynomial,
        theta_key: Iterable[int] = (),
        tau_key: Iterable[int] = (),
    ) -> "Superfunction":
        return cls(m, n, p, {(tuple(theta_key), tuple(tau_key)): poly})

    def _one(self) -> "Superfunction":
        return self.scalar(1, self.m, self.n, self.p)

    def _space(self) -> tuple:
        return (self.m, self.n, self.p)

    def _assign(self, space: tuple) -> None:
        self.m, self.n, self.p = space

    # -- structure ---------------------------------------------------

    def body_polynomial(self) -> Polynomial:
        """Coefficient of the unit monomial (no th, no t factors)."""
        return Polynomial._build((self.m,), {0: self._data.get(0, {})}, self._den)

    def parity(self) -> Optional[int]:
        """0 or 1 for homogeneous elements, None for mixed, 0 for zero."""
        if not self._data:
            return 0
        parities = {mask.bit_count() % 2 for mask in self._data}
        return parities.pop() if len(parities) == 1 else None

    def j_degree(self) -> Union[int, float]:
        """Minimal number of th factors in any term; +inf for zero."""
        theta = (1 << self.n) - 1
        return min(((mask & theta).bit_count() for mask in self._data), default=math.inf)

    def reduce_mod_j(self, k: int) -> "Superfunction":
        """Drop every term with at least k odd-coordinate factors."""
        theta = (1 << self.n) - 1
        kept = {mask: poly for mask, poly in self._data.items() if (mask & theta).bit_count() < k}
        return self._build(self._space(), kept, self._den)

    # the largest total degree among the coefficients, -1 if zero: the same
    # reading of the stored form as a polynomial's degree
    max_degree = Polynomial.degree

    # -- arithmetic --------------------------------------------------

    # own entries, so that they can be wrapped for this class alone
    __add__ = _Sparse.__add__
    __mul__ = _Sparse.__mul__

    # -- derivatives -------------------------------------------------

    def diff_x(self, i: int) -> "Superfunction":
        """Derivative along the i-th even coordinate, term by term."""
        if not 1 <= i <= self.m:
            raise DimensionError(f"variable index {i} out of range 1..{self.m}")
        return self._build(self._space(), _diff_x_buckets(self._data, i - 1), self._den)

    def diff_theta(self, j: int) -> "Superfunction":
        """Left derivative along the j-th odd coordinate.

        Deleting th[j] from th[K] costs one sign per factor standing to
        its left, e.g. the derivative of th[1]*th[2] along th[2] is
        -th[1].  External t factors sit to the right of every th factor
        in canonical order, so they contribute no sign.
        """
        if not 1 <= j <= self.n:
            raise DimensionError(f"odd coordinate index {j} out of range 1..{self.n}")
        return self._build(self._space(), _diff_theta_buckets(self._data, j), self._den)

    # -- reshaping ---------------------------------------------------

    def lift(self, p_new: int) -> "Superfunction":
        """View the element in a ring with more external generators."""
        if p_new < self.p:
            raise DimensionError("cannot shrink the external rank")
        if p_new == self.p:
            return self
        return self._stored((self.m, self.n, p_new), self._data, self._den)

    def embed(self, m_new: int, n_new: int, p_new: int) -> "Superfunction":
        """View the element on a larger superdomain (coordinates appended)."""
        if m_new < self.m or n_new < self.n or p_new < self.p:
            raise DimensionError("cannot shrink coordinate counts")
        # packed exponents keep their fields; the t bits move up
        theta, shift = (1 << self.n) - 1, n_new - self.n
        data = {mask & theta | (mask & ~theta) << shift: poly for mask, poly in self._data.items()}
        return self._stored((m_new, n_new, p_new), data, self._den)

    def restrict_rank(self, p_new: int) -> "Superfunction":
        """Adjust the external rank, shrinking only past unused generators."""
        if p_new >= self.p:
            return self.lift(p_new)
        for mask in self._data:
            if mask >> (self.n + p_new):
                raise DimensionError(
                    f"term uses t[{(mask >> self.n).bit_length()}], "
                    f"cannot restrict to rank {p_new}"
                )
        return self._stored((self.m, self.n, p_new), self._data, self._den)

    def external_coefficient(self, tau_key: Iterable[int]) -> "Superfunction":
        """Coefficient of t[J] when the element is written with every
        t factor pulled to the front.

        Pulling t[J] leftward past th[K] contributes (-1)^(len J * len K),
        so the stored coefficient is reweighted accordingly.  The result
        has external rank 0 and satisfies::

            sum_J  t[J] * external_coefficient(J).lift(p)  ==  self
        """
        tau_key = tuple(tau_key)
        theta = (1 << self.n) - 1
        tau = _mask(tau_key) << self.n
        out: IntegerBuckets = {}
        for mask, poly in self._data.items():
            if mask & ~theta != tau:
                continue
            if len(tau_key) % 2 and (mask & theta).bit_count() % 2:
                poly = {e: -c for e, c in poly.items()}
            out[mask & theta] = poly
        return self._build((self.m, self.n, 0), out, self._den)

    def external_support(self) -> list[IndexTuple]:
        """Sorted list of t index tuples appearing in the element."""
        support = {_indices(mask >> self.n) for mask in self._data}
        return sorted(support, key=lambda j: (len(j), j))

    def __str__(self) -> str:
        from .parser import format_superfunction

        return format_superfunction(self)

    def __repr__(self) -> str:
        return f"Superfunction({self.m}|{self.n};{self.p}, {self.terms!r})"


def _check_images(
    x_images: Iterable[Superfunction],
    th_images: Iterable[Superfunction],
    m: int,
    n: int,
    p: int,
    source: Optional[tuple[int, int]] = None,
) -> tuple[tuple[Superfunction, ...], tuple[Superfunction, ...]]:
    """The coordinate images of a map from R^source into the ring on m|n;p.

    There must be one image per coordinate of the source domain (m|n
    unless given), each living on m|n with p external generators, even
    for an x and odd or zero for a th; otherwise DimensionError or
    ParityError names the first bad image.  Returns them as tuples.
    """
    x_images, th_images = tuple(x_images), tuple(th_images)
    count = source if source is not None else (m, n)
    if (len(x_images), len(th_images)) != count:
        raise DimensionError(
            f"expected {count[0]} even and {count[1]} odd images, "
            f"got {len(x_images)} and {len(th_images)}"
        )
    for label, images, parity in (("x", x_images, 0), ("th", th_images, 1)):
        for i, g in enumerate(images, start=1):
            if (g.m, g.n, g.p) != (m, n, p):
                raise DimensionError(f"image of {label}{i} lives on the wrong domain")
            if not g.is_zero() and g.parity() != parity:
                raise ParityError(f"image of {label}{i} must be {('even', 'odd')[parity]}")
    return x_images, th_images


class _SubstitutionPlan:
    """Coordinate images prepared for any number of substitutions.

    Each x-image is split into its body b_i, the coefficient of the unit
    monomial, and its nilpotent rest N_i.  Every term of N_i is even and
    carries th or t factors, so at least two odd ones, and the products
    N^k = N_1^k_1 * ... * N_m^k_m vanish once 2|k| > n + p.

    The plan works on the stored numerators: b_i = B_i/d_i over its own
    least denominator, so d^e grows only with x^e's own body
    denominators, and N_i = M_i/D, image of th_j = F_j/D over the least
    common denominator D of every nilpotent part and odd image.  Body
    powers B_i^e (by repeated squaring) and monomials B^e, the surviving
    M^k, the odd blocks F(K) = F_K1 * ... * F_Kr and the Taylor data of
    each exponent vector depend on the plan alone; they are cached on
    first use, the products checked against the exponent limit.  The
    images must already have passed `_check_images`.
    """

    __slots__ = (
        "m",
        "n",
        "p",
        "x_images",
        "th_images",
        "_bound",
        "_den",
        "_body_dens",
        "_nilpotent",
        "_th",
        "_body_powers",
        "_body_monomials",
        "_nil_powers",
        "_odd_blocks",
        "_taylor",
    )

    def __init__(
        self,
        m: int,
        n: int,
        p: int,
        x_images: Sequence[Superfunction],
        th_images: Sequence[Superfunction],
    ):
        self.m, self.n, self.p = m, n, p
        self.x_images, self.th_images = tuple(x_images), tuple(th_images)
        self._bound = (n + p) // 2
        images = self.x_images + self.th_images
        # the body (mask 0) and the rest of each image, over their own least
        # denominators; then every rest over their lcm D
        rests = [_reduced({k: b for k, b in g._data.items() if k}, g._den) for g in images]
        self._den = math.lcm(*[den for _, den in rests])
        cleared = [
            {k: {e: c * (self._den // den) for e, c in b.items()} for k, b in rest.items()}
            for rest, den in rests
        ]
        self._nilpotent, self._th = cleared[: len(x_images)], cleared[len(x_images) :]
        bodies = [_reduced({0: g._data.get(0, {})}, g._den) for g in self.x_images]
        self._body_dens = [den for _, den in bodies]
        zero = (0,) * len(x_images)
        one = {0: 1}
        self._body_powers = [{0: one, 1: body.get(0, {})} for body, _ in bodies]
        self._body_monomials = {zero: one}
        unit = {0: one}
        self._nil_powers = {zero: unit}
        self._odd_blocks = {0: unit}
        self._taylor: dict[int, tuple[int, list]] = {}  # packed e: (d^e, data)

    def _limited_product(self, a: Integers, b: Integers) -> Integers:
        """a * b, checked against the exponent limit: it is an operand again."""
        return _check_limit({0: _multiply_into({}, a, b)}, self.m)[0]

    def _body_power(self, i: int, e: int) -> Integers:
        """B_i^e, by repeated squaring."""
        powers = self._body_powers[i]
        found = powers.get(e)
        if found is None:
            half = self._body_power(i, e // 2)
            found = self._limited_product(half, half)
            if e % 2:
                found = self._limited_product(found, powers[1])
            powers[e] = found
        return found

    def _body_monomial(self, exps: Exponents) -> Integers:
        """B^exps, a product of body powers."""
        found = self._body_monomials.get(exps)
        if found is None:
            for i, e in enumerate(exps):
                if e:
                    power = self._body_power(i, e)
                    found = power if found is None else self._limited_product(found, power)
            self._body_monomials[exps] = found
        return found

    def _nil_power(self, k: Exponents) -> IntegerBuckets:
        found = self._nil_powers.get(k)
        if found is None:
            i = next(i for i, j in enumerate(k) if j)
            lower = k[:i] + (k[i] - 1,) + k[i + 1 :]
            found = self._nilpotent[i]
            if any(lower):
                found = _multiply_buckets_into({}, self._nil_power(lower), found)
                found = _check_limit(_reduced(found, 1)[0], self.m)
            self._nil_powers[k] = found
        return found

    def _expansion(self, exps: Exponents) -> list:
        """Taylor data of x^exps: (k, B^(exps-k), multiplier).

        k runs over exps' lower multi-indices with |k| <= (n+p)//2 whose
        M^k and body monomial are nonzero, so the list has the same
        length for every large exponent.  The multiplier, prod C(exps_i,
        k_i) d_i^k_i * D^((n+p)//2 - |k|), puts each term over d^exps *
        D^((n+p)//2); `substitute` keeps the list, beside d^exps.
        """
        ks: list[Exponents] = [()]
        for i, e in enumerate(exps):
            top = min(e, self._bound) if self._nilpotent[i] else 0
            ks = [k + (j,) for k in ks for j in range(top + 1) if sum(k) + j <= self._bound]
        found = []
        for k in ks:
            body = self._body_monomial(tuple(e - j for e, j in zip(exps, k)))
            if body and self._nil_power(k):
                mult = self._den ** (self._bound - sum(k)) * math.prod(
                    math.comb(e, j) * d**j for e, j, d in zip(exps, k, self._body_dens)
                )
                found.append((k, body, mult))
        return found

    def _odd_block(self, theta: int) -> IntegerBuckets:
        """F(K) for the th mask of K, the images of its factors multiplied
        from the left."""
        found = self._odd_blocks.get(theta)
        if found is None:
            last = theta.bit_length() - 1
            found = self._th[last]
            rest = theta ^ (1 << last)
            if rest:
                found = _multiply_buckets_into({}, self._odd_block(rest), found)
                found = _check_limit(_reduced(found, 1)[0], self.m)
            self._odd_blocks[theta] = found
        return found

    def substitute(self, f: Superfunction) -> Superfunction:
        m, n, den = self.m, self.n, self._den
        source_m, source_n = f.m, f.n
        theta_bits = (1 << source_n) - 1
        taylor = self._taylor
        # the numerators of f by th mask K, each with its t mask J at
        # the images' bits
        by_block: dict[int, list[tuple[int, Integers]]] = {}
        body_dens = set()
        top = 0
        for mask, coeffs in f._data.items():
            theta = mask & theta_bits
            by_block.setdefault(theta, []).append((mask >> source_n << n, coeffs))
            top = max(top, theta.bit_count())
            for e in coeffs:
                if e not in taylor:
                    exps = _unpack(e, source_m)
                    taylor[e] = (math.prod(map(pow, self._body_dens, exps)), self._expansion(exps))
                body_dens.add(taylor[e][0])
        # The image of c_e x^e th^K t^J has the denominator
        # f_den * d^e * D^((n+p)//2 + |K|), so every term is scaled by
        # (body_den / d^e) * D^(top-|K|) and the sum reduced once.
        body_den = math.lcm(*body_dens)
        signs = _SIGNS
        acc: IntegerBuckets = {}
        zero = (0,) * source_m
        for theta, entries in by_block.items():
            odd = self._odd_block(theta)
            if not odd:
                continue
            size = theta.bit_count()
            # S_K = sum_J (-1)^(|K||J|) poly_J(images) t^J, then S_K * th(K)
            target = {} if theta else acc
            block_scale = den ** (top - size)
            for tau, poly in entries:
                sign = -1 if size & tau.bit_count() & 1 else 1
                # poly(b + N) = sum_k P_k N^k, P_k = sum_e c_e prod C(e_i, k_i) b^(e-k);
                # N^0 = 1, so P_0 is summed in place
                parts = {zero: target.setdefault(tau, {})}
                for e, coeff in poly.items():
                    body_e, data = taylor[e]
                    coeff *= sign * block_scale * (body_den // body_e)
                    for k, body, mult in data:
                        part = parts.setdefault(k, {})
                        scale = coeff * mult
                        for e2, c2 in body.items():
                            part[e2] = part.get(e2, 0) + scale * c2
                del parts[zero]
                for k, part in parts.items():
                    for nil, q in self._nil_powers[k].items():
                        if nil & tau:
                            continue
                        swap = signs.get((nil, tau)) or _sign(nil, tau)
                        _multiply_into(target.setdefault(nil | tau, {}), part, q, swap)
            if theta:
                _multiply_buckets_into(acc, _check_limit(target, m), odd)
        total_den = f._den * body_den * den ** (self._bound + top)
        return Superfunction._checked((m, n, self.p), acc, total_den)


def substitute_generators(
    f: Superfunction,
    x_images: Sequence[Superfunction],
    th_images: Sequence[Superfunction],
    *,
    _plan: Optional[_SubstitutionPlan] = None,
) -> Superfunction:
    """Evaluate f with each coordinate replaced by the given element.

    The replacements must all live on one common domain and have the
    parity of the coordinate they replace (even for x, odd for th); the
    external t generators of f are carried along unchanged, so f's
    external rank must match the images' rank.  This is the unique
    algebra-map extension of the assignment.

    Each x-image is body plus nilpotent part, b_i + N_i, and a
    coefficient polynomial is expanded by Taylor's formula

        poly(b + N) = sum_k  (d^k poly / k!)(b) * N^k,

    where N^k = 0 once 2|k| > n + p (every term of N_i has at least two
    odd factors), so the sum is short however large the exponents.  The
    terms over one odd block th[K] are summed first, t factors moved to
    the left past the block image th(K) with sign (-1)^(|K||J|), and
    multiplied by th(K) once.  `_plan` is a prepared `_SubstitutionPlan`
    of exactly these images; morphisms keep theirs so that repeated
    applications share its caches.
    """
    if _plan is None:
        m2, n2, p2 = next(
            ((g.m, g.n, g.p) for g in (*x_images, *th_images)), (f.m, f.n, f.p)
        )
        x_images, th_images = _check_images(x_images, th_images, m2, n2, p2, (f.m, f.n))
        if p2 != f.p:
            raise DimensionError(
                f"external rank mismatch: element has {f.p}, images have {p2}"
            )
        _plan = _SubstitutionPlan(m2, n2, p2, x_images, th_images)
    return _plan.substitute(f)


def map_external(f: Superfunction, morphism: GrassmannMorphism) -> Superfunction:
    """Apply a Grassmann-algebra morphism to the external generators of f.

    Every t monomial is sent through the morphism and the resulting
    combination is folded back into canonical form; th factors and
    polynomial coefficients are untouched.  Requires f.p equal to the
    morphism's source rank; the result has the morphism's target rank.
    """
    if f.p != morphism.source_n:
        raise DimensionError(
            f"element has external rank {f.p}, morphism expects {morphism.source_n}"
        )
    n = f.n
    images = [
        (mask, poly, morphism.apply(GrassmannElement.monomial(_indices(mask >> n), f.p)))
        for mask, poly in f._data.items()
    ]
    common = math.lcm(*[image._den for _, _, image in images])
    total: IntegerBuckets = {}
    for mask, poly, image in images:
        theta = mask & ((1 << n) - 1)
        for tau, c in image._data.items():
            bucket = total.setdefault(theta | tau << n, {})
            scale = c[0] * (common // image._den)
            for e, coeff in poly.items():
                bucket[e] = bucket.get(e, 0) + scale * coeff
    return Superfunction._build((f.m, n, morphism.target_n), total, f._den * common)
