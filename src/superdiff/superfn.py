"""Polynomial superfunctions on a superdomain, with external odd constants.

The coordinate ring handled here is generated by

* even coordinates  x1, ..., xm   (ordinary polynomial variables),
* odd coordinates   th[1], ..., th[n],
* external odd constants t[1], ..., t[p] coming from a Grassmann
  algebra the ring is tensored with.

A `Superfunction` is stored sparsely as a dict mapping a pair of index
tuples (K, J) -- K for the th factors, J for the t factors, both
strictly increasing -- to a `Polynomial` in the even coordinates::

    2*x1^2*x2*th[1,3] + 1/3*th[2]*t[2]
        <->  {((1, 3), ()): 2*x1^2*x2, ((2,), (2,)): 1/3}

The canonical monomial order puts all th factors before all t factors;
reordering an input expression into this form is where the sign flips
happen.  The parity of a term is (len(K) + len(J)) mod 2.  Coefficients
are exact rationals throughout.

Fractions are the representation at the boundary; products and
substitution compute inside over the integers, as FLINT's `fmpq_poly`
does.  Each operand is cleared once to integer numerators over one
common denominator (the lcm of its coefficients' denominators), pairs
are multiplied and summed as `int`, and each output coefficient is
built once as `Fraction(total, denominator)`, which puts it in lowest
terms.  The derivative rules (d/dx_i and the signed left d/dth_j) exist
once, on integer numerators; `diff`, `diff_x` and `diff_theta` clear,
differentiate and divide, and the field action of `derivation` sums its
products c_i * d_i(f) in the same integer buckets, with each field's
coefficients cleared once per field.  `derivation`'s terminating series
sums its terms the same way (`_combination`).

Inside, the keys are packed as well.  An exponent tuple is one int with
a 32-bit field per variable (e_i in bits 32i .. 32i+31), so a monomial
product is one integer addition and d/dx_i one subtraction.  A (K, J)
key is one bitmask: th[j] at bit j - 1 and t[k] at bit n + k - 1, so
the canonical order of the factors is the order of their bits, two
terms multiply to zero exactly when their masks meet, and the sign of a
product is the parity of the inversions between the two masks
(Dorst-Fontijne-Mann's bitmap blades), looked up in the memo `_SIGNS`.
The layout has no bound on m, n or p.  Packing happens only where the
kernel reads `.terms` (`_numerators`, `_cleared_buckets`), unpacking only
where it builds them (`_divided`, `_from_integers`); `.terms` itself
always holds tuples.  The pack, unpack and mask memos are `lru_cache`s
of 2**16 entries, and `_SIGNS` is emptied when it reaches that size.

Exponents are limited to 2**31 - 1, the largest value whose field keeps
its top (guard) bit clear; anything larger raises `LimitError`.  The
invariant is that no key used as a product operand has a guard bit
set.  Packing checks it on input.  A sum of two keys with clear guard
bits has every field below 2**32, so nothing carries into the next
field, and its guard bit is set exactly when that exponent passed the
limit; derivatives only lower a nonzero field.  So a product result is
checked (`_check_limit`) before it is multiplied again -- the plan's
body powers and monomials, nilpotent powers and odd blocks, and the sum
over one odd block before the block image multiplies it -- and every
result is checked as it is unpacked.  No exponent past the limit is
ever misread.

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
The caches for one set of images live in a private plan, which clears
each body over its own denominator and the rest over one shared D, so
that the Taylor data of each exponent vector are the plan's own;
morphisms build theirs once (per external rank) and keep it.  One
substitution scales each term to one common denominator, sums every
term over it and divides once per output coefficient.

`Polynomial` and `Superfunction` take their ring operations from the
private base `grassmann._Sparse`.  Public constructors validate their
input; results built by the kernel are not re-checked.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import DimensionError, LimitError, ParityError
from .grassmann import (
    GrassmannElement,
    GrassmannMorphism,
    _accumulate,
    _as_fraction,
    _index_key,
    _Sparse,
)

Scalar = Union[int, Fraction]
Exponents = tuple[int, ...]
IndexTuple = tuple[int, ...]
TermKey = tuple[IndexTuple, IndexTuple]
Coefficients = Mapping[Exponents, Fraction]
# the same with integer numerators, over a denominator kept beside them,
# and packed keys: exponents as one int, (K, J) as one bitmask
Integers = dict[int, int]
IntegerBuckets = dict[int, Integers]

_WIDTH = 32  # bits per exponent field; the top one is the guard bit
_FIELD = (1 << _WIDTH) - 1
_LIMIT = (1 << (_WIDTH - 1)) - 1


@lru_cache(maxsize=1 << 16)
def _pack(exps: Exponents) -> int:
    """exps[i] in bits [32 i, 32 i + 32) of one int; LimitError past the limit."""
    key = 0
    for e in reversed(exps):
        if e > _LIMIT:
            raise LimitError(f"exponent {e} exceeds the limit {_LIMIT}")
        key = key << _WIDTH | e
    return key


@lru_cache(maxsize=1 << 16)
def _guard(m: int) -> int:
    """The guard bit of each of m fields: the bits no operand key has set."""
    return sum(1 << (_WIDTH * i + _WIDTH - 1) for i in range(m))


@lru_cache(maxsize=1 << 16)
def _unpack(key: int, m: int) -> Exponents:
    """The m exponents of a packed key; LimitError if a guard bit is set."""
    exps = tuple(key >> (_WIDTH * i) & _FIELD for i in range(m))
    if key & _guard(m):
        raise LimitError(f"exponent {max(exps)} exceeds the limit {_LIMIT}")
    return exps


def _check_limit(polys: Iterable[Integers], m: int) -> None:
    """LimitError unless every key of `polys` may be an operand again."""
    guard = _guard(m)
    for poly in polys:
        for e in poly:
            if e & guard:
                _unpack(e, m)  # raises


@lru_cache(maxsize=1 << 16)
def _mask(key: TermKey, n: int) -> int:
    """th[j] at bit j - 1 and t[k] at bit n + k - 1, so that the canonical
    order of the factors is the order of their bits."""
    theta_key, tau_key = key
    return sum(1 << (j - 1) for j in theta_key) + sum(1 << (n + k - 1) for k in tau_key)


@lru_cache(maxsize=1 << 16)
def _term_key(mask: int, n: int) -> TermKey:
    """The (K, J) key of a mask; the inverse of `_mask`."""
    bits = [i for i in range(mask.bit_length()) if mask >> i & 1]
    return tuple(i + 1 for i in bits if i < n), tuple(i + 1 - n for i in bits if i >= n)


# _SIGNS[a, b]: whether the product of the blades with disjoint masks a and b
# takes an odd number of transpositions into canonical order
_SIGNS: dict[tuple[int, int], bool] = {}


def _negated(a: int, b: int) -> bool:
    """Fill in _SIGNS[a, b]: each factor of b moves left past every factor
    of a with a higher bit.  The table is emptied when it is full."""
    swaps, rest = 0, b
    while rest:
        low = rest & -rest
        swaps += (a // low).bit_count()
        rest ^= low
    if len(_SIGNS) >= 1 << 16:
        _SIGNS.clear()
    negate = _SIGNS[a, b] = bool(swaps & 1)
    return negate


def _numerators(terms: Coefficients, den: int) -> Integers:
    """The integer numerators of `terms` over `den`, a multiple of every
    denominator, keyed by packed exponents."""
    if den == 1:
        return {_pack(e): c.numerator for e, c in terms.items()}
    return {_pack(e): c.numerator * (den // c.denominator) for e, c in terms.items()}


def _cleared(terms: Coefficients) -> tuple[Integers, int]:
    """Integer numerators of `terms` over their least common denominator."""
    den = math.lcm(*[c.denominator for c in terms.values()])
    return _numerators(terms, den), den


def _common_denominator(polys: Iterable["Polynomial"]) -> int:
    """The least common denominator of every coefficient of `polys`."""
    return math.lcm(*[c.denominator for poly in polys for c in poly.terms.values()])


def _cleared_buckets(
    terms: Mapping[TermKey, "Polynomial"], n: int, den: Optional[int] = None
) -> tuple[IntegerBuckets, int]:
    """Integer numerators of every coefficient of `terms`, a superfunction's
    terms with n odd coordinates, over one common denominator: `den` if
    given (a multiple of every denominator), else the least."""
    if den is None:
        den = _common_denominator(terms.values())
    return {_mask(key, n): _numerators(poly.terms, den) for key, poly in terms.items()}, den


def _divided(total: Integers, den: int, m: int) -> dict[Exponents, Fraction]:
    """The nonzero entries of `total` as Fractions over `den`, each built
    once, keyed by exponent tuples of length m."""
    return {_unpack(e, m): Fraction(c, den) for e, c in total.items() if c}


def _pruned(buckets: IntegerBuckets) -> IntegerBuckets:
    """`buckets` without zero numerators and empty buckets, so that it is
    empty exactly when it is zero."""
    out = {}
    for key, bucket in buckets.items():
        bucket = {e: c for e, c in bucket.items() if c}
        if bucket:
            out[key] = bucket
    return out


def _diff_integers(poly: Integers, i: int) -> Integers:
    """d/dx_i of an integer polynomial, i 0-based: each exponent e_i lowered
    by one, its numerator multiplied by e_i."""
    shift = _WIDTH * i
    return {e - (1 << shift): c * k for e, c in poly.items() if (k := e >> shift & _FIELD)}


def _diff_x_buckets(buckets: IntegerBuckets, i: int) -> IntegerBuckets:
    """d/dx_i of integer buckets, i 0-based; buckets that vanish are dropped."""
    out = {}
    for key, poly in buckets.items():
        poly = _diff_integers(poly, i)
        if poly:
            out[key] = poly
    return out


def _diff_theta_buckets(buckets: IntegerBuckets, j: int) -> IntegerBuckets:
    """Left derivative of integer buckets along th[j], j 1-based, with the
    signs that `Superfunction.diff_theta` explains: one per th factor at a
    lower bit.  Distinct K give distinct keys."""
    bit = 1 << (j - 1)
    out = {}
    for mask, poly in buckets.items():
        if mask & bit:
            odd = (mask & (bit - 1)).bit_count() % 2
            out[mask ^ bit] = {e: -c for e, c in poly.items()} if odd else poly
    return out


def _multiply_into(total: Integers, a: Integers, b: Integers, negate: bool = False) -> Integers:
    """Add the product of integer polynomials a and b into `total`, negated if
    asked; zero entries of `a` are skipped."""
    for ea, ca in a.items():
        if not ca:
            continue
        if negate:
            ca = -ca
        for eb, cb in b.items():
            e = ea + eb
            total[e] = total.get(e, 0) + ca * cb
    return total


def _multiply_buckets_into(
    total: IntegerBuckets, a: IntegerBuckets, b: IntegerBuckets
) -> IntegerBuckets:
    """Add the superfunction product of a and b, both integer buckets, into `total`."""
    signs = _SIGNS
    for ka, pa in a.items():
        for kb, pb in b.items():
            if ka & kb:
                continue
            negate = signs.get((ka, kb))
            if negate is None:
                negate = _negated(ka, kb)
            _multiply_into(total.setdefault(ka | kb, {}), pa, pb, negate)
    return total


class Polynomial(_Sparse):
    """A polynomial in m commuting variables with rational coefficients.

    Sparse dict from exponent tuples (length m) to nonzero Fractions.
    """

    __slots__ = ("m", "terms")

    def __init__(self, m: int, terms: Mapping[Exponents, Scalar]):
        if m < 0:
            raise DimensionError("number of variables must be nonnegative")
        clean: dict[Exponents, Fraction] = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != m or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps} for {m} variables")
            c = _as_fraction(coeff)
            if c:
                clean[exps] = c
        self.m = m
        self.terms = clean

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
        return max((sum(e) for e in self.terms), default=-1)

    def _product(self, other: "Polynomial") -> "Polynomial":
        a, da = _cleared(self.terms)
        b, db = _cleared(other.terms)
        return self._build((self.m,), _divided(_multiply_into({}, a, b), da * db, self.m))

    def diff(self, i: int) -> "Polynomial":
        """Partial derivative with respect to the i-th variable (1-based)."""
        if not 1 <= i <= self.m:
            raise DimensionError(f"variable index {i} out of range 1..{self.m}")
        a, den = _cleared(self.terms)
        return self._build((self.m,), _divided(_diff_integers(a, i - 1), den, self.m))

    def extend(self, m_new: int) -> "Polynomial":
        """Reinterpret in a ring with extra trailing variables."""
        if m_new < self.m:
            raise DimensionError("cannot shrink the variable count")
        pad = (0,) * (m_new - self.m)
        return self._build((m_new,), {e + pad: c for e, c in self.terms.items()})

    def __repr__(self) -> str:
        return f"Polynomial({self.m}, {self.terms!r})"


def _from_integers(
    m: int, n: int, p: int, buckets: IntegerBuckets, den: int
) -> "Superfunction":
    """The superfunction whose (K, J) coefficient is buckets[mask of (K, J)] / den."""
    return Superfunction._build(
        (m, n, p),
        {
            _term_key(mask, n): Polynomial._build((m,), _divided(bucket, den, m))
            for mask, bucket in buckets.items()
        },
    )


def _combination(
    weights: Sequence[Fraction], elements: Sequence["Superfunction"]
) -> "Superfunction":
    """sum_k weights[k] * elements[k], summed over one common denominator
    with each output Fraction built once; the elements share one ring."""
    first = elements[0]
    dens = [
        w.denominator * _common_denominator(f.terms.values())
        for w, f in zip(weights, elements)
    ]
    common = math.lcm(*dens)
    total: IntegerBuckets = {}
    for w, f, den in zip(weights, elements, dens):
        scale = w.numerator * (common // den)
        for key, poly in _cleared_buckets(f.terms, f.n, den // w.denominator)[0].items():
            bucket = total.setdefault(key, {})
            for e, c in poly.items():
                bucket[e] = bucket.get(e, 0) + scale * c
    return _from_integers(first.m, first.n, first.p, total, common)


class Superfunction(_Sparse):
    """An element of the coordinate ring described in the module docstring."""

    __slots__ = ("m", "n", "p", "terms")

    def __init__(self, m: int, n: int, p: int, terms: Mapping[TermKey, Polynomial]):
        if n < 0 or p < 0:
            raise DimensionError("coordinate counts must be nonnegative")
        clean: dict[TermKey, Polynomial] = {}
        for (theta_key, tau_key), poly in terms.items():
            key = (_index_key(theta_key, n, "th"), _index_key(tau_key, p, "t"))
            if poly.m != m:
                raise DimensionError(
                    f"coefficient polynomial has {poly.m} variables, expected {m}"
                )
            if not poly.is_zero():
                clean[key] = poly
        self.m = m
        self.n = n
        self.p = p
        self.terms = clean

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
        return self.terms.get(((), ()), Polynomial.zero(self.m))

    def parity(self) -> Optional[int]:
        """0 or 1 for homogeneous elements, None for mixed, 0 for zero."""
        if not self.terms:
            return 0
        parities = {(len(k) + len(j)) % 2 for k, j in self.terms}
        return parities.pop() if len(parities) == 1 else None

    def j_degree(self) -> Union[int, float]:
        """Minimal number of th factors in any term; +inf for zero."""
        return min((len(k) for k, _ in self.terms), default=math.inf)

    def reduce_mod_j(self, k: int) -> "Superfunction":
        """Drop every term with at least k odd-coordinate factors."""
        return self._build(
            self._space(), {key: poly for key, poly in self.terms.items() if len(key[0]) < k}
        )

    def max_degree(self) -> int:
        """Largest total polynomial degree among coefficients; -1 if zero."""
        return max((poly.degree() for poly in self.terms.values()), default=-1)

    # -- arithmetic --------------------------------------------------

    # own entries, so that they can be wrapped for this class alone
    __add__ = _Sparse.__add__
    __mul__ = _Sparse.__mul__

    def _product(self, other: "Superfunction") -> "Superfunction":
        a, da = _cleared_buckets(self.terms, self.n)
        b, db = _cleared_buckets(other.terms, self.n)
        return _from_integers(self.m, self.n, self.p, _multiply_buckets_into({}, a, b), da * db)

    # -- derivatives -------------------------------------------------

    def diff_x(self, i: int) -> "Superfunction":
        """Derivative along the i-th even coordinate, term by term."""
        if not 1 <= i <= self.m:
            raise DimensionError(f"variable index {i} out of range 1..{self.m}")
        a, den = _cleared_buckets(self.terms, self.n)
        return _from_integers(self.m, self.n, self.p, _diff_x_buckets(a, i - 1), den)

    def diff_theta(self, j: int) -> "Superfunction":
        """Left derivative along the j-th odd coordinate.

        Deleting th[j] from th[K] costs one sign per factor standing to
        its left, e.g. the derivative of th[1]*th[2] along th[2] is
        -th[1].  External t factors sit to the right of every th factor
        in canonical order, so they contribute no sign.
        """
        if not 1 <= j <= self.n:
            raise DimensionError(f"odd coordinate index {j} out of range 1..{self.n}")
        a, den = _cleared_buckets(self.terms, self.n)
        return _from_integers(self.m, self.n, self.p, _diff_theta_buckets(a, j), den)

    # -- reshaping ---------------------------------------------------

    def lift(self, p_new: int) -> "Superfunction":
        """View the element in a ring with more external generators."""
        if p_new < self.p:
            raise DimensionError("cannot shrink the external rank")
        if p_new == self.p:
            return self
        return self._build((self.m, self.n, p_new), self.terms)

    def embed(self, m_new: int, n_new: int, p_new: int) -> "Superfunction":
        """View the element on a larger superdomain (coordinates appended)."""
        if m_new < self.m or n_new < self.n or p_new < self.p:
            raise DimensionError("cannot shrink coordinate counts")
        return self._build(
            (m_new, n_new, p_new), {key: poly.extend(m_new) for key, poly in self.terms.items()}
        )

    def restrict_rank(self, p_new: int) -> "Superfunction":
        """Adjust the external rank, shrinking only past unused generators."""
        if p_new >= self.p:
            return self.lift(p_new)
        for _, tau_key in self.terms:
            if tau_key and tau_key[-1] > p_new:
                raise DimensionError(
                    f"term uses t[{tau_key[-1]}], cannot restrict to rank {p_new}"
                )
        return self._build((self.m, self.n, p_new), self.terms)

    def external_coefficient(self, tau_key: Iterable[int]) -> "Superfunction":
        """Coefficient of t[J] when the element is written with every
        t factor pulled to the front.

        Pulling t[J] leftward past th[K] contributes (-1)^(len J * len K),
        so the stored coefficient is reweighted accordingly.  The result
        has external rank 0 and satisfies::

            sum_J  t[J] * external_coefficient(J).lift(p)  ==  self
        """
        tau_key = tuple(tau_key)
        sign_flip = len(tau_key) % 2
        out: dict[TermKey, Polynomial] = {}
        for (theta_key, jkey), poly in self.terms.items():
            if jkey != tau_key:
                continue
            if sign_flip and len(theta_key) % 2:
                poly = -poly
            out[(theta_key, ())] = poly
        return self._build((self.m, self.n, 0), out)

    def external_support(self) -> list[IndexTuple]:
        """Sorted list of t index tuples appearing in the element."""
        support = {j for _, j in self.terms}
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

    The plan works over the integers, on packed keys: b_i = B_i/d_i over
    its own least denominator, so d^e grows only with x^e's own body
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
        rests = [{key: c for key, c in g.terms.items() if key != ((), ())} for g in images]
        self._den = _common_denominator(poly for rest in rests for poly in rest.values())
        cleared = [_cleared_buckets(rest, n, self._den)[0] for rest in rests]
        self._nilpotent, self._th = cleared[: len(x_images)], cleared[len(x_images) :]
        bodies = [_cleared(g.body_polynomial().terms) for g in self.x_images]
        self._body_dens = [den for _, den in bodies]
        zero = (0,) * len(x_images)
        one = {0: 1}
        self._body_powers = [{0: one, 1: body} for body, _ in bodies]
        self._body_monomials = {zero: one}
        unit = {0: one}
        self._nil_powers = {zero: unit}
        self._odd_blocks = {(): unit}
        self._taylor: dict[int, tuple[int, list]] = {}  # packed e: (d^e, data)

    def _limited_product(self, a: Integers, b: Integers) -> Integers:
        """a * b, checked against the exponent limit: it is an operand again."""
        found = _multiply_into({}, a, b)
        _check_limit([found], self.m)
        return found

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
                found = _pruned(_multiply_buckets_into({}, self._nil_power(lower), found))
                _check_limit(found.values(), self.m)
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

    def _odd_block(self, theta_key: IndexTuple) -> IntegerBuckets:
        found = self._odd_blocks.get(theta_key)
        if found is None:
            found = self._th[theta_key[-1] - 1]
            if len(theta_key) > 1:
                found = _pruned(_multiply_buckets_into({}, self._odd_block(theta_key[:-1]), found))
                _check_limit(found.values(), self.m)
            self._odd_blocks[theta_key] = found
        return found

    def substitute(self, f: Superfunction) -> Superfunction:
        m, n, den = self.m, self.n, self._den
        source_m = len(self.x_images)
        f_den = _common_denominator(f.terms.values())
        taylor = self._taylor
        by_block: dict[IndexTuple, list[tuple[IndexTuple, Integers]]] = {}
        body_dens = set()
        top = 0
        for (theta_key, tau_key), poly in f.terms.items():
            coeffs = _numerators(poly.terms, f_den)
            by_block.setdefault(theta_key, []).append((tau_key, coeffs))
            top = max(top, len(theta_key))
            for e in coeffs:
                if e not in taylor:
                    exps = _unpack(e, source_m)
                    taylor[e] = (math.prod(map(pow, self._body_dens, exps)), self._expansion(exps))
                body_dens.add(taylor[e][0])
        # The image of c_e x^e th^K t^J has the denominator
        # f_den * d^e * D^((n+p)//2 + |K|), so every term is scaled by
        # (body_den / d^e) * D^(top-|K|) and the sum divided once.
        body_den = math.lcm(*body_dens)
        signs = _SIGNS
        acc: IntegerBuckets = {}
        zero = (0,) * source_m
        for theta_key, entries in by_block.items():
            odd = self._odd_block(theta_key)
            if not odd:
                continue
            # S_K = sum_J (-1)^(|K||J|) poly_J(images) t^J, then S_K * th(K)
            target = {} if theta_key else acc
            block_scale = den ** (top - len(theta_key))
            for tau_key, poly in entries:
                tau = _mask(((), tau_key), n)
                sign = -1 if len(theta_key) % 2 and len(tau_key) % 2 else 1
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
                    for mask, q in self._nil_powers[k].items():
                        if mask & tau:
                            continue
                        negate = signs.get((mask, tau))
                        if negate is None:
                            negate = _negated(mask, tau)
                        _multiply_into(target.setdefault(mask | tau, {}), part, q, negate)
            if theta_key:
                _check_limit(target.values(), m)
                _multiply_buckets_into(acc, target, odd)
        return _from_integers(m, n, self.p, acc, f_den * body_den * den ** (self._bound + top))


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
    out: dict[TermKey, Polynomial] = {}
    for (theta_key, tau_key), poly in f.terms.items():
        image = morphism.apply(GrassmannElement.monomial(tau_key, f.p))
        _accumulate(out, (((theta_key, j), poly.scale(c)) for j, c in image.terms.items()))
    return Superfunction._build((f.m, f.n, morphism.target_n), out)
