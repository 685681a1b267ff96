"""Exact arithmetic in finitely generated Grassmann algebras, and the one
stored form of every sparse element of superdiff.

An element of the algebra with anticommuting generators t[1], ..., t[n]
is a rational combination of monomials t[I], I a strictly increasing
tuple of generator indices (1-based)::

    3 + 2*t[1] - 1/2*t[1,3]   <->   {(): 3, (1,): 2, (1, 3): -1/2}

Multiplication reorders generator products into increasing index order
and picks up one sign flip per transposition; squares of generators
vanish.  The parity of a monomial t[i1]*...*t[ik] is k mod 2, and
parity-homogeneous elements supercommute.

`GrassmannElement`, `Polynomial` and `Superfunction` (module `superfn`)
store one form, FLINT's `fmpq_poly` canonical form: integer numerators
over one positive denominator, in lowest terms.  `_data` maps a bitmask
of odd factors to a dict from packed exponents to nonzero numerators,
and `_den` is the denominator; the gcd of `_den` and every numerator is
1, and zero is `{}` over 1.  Here t[k] is bit k - 1 of the mask, and the
exponent key is always 0, as there are no even variables: the case
m = 0, n = 0 of a superfunction.  So equal elements have equal stored
forms, and equality, hashing and `is_zero` read them directly.  Stored
dicts never change once built, so results may share them.

`.terms` is a read-only view: the element as a dict of index tuples (or
exponent tuples) to `Fraction`s (or `Polynomial`s), built at each read
and not kept, so that only one form is held in memory.

An exponent tuple is packed into one int with a 32-bit field per
variable (e_i in bits 32i .. 32i+31), so a monomial product is one
integer addition.  Exponents are limited to 2**31 - 1, the largest value
whose field keeps its top (guard) bit clear: the public constructors
and the parser raise `LimitError` past it, so no stored key has a guard
bit set.  A sum of two such keys has every field below 2**32, so nothing
carries into the next field, and its guard bit is set exactly when that
exponent passed the limit; derivatives only lower a nonzero field.  So
every product is checked (`_check_limit`) before it is stored or
multiplied again, and no exponent past the limit is ever misread.

The product multiplies pairs of numerators as `int` and sums them per
key; the sign of two masks is the parity of the inversions between them
(Dorst-Fontijne-Mann's bitmap blades), looked up in the memo `_SIGNS`.
The ring operations (ring check, linear combinations, product, powers,
equality, hashing) live once, in the private base `_Sparse`.  Public
constructors check every key and coefficient; kernel-built results are
not re-checked, only reduced to lowest terms.  The pack, unpack and mask
memos are `lru_cache`s of 2**16 entries, and `_SIGNS` is emptied when
it reaches that size.

A map of Grassmann algebras and a substitution of coordinates
(`superfn`) both send a monomial to the product of its factors' images:
that one product of images is `_blade`, memoized per morphism and per
plan.  Its key is read as packed fields: a mask of odd factors (fields
one bit wide) or packed exponents of even ones (`_WIDTH` bits).  A power
of any exponent is `_Sparse.__pow__`'s own loop, with no recursion.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .errors import DimensionError, LimitError, ParityError

Scalar = Union[int, Fraction]
IndexTuple = tuple[int, ...]
Exponents = tuple[int, ...]
# the stored form: packed exponents -> numerator, and mask -> those
Integers = dict[int, int]
IntegerBuckets = dict[int, Integers]

_WIDTH = 32  # bits per exponent field; the top one is the guard bit
_FIELD = (1 << _WIDTH) - 1
_LIMIT = (1 << (_WIDTH - 1)) - 1


def merge_indices(a: IndexTuple, b: IndexTuple) -> Optional[tuple[int, IndexTuple]]:
    """Merge two increasing index tuples of anticommuting symbols.

    Returns (sign, merged) where sign is the parity of the permutation
    that sorts the concatenation a + b, or None when the tuples share an
    index (the product vanishes).
    """
    if not a:
        return 1, b
    if not b:
        return 1, a
    sign = 1
    out: list[int] = []
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return None
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            # b[j] jumps over the remaining entries of a
            if (len(a) - i) % 2:
                sign = -sign
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return sign, tuple(out)


def _as_fraction(c: Scalar) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"expected an integer or Fraction, got {type(c).__name__}")


def _index_key(key: Iterable[int], bound: int, label: str) -> IndexTuple:
    """`key` as a tuple, checked strictly increasing and within 1..bound."""
    key = tuple(key)
    if any(key[i] >= key[i + 1] for i in range(len(key) - 1)):
        raise ValueError(f"{label} index tuple {key} is not strictly increasing")
    if key and (key[0] < 1 or key[-1] > bound):
        raise DimensionError(f"{label} index out of range in {key}")
    return key


# -- packed keys -------------------------------------------------------------


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
    """The guard bit of each of m fields: the bits no stored key has set."""
    return sum(1 << (_WIDTH * i + _WIDTH - 1) for i in range(m))


@lru_cache(maxsize=1 << 16)
def _unpack(key: int, m: int) -> Exponents:
    """The m exponents of a packed key; LimitError if a guard bit is set."""
    exps = tuple(key >> (_WIDTH * i) & _FIELD for i in range(m))
    if key & _guard(m):
        raise LimitError(f"exponent {max(exps)} exceeds the limit {_LIMIT}")
    return exps


def _check_limit(buckets: IntegerBuckets, m: int) -> IntegerBuckets:
    """`buckets`, a product of m variables; LimitError unless every key
    may be stored and multiplied again."""
    guard = _guard(m)
    if guard:
        for poly in buckets.values():
            for e in poly:
                if e & guard:
                    _unpack(e, m)  # raises
    return buckets


@lru_cache(maxsize=1 << 16)
def _mask(indices: IndexTuple) -> int:
    """Index i at bit i - 1."""
    return sum(1 << (i - 1) for i in indices)


@lru_cache(maxsize=1 << 16)
def _indices(mask: int) -> IndexTuple:
    """The increasing indices of a mask; the inverse of `_mask`."""
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


# -- the kernel ----------------------------------------------------------------

# _SIGNS[a, b]: the sign, -1 or 1, of the product of the blades with
# disjoint masks a and b, from the transpositions into canonical order
_SIGNS: dict[tuple[int, int], int] = {}


def _sign(a: int, b: int) -> int:
    """Fill in _SIGNS[a, b]: each factor of b moves left past every factor
    of a with a higher bit.  The table is emptied when it is full."""
    swaps, rest = 0, b
    while rest:
        low = rest & -rest
        swaps += (a // low).bit_count()
        rest ^= low
    if len(_SIGNS) >= 1 << 16:
        _SIGNS.clear()
    sign = _SIGNS[a, b] = -1 if swaps & 1 else 1
    return sign


def _multiply_into(total: Integers, a: Integers, b: Integers, factor: int = 1) -> Integers:
    """Add `factor` times the product of integer polynomials a and b into
    `total`; zero entries of `a` are skipped."""
    for ea, ca in a.items():
        if not ca:
            continue
        ca *= factor
        for eb, cb in b.items():
            e = ea + eb
            total[e] = total.get(e, 0) + ca * cb
    return total


def _multiply_buckets_into(
    total: IntegerBuckets, a: IntegerBuckets, b: IntegerBuckets, factor: int = 1
) -> IntegerBuckets:
    """Add `factor` times the product of the stored numerators a and b into `total`."""
    signs = _SIGNS
    for ka, pa in a.items():
        for kb, pb in b.items():
            if ka & kb:
                continue
            sign = signs.get((ka, kb)) or _sign(ka, kb)
            _multiply_into(total.setdefault(ka | kb, {}), pa, pb, sign * factor)
    return total


def _blade(memo: dict, factors: Sequence, key: int, product: Callable, width: int = 1):
    """The product of factors[i] raised to field i of `key`, each field
    `width` bits wide, lowest field leftmost, by `product`; kept in `memo`
    by key, memo[0] the unit.  A mask is the case width 1; a field above 1
    is a power, taken by repeated squaring."""
    found = memo.get(key)
    if found is None:
        shift = (key.bit_length() - 1) // width * width
        top, rest = key >> shift, key & ((1 << shift) - 1)
        if rest:
            lower = _blade(memo, factors, rest, product, width)
            found = product(lower, _blade(memo, factors, top << shift, product, width))
        elif top == 1:
            found = factors[shift // width]
        else:
            half = _blade(memo, factors, top >> 1 << shift, product, width)
            found = product(half, half)
            if top & 1:
                found = product(found, factors[shift // width])
        memo[key] = found
    return found


def _reduced(data: IntegerBuckets, den: int) -> tuple[IntegerBuckets, int]:
    """`data` over `den` in the stored form: zero numerators and empty
    buckets dropped, numerators and denominator divided by their gcd."""
    out = {}
    g = den
    for key, bucket in data.items():
        if not all(bucket.values()):
            bucket = {e: c for e, c in bucket.items() if c}
        if bucket:
            out[key] = bucket
            if g != 1:
                g = math.gcd(g, *bucket.values())
    if g != 1 and out:
        out = {key: {e: c // g for e, c in bucket.items()} for key, bucket in out.items()}
    return out, den // g


def _over_lcm(coeffs: Mapping[int, Fraction]) -> tuple[Integers, int]:
    """The nonzero `coeffs` as numerators over their least common
    denominator, which is their stored form."""
    coeffs = {key: c for key, c in coeffs.items() if c}
    den = math.lcm(*[c.denominator for c in coeffs.values()])
    return {key: c.numerator * (den // c.denominator) for key, c in coeffs.items()}, den


class _Sparse:
    """Ring operations on the stored form `_data` over `_den`.

    A subclass reads and sets the slots that fix its ring in `_space` and
    `_assign`, names its number of even variables `m`, and adds its
    checked `__init__`, its `terms` view, `_one` and calculus.
    """

    __slots__ = ()

    @classmethod
    def _stored(cls, space: tuple, data: IntegerBuckets, den: int) -> "_Sparse":
        """The element with exactly this stored form; checks nothing."""
        self = object.__new__(cls)
        self._assign(space)
        self._data = data
        self._den = den
        return self

    @classmethod
    def _build(cls, space: tuple, data: IntegerBuckets, den: int = 1) -> "_Sparse":
        """A kernel result, put in the stored form by `_reduced`."""
        return cls._stored(space, *_reduced(data, den))

    @classmethod
    def _checked(cls, space: tuple, data: IntegerBuckets, den: int) -> "_Sparse":
        """A product: `_build`, then LimitError if an exponent that would
        be stored passed the limit."""
        self = cls._build(space, data, den)
        _check_limit(self._data, self.m)
        return self

    def _check(self, other: "_Sparse") -> tuple:
        """The ring of both operands; DimensionError if they differ."""
        space = self._space()
        if other._space() != space:
            raise DimensionError(
                f"{type(self).__name__} operands live in different rings "
                f"({space} vs {other._space()})"
            )
        return space

    def is_zero(self) -> bool:
        return not self._data

    def __bool__(self) -> bool:
        return bool(self._data)

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        return _combination((1, 1), (self, other))

    def __neg__(self):
        return _combination((-1,), (self,))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        space = self._check(other)
        total = _multiply_buckets_into({}, self._data, other._data)
        return self._checked(space, total, self._den * other._den)

    # only a scalar on the left reaches it: the scalar branch of __mul__
    __rmul__ = __mul__

    def scale(self, c: Scalar):
        return _combination((_as_fraction(c),), (self,))

    def __pow__(self, exponent: int):
        """By repeated squaring: about 2 log2(exponent) products."""
        if exponent < 0:
            raise ValueError("negative powers are not defined")
        result, base = self._one(), self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, type(self))
            and self._space() == other._space()
            and self._den == other._den
            and self._data == other._data
        )

    def __hash__(self):
        buckets = frozenset((key, frozenset(poly.items())) for key, poly in self._data.items())
        return hash((*self._space(), self._den, buckets))


def _combination(weights: Sequence[Scalar], elements: Sequence[_Sparse]) -> _Sparse:
    """sum_k weights[k] * elements[k], summed over one common denominator
    and reduced once; the elements share the ring of the first."""
    first = elements[0]
    dens = [w.denominator * f._den for w, f in zip(weights, elements)]
    common = math.lcm(*dens)
    total: IntegerBuckets = {}
    for w, f, den in zip(weights, elements, dens):
        scale = w.numerator * (common // den)
        for key, poly in f._data.items():
            bucket = total.get(key)
            if bucket is None:
                total[key] = {e: scale * c for e, c in poly.items()}
            else:
                for e, c in poly.items():
                    bucket[e] = bucket.get(e, 0) + scale * c
    return first._build(first._space(), total, common)


class GrassmannElement(_Sparse):
    """An element of the Grassmann algebra on n anticommuting generators."""

    __slots__ = ("n", "_data", "_den")
    m = 0  # no even variables: every exponent key is 0

    def __init__(self, n: int, terms: Mapping[IndexTuple, Scalar]):
        if n < 0:
            raise DimensionError("number of generators must be nonnegative")
        coeffs = {
            _mask(_index_key(key, n, "generator")): _as_fraction(c) for key, c in terms.items()
        }
        numerators, self._den = _over_lcm(coeffs)
        self.n = n
        self._data = {mask: {0: c} for mask, c in numerators.items()}

    @property
    def terms(self) -> dict[IndexTuple, Fraction]:
        """Index tuples to nonzero Fractions: a view, built at each read."""
        den = self._den
        return {_indices(mask): Fraction(poly[0], den) for mask, poly in self._data.items()}

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "GrassmannElement":
        return cls(n, {})

    @classmethod
    def scalar(cls, value: Scalar, n: int) -> "GrassmannElement":
        """Embed a rational number as a degree-zero element."""
        return cls(n, {(): value})

    @classmethod
    def generator(cls, i: int, n: int) -> "GrassmannElement":
        return cls(n, {(i,): 1})

    @classmethod
    def monomial(cls, indices: Iterable[int], n: int, coeff: Scalar = 1) -> "GrassmannElement":
        return cls(n, {tuple(indices): coeff})

    def _one(self) -> "GrassmannElement":
        return self.scalar(1, self.n)

    def _space(self) -> tuple:
        return (self.n,)

    def _assign(self, space: tuple) -> None:
        (self.n,) = space

    # -- structure ---------------------------------------------------

    @property
    def body(self) -> Fraction:
        """The scalar part; the algebra map onto the ground field."""
        scalar = self._data.get(0)
        return Fraction(scalar[0], self._den) if scalar else Fraction(0)

    def soul(self) -> "GrassmannElement":
        """The complement of the body: all terms of positive degree."""
        return self._build((self.n,), {k: c for k, c in self._data.items() if k}, self._den)

    def parity(self) -> Optional[int]:
        """0 or 1 for homogeneous elements, None for mixed, 0 for zero."""
        if not self._data:
            return 0
        parities = {mask.bit_count() % 2 for mask in self._data}
        return parities.pop() if len(parities) == 1 else None

    # an entry of this class, so that it can be wrapped for this class alone
    __mul__ = _Sparse.__mul__

    # -- printing ----------------------------------------------------

    def __str__(self) -> str:
        from .parser import format_grassmann

        return format_grassmann(self)

    def __repr__(self) -> str:
        return f"GrassmannElement({self.n}, {self.terms!r})"


class GrassmannMorphism:
    """A parity-preserving algebra map between Grassmann algebras.

    Determined by the images of the source generators, which must all be
    odd (or zero) elements of the target algebra.  Freeness of the source
    makes any such assignment a well-defined algebra map.  The image of
    each monomial t[J] is kept once built (`_blade`).
    """

    __slots__ = ("source_n", "target_n", "images", "_blades")

    def __init__(self, source_n: int, target_n: int, images: Iterable[GrassmannElement]):
        images = tuple(images)
        if len(images) != source_n:
            raise DimensionError(
                f"expected {source_n} generator images, got {len(images)}"
            )
        for idx, img in enumerate(images, start=1):
            if img.n != target_n:
                raise DimensionError(
                    f"image of t[{idx}] lives in the wrong algebra "
                    f"({img.n} generators instead of {target_n})"
                )
            if not img.is_zero() and img.parity() != 1:
                raise ParityError(f"image of t[{idx}] must be odd")
        self.source_n = source_n
        self.target_n = target_n
        self.images = images
        self._blades = {0: GrassmannElement.scalar(1, target_n)}  # mask of J: image of t[J]

    @classmethod
    def identity(cls, n: int) -> "GrassmannMorphism":
        return cls(n, n, [GrassmannElement.generator(i, n) for i in range(1, n + 1)])

    @classmethod
    def to_scalars(cls, n: int) -> "GrassmannMorphism":
        """The terminal map killing every generator."""
        return cls(n, 0, [GrassmannElement.zero(0)] * n)

    @classmethod
    def from_scalars(cls, n: int) -> "GrassmannMorphism":
        """The initial map from the ground field viewed as 0 generators."""
        return cls(0, n, [])

    def apply(self, a: GrassmannElement) -> GrassmannElement:
        """Extend the generator assignment multiplicatively to `a`."""
        if a.n != self.source_n:
            raise DimensionError(
                f"element has {a.n} generators, morphism expects {self.source_n}"
            )
        if not a._data:
            return GrassmannElement.zero(self.target_n)
        weights = [Fraction(poly[0], a._den) for poly in a._data.values()]
        blades = [_blade(self._blades, self.images, mask, operator.mul) for mask in a._data]
        return _combination(weights, blades)

    def compose(self, inner: "GrassmannMorphism") -> "GrassmannMorphism":
        """self after inner."""
        if inner.target_n != self.source_n:
            raise DimensionError(
                f"cannot compose: inner lands in {inner.target_n} generators, "
                f"outer starts from {self.source_n}"
            )
        return GrassmannMorphism(
            inner.source_n, self.target_n, [self.apply(img) for img in inner.images]
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GrassmannMorphism)
            and self.source_n == other.source_n
            and self.target_n == other.target_n
            and self.images == other.images
        )

    def __str__(self) -> str:
        from .parser import format_grassmann_morphism

        return format_grassmann_morphism(self)

    def __repr__(self) -> str:
        return f"GrassmannMorphism({self.source_n}->{self.target_n})"

