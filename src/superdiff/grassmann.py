"""Exact arithmetic in finitely generated Grassmann algebras.

An element of the algebra with anticommuting generators t[1], ..., t[n]
is stored sparsely as a dict mapping index tuples to rational
coefficients::

    3 + 2*t[1] - 1/2*t[1,3]   <->   {(): 3, (1,): 2, (1, 3): -1/2}

Keys are strictly increasing tuples of generator indices (1-based); the
empty tuple holds the scalar part.  Zero coefficients are never stored.
All coefficients are `fractions.Fraction`, so every operation is exact.

Multiplication reorders generator products into increasing index order
and picks up one sign flip per transposition; squares of generators
vanish.  The parity of a monomial t[i1]*...*t[ik] is k mod 2, and
parity-homogeneous elements supercommute.

The ring operations that `GrassmannElement` shares with `Polynomial` and
`Superfunction` (ring check, sum, negation, scaling, powers, equality,
hashing) live once, in the private base `_Sparse`.  Public constructors
check every key and coefficient; kernel-built results are not re-checked.

`Fraction` coefficients are what every element stores and every caller
sees.  The products of `Polynomial` and `Superfunction` (module
`superfn`) work inside over the integers, with one common denominator
per operand, and hand back Fractions in lowest terms; the Grassmann
product here, on few and short terms, stays with Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Optional, Union

from .errors import DimensionError, ParityError

Scalar = Union[int, Fraction]
IndexTuple = tuple[int, ...]


@lru_cache(maxsize=1 << 16)
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


def _accumulate(total: dict, pairs: Iterable[tuple]) -> dict:
    """Add each (key, value) of `pairs` into `total`; `_Sparse._build` drops zeros."""
    for key, value in pairs:
        total[key] = total[key] + value if key in total else value
    return total


class _Sparse:
    """Ring operations on `terms`, a dict from keys to nonzero coefficients.

    A subclass reads and sets the slots that fix its ring in `_space` and
    `_assign`, and adds its checked `__init__`, `_product`, `_one` and
    calculus.  `_build` makes kernel results: it checks nothing and only
    drops zero coefficients.
    """

    __slots__ = ()

    @classmethod
    def _build(cls, space: tuple, terms: Mapping) -> "_Sparse":
        self = object.__new__(cls)
        self._assign(space)
        self.terms = {key: value for key, value in terms.items() if value}
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
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._build(self._check(other), _accumulate(dict(self.terms), other.terms.items()))

    def __neg__(self):
        return self._build(self._space(), {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        return self._product(other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: Scalar):
        c = _as_fraction(c)
        return self._build(self._space(), {k: v * c for k, v in self.terms.items()})

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
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((*self._space(), frozenset(self.terms.items())))


class GrassmannElement(_Sparse):
    """An element of the Grassmann algebra on n anticommuting generators."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[IndexTuple, Scalar]):
        if n < 0:
            raise DimensionError("number of generators must be nonnegative")
        clean: dict[IndexTuple, Fraction] = {}
        for key, coeff in terms.items():
            key = _index_key(key, n, "generator")
            c = _as_fraction(coeff)
            if c:
                clean[key] = c
        self.n = n
        self.terms = clean

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
        return self.terms.get((), Fraction(0))

    def soul(self) -> "GrassmannElement":
        """The complement of the body: all terms of positive degree."""
        return self._build((self.n,), {k: c for k, c in self.terms.items() if k})

    def parity(self) -> Optional[int]:
        """0 or 1 for homogeneous elements, None for mixed, 0 for zero."""
        if not self.terms:
            return 0
        parities = {len(k) % 2 for k in self.terms}
        return parities.pop() if len(parities) == 1 else None

    # -- arithmetic --------------------------------------------------

    # an entry of this class, so that it can be wrapped for this class alone
    __mul__ = _Sparse.__mul__

    def _product(self, other: "GrassmannElement") -> "GrassmannElement":
        def pairs():
            for ka, ca in self.terms.items():
                for kb, cb in other.terms.items():
                    merged = merge_indices(ka, kb)
                    if merged is not None:
                        sign, key = merged
                        yield key, ca * cb if sign > 0 else -ca * cb

        return self._build((self.n,), _accumulate({}, pairs()))

    # -- printing ----------------------------------------------------

    def __str__(self) -> str:
        from .parser import format_grassmann

        return format_grassmann(self)

    def __repr__(self) -> str:
        return f"GrassmannElement({self.n}, {self.terms!r})"


def eps(a: GrassmannElement) -> Fraction:
    """Project onto the scalar part (the unique algebra map to the rationals)."""
    return a.body


def unit_embed(value: Scalar, n: int) -> GrassmannElement:
    """Embed a rational as a constant element; section of `eps`."""
    return GrassmannElement.scalar(value, n)


class GrassmannMorphism:
    """A parity-preserving algebra map between Grassmann algebras.

    Determined by the images of the source generators, which must all be
    odd (or zero) elements of the target algebra.  Freeness of the source
    makes any such assignment a well-defined algebra map.
    """

    __slots__ = ("source_n", "target_n", "images")

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
        result = GrassmannElement.zero(self.target_n)
        for key, coeff in a.terms.items():
            factor = GrassmannElement.scalar(coeff, self.target_n)
            for i in key:
                factor = factor * self.images[i - 1]
                if factor.is_zero():
                    break
            result = result + factor
        return result

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

