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
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Optional, Union

from .errors import DimensionError, ParityError

Scalar = Union[int, Fraction]
IndexTuple = tuple[int, ...]


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


class GrassmannElement:
    """An element of the Grassmann algebra on n anticommuting generators."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[IndexTuple, Scalar]):
        if n < 0:
            raise DimensionError("number of generators must be nonnegative")
        clean: dict[IndexTuple, Fraction] = {}
        for key, coeff in terms.items():
            key = tuple(key)
            if any(key[i] >= key[i + 1] for i in range(len(key) - 1)):
                raise ValueError(f"index tuple {key} is not strictly increasing")
            if key and (key[0] < 1 or key[-1] > n):
                raise DimensionError(f"generator index out of range in {key}")
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

    # -- structure ---------------------------------------------------

    @property
    def body(self) -> Fraction:
        """The scalar part; the algebra map onto the ground field."""
        return self.terms.get((), Fraction(0))

    def soul(self) -> "GrassmannElement":
        """The complement of the body: all terms of positive degree."""
        return GrassmannElement(self.n, {k: c for k, c in self.terms.items() if k})

    def is_zero(self) -> bool:
        return not self.terms

    def parity(self) -> Optional[int]:
        """0 or 1 for homogeneous elements, None for mixed, 0 for zero."""
        if not self.terms:
            return 0
        parities = {len(k) % 2 for k in self.terms}
        return parities.pop() if len(parities) == 1 else None

    # -- arithmetic --------------------------------------------------

    def _check_compatible(self, other: "GrassmannElement") -> None:
        if self.n != other.n:
            raise DimensionError(
                f"elements live in different algebras ({self.n} vs {other.n} generators)"
            )

    def __add__(self, other: "GrassmannElement") -> "GrassmannElement":
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        self._check_compatible(other)
        total = dict(self.terms)
        for key, coeff in other.terms.items():
            total[key] = total.get(key, Fraction(0)) + coeff
        return GrassmannElement(self.n, total)

    def __sub__(self, other: "GrassmannElement") -> "GrassmannElement":
        return self + (-other)

    def __neg__(self) -> "GrassmannElement":
        return GrassmannElement(self.n, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other: Union["GrassmannElement", Scalar]) -> "GrassmannElement":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        self._check_compatible(other)
        product: dict[IndexTuple, Fraction] = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                merged = merge_indices(ka, kb)
                if merged is None:
                    continue
                sign, key = merged
                product[key] = product.get(key, Fraction(0)) + sign * ca * cb
        return GrassmannElement(self.n, product)

    def __rmul__(self, other: Scalar) -> "GrassmannElement":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: Scalar) -> "GrassmannElement":
        c = _as_fraction(c)
        return GrassmannElement(self.n, {k: c * v for k, v in self.terms.items()})

    def __pow__(self, exponent: int) -> "GrassmannElement":
        if exponent < 0:
            raise ValueError("negative powers are not defined")
        result = GrassmannElement.scalar(1, self.n)
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GrassmannElement)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

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

