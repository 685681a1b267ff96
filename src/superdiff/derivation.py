"""Super vector fields on a superdomain and the calculus built on them.

A `SuperDerivation` is a first-order operator

    sum_i  c_i * d/dx_i  +  sum_j  g_j * d/dth_j

whose coefficients are superfunctions (possibly involving external odd
constants t[k]).  A field is its coefficient vector: m + n
superfunctions, the d/dx slots first, stored as one tuple.  Every
coefficient-wise operation (negation, scaling, premultiplication,
lifting, and the relabelling and t-component maps of the other modules)
is one `_map` over that vector, and every sum of fields is one
`_combine`, which sums each slot over the integers.

A field acts on a superfunction by differentiating term by term and
multiplying each result by the coefficient from the left.  The action
reads the stored form of `superfn` directly: the derivatives of
the argument are taken on its integer numerators, and every
c_i * d_i(f) is summed as integers over the lcm of the coefficients'
denominators, then reduced once.

The module also provides the combinatorial helpers used by the group
layer: ordered two-block splits and unordered partitions of an index
set, the symmetrized composition of several such operators, transport
of a field along an invertible substitution, and the terminating
exponential/logarithm series between fields of high filtration degree
and unipotent substitutions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, permutations
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, TypeVar, Union

from .errors import DimensionError, DomainError, InvertibilityError, ParityError
from .substitution import UnderlyingMorphism, _coordinates
from .grassmann import IntegerBuckets, _combination, _multiply_buckets_into
from .superfn import Superfunction, _diff_theta_buckets, _diff_x_buckets

Scalar = Union[int, Fraction]
IndexTuple = tuple[int, ...]


class SuperDerivation:
    """A super vector field with superfunction coefficients.

    The field is its coefficient vector: m + n superfunctions, the d/dx
    slots first.  `x_coeffs` and `th_coeffs` are views of its two parts.
    """

    __slots__ = ("m", "n", "p", "_coeffs")

    def __init__(
        self,
        m: int,
        n: int,
        p: int,
        x_coeffs: Sequence[Superfunction],
        th_coeffs: Sequence[Superfunction],
    ):
        x_coeffs = tuple(x_coeffs)
        th_coeffs = tuple(th_coeffs)
        if len(x_coeffs) != m or len(th_coeffs) != n:
            raise DimensionError(
                f"expected {m} even and {n} odd coefficients, "
                f"got {len(x_coeffs)} and {len(th_coeffs)}"
            )
        coeffs = x_coeffs + th_coeffs
        for g in coeffs:
            if (g.m, g.n, g.p) != (m, n, p):
                raise DimensionError("coefficient lives on the wrong domain")
        self.m = m
        self.n = n
        self.p = p
        self._coeffs = coeffs

    @classmethod
    def _of(cls, m: int, n: int, p: int, coeffs: Sequence[Superfunction]) -> "SuperDerivation":
        """The field with coefficient vector `coeffs`, d/dx slots first."""
        return cls(m, n, p, coeffs[:m], coeffs[m:])

    @property
    def x_coeffs(self) -> tuple[Superfunction, ...]:
        return self._coeffs[: self.m]

    @property
    def th_coeffs(self) -> tuple[Superfunction, ...]:
        return self._coeffs[self.m :]

    @classmethod
    def zero(cls, m: int, n: int, p: int = 0) -> "SuperDerivation":
        return cls._of(m, n, p, [Superfunction.zero(m, n, p)] * (m + n))

    @classmethod
    def _unit(cls, slot: int, m: int, n: int, p: int) -> "SuperDerivation":
        """The field with coefficient 1 in slot `slot` of the vector, 0 elsewhere."""
        coeffs = [Superfunction.zero(m, n, p)] * (m + n)
        coeffs[slot] = Superfunction.scalar(1, m, n, p)
        return cls._of(m, n, p, coeffs)

    @classmethod
    def d_dx(cls, i: int, m: int, n: int, p: int = 0) -> "SuperDerivation":
        if not 1 <= i <= m:
            raise DimensionError(f"variable index {i} out of range 1..{m}")
        return cls._unit(i - 1, m, n, p)

    @classmethod
    def d_dtheta(cls, j: int, m: int, n: int, p: int = 0) -> "SuperDerivation":
        if not 1 <= j <= n:
            raise DimensionError(f"odd coordinate index {j} out of range 1..{n}")
        return cls._unit(m + j - 1, m, n, p)

    def is_zero(self) -> bool:
        return all(g.is_zero() for g in self._coeffs)

    # -- grading -------------------------------------------------------

    def parity(self) -> Optional[int]:
        """Total parity (counting th and t factors); None if mixed."""
        parities = set()
        for slot, g in enumerate(self._coeffs):
            q = g.parity()
            if q is None:
                return None
            if not g.is_zero():
                parities.add((q + (slot >= self.m)) % 2)  # d/dth is odd
        if not parities:
            return 0
        return parities.pop() if len(parities) == 1 else None

    def filtration_degree(self) -> Union[int, float]:
        """How much the operator raises the th filtration, at worst.

        Coefficients of d/dx contribute their j_degree, coefficients of
        d/dth contribute one less; the zero field reports +inf.
        """
        return min(
            (g.j_degree() - (slot >= self.m) for slot, g in enumerate(self._coeffs)),
            default=math.inf,
        )

    # -- linear structure ----------------------------------------------

    def _check(self, other: "SuperDerivation") -> None:
        if (self.m, self.n, self.p) != (other.m, other.n, other.p):
            raise DimensionError("fields live on different domains")

    def _map(
        self, fn: Callable[[Superfunction], Superfunction], p: Optional[int] = None
    ) -> "SuperDerivation":
        """The field whose coefficients are fn(c), at rank p (this field's by default)."""
        return SuperDerivation._of(
            self.m, self.n, self.p if p is None else p, [fn(c) for c in self._coeffs]
        )

    def __add__(self, other: "SuperDerivation") -> "SuperDerivation":
        if not isinstance(other, SuperDerivation):
            return NotImplemented
        self._check(other)
        return _combine((1, 1), (self, other))

    def __neg__(self) -> "SuperDerivation":
        return self._map(lambda g: -g)

    def __sub__(self, other: "SuperDerivation") -> "SuperDerivation":
        if not isinstance(other, SuperDerivation):
            return NotImplemented
        self._check(other)
        return _combine((1, -1), (self, other))

    def scale(self, c: Scalar) -> "SuperDerivation":
        return self._map(lambda g: g.scale(c))

    def __mul__(self, other: Scalar) -> "SuperDerivation":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def premultiply(self, g: Superfunction) -> "SuperDerivation":
        """The operator f -> g * self(f); still a derivation."""
        return self._map(lambda c: g * c)

    def lift(self, p_new: int) -> "SuperDerivation":
        if p_new == self.p:
            return self
        return self._map(lambda g: g.lift(p_new), p_new)

    # -- action ----------------------------------------------------------

    def apply(self, f: Superfunction) -> Superfunction:
        """Act on a superfunction: sum_i c_i * d_i(f), over the integers."""
        if (f.m, f.n, f.p) != (self.m, self.n, self.p):
            raise DimensionError("field and superfunction live on different domains")
        coeffs = self._coeffs
        den = math.lcm(*[c._den for c in coeffs])
        total: IntegerBuckets = {}
        m, data = self.m, f._data
        for i, c in enumerate(coeffs):
            if c:
                d = _diff_x_buckets(data, i) if i < m else _diff_theta_buckets(data, i - m + 1)
                if d:
                    _multiply_buckets_into(total, c._data, d, den // c._den)
        return Superfunction._checked((m, self.n, self.p), total, den * f._den)

    def bracket(self, other: "SuperDerivation") -> "SuperDerivation":
        """The supercommutator [self, other].

        The sign in front of the reversed composition is fixed by the
        parities, so the fields must be homogeneous (a mixed field is
        tolerated when the other one is even, where no sign ambiguity
        arises).  The composite of two derivations is not a derivation,
        but this combination is, so it is assembled from its values on
        the coordinates.  A field's value on coordinate i is its
        coefficient i, so [X, Y]_i = X(Y_i) - sign * Y(X_i).
        """
        self._check(other)
        qa, qb = self.parity(), other.parity()
        if qa is None and qb is None:
            raise ParityError("bracket requires parity-homogeneous fields")
        if qa is None or qb is None:
            # one side mixed: fine only when the homogeneous side is even,
            # because then both parity components get the same sign
            if (qa if qa is not None else qb) != 0:
                raise ParityError(
                    "bracket of a mixed field needs an even partner"
                )
            sign = 1
        else:
            sign = -1 if (qa * qb) % 2 else 1
        return _combine((1, -sign), (other._map(self.apply), self._map(other.apply)))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SuperDerivation)
            and (self.m, self.n, self.p) == (other.m, other.n, other.p)
            and self._coeffs == other._coeffs
        )

    def __str__(self) -> str:
        from .parser import format_derivation

        return format_derivation(self)

    def __repr__(self) -> str:
        return f"SuperDerivation({self.m}|{self.n};{self.p})"


# -- index combinatorics ------------------------------------------------


class IndexPartition(NamedTuple):
    """An unordered partition of an index tuple into nonempty blocks.

    Blocks keep the induced increasing order and are listed sorted by
    their first entry, so each partition has exactly one representation.
    """

    parent: IndexTuple
    blocks: tuple[IndexTuple, ...]


def ordered_splits(indices: Iterable[int]) -> list[tuple[IndexTuple, IndexTuple]]:
    """All ordered pairs (K, L) of complementary sublists of `indices`.

    Both parts keep the induced order and may be empty, so a list of
    length k yields 2^k splits.
    """
    indices = tuple(indices)
    out: list[tuple[IndexTuple, IndexTuple]] = []
    for size in range(len(indices) + 1):
        for left in combinations(indices, size):
            chosen = set(left)
            right = tuple(i for i in indices if i not in chosen)
            out.append((left, right))
    return out


def unordered_partitions(indices: Iterable[int]) -> list[IndexPartition]:
    """All partitions of `indices` into disjoint nonempty blocks.

    The count is the Bell number of len(indices); the empty tuple has
    exactly one partition, the empty one.
    """
    indices = tuple(indices)
    if not indices:
        return [IndexPartition(indices, ())]

    def rec(items: IndexTuple) -> list[list[IndexTuple]]:
        if len(items) == 1:
            return [[items]]
        head, rest = items[0], items[1:]
        result: list[list[IndexTuple]] = []
        for partial in rec(rest):
            for b, block in enumerate(partial):
                result.append(partial[:b] + [(head,) + block] + partial[b + 1 :])
            result.append([(head,)] + partial)
        return result

    out = []
    for blocks in rec(indices):
        ordered = tuple(sorted(blocks, key=lambda block: block[0]))
        out.append(IndexPartition(indices, ordered))
    return out


PrefixedOp = Union[SuperDerivation, tuple[Optional[Superfunction], SuperDerivation]]


def _normalize_op(op: PrefixedOp) -> SuperDerivation:
    if isinstance(op, SuperDerivation):
        return op
    prefix, field = op
    if prefix is None:
        return field
    return field.lift(prefix.p).premultiply(prefix)


def symmetrize_apply(ops: Sequence[PrefixedOp], f: Superfunction) -> Superfunction:
    """Average of all k! composition orders of the operators, applied to f.

    Each entry is either a field or a (prefix, field) pair; a pair acts
    by differentiating and then multiplying by the prefix from the left,
    which is folded into the field's coefficients up front.
    """
    fields = [_normalize_op(op) for op in ops]
    if not fields:
        return f
    values = []
    for order in permutations(range(len(fields))):
        value = f
        for idx in reversed(order):
            value = fields[idx].apply(value)
            if value.is_zero():
                break
        values.append(value)
    return _combine([Fraction(1, len(values))] * len(values), values)


# -- transport along substitutions ---------------------------------------


def pushforward(phi0: UnderlyingMorphism, field: SuperDerivation) -> SuperDerivation:
    """Transport a field along an invertible substitution.

    The result satisfies  field(phi0(f)) == phi0(result(f))  for every f;
    concretely each new coefficient is phi0^{-1}(field(phi0(coordinate))).
    Requires a certified inverse on phi0.
    """
    if (phi0.m, phi0.n) != (field.m, field.n):
        raise DimensionError("substitution and field live on different domains")
    if phi0.inverse is None:
        raise InvertibilityError("pushforward needs a certified inverse")
    inv = phi0.inverse
    out = [inv.apply(field.apply(g.lift(field.p))) for g in phi0.images]
    return SuperDerivation._of(field.m, field.n, field.p, out)


# -- exponential and logarithm -------------------------------------------


_Term = TypeVar("_Term", Superfunction, SuperDerivation)


def _series(
    step: Callable[[_Term], _Term], first: _Term, coeff: Callable[[int], Fraction]
) -> _Term:
    """first + sum_{k>=1} coeff(k) * step^k(first), up to the first zero term.

    The one terminating series of the group layer: `step` raises a
    nilpotent filtration (th factors, or external t factors), so some
    power of it vanishes.  Works on superfunctions and on fields alike;
    the terms are summed once, by `_combine`.
    """
    terms = [first]
    while True:
        term = step(terms[-1])
        if term.is_zero():
            break
        terms.append(term)
    weights = [Fraction(1)] + [coeff(k) for k in range(1, len(terms))]
    return _combine(weights, terms)


def _combine(weights: Sequence[Scalar], terms: Sequence[_Term]) -> _Term:
    """sum_k weights[k] * terms[k], superfunctions or fields of one ring,
    summed over the integers one field coefficient at a time."""
    first = terms[0]
    if isinstance(first, Superfunction):
        return _combination(weights, terms)
    columns = zip(*(term._coeffs for term in terms))
    sums = [_combination(weights, column) for column in columns]
    return SuperDerivation._of(first.m, first.n, first.p, sums)


def _exp_coeff(k: int) -> Fraction:
    return Fraction(1, math.factorial(k))


def _log_coeff(k: int) -> Fraction:
    return Fraction((-1) ** (k + 1), k)


def exp_nilpotent(field: SuperDerivation) -> UnderlyingMorphism:
    """Exponentiate an even field of filtration degree at least 2.

    Each application of the field adds at least two th factors, so the
    series for every coordinate image breaks off; the result is a
    substitution automorphism fixing coordinates up to terms of
    filtration 2, and it carries exp(-field) as a certified inverse.
    """
    if field.p != 0:
        raise DomainError("exponential is defined for fields without external part")
    if field.parity() != 0:
        raise ParityError("exponential requires an even field")
    if field.filtration_degree() < 2:
        raise DomainError("exponential requires filtration degree at least 2")
    m, n = field.m, field.n
    fwd, bwd = (
        [_series(x.apply, g, _exp_coeff) for g in _coordinates(m, n)]
        for x in (field, -field)
    )
    return UnderlyingMorphism._of(m, n, fwd).with_inverse(UnderlyingMorphism._of(m, n, bwd))


def log_unipotent(phi: UnderlyingMorphism) -> SuperDerivation:
    """Logarithm of a unipotent substitution.

    Inverse of `exp_nilpotent`: evaluates the alternating series
    sum_{l>=1} (-1)^(l+1) (phi - id)^l / l on each coordinate, which
    terminates because phi - id raises the filtration degree.
    """
    if not phi.is_unipotent():
        raise DomainError("logarithm requires a unipotent substitution")
    m = phi.m
    coeffs = [
        _series(lambda f: phi.apply(f) - f, g, _log_coeff) - g
        for g in _coordinates(m, phi.n)
    ]
    field = SuperDerivation._of(m, phi.n, 0, coeffs)
    if field.parity() != 0:
        raise ParityError("logarithm produced a field of mixed parity")
    return field
