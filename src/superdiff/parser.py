"""Text format: tokenizer, recursive-descent parser, canonical printers.

Grammar sketch (whitespace insensitive, newlines separate statements)::

    expression  := [sign] term (sign term)*
    term        := factor ('*' factor)*
    factor      := atom ['^' INT]
    atom        := rational | x<k> | th<k> | th[i,...] | t<k> | t[i,...]
                 | d/dx<k> | d/dth<k> | '(' expression ')'
    rational    := INT ['/' INT]

    block       := item ((';' | newline) item)*
    item        := lhs '->' expression | header
    header      := 'p:' INT | 'target:' INT | 'inverse:' block
                 | 'phi0:' '{' block '}' | 'X[i,...]:' expression
    morphism    := block
    factored    := block

An `inverse:` block runs to the end of the block that holds it.  Each
kind of block allows its own headers, each at most once (`X[I]:` once
per I); any other header is a parse error at its offset:

    morphism       x/th images with optional `p:` and `inverse:`, or
                   t images (a Grassmann morphism) with optional `target:`
    inverse block  x/th images free of t generators, no headers
    phi0 block     x/th images free of t generators, optional `inverse:`
    factored form  `p:`, one `phi0:` block and `X[I]:` lines, no images

A differential atom may only stand last in a product; sums never mix
functions with operators.  Parentheses nest at most MAX_NESTING (100)
levels deep; a deeper `(` is a parse error at its offset.  Every parse error carries the byte offset of
the offending token and the set of token kinds that were acceptable.
Each document is tokenized once and read by one statement loop; every
statement fault is reported before any dimension fault.

The parser reads into the stored form of `grassmann`.  Each run of
monomial factors in a product (numbers, x, th and t atoms, and their
powers) is folded into one term in that layout: a numerator and a
denominator, packed exponents and an odd mask, the sign of each product
taken from the kernel's memo.  The guard bits are checked after every
power and product, so an exponent past the limit raises LimitError and
never carries into the next field.  The monomial terms of a sum go
straight into one stored form over the lcm of their denominators;
parenthesised factors and operators take the Superfunction product,
`premultiply` and `_combine`.

Printers emit one canonical spelling per object (terms sorted, signs
absorbed into the joining operator, coefficient 1 suppressed); parsing
a canonical string and printing the result reproduces it byte for byte.
They read the stored numerators and denominator directly, each
coefficient reduced by one gcd.  An integer with more digits than
Python converts to or from text (`sys.get_int_max_str_digits`, 4300 by
default) raises LimitError, in the tokenizer and in the printers.
"""

from __future__ import annotations

import math
import re
import sys
from typing import Any, Iterable, NamedTuple, Optional, Sequence, Union

from .derivation import SuperDerivation, _combine
from .errors import DimensionError, LimitError, ParseError
from .grassmann import (
    _LIMIT,
    _SIGNS,
    _WIDTH,
    GrassmannElement,
    GrassmannMorphism,
    IntegerBuckets,
    _guard,
    _index_key,
    _indices,
    _mask,
    _sign,
    _unpack,
)
from .morphism import SuperMorphism
from .substitution import UnderlyingMorphism
from .superfn import Polynomial, Superfunction

IndexTuple = tuple[int, ...]


class Token(NamedTuple):
    kind: str
    value: object
    offset: int


# Whitespace before a token is skipped inside the match; a character that
# starts no token is matched as `bad`, the end of the text as `end`.
_TOKEN_RE = re.compile(
    r"""
    [ \t\r]*
    (?: (?P<newline>\n)
  | (?P<ddx>d/dx(?P<ddx_i>\d+))
  | (?P<ddth>d/dth(?P<ddth_i>\d+))
  | (?P<xvar>x(?P<x_i>\d+))
  | (?P<thvar>th(?P<th_i>\d+))
  | (?P<tvar>t(?P<t_i>\d+))
  | (?P<th>th)
  | (?P<t>t\b)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>\d+)
  | (?P<arrow>->)
  | (?P<op>[+\-*^/()\[\],;:{}])
  | (?P<end>\Z)
  | (?P<bad>.)
    )
    """,
    re.VERBOSE,
)

# Token kind of each group of _TOKEN_RE and the group holding its integer
# value; without one, the matched text is the value (and an op its kind).
_TOKEN_KINDS = {
    "newline": ("newline", None),
    "ddx": ("d_dx", "ddx_i"),
    "ddth": ("d_dth", "ddth_i"),
    "xvar": ("xvar", "x_i"),
    "thvar": ("thvar", "th_i"),
    "tvar": ("tvar", "t_i"),
    "th": ("th", None),
    "t": ("t", None),
    "ident": ("ident", None),
    "int": ("int", "int"),
    "arrow": ("arrow", None),
    "op": (None, None),
    "end": ("end", None),
}


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    for match in _TOKEN_RE.finditer(text):
        group = match.lastgroup
        pos = match.start(group)
        if group == "bad":
            raise ParseError(pos, (), f"unexpected character {text[pos]!r}")
        kind, digits = _TOKEN_KINDS[group]  # type: ignore[index]
        if digits:
            try:
                value = int(match.group(digits))
            except ValueError:  # sys.get_int_max_str_digits exists where this is raised
                raise LimitError(
                    f"integer at byte {pos} has more than "
                    f"{sys.get_int_max_str_digits()} digits"
                ) from None
        else:
            value = match.group(group) or None  # the end token has no text
        tokens.append(Token(kind or value, value, pos))
        if group == "end":
            break
    return tokens


class Dimensions(NamedTuple):
    m: int
    n: int
    p: int


def _infer_dimensions(
    tokens: Sequence[Token],
    m: Optional[int],
    n: Optional[int],
    p: Optional[int],
) -> Dimensions:
    """Smallest dimensions covering every index in the token stream.

    Explicitly supplied bounds are enforced: an index beyond one of them
    is a parse error at the offending token.
    """
    seen_m = seen_n = seen_p = 0
    # indices inside brackets belong to the nearest preceding th / t / X
    bracket_owner: Optional[str] = None
    pending: Optional[str] = None
    for tok in tokens:
        if tok.kind in ("xvar", "d_dx"):
            seen_m = max(seen_m, int(tok.value))  # type: ignore[arg-type]
        elif tok.kind in ("thvar", "d_dth"):
            seen_n = max(seen_n, int(tok.value))  # type: ignore[arg-type]
        elif tok.kind == "tvar":
            seen_p = max(seen_p, int(tok.value))  # type: ignore[arg-type]
        if tok.kind == "th":
            pending = "n"
        elif tok.kind == "t":
            pending = "p"
        elif tok.kind == "ident":
            pending = "p" if tok.value == "X" else None
        elif tok.kind == "[":
            bracket_owner = pending
            pending = None
        elif tok.kind == "]":
            bracket_owner = None
        elif tok.kind == "int" and bracket_owner == "n":
            seen_n = max(seen_n, int(tok.value))  # type: ignore[arg-type]
        elif tok.kind == "int" and bracket_owner == "p":
            seen_p = max(seen_p, int(tok.value))  # type: ignore[arg-type]
    for bound, seen, label in ((m, seen_m, "x"), (n, seen_n, "th"), (p, seen_p, "t")):
        if bound is not None and seen > bound:
            raise DimensionError(
                f"{label} index {seen} exceeds the declared bound {bound}"
            )
    return Dimensions(
        m if m is not None else seen_m,
        n if n is not None else seen_n,
        p if p is not None else seen_p,
    )


Value = Union[Superfunction, SuperDerivation]

_EXPR_FOLLOW = ("end", "newline", ";", "}", ")")

# Parentheses may nest this deep; one level more is a parse error.
MAX_NESTING = 100


class _Monomial(NamedTuple):
    """num/den * x^key * the odd factors of mask: one term in the stored
    layout (packed exponents; th[j] at bit j - 1, t[k] at bit n + k - 1),
    into which a run of factors of a product is folded."""

    num: int
    den: int
    key: int
    mask: int

    def times(self, other: "_Monomial") -> "_Monomial":
        """The product, its keys added unchecked (see `_Parser.fold`)."""
        a, b = self.mask, other.mask
        num = self.num * other.num
        if a & b:
            num = 0  # an odd factor twice
        elif a and b:
            num *= _SIGNS.get((a, b)) or _sign(a, b)
        return _Monomial(num, self.den * other.den, self.key + other.key, a | b)

    def power(self, k: int) -> "_Monomial":
        """The k-th power, its key multiplied unchecked (see `_Parser.fold`)."""
        if k == 1:
            return self
        if k == 0:
            return _ONE
        if self.mask:
            return self._replace(num=0)  # odd factors square to zero
        return _Monomial(self.num**k, self.den**k, self.key * k, self.mask)


_ONE = _Monomial(1, 1, 0, 0)

# A factor as read: a value, or a monomial atom with its power (applied
# when its run is folded), and the offset of its first token.
Factor = tuple[Union[Value, _Monomial], int, int]


class _Parser:
    def __init__(self, tokens: Sequence[Token], dims: Dimensions):
        self.tokens = tokens
        self.pos = 0
        self.dims = dims
        self.depth = 0

    # -- token plumbing ------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(tok.offset, (kind,), f"expected {kind}, found {tok.kind}")
        return self.advance()

    def skip_newlines(self) -> None:
        while self.peek().kind == "newline":
            self.advance()

    # -- expressions ----------------------------------------------------

    def parse_expression(self) -> Value:
        """A signed sum.  Its monomial terms are summed into one stored form
        over the lcm of their denominators; the other terms (products with
        parentheses, operators) are summed with it once, by `_combine`."""
        tok = self.peek()
        sign = 1
        if tok.kind in ("+", "-"):
            self.advance()
            sign = -1 if tok.kind == "-" else 1
        term = self.parse_term()
        operators = isinstance(term, SuperDerivation)
        monomials: list[tuple[int, _Monomial]] = []
        weights: list[int] = []
        terms: list[Value] = []
        while True:
            if isinstance(term, _Monomial):
                monomials.append((sign, term))
            else:
                weights.append(sign)
                terms.append(term)
            tok = self.peek()
            if tok.kind in ("+", "-"):
                self.advance()
                sign = -1 if tok.kind == "-" else 1
                term = self.parse_term()
                if isinstance(term, SuperDerivation) != operators:
                    raise ParseError(
                        tok.offset,
                        (),
                        "cannot add a superfunction and a differential operator",
                    )
            elif tok.kind in _EXPR_FOLLOW or tok.kind in ("arrow", ",", "]"):
                break
            else:
                raise ParseError(
                    tok.offset,
                    ("+", "-") + _EXPR_FOLLOW,
                    f"unexpected {tok.kind} in expression",
                )
        if monomials:
            den = math.lcm(*[mono.den for _, mono in monomials])
            total: IntegerBuckets = {}
            for sign, mono in monomials:
                bucket = total.setdefault(mono.mask, {})
                bucket[mono.key] = bucket.get(mono.key, 0) + sign * mono.num * (den // mono.den)
            weights.append(1)
            terms.append(Superfunction._build(self.dims, total, den))
        return terms[0] if weights == [1] else _combine(weights, terms)

    def parse_term(self) -> Union[Value, _Monomial]:
        """A product.  Each run of monomial factors is folded into one
        term; when every factor is one, that term is the result.  Only
        parenthesised factors are multiplied as superfunctions."""
        factors = [self.parse_factor()]
        while self.peek().kind == "*":
            self.advance()
            factors.append(self.parse_factor())
        segments: list[Superfunction] = []
        run: list[tuple[_Monomial, int]] = []
        operator: Optional[SuperDerivation] = None
        for value, power, offset in factors:
            if operator is not None:
                raise ParseError(
                    offset,
                    ("+", "-") + _EXPR_FOLLOW,
                    "a differential operator must end its product",
                )
            if isinstance(value, SuperDerivation):
                operator = value
            elif isinstance(value, _Monomial):
                run.append((value, power))
            else:
                if run:
                    segments.append(self.superfunction(self.fold(run)))
                    run = []
                segments.append(value)
        mono = self.fold(run)
        if operator is None and not segments:
            return mono
        if mono != _ONE or not segments:
            segments.append(self.superfunction(mono))
        coeff = segments[0]
        for segment in segments[1:]:
            coeff = coeff * segment
        if operator is None:
            return coeff
        return operator.premultiply(coeff)

    def fold(self, run: list[tuple[_Monomial, int]]) -> _Monomial:
        """The product of monomial atoms raised to their powers, in lowest
        terms.  The guard bits are checked after every `^` and product, so
        an exponent past the limit raises LimitError before its packed
        field can carry into the next."""
        m = self.dims.m
        guard = _guard(m)
        mono = _ONE
        for atom, k in run:
            if atom.key and k > _LIMIT:  # an x atom's one field is 1
                raise LimitError(f"exponent {k} exceeds the limit {_LIMIT}")
            mono = mono.times(atom.power(k))
            if mono.key & guard:
                _unpack(mono.key, m)  # raises
        g = math.gcd(mono.num, mono.den)
        return mono if g == 1 else mono._replace(num=mono.num // g, den=mono.den // g)

    def superfunction(self, mono: _Monomial) -> Superfunction:
        return Superfunction._build(self.dims, {mono.mask: {mono.key: mono.num}}, mono.den)

    def parse_factor(self) -> Factor:
        offset = self.peek().offset
        value = self.parse_atom()
        power = 1
        if self.peek().kind == "^":
            caret = self.advance()
            exponent = int(self.expect("int").value)  # type: ignore[arg-type]
            if isinstance(value, SuperDerivation):
                raise ParseError(
                    caret.offset, (), "cannot raise a differential operator to a power"
                )
            if isinstance(value, _Monomial):
                power = exponent
            else:
                value = value**exponent
        return value, power, offset

    def parse_index_list(self) -> IndexTuple:
        self.expect("[")
        indices: list[int] = []
        while True:
            tok = self.expect("int")
            indices.append(int(tok.value))  # type: ignore[arg-type]
            if len(indices) >= 2 and indices[-2] >= indices[-1]:
                raise ParseError(
                    tok.offset, ("int",), "indices must be strictly increasing"
                )
            if self.peek().kind == ",":
                self.advance()
                continue
            self.expect("]")
            return tuple(indices)

    def parse_atom(self) -> Union[Value, _Monomial]:
        m, n, p = self.dims
        tok = self.peek()
        if tok.kind in ("int", "xvar", "thvar", "tvar", "th", "t"):
            self.advance()
        if tok.kind == "int":
            den = 1
            if self.peek().kind == "/":
                self.advance()
                denom_tok = self.expect("int")
                if denom_tok.value == 0:
                    raise ParseError(denom_tok.offset, ("int",), "zero denominator")
                den = denom_tok.value
            return _Monomial(tok.value, den, 0, 0)  # type: ignore[arg-type]
        if tok.kind == "xvar":
            if not 1 <= tok.value <= m:  # type: ignore[operator]
                raise DimensionError(f"variable index {tok.value} out of range 1..{m}")
            return _Monomial(1, 1, 1 << _WIDTH * (tok.value - 1), 0)  # type: ignore[operator]
        if tok.kind == "thvar":
            if not 1 <= tok.value <= n:  # type: ignore[operator]
                raise DimensionError(f"odd coordinate index {tok.value} out of range 1..{n}")
            return _Monomial(1, 1, 0, 1 << (tok.value - 1))  # type: ignore[operator]
        if tok.kind == "tvar":
            if not 1 <= tok.value <= p:  # type: ignore[operator]
                raise DimensionError(f"external index {tok.value} out of range 1..{p}")
            return _Monomial(1, 1, 0, 1 << (n + tok.value - 1))  # type: ignore[operator]
        if tok.kind == "th":
            return _Monomial(1, 1, 0, _mask(_index_key(self.parse_index_list(), n, "th")))
        if tok.kind == "t":
            return _Monomial(1, 1, 0, _mask(_index_key(self.parse_index_list(), p, "t")) << n)
        if tok.kind == "d_dx":
            self.advance()
            return SuperDerivation.d_dx(int(tok.value), m, n, p)  # type: ignore[arg-type]
        if tok.kind == "d_dth":
            self.advance()
            return SuperDerivation.d_dtheta(int(tok.value), m, n, p)  # type: ignore[arg-type]
        if tok.kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(
                    tok.offset, (), f"parentheses nested more than {MAX_NESTING} levels deep"
                )
            self.advance()
            self.depth += 1
            value = self.parse_expression()
            self.expect(")")
            self.depth -= 1
            return value
        raise ParseError(
            tok.offset,
            ("int", "xvar", "thvar", "tvar", "th", "t", "d_dx", "d_dth", "("),
            f"expected an atom, found {tok.kind}",
        )


def _expression(
    tokens: Sequence[Token], m: Optional[int], n: Optional[int], p: Optional[int]
) -> Value:
    parser = _Parser(tokens, _infer_dimensions(tokens, m, n, p))
    parser.skip_newlines()
    value = parser.parse_expression()
    parser.skip_newlines()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(tok.offset, ("end",), f"trailing {tok.kind} after expression")
    return value


def parse_expression_text(
    text: str,
    m: Optional[int] = None,
    n: Optional[int] = None,
    p: Optional[int] = None,
) -> Value:
    return _expression(tokenize(text), m, n, p)


def parse_superfunction(
    text: str,
    m: Optional[int] = None,
    n: Optional[int] = None,
    p: Optional[int] = None,
) -> Superfunction:
    value = _expression(tokenize(text), m, n, p)
    if isinstance(value, SuperDerivation):
        raise ParseError(0, (), "expected a superfunction, found an operator")
    return value


def parse_derivation(
    text: str,
    m: Optional[int] = None,
    n: Optional[int] = None,
    p: Optional[int] = None,
) -> SuperDerivation:
    value = _expression(tokenize(text), m, n, p)
    if isinstance(value, SuperDerivation):
        return value
    if value.is_zero():
        return SuperDerivation.zero(value.m, value.n, value.p)
    raise ParseError(0, (), "expected a differential operator")


def _grassmann(value: Superfunction, n: int, offset: int) -> GrassmannElement:
    """A superfunction in the t generators alone, as an element of Λ_n."""
    terms = {}
    for (theta_key, tau_key), poly in value.terms.items():
        if theta_key or poly.degree() > 0:
            raise ParseError(offset, (), "Grassmann images may only use t generators")
        terms[tau_key] = poly.terms[(0,) * value.m]
    return GrassmannElement(n, terms)


def parse_grassmann(text: str, n: Optional[int] = None) -> GrassmannElement:
    value = _expression(tokenize(text), 0, 0, n)
    if isinstance(value, SuperDerivation):
        raise ParseError(0, (), "expected a Grassmann element, found an operator")
    return _grassmann(value, value.p, 0)


# -- statements --------------------------------------------------------------

# The spelling of each header, and the headers each kind of block allows.
_HEADERS = {
    "p": "p:", "target": "target:", "inverse": "inverse:", "phi0": "phi0:", "X": "X[...]:"
}
_ALLOWED = {
    "morphism": ("p", "target", "inverse"),
    "inverse block": (),
    "phi0 block": ("inverse",),
    "factored form": ("p", "phi0", "X"),
}
_IMAGE_SLOTS = {"xvar": "x", "thvar": "th", "tvar": "t"}


class _Block:
    """The statements of one block: images, headers and component fields."""

    def __init__(self, kind: str, offset: int):
        self.kind = kind
        self.offset = offset  # where faults of the block as a whole are reported
        self.images: dict[str, dict[int, Value]] = {"x": {}, "th": {}, "t": {}}
        self.headers: dict[str, Any] = {}
        self.offsets: dict[str, int] = {}
        self.fields: dict[IndexTuple, Value] = {}

    def reject(self, name: str, where: str) -> None:
        if name in self.offsets:
            raise _misplaced(self.offsets[name], name, where)


def _misplaced(offset: int, name: str, where: str) -> ParseError:
    return ParseError(offset, (), f"{where} takes no {_HEADERS[name]} header")


def _statements(parser: _Parser, block: _Block, close: str = "end") -> _Block:
    """Read the statements of `block` up to `close` or the end of the text."""
    while True:
        parser.skip_newlines()
        tok = parser.peek()
        if tok.kind in ("end", close):
            return block
        if tok.kind == ";":
            parser.advance()
            continue
        if tok.kind == "ident" and tok.value in _HEADERS:
            name = str(tok.value)
            if name not in _ALLOWED[block.kind]:
                raise _misplaced(tok.offset, name, block.kind)
            if name in block.offsets:
                raise ParseError(tok.offset, (), f"duplicate {_HEADERS[name]} header")
            parser.advance()
            if name == "X":
                key = parser.parse_index_list()
                parser.expect(":")
                value = parser.parse_expression()
                if key in block.fields:
                    raise ParseError(tok.offset, (), "duplicate X[...]: header")
                if isinstance(value, Superfunction) and not value.is_zero():
                    raise ParseError(tok.offset, (), "component must be an operator")
                block.fields[key] = value
                continue
            parser.expect(":")
            if name == "inverse":
                block.headers[name] = _statements(
                    parser, _Block("inverse block", block.offset), close
                )
            elif name == "phi0":
                parser.skip_newlines()
                parser.expect("{")
                block.headers[name] = _statements(
                    parser, _Block("phi0 block", tok.offset), "}"
                )
                parser.expect("}")
            else:
                block.headers[name] = int(parser.expect("int").value)  # type: ignore[arg-type]
            block.offsets[name] = tok.offset
            continue
        if block.kind == "factored form":
            raise ParseError(
                tok.offset, ("ident",), f"expected p:, phi0: or X[...]:, found {tok.kind}"
            )
        lhs = parser.advance()
        if lhs.kind in _IMAGE_SLOTS:
            kind, index = _IMAGE_SLOTS[lhs.kind], int(lhs.value)  # type: ignore[arg-type]
        elif lhs.kind in ("th", "t"):
            key = parser.parse_index_list()
            if len(key) != 1:
                noun = "coordinate" if lhs.kind == "th" else "generator"
                raise ParseError(lhs.offset, (), f"left side must name one {noun}")
            kind, index = lhs.kind, key[0]
        else:
            raise ParseError(
                lhs.offset,
                ("xvar", "thvar", "tvar"),
                f"expected a coordinate on the left of ->, found {lhs.kind}",
            )
        if index == 0:
            raise ParseError(lhs.offset, (), f"{kind} indices start at 1, found {kind}0")
        slot = block.images[kind]
        if index in slot:
            raise ParseError(lhs.offset, (), "duplicate image assignment")
        parser.expect("arrow")
        slot[index] = parser.parse_expression()


def _image_list(block: _Block, kind: str, count: Optional[int] = None) -> list[Superfunction]:
    """The images of one kind of coordinate in order: no gaps, no operators,
    and none missing below `count` when the number of coordinates is known."""
    images = block.images[kind]
    indices = range(1, max(max(images, default=0), count or 0) + 1)
    for i in indices:
        if i not in images:
            raise ParseError(block.offset, (), f"missing image for {kind}{i}")
    ordered = [images[i] for i in indices]
    if any(isinstance(g, SuperDerivation) for g in ordered):
        raise ParseError(block.offset, (), "operator not allowed in a morphism image")
    return ordered  # type: ignore[return-value]


def _substitution(
    block: _Block, m: Optional[int] = None, n: Optional[int] = None
) -> UnderlyingMorphism:
    """An image block as a substitution of m|n, free of t generators.

    m and n default to the numbers of images.  A nested `inverse:` block
    is read on the same m|n and attached after the exact check.
    """
    if block.images["t"]:
        raise ParseError(block.offset, (), f"{block.kind} cannot remap t generators")
    x_images, th_images = _image_list(block, "x", m), _image_list(block, "th", n)
    _check_t_free(x_images + th_images, block.offset, block.kind)
    m = len(x_images) if m is None else m
    n = len(th_images) if n is None else n
    inverse = block.headers.get("inverse")
    hint = None if inverse is None else _substitution(inverse, m, n)
    body = UnderlyingMorphism(m, n, _rank0(x_images, m, n), _rank0(th_images, m, n))
    return body if hint is None else body.with_inverse(hint)


def _check_t_free(values: Sequence[Superfunction], offset: int, what: str) -> None:
    if any(g.external_support() not in ([], [()]) for g in values):
        raise ParseError(offset, (), f"{what} must be free of t generators")


def _rank0(values: Sequence[Superfunction], m: int, n: int) -> list[Superfunction]:
    """t-free values at external rank 0 on m|n."""
    return [g.restrict_rank(0).embed(m, n, 0) for g in values]


MorphismResult = Union[SuperMorphism, GrassmannMorphism]


def _morphism(
    tokens: Sequence[Token], m: Optional[int], n: Optional[int], p: Optional[int]
) -> MorphismResult:
    dims = _infer_dimensions(tokens, m, n, p)
    main = _statements(_Parser(tokens, dims), _Block("morphism", 0))
    if main.images["t"]:
        if main.images["x"] or main.images["th"]:
            raise ParseError(0, (), "cannot mix coordinate and generator images")
        main.reject("p", "Grassmann morphism")
        main.reject("inverse", "Grassmann morphism")
        images = _image_list(main, "t")
        target = main.headers.get("target")
        if target is None:
            target = _visible_rank(k for g in images for k in g.external_support())
        elements = [_grassmann(g, target, 0) for g in images]
        return GrassmannMorphism(len(elements), target, elements)

    main.reject("target", "superdomain morphism")
    x_images, th_images = _image_list(main, "x"), _image_list(main, "th")
    mm = m if m is not None else len(x_images)
    nn = n if n is not None else len(th_images)
    inverse = main.headers.get("inverse")
    hint = None if inverse is None else _substitution(inverse, mm, nn)
    if mm != len(x_images) or nn != len(th_images):
        raise DimensionError(
            f"morphism covers {len(x_images)} even and {len(th_images)} odd "
            f"coordinates, expected {mm} and {nn}"
        )
    pp = dims.p
    rank = main.headers.get("p")
    if p is None and rank is not None:
        if rank < dims.p:
            raise DimensionError(f"declared rank {rank} but images use t[{dims.p}]")
        pp = rank
    return SuperMorphism(
        mm,
        nn,
        pp,
        [g.embed(mm, nn, pp) for g in x_images],
        [g.embed(mm, nn, pp) for g in th_images],
        inverse_hint=hint,
    )


def parse_morphism(
    text: str,
    m: Optional[int] = None,
    n: Optional[int] = None,
    p: Optional[int] = None,
) -> MorphismResult:
    """Parse either a superdomain morphism or a Grassmann-algebra morphism.

    The kind is decided by the left-hand sides: t generators on the left
    mean a Grassmann morphism (an optional `target: k` header pins its
    target rank); x/th coordinates mean a family of superdomain
    morphisms (an optional `p: k` header pins its rank) whose optional
    `inverse:` block supplies an inverse candidate for the underlying
    substitution.
    """
    return _morphism(tokenize(text), m, n, p)


Factored = tuple[UnderlyingMorphism, dict[IndexTuple, SuperDerivation], int]


def _factored(tokens: Sequence[Token]) -> Factored:
    dims = _infer_dimensions(tokens, None, None, None)
    top = _statements(_Parser(tokens, dims), _Block("factored form", 0))
    phi0 = top.headers.get("phi0")
    if phi0 is None:
        raise ParseError(0, (), "factored form needs a phi0 block")
    fields = {
        key: field for key, field in top.fields.items() if isinstance(field, SuperDerivation)
    }
    for field in fields.values():
        _check_t_free(list(field.x_coeffs) + list(field.th_coeffs), 0, "components")
    body = _substitution(phi0)
    m, n = body.m, body.n
    clean = {
        key: SuperDerivation(m, n, 0, _rank0(field.x_coeffs, m, n), _rank0(field.th_coeffs, m, n))
        for key, field in fields.items()
    }
    rank = top.headers.get("p")
    return body, clean, _visible_rank(fields) if rank is None else rank


def parse_factored(text: str) -> Factored:
    """Parse the factored serialization: rank, body block, component fields."""
    return _factored(tokenize(text))


# -- detection ---------------------------------------------------------------


def parse_any(text: str) -> tuple[str, object]:
    """Parse a document of unknown kind, returning (kind, value).

    Kinds: "factored", "morphism", "grassmann_morphism", "derivation",
    "superfunction".
    """
    tokens = tokenize(text)
    kinds = {tok.kind for tok in tokens}
    if any(tok.kind == "ident" and tok.value == "phi0" for tok in tokens):
        return ("factored", _factored(tokens))
    if "arrow" in kinds:
        result = _morphism(tokens, None, None, None)
        if isinstance(result, GrassmannMorphism):
            return ("grassmann_morphism", result)
        return ("morphism", result)
    if "d_dx" in kinds or "d_dth" in kinds:
        return ("derivation", _expression(tokens, None, None, None))
    return ("superfunction", _expression(tokens, None, None, None))


# -- printing ----------------------------------------------------------------


def _magnitude(num: int, den: int) -> str:
    """|num/den| in lowest terms, as `Fraction` prints it; LimitError for
    an integer with more digits than Python converts to text."""
    g = math.gcd(num, den)
    num, den = abs(num) // g, den // g
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:  # sys.get_int_max_str_digits exists where this is raised
        raise LimitError(
            f"a coefficient has more than {sys.get_int_max_str_digits()} digits to print"
        ) from None


def _term_strings(
    num: int, den: int, exps: tuple[int, ...], theta_key: IndexTuple, tau_key: IndexTuple
) -> tuple[int, str]:
    """(sign, body) for the term num/den * x^exps * th[K] * t[J], sign
    split off for joining."""
    sign = -1 if num < 0 else 1
    magnitude = _magnitude(num, den)
    parts: list[str] = []
    if magnitude != "1":
        parts.append(magnitude)
    for i, e in enumerate(exps, start=1):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    if theta_key:
        parts.append("th[" + ",".join(str(j) for j in theta_key) + "]")
    if tau_key:
        parts.append("t[" + ",".join(str(k) for k in tau_key) + "]")
    if not parts:
        parts.append(magnitude)
    return sign, "*".join(parts)


def _join_terms(terms: list[tuple[int, str]]) -> str:
    if not terms:
        return "0"
    pieces: list[str] = []
    for position, (sign, body) in enumerate(terms):
        if position == 0:
            pieces.append(("-" if sign < 0 else "") + body)
        else:
            pieces.append((" - " if sign < 0 else " + ") + body)
    return "".join(pieces)


def _monomial_order(exps: tuple[int, ...]) -> tuple:
    # graded, then x1 before x2: lower total degree first, higher early slots first
    return (sum(exps), tuple(-e for e in exps))


def _superfunction_terms(f: Superfunction) -> list[tuple[int, str]]:
    """The terms of f in canonical order, read from its stored numerators:
    blocks by (th tuple, t tuple), then exponents by `_monomial_order`."""
    m, n, den = f.m, f.n, f._den
    theta = (1 << n) - 1
    blocks = sorted(((_indices(mask & theta), _indices(mask >> n)), mask) for mask in f._data)
    out: list[tuple[int, str]] = []
    for (theta_key, tau_key), mask in blocks:
        coeffs = [(_unpack(e, m), c) for e, c in f._data[mask].items()]
        coeffs.sort(key=lambda term: _monomial_order(term[0]))
        for exps, num in coeffs:
            out.append(_term_strings(num, den, exps, theta_key, tau_key))
    return out


def format_superfunction(f: Superfunction) -> str:
    return _join_terms(_superfunction_terms(f))


def format_polynomial(poly: Polynomial) -> str:
    return format_superfunction(Superfunction.from_polynomial(poly, 0, 0))


def format_grassmann(a: GrassmannElement) -> str:
    terms = sorted((_indices(mask), poly[0]) for mask, poly in a._data.items())
    return _join_terms([_term_strings(num, a._den, (), (), key) for key, num in terms])


def format_derivation(field: SuperDerivation) -> str:
    chunks: list[tuple[int, str]] = []

    def emit(coeff: Superfunction, op_name: str) -> None:
        if coeff.is_zero():
            return
        terms = _superfunction_terms(coeff)
        if len(terms) == 1:
            sign, body = terms[0]
            if body == "1":
                chunks.append((sign, op_name))
            else:
                chunks.append((sign, f"{body}*{op_name}"))
        else:
            chunks.append((1, f"({_join_terms(terms)})*{op_name}"))

    for i, coeff in enumerate(field.x_coeffs, start=1):
        emit(coeff, f"d/dx{i}")
    for j, coeff in enumerate(field.th_coeffs, start=1):
        emit(coeff, f"d/dth{j}")
    return _join_terms(chunks)


Images = Union[SuperMorphism, UnderlyingMorphism]


def image_pairs(phi: Images) -> list[tuple[str, str]]:
    """(coordinate, canonical image) for every coordinate, x's first.

    The one spelling of an image block, in text and in JSON documents.
    """
    pairs = [(f"x{i}", format_superfunction(g)) for i, g in enumerate(phi.images_x, 1)]
    return pairs + [
        (f"th{j}", format_superfunction(g)) for j, g in enumerate(phi.images_th, 1)
    ]


def _image_lines(phi: Images, inverse: Optional[UnderlyingMorphism]) -> list[str]:
    lines = [f"{name} -> {text}" for name, text in image_pairs(phi)]
    if inverse is not None:
        lines.append("inverse:")
        lines.extend(_image_lines(inverse, None))
    return lines


def format_underlying(u: UnderlyingMorphism) -> str:
    return "\n".join(_image_lines(u, u.inverse))


def _visible_rank(keys: Iterable[IndexTuple]) -> int:
    """The highest t generator that some index tuple names, or 0."""
    return max((key[-1] for key in keys if key), default=0)


def format_morphism(phi: SuperMorphism) -> str:
    visible = _visible_rank(key for g in phi.images for key in g.external_support())
    lines = [] if visible == phi.p else [f"p: {phi.p}"]
    return "\n".join(lines + _image_lines(phi, phi.inverse_hint))


def format_grassmann_morphism(gm: GrassmannMorphism) -> str:
    visible = _visible_rank(_indices(mask) for img in gm.images for mask in img._data)
    lines = [] if visible == gm.target_n else [f"target: {gm.target_n}"]
    lines += [f"t[{i}] -> {format_grassmann(img)}" for i, img in enumerate(gm.images, 1)]
    return "\n".join(lines)


def format_factored(
    body: UnderlyingMorphism,
    fields: dict[IndexTuple, SuperDerivation],
    p: int,
) -> str:
    lines = [f"p: {p}", "phi0: {"]
    lines.append(format_underlying(body))
    lines.append("}")
    for key in sorted(fields, key=lambda k: (len(k), k)):
        name = "X[" + ",".join(str(i) for i in key) + "]"
        lines.append(f"{name}: {format_derivation(fields[key])}")
    return "\n".join(lines)
