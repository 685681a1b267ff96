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
levels deep; a deeper `(` is a parse error at its offset.  Every parse
error carries the byte offset of the offending token and the set of
token kinds that were acceptable.

One regex pass tokenizes a document and finds the dimensions its
indices need and its kind (`Tokens`): "factored" if it names phi0, else
"morphism" if it has an arrow, else "factored" if an X precedes `[`,
else "derivation" if it has d/dx or d/dth, else "superfunction".  A th
or t index list as the printers spell it (no spaces, increasing indices
without leading zeros, within the digit limit) is one `th`/`t` token
whose value is the index tuple; other spellings lex into `[`, ints,
commas and `]` for `parse_index_list`.  One statement loop then reads
the tokens; every statement fault comes before any dimension fault.

The parser reads into the stored form of `grassmann`.  One loop reads a
product's monomial atoms (numbers, x, th, t, and their powers) and folds
them as they come into one term in that layout: a numerator and a
denominator, packed exponents and an odd mask, each product's sign from
the kernel's memo.  The guard bits are checked after every power and
product, so an exponent past the limit raises LimitError and never
carries into the next field.  The monomial terms of a sum go straight
into one stored form over the lcm of their denominators; parenthesised
factors and operators take `parse_factor`, the Superfunction product,
`premultiply` and `_combine`.

Printers emit one canonical spelling per object (terms sorted, signs
absorbed into the joining operator, coefficient 1 suppressed); parsing
a canonical string and printing the result reproduces it byte for byte.
They read the stored numerators and denominator directly, each
coefficient reduced by one gcd.  An integer with more digits than
Python converts to or from text (`sys.get_int_max_str_digits`, 4300 by
default) raises LimitError, in the tokenizer and in the printers; a
number raised to a power is refused by the printers' message as soon as
k·log10 of its numerator or denominator passes that limit, before the
power is taken; a parenthesised factor is estimated by the coefficients
of the lowest and the highest term of its body (its terms free of th
and t), whose k-th powers are coefficients of the result.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
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


class Tokens(list):
    """The tokens of one text, and what the same pass saw of it: the
    largest x, th and t index it names (`seen`) and its kind (`document`)."""

    __slots__ = ("seen", "document")


# Whitespace before a token is skipped inside the match; a character that
# starts no token is matched as `bad`, the end of the text as `end`.  The
# alternatives come roughly in order of frequency; `tokenize` tells them
# apart by `lastindex`.
_TOKEN_RE = re.compile(
    r"""
    [ \t\r]*
    (?: ([*\[\],+/^();:{}]|-(?!>))   # 1 punctuation: its own kind and value
      | (th|t)\[((?:[1-9][0-9]*|0)(?:,(?:[1-9][0-9]*|0))*)\]  # 2 th or t, 3 its index list
      | (\d+)                       # 4 int
      | x(\d+)                      # 5 xvar
      | (th)(\d+)?                  # 6 th, 7 thvar
      | (t)(?:(\d+)|\b)             # 8 t, 9 tvar
      | (\n)                        # 10 newline
      | (->)                        # 11 arrow
      | d/d(?:x(\d+)|th(\d+))       # 12 d_dx, 13 d_dth
      | ([A-Za-z_][A-Za-z0-9_]*)    # 14 ident
      | ()\Z                        # 15 end
      | (.)                         # 16 bad
    )
    """,
    re.VERBOSE,
)

# The tokens whose value is an index: kind, the slot of `Tokens.seen` it
# raises and the length of the name before the digits.
_INDEXED = {
    5: ("xvar", 0, 1), 7: ("thvar", 1, 2), 9: ("tvar", 2, 1),
    12: ("d_dx", 0, 4), 13: ("d_dth", 1, 5),
}
# The tokens whose value is their text: kind, and the slot of `Tokens.seen`
# that the indices of a following `[` raise (0: none; None: unchanged).
_WORDS = {
    6: ("th", 1), 8: ("t", 2), 10: ("newline", None), 11: ("arrow", None), 14: ("ident", 0),
    15: ("end", None),
}


def tokenize(text: str) -> Tokens:
    """The tokens of `text`, in one pass that also records `Tokens.seen`
    and `Tokens.document`.  An index inside brackets belongs to the
    nearest th, t or X before the `[`."""
    tokens = Tokens()
    append = tokens.append
    new = tuple.__new__  # a Token, without NamedTuple's Python-level __new__
    seen = [0, 0, 0]
    owner = pending = 0  # the slot of `seen` that the open bracket's indices raise
    kinds = set()  # of the tokens other than punctuation and int, and "X["
    phi0 = False
    try:
        for match in _TOKEN_RE.finditer(text):
            i = match.lastindex
            pos = match.start(i)
            if i == 1:
                op = match.group(1)
                if op == "[":
                    owner, pending = pending, 0
                    if tokens and tokens[-1][1] == "X":
                        kinds.add("X[")
                elif op == "]":
                    owner = 0
                append(new(Token, (op, op, pos)))
            elif i == 3:
                name, digits = match.group(2, 3)
                pos, slot, parts = match.start(2), 1 if name == "th" else 2, digits.split(",")
                owner = pending = 0
                try:
                    key = tuple(map(int, parts))
                except ValueError:  # past the digit limit: raised below
                    key = (0, 0)
                seen[slot] = max(seen[slot], *key)
                if all(map(int.__lt__, key, key[1:])):
                    append(new(Token, (name, key, pos)))
                    continue
                # any other list: one token per index and punctuation mark
                append(new(Token, (name, name, pos)))
                pos += len(name)
                for op, part in zip("[" + "," * len(parts), parts):
                    append(new(Token, (op, op, pos)))
                    pos += 1
                    append(new(Token, ("int", int(part), pos)))
                    pos += len(part)
                append(new(Token, ("]", "]", pos)))
            elif i == 4:
                value = int(match.group(4))
                if owner and value > seen[owner]:
                    seen[owner] = value
                append(new(Token, ("int", value, pos)))
            elif i in _INDEXED:
                kind, slot, length = _INDEXED[i]
                pos -= length
                value = int(match.group(i))
                seen[slot] = max(seen[slot], value)
                kinds.add(kind)
                append(new(Token, (kind, value, pos)))
            elif i == 16:
                raise ParseError(pos, (), f"unexpected character {text[pos]!r}")
            else:
                word = match.group(i) or None  # the end token has no text
                kind, owns = _WORDS[i]
                if owns is not None:
                    pending = 2 if word == "X" else owns
                kinds.add(kind)
                phi0 = phi0 or word == "phi0"
                append(new(Token, (kind, word, pos)))
                if i == 15:  # the end, which one more empty match would repeat
                    break
    except ValueError:  # from int(); sys.get_int_max_str_digits exists where it is raised
        raise LimitError(
            f"integer at byte {pos} has more than {sys.get_int_max_str_digits()} digits"
        ) from None
    tokens.seen = Dimensions(*seen)
    tokens.document = (
        "factored" if phi0 else "morphism" if "arrow" in kinds
        else "factored" if "X[" in kinds
        else "derivation" if kinds & {"d_dx", "d_dth"} else "superfunction"
    )
    return tokens


class Dimensions(NamedTuple):
    m: int
    n: int
    p: int


def _infer_dimensions(
    tokens: Tokens, m: Optional[int], n: Optional[int], p: Optional[int]
) -> Dimensions:
    """Smallest dimensions covering every index in the text (`Tokens.seen`).

    Explicitly supplied bounds are enforced: an index beyond one of them
    is a DimensionError.
    """
    bounds = (m, n, p)
    for bound, seen, label in zip(bounds, tokens.seen, ("x", "th", "t")):
        if bound is not None and seen > bound:
            raise DimensionError(f"{label} index {seen} exceeds the declared bound {bound}")
    return Dimensions(*(s if b is None else b for b, s in zip(bounds, tokens.seen)))


Value = Union[Superfunction, SuperDerivation]

_EXPR_FOLLOW = ("end", "newline", ";", "}", ")")

# Parentheses may nest this deep; one level more is a parse error.
MAX_NESTING = 100


# Python's limit on the digits of an int converted to or from text, 0 if none
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _check_digits(k: int, num: int, den: int) -> None:
    """LimitError, before (num/den)^k is taken, when its numerator or
    denominator would have more digits than Python prints."""
    limit = _digit_limit()
    # k may be past the float range: compare it with a float, never convert it
    if limit and (size := math.log10(max(abs(num), den))) and k > limit / size:
        raise LimitError(f"a coefficient has more than {limit} digits to print")


class _Parser:
    def __init__(self, tokens: Tokens, dims: Dimensions):
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
        monomials: list[tuple[int, tuple]] = []
        weights: list[int] = []
        terms: list[Value] = []
        while True:
            if type(term) is tuple:
                monomials.append((sign, term))
            else:
                weights.append(sign)
                terms.append(term)  # type: ignore[arg-type]
            tok = self.tokens[self.pos]
            if tok.kind in ("+", "-"):
                self.pos += 1
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
            den = math.lcm(*[mono[1] for _, mono in monomials])
            total: IntegerBuckets = {}
            for sign, (num, d, key, mask) in monomials:
                bucket = total.setdefault(mask, {})
                bucket[key] = bucket.get(key, 0) + sign * num * (den // d)
            weights.append(1)
            terms.append(Superfunction._build(self.dims, total, den))
        return terms[0] if weights == [1] else _combine(weights, terms)

    def parse_term(self) -> Union[Value, tuple]:
        """A product, read in one loop (see the module docstring).  Atoms
        are checked as they are read; the first fault of the product (a
        factor after an operator, an exponent past the limit) is raised
        after its last factor, a run's where its product is needed: at the
        next parenthesis or the end."""
        tokens = self.tokens
        m, n, p = self.dims
        guard = _guard(m)
        num, den, key, mask = 1, 1, 0, 0  # the run folded so far
        ran = False  # whether the run has a factor
        segments: list[Superfunction] = []
        operator: Optional[SuperDerivation] = None
        fault: Optional[Exception] = None
        folding: Optional[LimitError] = None  # the run's fault
        value: Any
        pos = self.pos
        while True:
            kind, value, offset = tokens[pos]
            pos += 1
            if operator is not None and fault is None:
                fault = ParseError(
                    offset,
                    ("+", "-") + _EXPR_FOLLOW,
                    "a differential operator must end its product",
                )
            a_num = a_den = 1
            a_key = a_mask = 0
            if kind == "int":
                a_num = value
                if tokens[pos].kind == "/":
                    self.pos = pos + 1
                    a_den, pos = self.expect("int").value, pos + 2
                    if a_den == 0:
                        raise ParseError(tokens[pos - 1].offset, ("int",), "zero denominator")
            elif kind == "xvar":
                if not 1 <= value <= m:
                    raise DimensionError(f"variable index {value} out of range 1..{m}")
                a_key = 1 << _WIDTH * (value - 1)
            elif kind == "th" or kind == "t":
                if type(value) is str:  # a list lexed token by token
                    self.pos = pos
                    value = self.parse_index_list()
                    pos = self.pos
                bound, shift = (n, 0) if kind == "th" else (p, n)
                if value[0] < 1 or value[-1] > bound:
                    raise DimensionError(f"{kind} index out of range in {value}")
                a_mask = _mask(value) << shift
            elif kind == "thvar":
                if not 1 <= value <= n:
                    raise DimensionError(f"odd coordinate index {value} out of range 1..{n}")
                a_mask = 1 << (value - 1)
            elif kind == "tvar":
                if not 1 <= value <= p:
                    raise DimensionError(f"external index {value} out of range 1..{p}")
                a_mask = 1 << (n + value - 1)
            else:
                self.pos = pos - 1
                factor = self.parse_factor()
                pos = self.pos
                if isinstance(factor, SuperDerivation):
                    operator = factor
                else:
                    fault = fault or folding
                    if ran:
                        segments.append(Superfunction._build(self.dims, {mask: {key: num}}, den))
                    num, den, key, mask = 1, 1, 0, 0
                    ran, folding = False, None
                    segments.append(factor)
                if tokens[pos].kind != "*":
                    break
                pos += 1
                continue
            k = 1
            if tokens[pos].kind == "^":
                self.pos = pos + 1
                k, pos = self.expect("int").value, pos + 2
            ran = True
            if folding is None:
                try:
                    if k != 1:
                        if a_key and k > _LIMIT:  # an x atom's one field is 1
                            raise LimitError(f"exponent {k} exceeds the limit {_LIMIT}")
                        if k == 0:
                            a_num, a_den, a_key, a_mask = 1, 1, 0, 0
                        elif a_mask:
                            a_num = 0  # odd factors square to zero
                        else:
                            _check_digits(k, a_num, a_den)
                            a_num, a_den, a_key = a_num**k, a_den**k, a_key * k
                    num *= a_num
                    if mask & a_mask:
                        num = 0  # an odd factor twice
                    elif mask and a_mask:
                        num *= _SIGNS.get((mask, a_mask)) or _sign(mask, a_mask)
                    den, key, mask = den * a_den, key + a_key, mask | a_mask
                    if key & guard:
                        _unpack(key, m)  # raises
                except LimitError as exc:
                    folding = exc
            if tokens[pos].kind != "*":
                break
            pos += 1
        self.pos = pos
        fault = fault or folding
        if fault is not None:
            raise fault
        g = math.gcd(num, den)
        num, den = num // g, den // g
        if operator is None and not segments:
            return num, den, key, mask
        if (num, den, key, mask) != (1, 1, 0, 0) or not segments:
            segments.append(Superfunction._build(self.dims, {mask: {key: num}}, den))
        coeff = segments[0]
        for segment in segments[1:]:
            coeff = coeff * segment
        if operator is None:
            return coeff
        return operator.premultiply(coeff)

    def parse_factor(self) -> Value:
        """A factor that is not a monomial atom: d/dx<k>, d/dth<k> or a
        parenthesised expression, with its power."""
        m, n, p = self.dims
        kind, value, offset = self.advance()
        if kind == "d_dx":
            factor: Value = SuperDerivation.d_dx(value, m, n, p)  # type: ignore[arg-type]
        elif kind == "d_dth":
            factor = SuperDerivation.d_dtheta(value, m, n, p)  # type: ignore[arg-type]
        elif kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(
                    offset, (), f"parentheses nested more than {MAX_NESTING} levels deep"
                )
            self.depth += 1
            factor = self.parse_expression()
            self.expect(")")
            self.depth -= 1
        else:
            raise ParseError(
                offset,
                ("int", "xvar", "thvar", "tvar", "th", "t", "d_dx", "d_dth", "("),
                f"expected an atom, found {kind}",
            )
        caret = self.peek()
        if caret.kind != "^":
            return factor
        self.pos += 1
        exponent = self.expect("int").value
        if isinstance(factor, SuperDerivation):
            raise ParseError(caret.offset, (), "cannot raise a differential operator to a power")
        body = factor._data.get(0)  # type: ignore[union-attr]
        if body:
            # the lowest and the highest term of the body (packed keys compare
            # in a lex order) raised to the k-th power are terms of the power's
            # body, so their coefficients would be printed; a nilpotent value
            # has no body and is never refused
            den = factor._den  # type: ignore[union-attr]
            for key in (min(body), max(body)):
                g = math.gcd(body[key], den)
                _check_digits(exponent, body[key] // g, den // g)
        return factor**exponent  # type: ignore[operator]

    def parse_index_list(self) -> IndexTuple:
        """`[i, j, ...]`, strictly increasing: an X header's, or a th or t
        list not in the printers' spelling."""
        self.expect("[")
        indices: list[int] = []
        while True:
            tok = self.expect("int")
            if indices and indices[-1] >= tok.value:  # type: ignore[operator]
                raise ParseError(tok.offset, ("int",), "indices must be strictly increasing")
            indices.append(tok.value)  # type: ignore[arg-type]
            if self.peek().kind != ",":
                self.expect("]")
                return tuple(indices)
            self.advance()


def _expression(
    tokens: Tokens, m: Optional[int], n: Optional[int], p: Optional[int]
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
    theta = (1 << value.n) - 1
    terms = {}
    for mask, poly in value._data.items():
        if mask & theta or any(poly):  # a th factor, or a nonzero exponent key
            raise ParseError(offset, (), "Grassmann images may only use t generators")
        terms[_indices(mask >> value.n)] = Fraction(poly[0], value._den)
    return GrassmannElement(n, terms)


def parse_grassmann(text: str, n: Optional[int] = None) -> GrassmannElement:
    # at 0|0 the dimension check refuses every d/dx and d/dth, so the value
    # is a superfunction
    value = _expression(tokenize(text), 0, 0, n)
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
        self.starts: dict[tuple[str, int], int] = {}  # the offset of each image
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
            key = parser.parse_index_list() if type(lhs.value) is str else lhs.value
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
        block.starts[kind, index] = parser.peek().offset
        slot[index] = parser.parse_expression()


def _image_list(block: _Block, kind: str, count: Optional[int] = None) -> list[Superfunction]:
    """The images of one kind of coordinate in order: no gaps, no operators,
    and none missing below `count` when the number of coordinates is known."""
    images = block.images[kind]
    indices = range(1, max(max(images, default=0), count or 0) + 1)
    for i in indices:
        if i not in images:
            raise ParseError(block.offset, (), f"missing image for {kind}{i}")
    for i in indices:
        if isinstance(images[i], SuperDerivation):
            raise ParseError(block.starts[kind, i], (), "operator not allowed in a morphism image")
    return [images[i] for i in indices]  # type: ignore[misc]


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
    images = [placed(g, m, n) for g in x_images + th_images]
    body = UnderlyingMorphism(m, n, images[: len(x_images)], images[len(x_images) :])
    return body if hint is None else body.with_inverse(hint)


def _check_t_free(values: Sequence[Superfunction], offset: int, what: str) -> None:
    if any(g.external_support() not in ([], [()]) for g in values):
        raise ParseError(offset, (), f"{what} must be free of t generators")


def placed(value: Superfunction, m: int, n: int, p: int = 0) -> Superfunction:
    """A block's value, or an operator's argument, on m|n with p external
    generators, of which it uses none past p.  DimensionError names a
    coordinate past m|n: it is used and no image covers it."""
    for label, used, count in (("x", value.m, m), ("th", value.n, n)):
        if used > count:
            raise DimensionError(f"{label}{used} is used but has no image")
    return value.restrict_rank(p).embed(m, n, p)


MorphismResult = Union[SuperMorphism, GrassmannMorphism]


def _morphism(
    tokens: Tokens, m: Optional[int], n: Optional[int], p: Optional[int]
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
    images = [placed(g, mm, nn, pp) for g in x_images + th_images]
    return SuperMorphism._of(mm, nn, pp, images, inverse_hint=hint)


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


def _factored(tokens: Tokens) -> Factored:
    dims = _infer_dimensions(tokens, None, None, None)
    top = _statements(_Parser(tokens, dims), _Block("factored form", 0))
    phi0 = top.headers.get("phi0")
    if phi0 is None:
        raise ParseError(0, (), "factored form needs a phi0 block")
    fields = {
        key: field for key, field in top.fields.items() if isinstance(field, SuperDerivation)
    }
    for field in fields.values():
        _check_t_free(field._coeffs, 0, "components")
    body = _substitution(phi0)
    m, n = body.m, body.n
    clean = {key: field._map(lambda g: placed(g, m, n), 0) for key, field in fields.items()}
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
    kind = tokens.document
    if kind == "factored":
        return kind, _factored(tokens)
    if kind == "morphism":
        result = _morphism(tokens, None, None, None)
        if isinstance(result, GrassmannMorphism):
            return "grassmann_morphism", result
        return kind, result
    return kind, _expression(tokens, None, None, None)


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

    m = field.m
    for slot, coeff in enumerate(field._coeffs):
        emit(coeff, f"d/dx{slot + 1}" if slot < m else f"d/dth{slot - m + 1}")
    return _join_terms(chunks)


Images = Union[SuperMorphism, UnderlyingMorphism]


def image_pairs(phi: Images) -> list[tuple[str, str]]:
    """(coordinate, canonical image) for every coordinate, x's first.

    The one spelling of an image block, in text and in JSON documents.
    """
    m = phi.m
    return [
        (f"x{i + 1}" if i < m else f"th{i - m + 1}", format_superfunction(g))
        for i, g in enumerate(phi.images)
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
