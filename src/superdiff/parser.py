"""Text format: tokenizer, recursive-descent parser, canonical printers.

Grammar sketch (whitespace insensitive, newlines separate statements)::

    expression  := [sign] term (sign term)*
    term        := factor ('*' factor)*
    factor      := atom ['^' INT]
    atom        := rational | x<k> | th<k> | th[i,...] | t<k> | t[i,...]
                 | d/dx<k> | d/dth<k> | '(' expression ')'
    rational    := INT ['/' INT]

    statement   := lhs '->' expression
    morphism    := statement (';'|newline statement)* ['inverse:' statements]
    factored    := 'p:' INT 'phi0:' '{' morphism '}' ('X[i,...]:' expression)*

A differential atom may only stand last in a product; sums never mix
functions with operators.  Every parse error carries the byte offset of
the offending token and the set of token kinds that were acceptable.

Printers emit one canonical spelling per object (terms sorted, signs
absorbed into the joining operator, coefficient 1 suppressed); parsing
a canonical string and printing the result reproduces it byte for byte.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

from .derivation import SuperDerivation
from .errors import DimensionError, ParseError
from .grassmann import GrassmannElement, GrassmannMorphism
from .morphism import SuperMorphism
from .substitution import UnderlyingMorphism
from .superfn import Polynomial, Superfunction

IndexTuple = tuple[int, ...]


class Token(NamedTuple):
    kind: str
    value: object
    offset: int


_TOKEN_RE = re.compile(
    r"""
    (?P<ddx>d/dx(?P<ddx_i>\d+))
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
    """,
    re.VERBOSE,
)

_WS_RE = re.compile(r"[ \t\r]+")


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    while pos < len(text):
        if text[pos] == "\n":
            tokens.append(Token("newline", "\n", pos))
            pos += 1
            continue
        ws = _WS_RE.match(text, pos)
        if ws:
            pos = ws.end()
            continue
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(pos, (), f"unexpected character {text[pos]!r}")
        kind = match.lastgroup
        if kind == "ddx":
            tokens.append(Token("d_dx", int(match.group("ddx_i")), pos))
        elif kind == "ddth":
            tokens.append(Token("d_dth", int(match.group("ddth_i")), pos))
        elif kind == "xvar":
            tokens.append(Token("xvar", int(match.group("x_i")), pos))
        elif kind == "thvar":
            tokens.append(Token("thvar", int(match.group("th_i")), pos))
        elif kind == "tvar":
            tokens.append(Token("tvar", int(match.group("t_i")), pos))
        elif kind == "th":
            tokens.append(Token("th", "th", pos))
        elif kind == "t":
            tokens.append(Token("t", "t", pos))
        elif kind == "ident":
            tokens.append(Token("ident", match.group("ident"), pos))
        elif kind == "int":
            tokens.append(Token("int", int(match.group("int")), pos))
        elif kind == "arrow":
            tokens.append(Token("arrow", "->", pos))
        else:
            tokens.append(Token(match.group("op"), match.group("op"), pos))
        pos = match.end()
    tokens.append(Token("end", None, len(text)))
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


class _Parser:
    def __init__(self, tokens: Sequence[Token], dims: Dimensions):
        self.tokens = tokens
        self.pos = 0
        self.dims = dims

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

    def _one(self) -> Superfunction:
        m, n, p = self.dims
        return Superfunction.scalar(1, m, n, p)

    def parse_expression(self) -> Value:
        tok = self.peek()
        negate = False
        if tok.kind in ("+", "-"):
            self.advance()
            negate = tok.kind == "-"
        value = self.parse_term()
        if negate:
            value = -value
        while True:
            tok = self.peek()
            if tok.kind in ("+", "-"):
                self.advance()
                rhs = self.parse_term()
                if isinstance(value, SuperDerivation) != isinstance(rhs, SuperDerivation):
                    raise ParseError(
                        tok.offset,
                        (),
                        "cannot add a superfunction and a differential operator",
                    )
                value = value + rhs if tok.kind == "+" else value - rhs
            elif tok.kind in _EXPR_FOLLOW or tok.kind in ("arrow", ",", "]"):
                return value
            else:
                raise ParseError(
                    tok.offset,
                    ("+", "-") + _EXPR_FOLLOW,
                    f"unexpected {tok.kind} in expression",
                )

    def parse_term(self) -> Value:
        factors: list[tuple[Value, int]] = [(self.parse_factor())]
        while self.peek().kind == "*":
            self.advance()
            factors.append(self.parse_factor())
        coeff: Superfunction = self._one()
        operator: Optional[SuperDerivation] = None
        for value, offset in factors:
            if operator is not None:
                raise ParseError(
                    offset,
                    ("+", "-") + _EXPR_FOLLOW,
                    "a differential operator must end its product",
                )
            if isinstance(value, SuperDerivation):
                operator = value
            else:
                coeff = coeff * value
        if operator is None:
            return coeff
        return operator.premultiply(coeff)

    def parse_factor(self) -> tuple[Value, int]:
        offset = self.peek().offset
        value = self.parse_atom()
        if self.peek().kind == "^":
            caret = self.advance()
            exponent = self.expect("int")
            if isinstance(value, SuperDerivation):
                raise ParseError(
                    caret.offset, (), "cannot raise a differential operator to a power"
                )
            value = value ** int(exponent.value)  # type: ignore[arg-type]
        return value, offset

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

    def parse_atom(self) -> Value:
        m, n, p = self.dims
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            numerator = int(tok.value)  # type: ignore[arg-type]
            if self.peek().kind == "/":
                self.advance()
                denom_tok = self.expect("int")
                denominator = int(denom_tok.value)  # type: ignore[arg-type]
                if denominator == 0:
                    raise ParseError(denom_tok.offset, ("int",), "zero denominator")
                return Superfunction.scalar(Fraction(numerator, denominator), m, n, p)
            return Superfunction.scalar(numerator, m, n, p)
        if tok.kind == "xvar":
            self.advance()
            return Superfunction.coordinate(int(tok.value), m, n, p)  # type: ignore[arg-type]
        if tok.kind == "thvar":
            self.advance()
            return Superfunction.theta(int(tok.value), m, n, p)  # type: ignore[arg-type]
        if tok.kind == "tvar":
            self.advance()
            return Superfunction.tau(int(tok.value), m, n, p)  # type: ignore[arg-type]
        if tok.kind == "th":
            self.advance()
            key = self.parse_index_list()
            return Superfunction.monomial(m, n, p, Polynomial.const(1, m), key, ())
        if tok.kind == "t":
            self.advance()
            key = self.parse_index_list()
            return Superfunction.monomial(m, n, p, Polynomial.const(1, m), (), key)
        if tok.kind == "d_dx":
            self.advance()
            return SuperDerivation.d_dx(int(tok.value), m, n, p)  # type: ignore[arg-type]
        if tok.kind == "d_dth":
            self.advance()
            return SuperDerivation.d_dtheta(int(tok.value), m, n, p)  # type: ignore[arg-type]
        if tok.kind == "(":
            self.advance()
            value = self.parse_expression()
            self.expect(")")
            return value
        raise ParseError(
            tok.offset,
            ("int", "xvar", "thvar", "tvar", "th", "t", "d_dx", "d_dth", "("),
            f"expected an atom, found {tok.kind}",
        )


def _finish(parser: _Parser) -> None:
    parser.skip_newlines()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(tok.offset, ("end",), f"trailing {tok.kind} after expression")


def parse_expression_text(
    text: str,
    m: Optional[int] = None,
    n: Optional[int] = None,
    p: Optional[int] = None,
) -> Value:
    tokens = tokenize(text)
    dims = _infer_dimensions(tokens, m, n, p)
    parser = _Parser(tokens, dims)
    parser.skip_newlines()
    value = parser.parse_expression()
    _finish(parser)
    return value


def parse_superfunction(
    text: str,
    m: Optional[int] = None,
    n: Optional[int] = None,
    p: Optional[int] = None,
) -> Superfunction:
    value = parse_expression_text(text, m, n, p)
    if isinstance(value, SuperDerivation):
        raise ParseError(0, (), "expected a superfunction, found an operator")
    return value


def parse_derivation(
    text: str,
    m: Optional[int] = None,
    n: Optional[int] = None,
    p: Optional[int] = None,
) -> SuperDerivation:
    value = parse_expression_text(text, m, n, p)
    if isinstance(value, SuperDerivation):
        return value
    if value.is_zero():
        return SuperDerivation.zero(value.m, value.n, value.p)
    raise ParseError(0, (), "expected a differential operator")


def parse_grassmann(text: str, n: Optional[int] = None) -> GrassmannElement:
    value = parse_expression_text(text, m=0, n=0, p=n)
    if isinstance(value, SuperDerivation):
        raise ParseError(0, (), "expected a Grassmann element, found an operator")
    terms = {}
    for (_, tau_key), poly in value.terms.items():
        terms[tau_key] = poly.terms.get((), Fraction(0))
    return GrassmannElement(value.p, terms)


# -- morphisms ---------------------------------------------------------------


class _MorphismData:
    """Mutable accumulator for one block of image statements."""

    def __init__(self) -> None:
        self.x_images: dict[int, Value] = {}
        self.th_images: dict[int, Value] = {}
        self.t_images: dict[int, Value] = {}
        self.target: Optional[int] = None
        self.rank: Optional[int] = None


def _parse_statements(
    parser: _Parser, stop_at_brace: bool = False
) -> tuple[_MorphismData, Optional[_MorphismData]]:
    main = _MorphismData()
    inverse: Optional[_MorphismData] = None
    current = main
    while True:
        parser.skip_newlines()
        tok = parser.peek()
        if tok.kind == "end" or (stop_at_brace and tok.kind == "}"):
            break
        if tok.kind == ";":
            parser.advance()
            continue
        if tok.kind == "ident" and tok.value == "inverse":
            parser.advance()
            parser.expect(":")
            if inverse is not None:
                raise ParseError(tok.offset, (), "duplicate inverse block")
            inverse = _MorphismData()
            current = inverse
            continue
        if tok.kind == "ident" and tok.value == "target":
            parser.advance()
            parser.expect(":")
            current.target = int(parser.expect("int").value)  # type: ignore[arg-type]
            continue
        if tok.kind == "ident" and tok.value == "p":
            parser.advance()
            parser.expect(":")
            current.rank = int(parser.expect("int").value)  # type: ignore[arg-type]
            continue
        # image statement
        lhs = parser.advance()
        if lhs.kind == "xvar":
            slot, index = current.x_images, int(lhs.value)  # type: ignore[arg-type]
        elif lhs.kind == "thvar":
            slot, index = current.th_images, int(lhs.value)  # type: ignore[arg-type]
        elif lhs.kind == "tvar":
            slot, index = current.t_images, int(lhs.value)  # type: ignore[arg-type]
        elif lhs.kind == "th":
            key = parser.parse_index_list()
            if len(key) != 1:
                raise ParseError(lhs.offset, (), "left side must name one coordinate")
            slot, index = current.th_images, key[0]
        elif lhs.kind == "t":
            key = parser.parse_index_list()
            if len(key) != 1:
                raise ParseError(lhs.offset, (), "left side must name one generator")
            slot, index = current.t_images, key[0]
        else:
            raise ParseError(
                lhs.offset,
                ("xvar", "thvar", "tvar"),
                f"expected a coordinate on the left of ->, found {lhs.kind}",
            )
        if index in slot:
            raise ParseError(lhs.offset, (), "duplicate image assignment")
        parser.expect("arrow")
        slot[index] = parser.parse_expression()
    return main, inverse


def _require_contiguous(images: dict[int, Value], label: str) -> list[Value]:
    count = max(images, default=0)
    missing = [i for i in range(1, count + 1) if i not in images]
    if missing:
        raise ParseError(0, (), f"missing image for {label}{missing[0]}")
    return [images[i] for i in range(1, count + 1)]


def _as_superfunction(value: Value, dims: Dimensions) -> Superfunction:
    if isinstance(value, SuperDerivation):
        raise ParseError(0, (), "operator not allowed in a morphism image")
    return value


def _t_free(value: Value, dims: Dimensions, where: str, offset: int) -> Superfunction:
    g = _as_superfunction(value, dims)
    if g.external_support() not in ([], [()]):
        raise ParseError(offset, (), f"{where} must be free of t generators")
    return g.restrict_rank(0)


def _inverse_hint(
    inverse: _MorphismData, dims: Dimensions, m: int, n: int, offset: int
) -> UnderlyingMorphism:
    """An `inverse:` block as a substitution hint on m|n, free of t generators."""
    x_images, th_images = (
        [
            _t_free(v, dims, "inverse block", offset)
            for v in _require_contiguous(images, label)
        ]
        for images, label in ((inverse.x_images, "x"), (inverse.th_images, "th"))
    )
    return UnderlyingMorphism(
        m, n, [g.embed(m, n, 0) for g in x_images], [g.embed(m, n, 0) for g in th_images]
    )


MorphismResult = Union[SuperMorphism, GrassmannMorphism]


def parse_morphism(
    text: str,
    m: Optional[int] = None,
    n: Optional[int] = None,
    p: Optional[int] = None,
) -> MorphismResult:
    """Parse either a superdomain morphism or a Grassmann-algebra morphism.

    The kind is decided by the left-hand sides: t generators on the left
    mean a Grassmann morphism (an optional `target: k` statement pins
    its target rank); x/th coordinates mean a family of superdomain
    morphisms whose optional `inverse:` block supplies an inverse
    candidate for the underlying substitution.
    """
    tokens = tokenize(text)
    dims = _infer_dimensions(tokens, m, n, p)
    parser = _Parser(tokens, dims)
    main, inverse = _parse_statements(parser)
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(tok.offset, ("end",), f"trailing {tok.kind}")
    if main.t_images and (main.x_images or main.th_images):
        raise ParseError(0, (), "cannot mix coordinate and generator images")
    if main.t_images:
        if inverse is not None:
            raise ParseError(0, (), "Grassmann morphisms carry no inverse block")
        images = _require_contiguous(main.t_images, "t")
        elements = []
        inferred_target = 0
        for value in images:
            if isinstance(value, SuperDerivation):
                raise ParseError(0, (), "operator not allowed in a morphism image")
            for (theta_key, _), poly in value.terms.items():
                if theta_key or any(sum(e) for e in poly.terms):
                    raise ParseError(
                        0, (), "Grassmann images may only use t generators"
                    )
            support = value.external_support()
            if support:
                inferred_target = max(
                    inferred_target, max((k[-1] for k in support if k), default=0)
                )
        target = main.target if main.target is not None else inferred_target
        for value in images:
            assert isinstance(value, Superfunction)
            terms = {
                tau_key: poly.terms.get((0,) * value.m, Fraction(0))
                for (_, tau_key), poly in value.terms.items()
            }
            elements.append(GrassmannElement(target, terms))
        return GrassmannMorphism(len(elements), target, elements)

    x_images = [_as_superfunction(v, dims) for v in _require_contiguous(main.x_images, "x")]
    th_images = [_as_superfunction(v, dims) for v in _require_contiguous(main.th_images, "th")]
    mm = m if m is not None else len(x_images)
    nn = n if n is not None else len(th_images)
    if mm != len(x_images) or nn != len(th_images):
        raise DimensionError(
            f"morphism covers {len(x_images)} even and {len(th_images)} odd "
            f"coordinates, expected {mm} and {nn}"
        )
    pp = dims.p
    if p is None and main.rank is not None:
        if main.rank < dims.p:
            raise DimensionError(
                f"declared rank {main.rank} but images use t[{dims.p}]"
            )
        pp = main.rank
    x_images = [g.embed(mm, nn, pp) for g in x_images]
    th_images = [g.embed(mm, nn, pp) for g in th_images]

    hint: Optional[UnderlyingMorphism] = None
    if inverse is not None:
        if inverse.t_images:
            raise ParseError(0, (), "inverse block cannot remap t generators")
        hint = _inverse_hint(inverse, dims, mm, nn, 0)
    return SuperMorphism(mm, nn, pp, x_images, th_images, inverse_hint=hint)


def parse_factored(
    text: str,
) -> tuple[UnderlyingMorphism, dict[IndexTuple, SuperDerivation], int]:
    """Parse the factored serialization: rank, body block, component fields."""
    tokens = tokenize(text)
    dims = _infer_dimensions(tokens, None, None, None)
    parser = _Parser(tokens, dims)
    rank: Optional[int] = None
    body: Optional[SuperMorphism] = None
    fields: dict[IndexTuple, SuperDerivation] = {}
    while True:
        parser.skip_newlines()
        tok = parser.peek()
        if tok.kind == "end":
            break
        if tok.kind == ";":
            parser.advance()
            continue
        if tok.kind == "ident" and tok.value == "p":
            parser.advance()
            parser.expect(":")
            rank = int(parser.expect("int").value)  # type: ignore[arg-type]
            continue
        if tok.kind == "ident" and tok.value == "phi0":
            parser.advance()
            parser.expect(":")
            parser.skip_newlines()
            parser.expect("{")
            main, inverse = _parse_statements(parser, stop_at_brace=True)
            parser.expect("}")
            x_images = [
                _t_free(v, dims, "phi0 block", tok.offset)
                for v in _require_contiguous(main.x_images, "x")
            ]
            th_images = [
                _t_free(v, dims, "phi0 block", tok.offset)
                for v in _require_contiguous(main.th_images, "th")
            ]
            mm, nn = len(x_images), len(th_images)
            hint = None
            if inverse is not None:
                hint = _inverse_hint(inverse, dims, mm, nn, tok.offset)
            body = SuperMorphism(
                mm,
                nn,
                0,
                [g.embed(mm, nn, 0) for g in x_images],
                [g.embed(mm, nn, 0) for g in th_images],
                inverse_hint=hint,
            )
            continue
        if tok.kind == "ident" and tok.value == "X":
            parser.advance()
            key = parser.parse_index_list()
            parser.expect(":")
            value = parser.parse_expression()
            if not isinstance(value, SuperDerivation):
                if isinstance(value, Superfunction) and value.is_zero():
                    continue
                raise ParseError(tok.offset, (), "component must be an operator")
            fields[key] = value
            continue
        raise ParseError(
            tok.offset, ("ident",), f"expected p:, phi0: or X[...]:, found {tok.kind}"
        )
    if body is None:
        raise ParseError(0, (), "factored form needs a phi0 block")
    if rank is None:
        rank = max((k[-1] for k in fields if k), default=0)
    mm, nn = body.m, body.n
    underlying = UnderlyingMorphism(
        mm,
        nn,
        [g.external_coefficient(()) for g in body.images_x],
        [g.external_coefficient(()) for g in body.images_th],
    )
    if body.inverse_hint is not None:
        underlying = underlying.with_inverse(body.inverse_hint)
    clean: dict[IndexTuple, SuperDerivation] = {}
    for key, field in fields.items():
        coeffs = list(field.x_coeffs) + list(field.th_coeffs)
        if any(g.external_support() not in ([], [()]) for g in coeffs):
            raise ParseError(0, (), "components must be free of t generators")
        clean[key] = SuperDerivation(
            mm,
            nn,
            0,
            [g.restrict_rank(0).embed(mm, nn, 0) for g in field.x_coeffs],
            [g.restrict_rank(0).embed(mm, nn, 0) for g in field.th_coeffs],
        )
    return underlying, clean, rank


# -- detection ---------------------------------------------------------------


def parse_any(text: str) -> tuple[str, object]:
    """Parse a document of unknown kind, returning (kind, value).

    Kinds: "factored", "morphism", "grassmann_morphism", "derivation",
    "superfunction".
    """
    tokens = tokenize(text)
    kinds = {tok.kind for tok in tokens}
    idents = {tok.value for tok in tokens if tok.kind == "ident"}
    if "phi0" in idents:
        return ("factored", parse_factored(text))
    if "arrow" in kinds:
        result = parse_morphism(text)
        if isinstance(result, GrassmannMorphism):
            return ("grassmann_morphism", result)
        return ("morphism", result)
    if "d_dx" in kinds or "d_dth" in kinds:
        return ("derivation", parse_expression_text(text))
    return ("superfunction", parse_superfunction(text))


# -- printing ----------------------------------------------------------------


def format_fraction(c: Fraction) -> str:
    return str(c)


def _term_strings(
    coeff: Fraction, exps: tuple[int, ...], theta_key: IndexTuple, tau_key: IndexTuple
) -> tuple[int, str]:
    """(sign, body) for one additive term, sign split off for joining."""
    sign = -1 if coeff < 0 else 1
    magnitude = abs(coeff)
    parts: list[str] = []
    if magnitude != 1:
        parts.append(format_fraction(magnitude))
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
        parts.append(format_fraction(magnitude))
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
    out: list[tuple[int, str]] = []
    for (theta_key, tau_key) in sorted(f.terms):
        poly = f.terms[(theta_key, tau_key)]
        for exps in sorted(poly.terms, key=_monomial_order):
            out.append(_term_strings(poly.terms[exps], exps, theta_key, tau_key))
    return out


def format_superfunction(f: Superfunction) -> str:
    return _join_terms(_superfunction_terms(f))


def format_polynomial(poly: Polynomial) -> str:
    return format_superfunction(Superfunction.from_polynomial(poly, 0, 0))


def format_grassmann(a: GrassmannElement) -> str:
    out: list[tuple[int, str]] = []
    for key in sorted(a.terms):
        out.append(_term_strings(a.terms[key], (), (), key))
    return _join_terms(out)


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


def _image_lines(
    images_x: Sequence[Superfunction], images_th: Sequence[Superfunction]
) -> list[str]:
    lines = [f"x{i} -> {format_superfunction(g)}" for i, g in enumerate(images_x, 1)]
    lines += [f"th{j} -> {format_superfunction(g)}" for j, g in enumerate(images_th, 1)]
    return lines


def format_underlying(u: UnderlyingMorphism) -> str:
    lines = _image_lines(u.images_x, u.images_th)
    if u.inverse is not None:
        lines.append("inverse:")
        lines.extend(_image_lines(u.inverse.images_x, u.inverse.images_th))
    return "\n".join(lines)


def _visible_rank(images: Sequence[Superfunction]) -> int:
    rank = 0
    for g in images:
        for key in g.external_support():
            if key:
                rank = max(rank, key[-1])
    return rank


def format_morphism(phi: SuperMorphism) -> str:
    lines: list[str] = []
    if _visible_rank(list(phi.images_x) + list(phi.images_th)) != phi.p:
        lines.append(f"p: {phi.p}")
    lines.extend(_image_lines(phi.images_x, phi.images_th))
    if phi.inverse_hint is not None:
        lines.append("inverse:")
        lines.extend(
            _image_lines(phi.inverse_hint.images_x, phi.inverse_hint.images_th)
        )
    return "\n".join(lines)


def format_grassmann_morphism(gm: GrassmannMorphism) -> str:
    lines: list[str] = []
    visible = 0
    for img in gm.images:
        for key in img.terms:
            if key:
                visible = max(visible, key[-1])
    if visible != gm.target_n:
        lines.append(f"target: {gm.target_n}")
    lines.extend(
        f"t[{i}] -> {format_grassmann(img)}" for i, img in enumerate(gm.images, 1)
    )
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
