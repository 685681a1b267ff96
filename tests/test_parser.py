import io
import random
import re
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from unittest import mock

import pytest

from superdiff import GrassmannElement, Polynomial, SuperDerivation, Superfunction
from superdiff import cli
from superdiff import parser as fmt
from superdiff.errors import DimensionError, LimitError, ParseError, SuperdiffError
from superdiff.sampling import (
    random_derivation,
    random_grassmann,
    random_grassmann_morphism,
    random_point,
    random_superfunction,
)


def roundtrip_sf(text):
    return fmt.format_superfunction(fmt.parse_superfunction(text))


def test_tokenizer_offsets():
    tokens = fmt.tokenize("x1 + th[2]*t[1]")
    assert [(t.kind, t.offset) for t in tokens] == [("xvar", 0), ("+", 3), ("th", 5), ("end", 15)]
    # a term as the printers spell it is one token of its first atom's kind:
    # numerator, denominator, (kind, (largest x, th and t index), packed
    # exponents, th mask, t mask) and the spelling
    assert tokens[0].value == (1, 1, ("xvar", (1, 0, 0), 1, 0, 0), "x1")
    assert tokens[2].value == (1, 1, ("th", (0, 2, 1), 0, 0b10, 0b1), "th[2]*t[1]")
    assert tokens[2].value.atoms(5) == [("th", (2,), 5), ("*", "*", 10), ("t", (1,), 11)]
    assert [(t.kind, t.offset) for t in fmt.tokenize("x1 \t\r\n ")] == [
        ("xvar", 0), ("newline", 5), ("end", 7)
    ]
    with pytest.raises(ParseError, match="at byte 6: unexpected character '@'") as info:
        fmt.tokenize("x1 \t\r @")
    assert info.value.offset == 6


def test_product_tokens_read_where_no_term_starts_split_into_atoms():
    # an X header's list, a header's value and a left side read the atoms
    assert _outcome(lambda: fmt.parse_any("X[2*x1]: d/dx1")) == (
        ParseError, "at byte 3: expected ], found *"
    )
    assert _outcome(lambda: fmt.parse_any("p: 2*x1\nx1 -> x1")) == (
        ParseError, "at byte 4: expected a coordinate on the left of ->, found *"
    )
    assert _outcome(lambda: fmt.parse_any("x1 -> x1\nx1*th[1]\n->")) == (
        ParseError, "at byte 9: duplicate image assignment"
    )
    assert _outcome(lambda: fmt.parse_any("x1 -> x1\nx2*th[1]; x1")) == (
        ParseError, "at byte 11: expected arrow, found *"
    )
    # dimensions that do not cover a product: each atom checks its own index
    parser = fmt._Parser(fmt.tokenize("x1*x2*th[1]"), fmt.Dimensions(1, 1, 0))
    with pytest.raises(DimensionError, match="^variable index 2 out of range 1..1$"):
        parser.parse_term()


def test_expression_basics():
    f = fmt.parse_superfunction("3/2*x1^2 - x2 + 1")
    assert fmt.format_superfunction(f) == "1 - x2 + 3/2*x1^2"
    g = fmt.parse_superfunction("th[1,2]*t[2] - th[1]")
    assert fmt.format_superfunction(g) == "-th[1] + th[1,2]*t[2]"
    assert fmt.parse_superfunction("0").is_zero()
    # a power binds to the whole rational
    assert fmt.format_superfunction(fmt.parse_superfunction("2/3^0*x1 + 2/3^2")) == "4/9 + x1"


def test_sugar_forms_agree():
    assert fmt.parse_superfunction("th1", n=2) == fmt.parse_superfunction(
        "th[1]", n=2
    )
    assert fmt.parse_superfunction("t2", p=3) == fmt.parse_superfunction(
        "t[2]", p=3
    )


def test_parenthesized_products():
    f = fmt.parse_superfunction("(x1 + x2)*(x1 - x2)")
    g = fmt.parse_superfunction("x1^2 - x2^2")
    assert f == g


@pytest.mark.parametrize(
    "text",
    [
        "t1*th1",
        "t[1,2]*th[1]*t[3]*th2",
        "th1*th1",
        "t1*x1*t1",
        "th[1,2]^2",
        "t2^1*th2^0*x2^3",
        "-2/4*x1*(x1 + th1*t1)*th2*t2*(x2 - th1*t3)",
        "0*th1",
        "0^0*x1",
        "th[2,1]*x1",
        "x1*x3",
        "2/3*x1*3/4*th1*t1*th2",
    ],
)
def test_products_fold_like_superfunction_products(text):
    # every factor parsed alone, then multiplied as superfunctions; a
    # fault is the same fault either way
    dims = {"m": 2, "n": 2, "p": 3}
    factors = []
    depth, start = 0, 0
    for i, ch in enumerate(text + "*"):
        depth += {"(": 1, ")": -1}.get(ch, 0)
        if ch == "*" and depth == 0:
            factors.append(text[start:i])
            start = i + 1

    def by_factors():
        sign = -1 if factors[0].startswith("-") else 1
        expected = fmt.parse_superfunction(factors[0].lstrip("-"), **dims) * sign
        for factor in factors[1:]:
            expected = expected * fmt.parse_superfunction(factor, **dims)
        return expected

    assert _outcome(lambda: fmt.parse_superfunction(text, **dims)) == _outcome(by_factors)


def _outcome(parse):
    """The value `parse` returns, or the type and message of its fault."""
    try:
        return parse()
    except (ParseError, DimensionError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "text, exponent",
    [
        # the packed sum of the first two would carry into the x2 field
        ("x1^2147483647*x1^2147483647*x1^2147483647", 4294967294),
        # a zero coefficient does not hide the exponent
        ("0*x1^2147483647*x1", 2147483648),
        ("th1*th1*x2^2147483647*x2", 2147483648),
        ("x1^2147483648*x2", 2147483648),
        # a power whose packed field would overflow the x1 field exactly
        ("x1^4294967296*x2", 4294967296),
    ],
)
def test_folded_exponents_past_the_limit(text, exponent):
    with pytest.raises(LimitError, match=f"^exponent {exponent} exceeds the limit 2147483647$"):
        fmt.parse_superfunction(text, m=2)


def test_fault_order_in_products_with_large_exponents():
    # a later fault in the product is reported as before: the run of
    # monomial factors is folded only where its product is needed
    with pytest.raises(ParseError, match="strictly increasing"):
        fmt.parse_superfunction("x1^2147483648*th[2,1]")
    with pytest.raises(ParseError, match="a differential operator must end its product"):
        fmt.parse_expression_text("x1^2147483647*x1*d/dx1*x1")
    with pytest.raises(LimitError, match="exponent 2147483648"):
        fmt.parse_expression_text("x1^2147483647*x1*(x1)*d/dx1*x1")


def test_derivation_parsing():
    d = fmt.parse_derivation("(x1 + th[1,2])*d/dx1 - 2*d/dth1")
    assert d.m == 1 and d.n == 2
    assert fmt.parse_derivation("0").is_zero()
    with pytest.raises(ParseError):
        fmt.parse_derivation("x1 + 2")  # nonzero function is not an operator


def test_operator_position_errors():
    with pytest.raises(ParseError):
        fmt.parse_expression_text("d/dx1*x1")  # operator must end the product
    with pytest.raises(ParseError):
        fmt.parse_expression_text("d/dx1^2")
    with pytest.raises(ParseError):
        fmt.parse_expression_text("x1 + d/dx1")


def test_diagnostics_carry_offset_and_expectations():
    try:
        fmt.parse_superfunction("x1 + ")
    except ParseError as exc:
        assert exc.offset == 5
        assert "(" in exc.expected
    else:
        raise AssertionError("should not parse")
    try:
        fmt.parse_superfunction("th[2,1]")
    except ParseError as exc:
        assert "increasing" in str(exc)
    else:
        raise AssertionError("should not parse")


def test_dimension_bounds_enforced():
    with pytest.raises(DimensionError):
        fmt.parse_superfunction("x3", m=2)
    with pytest.raises(DimensionError):
        fmt.parse_superfunction("th[3]", n=1)


def test_morphism_parsing_and_checks():
    phi = fmt.parse_morphism("x1 -> x1 + th[1]*t[1]\nth1 -> th1")
    assert (phi.m, phi.n, phi.p) == (1, 1, 1)
    with pytest.raises(ParseError):
        fmt.parse_morphism("x1 -> x1\nx1 -> x2\nth1 -> th1")  # duplicate
    with pytest.raises(ParseError):
        fmt.parse_morphism("x2 -> x2\nth1 -> th1")  # missing x1
    with pytest.raises(ParseError):
        fmt.parse_morphism("x1 -> x1\nt[1] -> t[1]")  # mixed kinds


def test_morphism_rank_header():
    phi = fmt.parse_morphism("p: 2\nx1 -> x1\nth1 -> th1")
    assert phi.p == 2
    text = fmt.format_morphism(phi)
    assert text.splitlines()[0] == "p: 2"
    again = fmt.parse_morphism(text)
    assert again.p == 2


def test_inverse_block_becomes_hint():
    phi = fmt.parse_morphism(
        "x1 -> 2*x1\nth1 -> th1\ninverse:\nx1 -> 1/2*x1\nth1 -> th1"
    )
    assert phi.inverse_hint is not None
    assert phi.inverse_hint.images_x[0] == fmt.parse_superfunction(
        "1/2*x1", m=1, n=1
    )


def test_grassmann_morphism_parsing():
    gm = fmt.parse_morphism("t[1] -> t[2] + t[1,2,3]\nt[2] -> t[1]")
    assert gm.source_n == 2 and gm.target_n == 3
    text = fmt.format_grassmann_morphism(gm)
    again = fmt.parse_morphism(text)
    assert fmt.format_grassmann_morphism(again) == text
    wide = fmt.parse_morphism("target: 4\nt[1] -> t[1]")
    assert wide.target_n == 4


def test_factored_form_round_trip():
    text = "\n".join(
        [
            "p: 2",
            "phi0: {",
            "x1 -> 1 + x1",
            "th1 -> th[1]",
            "}",
            "X[1]: th[1]*d/dx1",
            "X[1,2]: d/dth1",
        ]
    )
    body, fields, p = fmt.parse_factored(text)
    assert p == 2 and set(fields) == {(1,), (1, 2)}
    out = fmt.format_factored(body, fields, p)
    assert fmt.format_factored(*fmt.parse_factored(out)) == out


def test_factored_rejects_external_in_components():
    text = "p: 1\nphi0: {\nx1 -> x1\n}\nX[1]: t[1]*d/dx1"
    with pytest.raises(ParseError):
        fmt.parse_factored(text)


def test_parse_any_detection():
    assert fmt.parse_any("x1 + 1")[0] == "superfunction"
    assert fmt.parse_any("d/dx1")[0] == "derivation"
    assert fmt.parse_any("x1 -> x1")[0] == "morphism"
    assert fmt.parse_any("t[1] -> t[1]")[0] == "grassmann_morphism"
    assert fmt.parse_any("phi0: {\nx1 -> x1\n}")[0] == "factored"


def test_format_polynomial():
    assert fmt.format_polynomial(Polynomial.zero(2)) == "0"
    poly = Polynomial(2, {(2, 1): Fraction(-3, 2), (0, 0): 1, (0, 3): Fraction(1, 3)})
    assert fmt.format_polynomial(poly) == "1 - 3/2*x1^2*x2 + 1/3*x2^3"
    assert fmt.parse_superfunction(fmt.format_polynomial(poly)).body_polynomial() == poly


def test_grassmann_element_round_trip():
    rng = random.Random(90)
    for _ in range(100):
        a = random_grassmann(rng, 4)
        text = fmt.format_grassmann(a)
        assert fmt.parse_grassmann(text, n=4) == a
        assert fmt.format_grassmann(fmt.parse_grassmann(text)) == text


def test_superfunction_fixpoint_fuzzed():
    rng = random.Random(91)
    for _ in range(300):
        f = random_superfunction(rng, 2, 2, 2, degree=2, terms=4)
        text = fmt.format_superfunction(f)
        g = fmt.parse_superfunction(text)
        assert fmt.format_superfunction(g) == text
        # parsing the canonical text recovers the terms up to dimensions
        assert g.embed(2, 2, 2) == f


def test_derivation_fixpoint_fuzzed():
    rng = random.Random(92)
    for _ in range(200):
        d = random_derivation(rng, 2, 2, 2, degree=1)
        text = fmt.format_derivation(d)
        assert fmt.format_derivation(fmt.parse_derivation(text)) == text


def test_morphism_fixpoint_fuzzed():
    rng = random.Random(93)
    for _ in range(15):
        point = random_point(rng, 2, 2, 2, degree=1)
        from superdiff.cli import _point_morphism

        phi = _point_morphism(point)
        text = fmt.format_morphism(phi)
        assert fmt.format_morphism(fmt.parse_morphism(text)) == text


def test_format_parse_fixpoint_on_generated_shapes():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def index_keys(count):
        if not count:
            return st.just(())
        indices = st.lists(st.integers(1, count), max_size=min(count, 4), unique=True)
        return indices.map(lambda indices: tuple(sorted(indices)))

    def superfunctions(data, m, n, p):
        coeffs = st.dictionaries(
            st.tuples(*[st.integers(0, 3)] * m),
            st.fractions(min_value=-4, max_value=4, max_denominator=6),
            max_size=3,
        )
        keys = st.tuples(index_keys(n), index_keys(p))
        terms = data.draw(st.dictionaries(keys, coeffs, max_size=4))
        return Superfunction(m, n, p, {key: Polynomial(m, c) for key, c in terms.items()})

    def fields(data, m, n, p):
        coeffs = [Superfunction.zero(m, n, p)] * (m + n)
        for slot in data.draw(st.lists(st.integers(0, m + n - 1), max_size=3, unique=True)):
            coeffs[slot] = superfunctions(data, m, n, p)
        return SuperDerivation(m, n, p, coeffs[:m], coeffs[m:])

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        m, n, p = data.draw(st.sampled_from([(1, 1, 0), (2, 3, 2), (1, 70, 2), (3, 66, 3)]))
        f = superfunctions(data, m, n, p)
        text = fmt.format_superfunction(f)
        assert fmt.format_superfunction(fmt.parse_superfunction(text)) == text
        assert fmt.parse_superfunction(text, m, n, p) == f
        field = fields(data, m, n, p)
        text = fmt.format_derivation(field)
        assert fmt.format_derivation(fmt.parse_derivation(text)) == text
        assert fmt.parse_derivation(text, m, n, p) == field

    check()


def test_format_fraction_forms():
    f = fmt.parse_superfunction("-1/2 + x1 - 3*x2")
    assert fmt.format_superfunction(f) == "-1/2 + x1 - 3*x2"
    g = fmt.parse_superfunction("-th[1]")
    assert fmt.format_superfunction(g) == "-th[1]"


def test_whitespace_and_newline_handling():
    f = fmt.parse_superfunction("  x1   +\t2 ")
    assert fmt.format_superfunction(f) == "2 + x1"
    phi = fmt.parse_morphism("x1 -> x1;; th1 -> th1")
    assert phi.n == 1


def test_t_images_rejected_in_phi0_blocks():
    inverse_t = "p: 1\nphi0: { x1 -> x1; th1 -> th1; inverse: x1 -> x1; th1 -> th1; t1 -> t1 }"
    with pytest.raises(ParseError, match="inverse block cannot remap t generators"):
        fmt.parse_factored(inverse_t)
    with pytest.raises(ParseError, match="inverse block cannot remap t generators"):
        fmt.parse_morphism("x1 -> x1; th1 -> th1; inverse: x1 -> x1; th1 -> th1; t1 -> t1")
    with pytest.raises(ParseError, match="phi0 block cannot remap t generators"):
        fmt.parse_factored("p: 1\nphi0: { x1 -> x1; t1 -> t1 }")


def test_inverse_block_gap_wins_over_dimensions():
    # th3 alone would widen the domain; the gap at th1 is reported first
    with pytest.raises(ParseError, match="missing image for th1"):
        fmt.parse_morphism("x1 -> x1; th1 -> th1; inverse: x1 -> x1; th3 -> th1")
    # the last images left out are a gap too, not a dimension fault
    short = "x1 -> x1; th1 -> th1; inverse: x1 -> x1"
    with pytest.raises(ParseError, match="missing image for th1"):
        fmt.parse_morphism(short)
    with pytest.raises(ParseError, match="missing image for th1"):
        fmt.parse_factored(f"p: 1\nphi0: {{ {short} }}")


@pytest.mark.parametrize(
    "text, header",
    [
        ("x1 -> x1; th1 -> th1; inverse: p: 2; x1 -> x1; th1 -> th1", "p:"),
        ("x1 -> x1; th1 -> th1; inverse: target: 2; x1 -> x1; th1 -> th1", "target:"),
        ("p: 1\nphi0: { p: 2; x1 -> x1 }", "p:"),
        ("p: 1\nphi0: { target: 2; x1 -> x1 }", "target:"),
        ("target: 3\nx1 -> x1\nth1 -> th1", "target:"),
        ("p: 3\nt[1] -> t[2]", "p:"),
        ("p: 2\np: 3\nx1 -> x1", "p:"),
        ("target: 3\ntarget: 4\nt[1] -> t[2]", "target:"),
        ("x1 -> x1\ninverse:\nx1 -> x1\ninverse:\nx1 -> x1", "inverse:"),
        ("p: 2\np: 3\nphi0: { x1 -> x1 }", "p:"),
        ("p: 2\nphi0: { x1 -> x1 }\nphi0: { x1 -> 2*x1 }", "phi0:"),
        ("p: 2\nphi0: { x1 -> x1 }\nX[1]: d/dx1\nX[1]: 2*d/dx1", "X[1]"),
    ],
)
def test_misplaced_or_repeated_header_is_rejected(text, header):
    with pytest.raises(ParseError) as info:
        fmt.parse_any(text)
    assert info.value.offset == text.rindex(header)
    assert "header" in info.value.message


@pytest.mark.parametrize(
    "text, lhs",
    [
        ("x0 -> 5*x1\nx1 -> x1", "x0"),
        ("x1 -> x1\nth0 -> th1\nth1 -> th1", "th0"),
        ("x1 -> x1; th[0] -> th1", "th[0]"),
        ("t0 -> t[1]", "t0"),
        ("t[1] -> t[1]\nt[0] -> t[1]", "t[0]"),
        ("x1 -> 2*x1\ninverse:\nx0 -> 1/2*x1", "x0"),
        ("p: 1\nphi0: { x1 -> x1; th0 -> th1 }", "th0"),
    ],
)
def test_index_zero_on_the_left_is_rejected(text, lhs):
    with pytest.raises(ParseError) as info:
        fmt.parse_any(text)
    assert info.value.offset == text.index(lhs)
    assert "start at 1" in info.value.message


FACTORED_HEAD = "p: 1\nphi0: { x1 -> x1 }\n"


@pytest.mark.parametrize(
    "parse, text, error, message, offset",
    [
        (fmt.parse_any, "th0", DimensionError, "odd coordinate index 0 out of range 1..0", None),
        (fmt.parse_any, "t0", DimensionError, "external index 0 out of range 1..0", None),
        (fmt.parse_any, "th[0]", DimensionError, "th index out of range in (0,)", None),
        (fmt.parse_any, "1/0*x1", ParseError, "zero denominator", 2),
        (fmt.parse_any, "x1 )", ParseError, "trailing ) after expression", 3),
        (
            fmt.parse_superfunction,
            "d/dx1",
            ParseError,
            "expected a superfunction, found an operator",
            0,
        ),
        (fmt.parse_any, FACTORED_HEAD + "X[1]: x1", ParseError, "component must be an operator", 24),
        (
            fmt.parse_any,
            FACTORED_HEAD + "x1 -> x1",
            ParseError,
            "expected p:, phi0: or X[...]:, found xvar",
            24,
        ),
        (
            fmt.parse_factored,
            "p: 1\nX[1]: th[1]*d/dx1",
            ParseError,
            "factored form needs a phi0 block",
            0,
        ),
        (fmt.parse_any, "th[1,2] -> th1", ParseError, "left side must name one coordinate", 0),
        (fmt.parse_any, "t[1,2] -> t1", ParseError, "left side must name one generator", 0),
        (
            fmt.parse_any,
            "5 -> x1",
            ParseError,
            "expected a coordinate on the left of ->, found int",
            0,
        ),
        (fmt.parse_any, "x1 -> d/dx1", ParseError, "operator not allowed in a morphism image", 6),
        (
            fmt.parse_any,
            "x1 -> x1\nth1 -> d/dth1",
            ParseError,
            "operator not allowed in a morphism image",
            16,
        ),
        (
            fmt.parse_any,
            "x1 -> x1; th1 -> th1; inverse: x1 -> d/dx1; th1 -> th1",
            ParseError,
            "operator not allowed in a morphism image",
            37,
        ),
        (
            fmt.parse_any,
            "p: 1\nphi0: { x1 -> x1; th1 -> 2*d/dth1 }",
            ParseError,
            "operator not allowed in a morphism image",
            30,
        ),
        (
            fmt.parse_any,
            "p: 1\nX[1]: th[1]*d/dx1",
            ParseError,
            "factored form needs a phi0 block",
            0,
        ),
        (
            lambda text: fmt.parse_morphism(text, m=3),
            "x1 -> x1\nx2 -> x2",
            DimensionError,
            "morphism covers 2 even and 0 odd coordinates, expected 3 and 0",
            None,
        ),
        (
            fmt.parse_any,
            "p: 1\nx1 -> x1 + th[1]*t[1,2]\nth1 -> th1",
            DimensionError,
            "declared rank 1 but images use t[2]",
            None,
        ),
        (fmt.parse_any, "th[1", ParseError, "expected ], found end", 4),
        (fmt.parse_any, "th[x1]", ParseError, "expected int, found xvar", 3),
        (fmt.parse_superfunction, "x1 x2", ParseError, "unexpected xvar in expression", 3),
        (
            fmt.parse_any,
            "t[1] -> x1*t[1]",
            ParseError,
            "Grassmann images may only use t generators",
            0,
        ),
        (
            fmt.parse_any,
            "t[1] -> t[2]\nt[2] -> th1*t[1,2]",
            ParseError,
            "Grassmann images may only use t generators",
            0,
        ),
        (
            fmt.parse_any,
            "target: 1\nt[1] -> t[2]",
            DimensionError,
            "generator index out of range in (2,)",
            None,
        ),
        # at 0|0 the dimension check refuses an operator before anything else
        (
            fmt.parse_grassmann,
            "d/dx1",
            DimensionError,
            "x index 1 exceeds the declared bound 0",
            None,
        ),
        (
            fmt.parse_grassmann,
            "t[1]*d/dth2",
            DimensionError,
            "th index 2 exceeds the declared bound 0",
            None,
        ),
        (
            fmt.parse_grassmann,
            "d/dx0",
            DimensionError,
            "variable index 0 out of range 1..0",
            None,
        ),
    ],
)
def test_parse_error_type_message_and_offset(parse, text, error, message, offset):
    with pytest.raises(error) as info:
        parse(text)
    assert type(info.value) is error
    if offset is None:
        assert str(info.value) == message
    else:
        assert (info.value.offset, info.value.message) == (offset, message)
        assert str(info.value) == f"at byte {offset}: {message}"


def test_factored_form_without_phi0_is_named_by_parse_any():
    for text in ("p: 1\nX[1]: th[1]*d/dx1", "X [3] : d/dth2\np: 4"):
        assert fmt.tokenize(text).document == "factored"
        with pytest.raises(ParseError, match="^at byte 0: factored form needs a phi0 block$"):
            fmt.parse_any(text)
    # an X that no [ follows names no factored form
    assert fmt.tokenize("X + d/dx1").document == "derivation"


def test_index_zero_in_an_expression_is_a_dimension_error():
    with pytest.raises(DimensionError):
        fmt.parse_superfunction("x0 + x1")
    with pytest.raises(DimensionError):
        fmt.parse_morphism("x1 -> x0")


def test_parse_any_tokenizes_once(monkeypatch):
    calls = []
    tokenize = fmt.tokenize

    def counting(text):
        calls.append(text)
        return tokenize(text)

    monkeypatch.setattr(fmt, "tokenize", counting)
    morphism = "x1 -> 2*x1\nth1 -> th1\ninverse:\nx1 -> 1/2*x1\nth1 -> th1"
    factored = "p: 1\nphi0: {\n" + morphism + "\n}\nX[1]: th[1]*d/dx1"
    for text, kind in ((morphism, "morphism"), (factored, "factored")):
        calls.clear()
        assert fmt.parse_any(text)[0] == kind
        assert calls == [text]


def test_long_sum_round_trip():
    # 4000 terms, summed once: the parse is linear in the number of terms
    text = " + ".join(["x1*th[1]"] + [f"{k}*x1^{k}*th[1]" for k in range(2, 4001)])
    f = fmt.parse_superfunction(text)
    assert len(f.terms[(1,), ()].terms) == 4000
    assert fmt.format_superfunction(f) == text
    assert fmt.parse_superfunction(fmt.format_superfunction(-f)) == -f
    assert fmt.parse_superfunction(f"{text} - ({text})").is_zero()
    with pytest.raises(ParseError, match="cannot add a superfunction and a differential operator"):
        fmt.parse_expression_text(text + " + d/dx1")


# -- the printers against the `.terms` view ------------------------------------


def _reference_term_strings(coeff, exps, theta_key, tau_key):
    """(sign, body) of one term, printed from a Fraction."""
    sign = -1 if coeff < 0 else 1
    magnitude = abs(coeff)
    parts = []
    if magnitude != 1:
        parts.append(str(magnitude))
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
        parts.append(str(magnitude))
    return sign, "*".join(parts)


def _reference_superfunction_terms(f):
    """The canonical terms of f, read from the `.terms` view."""
    out = []
    terms = f.terms
    for theta_key, tau_key in sorted(terms):
        coeffs = terms[theta_key, tau_key].terms
        for exps in sorted(coeffs, key=fmt._monomial_order):
            out.append(_reference_term_strings(coeffs[exps], exps, theta_key, tau_key))
    return out


def _reference_grassmann(a):
    terms = a.terms
    return fmt._join_terms(
        [_reference_term_strings(terms[key], (), (), key) for key in sorted(terms)]
    )


@pytest.mark.parametrize("m, n, p", [(1, 1, 0), (2, 2, 3), (3, 1, 2), (2, 40, 30)])
def test_printers_match_the_terms_view(monkeypatch, m, n, p):
    rng = random.Random(1000 * m + 10 * n + p)
    functions = [Superfunction.zero(m, n, p)]
    for _ in range(30):
        f = random_superfunction(rng, m, n, p, degree=3, terms=5)
        g = random_superfunction(rng, m, n, p, degree=2, terms=3)
        # products and odd scales give larger numerators over mixed denominators
        functions += [f, f * g - g.scale(Fraction(-7, 12)), f.scale(Fraction(5, 18)) + g]
    fields = [SuperDerivation.zero(m, n, p)]
    fields += [random_derivation(rng, m, n, p, degree=2) for _ in range(20)]
    elements = [random_grassmann(rng, n + p, terms=6) for _ in range(40)]
    elements += [a * b - b.scale(Fraction(3, 4)) for a, b in zip(elements, elements[1:])]
    morphisms = []
    if n + p <= 8:
        morphisms = [random_point(rng, m, n, p, degree=1).morphism for _ in range(3)]

    def outputs():
        return (
            [fmt.format_superfunction(f) for f in functions],
            [fmt.format_derivation(d) for d in fields],
            [fmt.format_grassmann(a) for a in elements],
            [fmt.format_morphism(phi) for phi in morphisms],
        )

    printed = outputs()
    coefficients = functions + [g for field in fields for g in field._coeffs]
    assert [fmt._superfunction_terms(f) for f in coefficients] == [
        _reference_superfunction_terms(f) for f in coefficients
    ]
    monkeypatch.setattr(fmt, "_superfunction_terms", _reference_superfunction_terms)
    monkeypatch.setattr(fmt, "format_grassmann", _reference_grassmann)
    assert printed == outputs()
    # the draws reach negative and fractional coefficients and zero
    texts = printed[0] + printed[2]
    assert "0" in texts and any("/" in t for t in texts) and any(t.startswith("-") for t in texts)


# -- the one-pass lexer against the two-pass reference ------------------------

# Python's limit on the digits of an int converted to or from text, 0 if none
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()

_REFERENCE_TOKEN_RE = re.compile(
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

_REFERENCE_TOKEN_KINDS = {
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


def _reference_tokenize(text):
    """Tokens by group name, one `Token` per match."""
    tokens = []
    for match in _REFERENCE_TOKEN_RE.finditer(text):
        group = match.lastgroup
        pos = match.start(group)
        if group == "bad":
            raise ParseError(pos, (), f"unexpected character {text[pos]!r}")
        kind, digits = _REFERENCE_TOKEN_KINDS[group]
        if digits:
            try:
                value = int(match.group(digits))
            except ValueError:
                raise LimitError(
                    f"integer at byte {pos} has more than "
                    f"{sys.get_int_max_str_digits()} digits"
                ) from None
        else:
            value = match.group(group) or None
        tokens.append(fmt.Token(kind or value, value, pos))
        if group == "end":
            break
    return tokens


def _reference_fold(text, tokens):
    """`tokens` with each th or t index list in the printers' spelling
    merged into one token at the name's offset, its value the index tuple:
    the name, `[`, strictly increasing ints with commas between them and
    `]`, at adjacent offsets and each int spelled as `str` prints it.
    Then each printed monomial outside the brackets of an index list (whose
    ints raise a dimension) is merged into one token (`_reference_product`)."""
    lists, i = [], 0
    while i < len(tokens):
        name, j, ints = tokens[i], i + 1, []
        if name.kind in ("th", "t"):
            while tokens[j].kind == ("," if ints else "[") and tokens[j + 1].kind == "int":
                ints.append(tokens[j + 1].value)
                j += 2
        spelling = f"{name.kind}[{','.join(map(str, ints))}]"
        increasing = ints and ints == sorted(set(ints))
        if increasing and tokens[j].kind == "]" and text.startswith(spelling, name.offset):
            lists.append(fmt.Token(name.kind, tuple(ints), name.offset))
            i = j + 1
        else:
            lists.append(name)
            i += 1
    inside = _reference_walk(tokens)[1]
    folded, i = [], 0
    while i < len(lists):
        product = lists[i].offset not in inside and _reference_product(text, lists, i)
        folded.append(product[0] if product else lists[i])
        i = product[1] if product else i + 1
    return folded


_TERM_BOUNDARY = ("+", "-", "newline", ";", ")", "}", ",", "]", "end")
_GENERATOR_ORDER = {"xvar": 0, "th": 1, "t": 2}


def _reference_product(text, tokens, i):
    """(token, index after it) of the printed monomial at tokens[i], or None.

    A printed monomial is an optional coefficient `num[/den]*`, then x<i>
    atoms with optional `^k` and increasing indices, then th[K], then
    t[J], joined by `*`, at least one generator; no number is 0, a
    coefficient has at most 18 digits, an index at most 3 and an exponent
    at most 9; it is spelled as the printers spell it, follows no `^`,
    `/` or `*`, and comes before a term boundary."""
    if i and tokens[i - 1].kind in ("^", "/", "*"):
        return None
    j, num, den, parts, generators = i, 1, 1, [], []
    if tokens[j].kind == "int":
        num, j = tokens[j].value, j + 1
        coefficient = str(num)
        if tokens[j].kind == "/" and tokens[j + 1].kind == "int":
            den, j = tokens[j + 1].value, j + 2
            coefficient += f"/{den}"
        if tokens[j].kind != "*" or not (0 < num < 10**18 and 0 < den < 10**18):
            return None
        parts.append(coefficient)
        j += 1
    while tokens[j].kind in _GENERATOR_ORDER and (
        tokens[j].kind == "xvar" or type(tokens[j].value) is tuple
    ):
        kind, value, exponent = tokens[j].kind, tokens[j].value, None
        if kind == "xvar" and tokens[j + 1].kind == "^" and tokens[j + 2].kind == "int":
            exponent, j = tokens[j + 2].value, j + 2
        generators.append((kind, value, 1 if exponent is None else exponent))
        if kind == "xvar":
            parts.append(f"x{value}" + ("" if exponent is None else f"^{exponent}"))
        else:
            parts.append(f"{kind}[{','.join(map(str, value))}]")
        j += 1
        if not (tokens[j].kind == "*" and tokens[j + 1].kind in _GENERATOR_ORDER):
            break
        j += 1
    kinds = [_GENERATOR_ORDER[kind] for kind, _, _ in generators]
    indices = [k for kind, value, _ in generators for k in ([value] if kind == "xvar" else value)]
    x_indices = [value for kind, value, _ in generators if kind == "xvar"]
    spelling = "*".join(parts)
    if not (
        generators
        and kinds == sorted(kinds)
        and kinds.count(1) <= 1
        and kinds.count(2) <= 1
        and x_indices == sorted(set(x_indices))
        and all(0 < k < 10**3 for k in indices)
        and all(0 < e < 10**9 for _, _, e in generators)
        and text.startswith(spelling, tokens[i].offset)
        and tokens[j].kind in _TERM_BOUNDARY
    ):
        return None
    key = sum(e << 32 * (value - 1) for kind, value, e in generators if kind == "xvar")
    lists = generators[len(x_indices) :]
    masks = {kind: sum(1 << (k - 1) for k in value) for kind, value, _ in lists}
    top = (max(x_indices, default=0),) + tuple(
        max([value[-1] for kind, value, _ in generators if kind == name], default=0)
        for name in ("th", "t")
    )
    summary = (generators[0][0], top, key, masks.get("th", 0), masks.get("t", 0))
    kind = "int" if len(parts) > len(generators) else generators[0][0]
    return fmt.Token(kind, (num, den, summary, spelling), tokens[i].offset), j


def _reference_dimensions(tokens):
    """The largest x, th and t index, by a second walk over the tokens;
    LimitError past the index limit."""
    seen = _reference_walk(tokens)[0]
    for label, top in zip(("x", "th", "t"), seen):
        if top > 1 << 20:
            raise LimitError(f"{label} index {top} exceeds the limit 1048576")
    return seen


def _reference_walk(tokens):
    """The largest x, th and t index, and the offsets of the tokens inside
    the brackets of a th, t or X index list."""
    seen_m = seen_n = seen_p = 0
    bracket_owner = pending = None
    inside = set()
    for tok in tokens:
        if bracket_owner:
            inside.add(tok.offset)
        if tok.kind in ("xvar", "d_dx"):
            seen_m = max(seen_m, tok.value)
        elif tok.kind in ("thvar", "d_dth"):
            seen_n = max(seen_n, tok.value)
        elif tok.kind == "tvar":
            seen_p = max(seen_p, tok.value)
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
            seen_n = max(seen_n, tok.value)
        elif tok.kind == "int" and bracket_owner == "p":
            seen_p = max(seen_p, tok.value)
    return (seen_m, seen_n, seen_p), inside


def _reference_document(tokens):
    kinds = {tok.kind for tok in tokens}
    if any(tok.kind == "ident" and tok.value == "phi0" for tok in tokens):
        return "factored"
    if "arrow" in kinds:
        return "morphism"
    if any(a.value == "X" and b.kind == "[" for a, b in zip(tokens, tokens[1:])):
        return "factored"
    if "d_dx" in kinds or "d_dth" in kinds:
        return "derivation"
    return "superfunction"


def _lexed(text):
    """What the lexer makes of `text`, and what the reference makes of it."""

    def outcome(lex):
        try:
            return lex(text)
        except (ParseError, LimitError) as exc:
            return type(exc), str(exc), getattr(exc, "offset", None)

    def one_pass(text):
        tokens = fmt.tokenize(text)
        assert all(type(tok) is fmt.Token for tok in tokens)
        return list(tokens), tuple(tokens.seen), tokens.document

    def reference(text):
        tokens = _reference_tokenize(text)
        dims, document = _reference_dimensions(tokens), _reference_document(tokens)
        return _reference_fold(text, tokens), dims, document

    return outcome(one_pass), outcome(reference)


def _canonical_texts(m, n, p):
    """Canonical morphisms, factored forms, fields and Grassmann morphisms
    at m|n;p; where a sampled point would be too large, image blocks and
    component fields of the same spelling."""
    rng = random.Random(7 + 1000 * m + 10 * n + p)

    def sf(parity=None):
        f = random_superfunction(rng, m, n, p, degree=3, terms=5, parity=parity)
        return fmt.format_superfunction(f)

    images = [f"x{i} -> {sf(0)}" for i in range(1, m + 1)]
    images += [f"th{j} -> {sf(1)}" for j in range(1, n + 1)]
    body = "\n".join(images[:m] + [f"th{j} -> th{j}" for j in range(1, n + 1)])
    keys = sorted({tuple(sorted(rng.sample(range(1, p + 1), k))) for k in range(1, p + 1)})
    components = [
        f"X[{','.join(map(str, key))}]: "
        + fmt.format_derivation(random_derivation(rng, m, n, 0, degree=2))
        for key in keys[:6]
    ]
    texts = [
        "\n".join(images),
        "\n".join([f"p: {p}"] + images + ["inverse:", body]),
        "\n".join([f"p: {p}", "phi0: {", body, "}"] + components),
        fmt.format_grassmann_morphism(random_grassmann_morphism(rng, n + p, n + p)),
    ]
    texts += [fmt.format_derivation(random_derivation(rng, m, n, p, degree=2)) for _ in range(4)]
    if n + p <= 8:
        for _ in range(3):
            point = random_point(rng, m, n, p, degree=1)
            texts.append(fmt.format_morphism(point.morphism))
            texts.append(fmt.format_factored(point.body, point.fields, point.p))
    return texts


@pytest.mark.parametrize("m, n, p", [(1, 1, 0), (2, 2, 3), (3, 1, 2), (2, 40, 30)])
def test_lexer_matches_the_reference_on_canonical_texts(m, n, p):
    documents = set()
    for text in _canonical_texts(m, n, p):
        mine, reference = _lexed(text)
        assert mine == reference, text
        documents.add(mine[2])
    assert documents == {"morphism", "factored", "derivation"}


LEXER_EDGE_CASES = [
    "",
    " \t\r \t\r\n\r\n \t",
    "x1 \t\r\n\t\r + \r\tth1",
    "th [1,\n2]*t\n[3] + X [4]",
    "th[1,\n2,\n 3]\nt[5]",
    "X[1,2]: th[1]*d/dx1",
    "X [3] : d/dth2\np: 4",
    "x1[7] + [9] + th2[8] + t3[6]",
    "th[[2],5] + t[] + th[3]",
    "theta + tx + t_ + t_1 + t1x + th12abc + x12abc + xy",
    "d/dx12 + d/dth3*x2 + d/dx + d/dth + d/d + d/ dx1 + dx1",
    "x1 - x2 -> -x3 --> x4 - > x5 ->-x6 -",
    "phi0 + phi0x + X + Xs",
    "t[1] -> t[1,2]\ntarget: 4",
    "x1 @ x2",
    "x1 + é",
    "té",
    "x١٢ + th[٣]",
    "2/3*x1^4 + (x2)^2*t3",
    "x1 -> x1; th1 -> th1; inverse: x1 -> x1",
    "th[2,1]",
    "th[1,1]",
    "th[1, 2]",
    "th[1,]",
    "t[0]",
    "th[01,2]",
    "th[1]^2",
    # printed monomials, and spellings next to them that lex atom by atom
    "2^20000*x1",
    "x1/2*x2",
    "x1 x2",
    "th[2,1]*x1",
    "x1*(x2)",
    "x1^2^3",
    "1/0*x1",
    "01*x1",
    "x01",
    "x1 -> x1",
    "t[1] -> t[1,2]",
    "1234567890123456789*x1 - 123456789012345678/99*x2^999999999*th[1]*t[2]",
    "6/4*x1^2*x3*th[1,3]*t[2,5] + 3*th[2]\n- t[1] ; 1/2*x2}x1)x1,x1]",
    "x2*x1 + x1*x1 + x1^0 + x1^1 + th[1]*x1 + t[1]*th[1] + th[1]*th[2] + x1 *x2",
    "x999999 + x1000000*x1 + x1^1000000000 + th[999999,1000000] + t[1234567]",
    "x1*x2\t\r\n(x1)x2*x3 + X[x1*th[1], 3] + th x1, [7]",
    "th[x999^999999991] + X[2/9*x1^5, x3] + t[3*th[1]] + th[1,x2^4*t[1], 4]",
    "d/dx1*x1 + x1*d/dx1 - x1-x2->x3 - x1 ->x2",
    "x999*th[999] + 2/3*x998^2*x999*t[1,999] + x1000 + x1*x1000 + th[1,1000] + t[1000]",
    "th[x999999] + X[x999998] + th[x999, x1000] + t[1,x999999*th[2]]",
]


@pytest.mark.parametrize("text", LEXER_EDGE_CASES)
def test_lexer_matches_the_reference_on_edge_cases(text):
    mine, reference = _lexed(text)
    assert mine == reference


def test_texts_refused_at_once_build_no_packed_key_of_a_long_index():
    # an index of more than 3 digits lexes atom by atom, so the tokenizer
    # builds no x<index> key (4 MB at x999999) for a text the parser then
    # refuses before its terms, or for products inside an index list; the
    # 12 MiB of the first are the parser's own at m = 999199
    products = [f"x{999000 + k}" for k in range(200)]
    texts = {
        ") + " + " + ".join(products): "at byte 0: expected an atom, found )",
        "th[" + ",".join(products) + "]": "at byte 3: expected int, found xvar",
    }
    for text, message in texts.items():
        tracemalloc.start()
        try:
            outcome = _outcome(lambda: fmt.parse_superfunction(text))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert outcome == (ParseError, message)
        assert peak < 32 << 20


@pytest.mark.parametrize(
    "text, outcome",
    [
        ("th[2,1]", (ParseError, "at byte 5: indices must be strictly increasing")),
        ("th[1,1]", (ParseError, "at byte 5: indices must be strictly increasing")),
        ("th[1, 2]", "th[1,2]"),
        ("th[1,]", (ParseError, "at byte 5: expected int, found ]")),
        ("t[0]", (DimensionError, "t index out of range in (0,)")),
        ("th[01,2]", "th[1,2]"),
        ("th[1]^2", "0"),
    ],
)
def test_index_lists_in_other_spellings(text, outcome):
    assert _outcome(lambda: fmt.format_superfunction(fmt.parse_superfunction(text))) == outcome


@pytest.mark.skipif(
    not 0 < DIGIT_LIMIT <= 5000, reason="no digit limit below 5001 on int/str conversion"
)
@pytest.mark.parametrize(
    "spelling", ["{}", "x{}", "th{}", "t{}", "d/dx{}", "d/dth{}", "th[{}]", "th[1,{}]"]
)
def test_lexer_long_integers_match_the_reference(spelling):
    text = "x1 + " + spelling.format("1" * 5001)
    mine, reference = _lexed(text)
    assert mine == reference
    offset = {"th[{}]": 8, "th[1,{}]": 10}.get(spelling, 5)  # the token's own offset
    assert mine[:2] == (
        LimitError, f"integer at byte {offset} has more than {DIGIT_LIMIT} digits"
    )


def _stored_loop_grassmann(a):
    """The earlier `format_grassmann`, its own sort and term loop over the
    stored form, kept as the reference for the superfunction printer."""
    terms = sorted((fmt._indices(mask), poly[0]) for mask, poly in a._data.items())
    return fmt._join_terms(
        [_reference_term_strings(Fraction(num, a._den), (), (), key) for key, num in terms]
    )


def test_grassmann_printer_matches_the_stored_loop():
    rng = random.Random(4242)
    for n in range(6):
        elements = [GrassmannElement.zero(n), GrassmannElement.scalar(Fraction(-3, 4), n)]
        elements += [random_grassmann(rng, n, terms=rng.randrange(1, 7)) for _ in range(40)]
        for a in elements:
            assert fmt.format_grassmann(a) == _stored_loop_grassmann(a)
    assert fmt.format_grassmann(GrassmannElement.zero(3)) == "0"
    assert fmt.format_grassmann(GrassmannElement.scalar(Fraction(-3, 4), 0)) == "-3/4"


# -- canonical texts with pieces spliced in ------------------------------------

SPLICES = [
    "^", "^2", "/0", "/3", "*(", ")", "th[2,1]", "x0", "->", " ", "\n", "\t", ";", "*", "-",
    "9" * 30, "1" * 5001, "x99999999999", "th[99999999999]", "t1111111111111111111111",
    "x1048577", "d/dx2", "*x1", "x1^2147483648", "x999", "x1000*th[1000]",
]
PRINTERS = {
    "factored": lambda value: fmt.format_factored(*value),
    "morphism": fmt.format_morphism,
    "grassmann_morphism": fmt.format_grassmann_morphism,
}


def _mutation_sources():
    """Canonical texts of sampled points, factored forms, fields and a
    Grassmann map."""
    rng = random.Random(2024)
    texts = [fmt.format_grassmann_morphism(random_grassmann_morphism(rng, 3, 3))]
    for m, n, p in ((1, 1, 1), (2, 2, 2)):
        point = random_point(rng, m, n, p, degree=1)
        texts.append(fmt.format_morphism(point.morphism))
        texts.append(fmt.format_factored(point.body, point.fields, point.p))
        texts.append(fmt.format_derivation(random_derivation(rng, m, n, p, degree=2)))
    return texts


def _parsed(text):
    """What `parse_any` makes of `text`, printed: (kind, canonical text),
    or the type, message and offset of its fault."""
    try:
        kind, value = fmt.parse_any(text)
        printer = PRINTERS.get(kind) or (
            fmt.format_derivation
            if isinstance(value, SuperDerivation)
            else fmt.format_superfunction
        )
        return kind, printer(value)
    except SuperdiffError as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)


def _reference_tokens(text):
    """The reference's token stream, atom by atom, with its dimensions and kind."""
    tokens = fmt.Tokens(_reference_tokenize(text))
    tokens.seen = fmt.Dimensions(*_reference_dimensions(tokens))
    tokens.document = _reference_document(tokens)
    return tokens


def test_mutated_canonical_texts_parse_like_their_atoms_and_exit_cleanly(tmp_path):
    # A parenthesised power is left out above 50: `(x1 + 1)^k` computes
    # every binomial coefficient before any limit applies (an open fault).
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    sources = _mutation_sources()
    operator, function = tmp_path / "operator.txt", tmp_path / "function.txt"
    function.write_text("x1^2*th[1] + 2\n")
    splices = st.lists(
        st.tuples(st.integers(0, 1 << 16), st.sampled_from(SPLICES)), min_size=1, max_size=3
    )

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(st.sampled_from(sources), splices)
    def check(text, splices):
        for where, piece in splices:
            where %= len(text) + 1
            text = text[:where] + piece + text[where:]
        powers = re.findall(r"\)[ \t\r]*\^[ \t\r]*(\d+)", text)
        hypothesis.assume(all(len(k) < 3 and int(k) <= 50 for k in powers))
        mine = _parsed(text)
        with mock.patch.object(fmt, "tokenize", _reference_tokens):
            assert mine == _parsed(text)
        operator.write_text(text)
        start = time.perf_counter()
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            code = cli.main(["apply", str(operator), str(function)])
        assert code in (0, 1, 2, 3, 4, 6), err.getvalue()
        assert time.perf_counter() - start < 10.0

    check()
