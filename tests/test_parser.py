import random
from fractions import Fraction

import pytest

from superdiff import Polynomial, SuperDerivation, Superfunction
from superdiff import parser as fmt
from superdiff.errors import DimensionError, LimitError, ParseError
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
    kinds = [(t.kind, t.offset) for t in tokens]
    assert kinds[0] == ("xvar", 0)
    assert kinds[1] == ("+", 3)
    assert kinds[2] == ("th", 5)
    assert tokens[-1].kind == "end"
    assert [(t.kind, t.offset) for t in fmt.tokenize("x1 \t\r\n ")] == [
        ("xvar", 0), ("newline", 5), ("end", 7)
    ]
    with pytest.raises(ParseError, match="at byte 6: unexpected character '@'") as info:
        fmt.tokenize("x1 \t\r @")
    assert info.value.offset == 6


def test_expression_basics():
    f = fmt.parse_superfunction("3/2*x1^2 - x2 + 1")
    assert fmt.format_superfunction(f) == "1 - x2 + 3/2*x1^2"
    g = fmt.parse_superfunction("th[1,2]*t[2] - th[1]")
    assert fmt.format_superfunction(g) == "-th[1] + th[1,2]*t[2]"
    assert fmt.parse_superfunction("0").is_zero()


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
    monkeypatch.setattr(fmt, "_superfunction_terms", _reference_superfunction_terms)
    monkeypatch.setattr(fmt, "format_grassmann", _reference_grassmann)
    assert printed == outputs()
    # the draws reach negative and fractional coefficients and zero
    texts = printed[0] + printed[2]
    assert "0" in texts and any("/" in t for t in texts) and any(t.startswith("-") for t in texts)
