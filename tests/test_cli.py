import json
import os
import subprocess
import sys
import time

import pytest

from superdiff import cli
from superdiff.cli import main
from superdiff.substitution import UnderlyingMorphism


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


PHI = "x1 -> x1 + th[1]*t[1]\nx2 -> x2\nth1 -> th1\nth2 -> th2 + x1*th[1]*t[1,2]\n"
PSI = "x1 -> x1 + 1\nx2 -> x1 + x2\nth1 -> th2\nth2 -> th1\n"
# the factored form of PHI, as factorize prints it
FACTORED_PHI = (
    "p: 2\nphi0: {\nx1 -> x1\nx2 -> x2\nth1 -> th[1]\nth2 -> th[2]\ninverse:\n"
    "x1 -> x1\nx2 -> x2\nth1 -> th[1]\nth2 -> th[2]\n}\n"
    "X[1]: -th[1]*d/dx1\nX[1,2]: x1*th[1]*d/dth2\n"
)
IDENTITY_2_2 = {"x1": "x1", "x2": "x2", "th1": "th[1]", "th2": "th[2]"}


def as_doc(doc):
    """The exact stdout of --format doc for the document `doc`."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_factorize_expand_pipeline_fixpoint(tmp_path, capsys):
    phi = write(tmp_path, "phi.txt", PHI)
    code, factored, _ = run_cli(capsys, "factorize", phi)
    assert code == 0
    code, morph_text, _ = run_cli(capsys, "expand", write(tmp_path, "f.txt", factored))
    assert code == 0
    code, factored2, _ = run_cli(
        capsys, "factorize", write(tmp_path, "m.txt", morph_text)
    )
    assert code == 0
    assert factored == factored2


def test_compose_and_invert(tmp_path, capsys):
    phi = write(tmp_path, "phi.txt", PHI)
    psi = write(tmp_path, "psi.txt", PSI)
    code, composed, _ = run_cli(capsys, "compose", phi, psi, "--check-factored")
    assert code == 0
    code, inv, _ = run_cli(capsys, "invert", write(tmp_path, "c.txt", composed))
    assert code == 0
    # composing with the inverse gives the identity family
    code, out, _ = run_cli(
        capsys,
        "compose",
        write(tmp_path, "ci.txt", composed),
        write(tmp_path, "ci2.txt", inv),
    )
    assert code == 0
    lines = [l for l in out.strip().splitlines() if "->" in l]
    assert lines[0].startswith("x1 -> x1")


def test_compose_cross_check_mismatch_exits_1(tmp_path, capsys, monkeypatch):
    phi, psi = write(tmp_path, "phi.txt", PHI), write(tmp_path, "psi.txt", PSI)
    monkeypatch.setattr(cli, "compose_factored", lambda outer, inner: None)
    code, out, err = run_cli(capsys, "compose", phi, psi, "--check-factored")
    assert (code, out, err) == (1, "", "composition cross-check failed\n")
    # without the flag the oracle is not consulted
    assert run_cli(capsys, "compose", phi, psi)[0] == 0


def test_apply_verb(tmp_path, capsys):
    phi = write(tmp_path, "phi.txt", "x1 -> x1 + th[1]*t[1]\nth1 -> th1\n")
    f = write(tmp_path, "f.txt", "x1^2\n")
    code, out, _ = run_cli(capsys, "apply", phi, f)
    assert code == 0
    assert out.strip() == "x1^2 + 2*x1*th[1]*t[1]"


def test_apply_verb_differential_operator(tmp_path, capsys):
    # the operator lives on 2|1;1, the function is embedded there and lifted
    op = write(tmp_path, "op.txt", "t1*th1*d/dx1 + x2*d/dth1\n")
    f = write(tmp_path, "f.txt", "x1^2\n")
    assert run_cli(capsys, "apply", op, f) == (0, "-2*x1*th[1]*t[1]\n", "")


def test_apply_verb_factored_operator_acts_as_its_morphism(tmp_path, capsys):
    f = write(tmp_path, "f.txt", "x1^2*th2 + th1\n")
    expected = run_cli(capsys, "apply", write(tmp_path, "phi.txt", PHI), f)
    assert expected[0] == 0
    assert run_cli(capsys, "apply", write(tmp_path, "fac.txt", FACTORED_PHI), f) == expected


@pytest.mark.parametrize(
    "operator, kind",
    [("t1 -> t1 + t2\nt2 -> t2\n", "grassmann_morphism"), ("x1*th1\n", "superfunction")],
)
def test_apply_verb_refuses_what_does_not_act(tmp_path, capsys, operator, kind):
    op = write(tmp_path, "op.txt", operator)
    f = write(tmp_path, "f.txt", "x1^2\n")
    for options in ([], ["--format", "doc"]):
        code, out, err = run_cli(capsys, "apply", op, f, *options)
        assert (code, out) == (2, "")
        assert err == f"parse error: at byte 0: cannot apply a {kind}\n"


def test_apply_verb_large_exponent(tmp_path, capsys):
    phi = write(tmp_path, "phi.txt", "x1 -> x1 + th[1,2]\nth1 -> th[1]\nth2 -> th[2]\n")
    f = write(tmp_path, "f.txt", "x1^1500\n")
    code, out, _ = run_cli(capsys, "apply", phi, f, "--m", "1", "--n", "2")
    assert code == 0
    assert out.strip() == "x1^1500 + 1500*x1^1499*th[1,2]"


def test_exit_code_exponent_limit(tmp_path, capsys):
    phi = write(tmp_path, "phi.txt", "x1 -> x1 + th[1,2]\nth1 -> th[1]\nth2 -> th[2]\n")
    field = write(tmp_path, "field.txt", "x1*th[1,2]*d/dx1\n")
    at_limit = write(tmp_path, "f.txt", "x1^2147483647\n")
    code, out, _ = run_cli(capsys, "apply", phi, at_limit, "--m", "1", "--n", "2")
    assert code == 0
    assert out.strip() == "x1^2147483647 + 2147483647*x1^2147483646*th[1,2]"
    fractional = write(
        tmp_path, "psi.txt", "x1 -> x1 + 1/3*th[1,2]\nth1 -> th[1]\nth2 -> 1/5*th[2]\n"
    )
    code, out, _ = run_cli(capsys, "apply", fractional, at_limit, "--m", "1", "--n", "2")
    assert code == 0
    assert out.strip() == "x1^2147483647 + 2147483647/3*x1^2147483646*th[1,2]"
    past = write(tmp_path, "g.txt", "x1^2147483648\n")
    for operator in (phi, field):
        code, out, err = run_cli(capsys, "apply", operator, past, "--m", "1", "--n", "2")
        assert (code, out) == (6, "")
        assert err == "limit exceeded: exponent 2147483648 exceeds the limit 2147483647\n"
    # an image past the limit is refused as it is read, not judged uninvertible
    image = write(tmp_path, "h.txt", "x1 -> x1^2147483648\nth1 -> th1\n")
    code, out, err = run_cli(capsys, "factorize", image)
    assert (code, out) == (6, "")
    assert err == "limit exceeded: exponent 2147483648 exceeds the limit 2147483647\n"


def test_bracket_verb(tmp_path, capsys):
    left = write(tmp_path, "a.txt", "d/dth1")
    right = write(tmp_path, "b.txt", "th[1]*d/dx1")
    code, out, _ = run_cli(capsys, "bracket", left, right)
    assert code == 0
    assert out.strip() == "d/dx1"


def test_exp_log_verbs(tmp_path, capsys):
    field = write(tmp_path, "x.txt", "th[1,2]*d/dx1")
    code, out, _ = run_cli(capsys, "exp", field)
    assert code == 0
    assert "x1 -> x1 + th[1,2]" in out
    code, log_out, _ = run_cli(capsys, "log", write(tmp_path, "u.txt", out))
    assert code == 0
    assert log_out.strip() == "th[1,2]*d/dx1"


def test_split_verb(tmp_path, capsys):
    psi = write(tmp_path, "psi.txt", PSI)
    code, out, _ = run_cli(capsys, "split", psi)
    assert code == 0
    assert "kernel: {" in out and "body: {" in out


def test_split_that_fails_to_recombine_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "recombine", lambda parts: None)
    psi = write(tmp_path, "psi.txt", PSI)
    assert run_cli(capsys, "split", psi) == (1, "", "split failed to recombine\n")


def test_push_verb(tmp_path, capsys):
    phi = write(tmp_path, "phi.txt", PHI)
    gm = write(tmp_path, "gm.txt", "t[1] -> t[2]\nt[2] -> t[1]\n")
    code, out, _ = run_cli(capsys, "push", gm, phi)
    assert code == 0
    assert "th[1]*t[2]" in out


# points at ranks 1 and 2 on 1|1, and the texts of their composites
RANK_1 = "x1 -> x1 + th[1]*t[1]\nth1 -> th1\n"
RANK_2 = "x1 -> 2*x1 + 1\nth1 -> th1 + x1*th[1]*t[1,2]\n"
INVERSE_1_1 = "inverse:\nx1 -> -1/2 + 1/2*x1\nth1 -> th[1]\n"
TH_IMAGE_1_1 = "th1 -> th[1] + x1*th[1]*t[1,2]\n"
RANK_1_AFTER_RANK_2 = "x1 -> 1 + 2*x1 + 2*th[1]*t[1]\n" + TH_IMAGE_1_1 + INVERSE_1_1
RANK_2_AFTER_RANK_1 = "x1 -> 1 + 2*x1 + th[1]*t[1]\n" + TH_IMAGE_1_1 + INVERSE_1_1


def test_compose_points_at_different_ranks(tmp_path, capsys):
    # the operand of lower rank is lifted to the other's rank first, which
    # is what --p 2 does to both
    low, high = write(tmp_path, "low.txt", RANK_1), write(tmp_path, "high.txt", RANK_2)
    cases = ((low, high, RANK_1_AFTER_RANK_2), (high, low, RANK_2_AFTER_RANK_1))
    for outer, inner, expected in cases:
        assert run_cli(capsys, "compose", outer, inner) == (0, expected, "")
        assert run_cli(capsys, "compose", outer, inner, "--check-factored") == (0, expected, "")
        assert run_cli(capsys, "compose", outer, inner, "--p", "2") == (0, expected, "")


def test_push_lifts_a_point_below_the_relabel_rank(tmp_path, capsys):
    point = write(tmp_path, "point.txt", RANK_1)
    swap = write(tmp_path, "swap.txt", "t[1] -> t[2]\nt[2] -> t[1]\n")
    expected = "x1 -> x1 + th[1]*t[2]\nth1 -> th[1]\ninverse:\nx1 -> x1\nth1 -> th[1]\n"
    assert run_cli(capsys, "push", swap, point) == (0, expected, "")


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (("push", "rank1_relabel", "rank2"), 4, "invalid input: cannot lower the rank from 2 to 1"),
        (
            ("expand", "rank1"),
            2,
            "parse error: at byte 0: expected a factored form, found morphism",
        ),
        (
            ("push", "rank1", "rank1"),
            2,
            "parse error: at byte 0: expected a Grassmann morphism, found morphism",
        ),
        (("log", "factored"), 2, "parse error: at byte 0: expected a morphism, found factored"),
        (("log", "rank1"), 4, "invalid input: logarithm expects a rank-0 substitution"),
        (
            ("invert", "function"),
            2,
            "parse error: at byte 0: expected a morphism or factored form, found superfunction",
        ),
        (("invert", "juxtaposed"), 2, "parse error: at byte 3: unexpected xvar in expression"),
        (
            ("push", "x_relabel", "rank1"),
            2,
            "parse error: at byte 0: Grassmann images may only use t generators",
        ),
    ],
)
def test_exit_code_wrong_kind_or_rank(tmp_path, capsys, argv, code, message):
    inputs = {
        "rank1": RANK_1,
        "rank2": RANK_2,
        "rank1_relabel": "t[1] -> t[1]\n",
        "x_relabel": "t[1] -> x1*t[1]\n",
        "factored": FACTORED_PHI,
        "function": "x1^2\n",
        "juxtaposed": "x1 x2\n",
    }
    files = [write(tmp_path, f"{name}.txt", inputs[name]) for name in argv[1:]]
    assert run_cli(capsys, argv[0], *files) == (code, "", message + "\n")


def test_sections_verb(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "sections", "--m", "1", "--n", "1", "--p", "1", "--degree", "1"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "count: 8"
    assert len(lines) == 9


def test_doc_format_is_json(tmp_path, capsys):
    phi = write(tmp_path, "phi.txt", PHI)
    code, out, _ = run_cli(capsys, "factorize", phi, "--format", "doc")
    assert code == 0
    assert out == as_doc(
        {
            "kind": "factored",
            "p": 2,
            "body": {
                "kind": "substitution",
                "m": 2,
                "n": 2,
                "images": IDENTITY_2_2,
                "inverse": IDENTITY_2_2,
            },
            "fields": {"[1]": "-th[1]*d/dx1", "[1,2]": "x1*th[1]*d/dth2"},
        }
    )


@pytest.mark.parametrize(
    "verb, files, options, doc",
    [
        (
            "compose",
            [PHI, PSI],
            [],
            {
                "kind": "morphism",
                "m": 2,
                "n": 2,
                "p": 2,
                "images": {
                    "x1": "1 + x1 + th[1]*t[1]",
                    "x2": "x1 + x2 + th[1]*t[1]",
                    "th1": "x1*th[1]*t[1,2] + th[2]",
                    "th2": "th[1]",
                },
                "inverse": {"x1": "-1 + x1", "x2": "1 - x1 + x2", "th1": "th[2]", "th2": "th[1]"},
            },
        ),
        (
            "expand",
            [FACTORED_PHI],
            [],
            {
                "kind": "morphism",
                "m": 2,
                "n": 2,
                "p": 2,
                "images": {
                    "x1": "x1 + th[1]*t[1]",
                    "x2": "x2",
                    "th1": "th[1]",
                    "th2": "x1*th[1]*t[1,2] + th[2]",
                },
                "inverse": IDENTITY_2_2,
            },
        ),
        (
            "push",
            ["t[1] -> t[2]\nt[2] -> t[1]\n", PHI],
            [],
            {
                "kind": "morphism",
                "m": 2,
                "n": 2,
                "p": 2,
                "images": {
                    "x1": "x1 + th[1]*t[2]",
                    "x2": "x2",
                    "th1": "th[1]",
                    "th2": "-x1*th[1]*t[1,2] + th[2]",
                },
                "inverse": IDENTITY_2_2,
            },
        ),
        (
            "sections",
            [],
            ["--m", "1", "--n", "1", "--p", "1", "--degree", "0"],
            {
                "kind": "sections",
                "m": 1,
                "n": 1,
                "p": 1,
                "degree": 0,
                "count": 4,
                "basis": ["d/dx1", "th[1]*t[1]*d/dx1", "t[1]*d/dth1", "th[1]*d/dth1"],
            },
        ),
        (
            "log",
            ["x1 -> x1 + th[1,2]\nth1 -> th1\nth2 -> th2\n"],
            [],
            {"kind": "derivation", "value": "th[1,2]*d/dx1"},
        ),
        (
            "apply",
            ["x1 -> x1 + th[1]*t[1]\nth1 -> th1\n", "x1^2\n"],
            [],
            {"kind": "superfunction", "value": "x1^2 + 2*x1*th[1]*t[1]"},
        ),
        (
            "bracket",
            ["d/dth1", "th[1]*d/dx1"],
            [],
            {"kind": "derivation", "value": "d/dx1"},
        ),
        (
            "apply",
            ["t1*th1*d/dx1 + x2*d/dth1\n", "x1^2\n"],
            [],
            {"kind": "superfunction", "value": "-2*x1*th[1]*t[1]"},
        ),
    ],
)
def test_doc_format_golden(tmp_path, capsys, verb, files, options, doc):
    paths = [write(tmp_path, f"in{i}.txt", text) for i, text in enumerate(files)]
    assert run_cli(capsys, verb, *paths, *options, "--format", "doc") == (0, as_doc(doc), "")


def test_text_format_builds_no_document(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a document was built under --format text")

    monkeypatch.setattr(cli, "_doc", refuse)
    monkeypatch.setattr(cli, "_factored_doc", refuse)
    phi, psi = write(tmp_path, "phi.txt", PHI), write(tmp_path, "psi.txt", PSI)
    relabel = write(tmp_path, "gm.txt", "t[1] -> t[2]\nt[2] -> t[1]\n")
    for argv in (
        ["factorize", phi],
        ["expand", write(tmp_path, "f.txt", FACTORED_PHI)],
        ["compose", phi, psi],
        ["invert", phi],
        ["split", psi],
        ["push", relabel, phi],
        ["exp", write(tmp_path, "x.txt", "th[1,2]*d/dx1")],
    ):
        code, _, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")


def test_doc_format_invert_exp_split(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "invert", write(tmp_path, "phi.txt", PHI), "--format", "doc")
    assert code == 0
    assert json.loads(out) == {
        "kind": "morphism",
        "m": 2,
        "n": 2,
        "p": 2,
        "images": {
            "x1": "x1 - th[1]*t[1]",
            "x2": "x2",
            "th1": "th[1]",
            "th2": "-x1*th[1]*t[1,2] + th[2]",
        },
        "inverse": {"x1": "x1", "x2": "x2", "th1": "th[1]", "th2": "th[2]"},
    }
    field = write(tmp_path, "x.txt", "th[1,2]*d/dx1")
    code, out, _ = run_cli(capsys, "exp", field, "--format", "doc")
    assert code == 0
    assert json.loads(out) == {
        "kind": "substitution",
        "m": 1,
        "n": 2,
        "images": {"x1": "x1 + th[1,2]", "th1": "th[1]", "th2": "th[2]"},
        "inverse": {"x1": "x1 - th[1,2]", "th1": "th[1]", "th2": "th[2]"},
    }
    code, out, _ = run_cli(capsys, "split", write(tmp_path, "psi.txt", PSI), "--format", "doc")
    assert code == 0
    identity = {"x1": "x1", "x2": "x2", "th1": "th[1]", "th2": "th[2]"}
    assert json.loads(out) == {
        "kind": "split",
        "kernel": {
            "kind": "morphism", "m": 2, "n": 2, "p": 0, "images": identity, "inverse": identity
        },
        "body": {
            "kind": "substitution",
            "m": 2,
            "n": 2,
            "images": {"x1": "1 + x1", "x2": "x1 + x2", "th1": "th[2]", "th2": "th[1]"},
            "inverse": {"x1": "-1 + x1", "x2": "1 - x1 + x2", "th1": "th[2]", "th2": "th[1]"},
        },
    }


@pytest.mark.parametrize(
    "verb, text",
    [
        ("expand", "p: 1\nphi0: { x1 -> x1; th1 -> th1; inverse: x1 -> x1; th1 -> th1; t1 -> t1 }"),
        ("factorize", "x1 -> x1; th1 -> th1; inverse: x1 -> x1; th3 -> th1"),
        ("factorize", "target: 3\nx1 -> x1\nth1 -> th1"),
        ("invert", "x0 -> 5*x1\nx1 -> x1"),
        ("invert", "x1 -> x1; th1 -> th1; inverse: x1 -> x1"),
        ("expand", "p: 1\nphi0: { x1 -> x1; th1 -> th1; inverse: x1 -> x1 }"),
    ],
)
def test_exit_code_statement_faults(tmp_path, capsys, verb, text):
    code, _, err = run_cli(capsys, verb, write(tmp_path, "in.txt", text))
    assert code == 2
    assert "parse error" in err


def test_exit_code_parse_error(tmp_path, capsys):
    bad = write(tmp_path, "bad.txt", "x1 -> @@@\n")
    code, _, err = run_cli(capsys, "factorize", bad)
    assert code == 2
    assert "parse error" in err


def test_factored_form_without_phi0(tmp_path, capsys):
    bad = write(tmp_path, "bad.txt", "p: 1\nX[1]: th[1]*d/dx1\n")
    code, out, err = run_cli(capsys, "factorize", bad)
    assert (code, out) == (2, "")
    assert err == "parse error: at byte 0: factored form needs a phi0 block\n"


def test_nesting_limit(tmp_path, capsys):
    phi = write(tmp_path, "phi.txt", "x1 -> x1 + th[1]*t[1]\nth1 -> th1\n")
    deep = write(tmp_path, "deep.txt", "(" * 100 + "x1^2" + ")" * 100 + "\n")
    code, out, _ = run_cli(capsys, "apply", phi, deep)
    assert code == 0
    assert out.strip() == "x1^2 + 2*x1*th[1]*t[1]"
    for depth in (101, 250):
        deeper = write(tmp_path, "deeper.txt", "(" * depth + "x1" + ")" * depth + "\n")
        code, out, err = run_cli(capsys, "apply", phi, deeper)
        assert (code, out) == (2, "")
        assert err.strip() == (
            "parse error: at byte 100: parentheses nested more than 100 levels deep"
        )


@pytest.mark.parametrize("content", [None, b"x1 -> \xff\n"])
def test_exit_code_unreadable_file(tmp_path, capsys, content):
    path = tmp_path / "phi.txt"
    if content is not None:
        path.write_bytes(content)
    code, out, err = run_cli(capsys, "invert", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"cannot read {path}: ")
    code, _, err = run_cli(capsys, "invert", str(tmp_path))
    assert code == 2
    assert err.startswith(f"cannot read {tmp_path}: ")


def test_exit_code_unknown_invertibility(tmp_path, capsys):
    sq = write(tmp_path, "sq.txt", "x1 -> x1^2\n")
    code, _, err = run_cli(capsys, "invert", sq)
    assert code == 3
    assert "not certifiable" in err


def test_exit_code_domain_mismatch(tmp_path, capsys):
    a = write(tmp_path, "a.txt", "x1 -> x1\nth1 -> th1\n")
    b = write(tmp_path, "b.txt", "x1 -> x1\nx2 -> x2\nth1 -> th1\n")
    code, _, err = run_cli(capsys, "compose", a, b)
    assert code == 4
    assert "invalid input" in err


@pytest.mark.parametrize(
    "operator, message",
    [
        ("th1*d/dth0", "odd coordinate index 0 out of range 1..1"),
        ("d/dx0", "variable index 0 out of range 1..0"),
        ("x1*d/dx0", "variable index 0 out of range 1..1"),
        ("x0", "variable index 0 out of range 1..0"),
    ],
)
def test_exit_code_operator_index_zero(tmp_path, capsys, operator, message):
    # d/dx0 and d/dth0 are out of range like x0, never the last coordinate
    op = write(tmp_path, "op.txt", operator + "\n")
    f = write(tmp_path, "f.txt", "th1\n")
    code, out, err = run_cli(capsys, "apply", op, f)
    assert (code, out) == (4, "")
    assert err == f"invalid input: {message}\n"


@pytest.mark.parametrize(
    "verb, text, name",
    [
        ("invert", "x1 -> x1 + th[1]\n", "th1"),
        ("invert", "x1 -> x2\n", "x2"),
        ("invert", "x1 -> x1\ninverse:\nx1 -> x1 + x2\n", "x2"),
        ("invert", "x1 -> th1\n", "th1"),
        ("expand", "p: 1\nphi0: { x1 -> x1 }\nX[1]: th1*d/dx1\n", "th1"),
    ],
)
def test_exit_code_coordinate_without_image(tmp_path, capsys, verb, text, name):
    path = write(tmp_path, "in.txt", text)
    message = f"invalid input: {name} is used but has no image\n"
    assert run_cli(capsys, verb, path) == (4, "", message)


def test_exit_code_parity_violation(tmp_path, capsys):
    # even image for an odd coordinate
    bad = write(tmp_path, "bad.txt", "x1 -> x1\nth1 -> x1\n")
    code, _, err = run_cli(capsys, "factorize", bad)
    assert code == 4


def test_selftest_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "selftest", "--seed", "5", "--count", "2")
    code2, out2, _ = run_cli(capsys, "selftest", "--seed", "5", "--count", "2")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "all checks passed" in out1


@pytest.mark.parametrize("broken", ["fields", "body"])
def test_selftest_factor_round_trip_runs_factorize(capsys, monkeypatch, broken):
    factorize = cli.factorize

    def broken_factorize(phi, body=None):
        found_body, fields = factorize(phi, body)
        if broken == "fields":
            return found_body, {key: -field for key, field in fields.items()}
        m, n = found_body.m, found_body.n  # th images only: comparing x images misses it
        images = found_body.images_x + tuple(g.scale(2) for g in found_body.images_th)
        return UnderlyingMorphism._of(m, n, images), fields

    monkeypatch.setattr(cli, "factorize", broken_factorize)
    code, out, _ = run_cli(capsys, "selftest", "--count", "2")
    assert code == 1
    assert "fail factor round trip x2" in out.splitlines()


def test_console_script_entry():
    result = subprocess.run(
        [sys.executable, "-m", "superdiff.cli", "sections", "--m", "0", "--n", "1", "--p", "1", "--degree", "0"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "count: 2"


def test_stdin_input(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "superdiff.cli", "factorize", "-"],
        input=PHI,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("p: 2")


def test_stdin_not_utf8_reads_like_a_file():
    result = subprocess.run(
        [sys.executable, "-m", "superdiff.cli", "invert", "-"],
        input=b"\xff",
        capture_output=True,
        env={**os.environ, "LC_ALL": "C"},
    )
    assert (result.returncode, result.stdout) == (2, b"")
    assert result.stderr.decode().startswith("cannot read -: 'utf-8' codec can't decode")


def test_closed_stdin_reads_like_a_file(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", None)
    code, out, err = run_cli(capsys, "invert", "-")
    assert (code, out, err) == (2, "", "cannot read -: stdin is closed\n")


@pytest.mark.parametrize("verb", ["compose", "invert", "factorize", "split", "push"])
def test_dimension_options_only_on_verbs_that_read_them(tmp_path, capsys, verb):
    phi = write(tmp_path, "phi.txt", "x1 -> x1 + 1\n")
    first = {"compose": [phi], "push": [write(tmp_path, "gm.txt", "t[1] -> t[1]\n")]}
    files = first.get(verb, []) + [phi]
    code, _, _ = run_cli(capsys, verb, *files, "--p", "1")
    assert code == 0
    with pytest.raises(SystemExit) as exit_info:
        main([verb, *files, "--m", "5", "--n", "3"])
    assert exit_info.value.code == 2
    # the whole usage line, which lists every verb, then the error
    usage = cli.build_parser().format_usage()
    assert "{compose,invert,factorize," in usage
    error = "superdiff: error: unrecognized arguments: --m 5 --n 3\n"
    assert capsys.readouterr().err == usage + error


def outcome(capsys, argv):
    """Exit code, stdout and stderr of main(argv), exits by argparse included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


VERBS = list(cli._VERBS)


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--help"],
        ["nope", "F"],
        ["--", "factorize", "F"],
        ["--format", "yaml"],
        ["factorize", "F", "--m", "5"],
        ["factorize", "F", "--format", "yaml"],
        ["factorize", "F"],
        ["compose", "F", "F", "--format", "doc"],
        ["sections", "--m", "1", "--n", "0", "--p", "1", "--degree", "0"],
    ]
    + [[verb, "--help"] for verb in VERBS]
    + [[verb] for verb in VERBS if verb != "selftest"],
)
def test_one_verb_parser_matches_the_full_parser(tmp_path, capsys, monkeypatch, argv):
    # every text main prints, and every exit code, must be those of the
    # full parser's parse_args
    phi = write(tmp_path, "phi.txt", PHI)
    argv = [phi if arg == "F" else arg for arg in argv]
    fast = outcome(capsys, argv)
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "_parse", lambda args: build_parser().parse_args(args))
    assert fast == outcome(capsys, argv)


@pytest.mark.parametrize(
    "argv, built",
    [
        (["factorize", "F"], [["factorize"]]),
        (["sections", "--m", "1", "--n", "0", "--p", "1"], [["sections"]]),
        (["factorize", "F", "--m", "5"], [["factorize"], VERBS]),
        (["nope", "F"], [VERBS]),
        ([], [VERBS]),
    ],
)
def test_main_builds_only_the_named_verbs_parser(tmp_path, capsys, monkeypatch, argv, built):
    phi = write(tmp_path, "phi.txt", PHI)
    argv = [phi if arg == "F" else arg for arg in argv]
    seen = []
    build_parser = cli.build_parser

    def recording_build_parser(verbs=VERBS):
        seen.append(list(verbs))
        return build_parser(verbs)

    monkeypatch.setattr(cli, "build_parser", recording_build_parser)
    outcome(capsys, argv)
    assert seen == built


def test_exit_code_negative_section_counts(capsys):
    code, out, err = run_cli(capsys, "sections", "--m", "-1", "--n", "1", "--p", "1")
    assert (code, out) == (4, "")
    assert err == "invalid input: coordinate counts must be nonnegative\n"


def test_exit_code_internal_error(tmp_path, capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_invert", broken)
    code, out, err = run_cli(capsys, "invert", write(tmp_path, "phi.txt", PSI))
    assert (code, out) == (5, "")
    assert err == "internal error: RuntimeError: boom\n"


# Python's limit on the digits of an int converted to or from text, 0 if none
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(
    not 0 < DIGIT_LIMIT <= 5000, reason="no digit limit below 5001 on int/str conversion"
)
@pytest.mark.parametrize(
    "text, message",
    [
        ("2^20000*x1\n", "a coefficient has more than {limit} digits to print"),
        ("1" * 5001 + "*x1\n", "integer at byte 0 has more than {limit} digits"),
    ],
)
def test_exit_code_digit_limit(tmp_path, capsys, text, message):
    # an integer Python will not convert to or from text is a limit, not a crash
    identity = write(tmp_path, "id.txt", "x1 -> x1\nth1 -> th1\n")
    code, out, err = run_cli(capsys, "apply", identity, write(tmp_path, "f.txt", text))
    assert (code, out) == (6, "")
    assert err == f"limit exceeded: {message.format(limit=DIGIT_LIMIT)}\n"


@pytest.mark.skipif(
    not 0 < DIGIT_LIMIT <= 5000, reason="no digit limit below 5001 on int/str conversion"
)
def test_exit_code_digit_limit_of_a_computed_coefficient(tmp_path, capsys):
    # the substitution computes 10^5000 * x1^5000; only the printer refuses it
    op = write(tmp_path, "op.txt", "x1 -> 10*x1\n")
    code, out, err = run_cli(capsys, "apply", op, write(tmp_path, "f.txt", "x1^5000\n"))
    limit = f"limit exceeded: a coefficient has more than {DIGIT_LIMIT} digits to print\n"
    assert (code, out, err) == (6, "", limit)


@pytest.mark.skipif(
    not 4215 <= DIGIT_LIMIT < 10**9, reason="needs a digit limit that 2^14000 fits under"
)
def test_power_past_the_digit_limit_is_refused_while_parsing(tmp_path, capsys):
    # 3^2147483647 would have about 1.02e9 digits (425 MB); its size is
    # estimated before it is built, so the refusal takes no time
    identity = write(tmp_path, "id.txt", "x1 -> x1\nth1 -> th1\n")
    limit = f"limit exceeded: a coefficient has more than {DIGIT_LIMIT} digits to print\n"
    for text in ("3^2147483647*x1\n", "3^10000*1/3^10000*x1\n"):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "apply", identity, write(tmp_path, "f.txt", text))
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (6, "", limit)
    code, out, err = run_cli(capsys, "apply", identity, write(tmp_path, "f.txt", "2^14000*x1\n"))
    assert (code, out, err) == (0, f"{2**14000}*x1\n", "")


@pytest.mark.skipif(
    not 4215 <= DIGIT_LIMIT < 10**9, reason="needs a digit limit that 2^14000 fits under"
)
def test_parenthesised_power_past_the_digit_limit_is_refused_while_parsing(tmp_path, capsys):
    # the coefficients of the lowest and the highest term of the body are
    # estimated before the power is taken; a nilpotent value has no body
    # and is never refused
    identity = write(tmp_path, "id.txt", "x1 -> x1\nth1 -> th1\nth2 -> th2\n")
    limit = f"limit exceeded: a coefficient has more than {DIGIT_LIMIT} digits to print\n"
    for text in ("(3)^2147483647*x1\n", "(x1 - 3/2)^2147483647\n", "(-3*x1 + th[1,2])^10000\n"):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "apply", identity, write(tmp_path, "f.txt", text))
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (6, "", limit)
    code, out, err = run_cli(capsys, "apply", identity, write(tmp_path, "f.txt", "(2)^14000*x1\n"))
    assert (code, out, err) == (0, f"{2**14000}*x1\n", "")
    code, out, err = run_cli(capsys, "apply", identity, write(tmp_path, "f.txt", "(th[1,2])^5\n"))
    assert (code, out, err) == (0, "0\n", "")
    code, out, err = run_cli(
        capsys, "apply", identity, write(tmp_path, "f.txt", "(1 + th[1,2])^2147483647\n")
    )
    assert (code, out, err) == (0, "1 + 2147483647*th[1,2]\n", "")


def test_power_of_a_four_hundred_digit_exponent(tmp_path, capsys):
    # past the float range and any recursion per bit: a nilpotent value
    # takes the power, a coordinate's power meets the exponent limit
    identity = write(tmp_path, "id.txt", "x1 -> x1\nth1 -> th1\nth2 -> th2\n")
    huge = 10**400 + 1
    past = "limit exceeded: exponent 2147483648 exceeds the limit 2147483647\n"
    cases = [
        (f"(1 + th[1,2])^{huge}", (0, f"1 + {huge}*th[1,2]\n", "")),
        (f"(th[1,2])^{huge}", (0, "0\n", "")),
        (f"(-1)^{huge}*x1", (0, "-x1\n", "")),
        (f"(x1)^{huge}", (6, "", past)),
    ]
    for text, expected in cases:
        f = write(tmp_path, "f.txt", text + "\n")
        assert run_cli(capsys, "apply", identity, f) == expected


@pytest.mark.parametrize(
    "operator, argument, name",
    [
        ("x1 -> x1\n", "x2 + th[1]\n", "x2"),
        ("d/dx1\n", "x1*th[2]\n", "th2"),
        ("th1 -> th1\n", "x1*th[2]\n", "x1"),
    ],
)
def test_apply_names_an_argument_coordinate_without_image(
    tmp_path, capsys, operator, argument, name
):
    op, f = write(tmp_path, "op.txt", operator), write(tmp_path, "f.txt", argument)
    message = f"invalid input: {name} is used but has no image\n"
    assert run_cli(capsys, "apply", op, f) == (4, "", message)


@pytest.mark.parametrize(
    "shape",
    [
        ("--m", "1", "--n", "0", "--p", "30", "--degree", "0"),
        ("--m", "30", "--n", "0", "--p", "0", "--degree", "30"),
    ],
)
def test_sections_past_the_limit_exit_6_at_once(capsys, shape):
    m, n, p, degree = shape[1::2]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "sections", *shape)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (6, "")
    assert err == (
        f"limit exceeded: the section basis for {m}|{n};{p} at degree {degree} "
        "has more than 65536 coefficients (fields times m + n)\n"
    )


def test_sections_of_many_even_coordinates(capsys):
    # 30 slots times 31 monomials of degree <= 1, listed without walking 2^30 tuples
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "sections", "--m", "30", "--n", "0", "--p", "0", "--degree", "1"
    )
    assert time.perf_counter() - start < 5.0
    lines = out.splitlines()
    assert (code, err, lines[0], len(lines)) == (0, "", "count: 930", 931)
    assert lines[1:3] == ["d/dx1", "x30*d/dx1"] and lines[-1] == "x1*d/dx30"


def test_apply_to_a_coordinate_of_large_index(tmp_path, capsys):
    # the exponent guard of 300000 fields is one closed form, not a sum
    start = time.perf_counter()
    one = write(tmp_path, "one.txt", "x1 -> x1\n")
    code, out, err = run_cli(capsys, "apply", one, write(tmp_path, "f.txt", "x300000\n"))
    assert time.perf_counter() - start < 5.0
    assert (code, out, err) == (4, "", "invalid input: x300000 is used but has no image\n")


ONES = "1" * 46


@pytest.mark.parametrize(
    "verb, operator, argument, label, index",
    [
        ("apply", "x1 -> x1\n", "th99999999999\n", "th", "99999999999"),
        ("apply", "x1 -> x1\n", "x1*t1111111111111111111111\n", "t", "1111111111111111111111"),
        ("apply", "x1 -> x1\n", "th[99999999999999999999]\n", "th", "9" * 20),
        ("apply", "x1 -> x1\n", f"th{ONES}[1]\n", "th", ONES),
        ("apply", f"th{ONES}[1]*d/dx1\n", "x1\n", "th", ONES),
        ("apply", "x1 -> x1\n", "d/dx1048577\n", "x", "1048577"),
        ("factorize", "x1 -> x1 + t[99999999999]\n", None, "t", "99999999999"),
        (
            "expand",
            f"p: 1\nphi0: {{ x1 -> x1 }}\nX[1]: th{ONES}[1]*d/dx1\n",
            None,
            "th",
            ONES,
        ),
        ("expand", "p: 1\nphi0: { x1 -> x1 }\nX[1048577]: d/dx1\n", None, "t", "1048577"),
    ],
)
def test_exit_code_index_limit(tmp_path, capsys, verb, operator, argument, label, index):
    # an index past 2^20 is refused by the tokenizer, before any dimension
    # is built from it
    files = [write(tmp_path, "op.txt", operator)]
    if argument is not None:
        files.append(write(tmp_path, "f.txt", argument))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, verb, *files)
    assert time.perf_counter() - start < 5.0
    assert (code, out) == (6, "")
    assert err == f"limit exceeded: {label} index {index} exceeds the limit 1048576\n"


def test_apply_to_a_coordinate_at_the_index_limit(tmp_path, capsys):
    one = write(tmp_path, "one.txt", "x1 -> x1\n")
    code, out, err = run_cli(capsys, "apply", one, write(tmp_path, "f.txt", "x1048576\n"))
    assert (code, out, err) == (4, "", "invalid input: x1048576 is used but has no image\n")
