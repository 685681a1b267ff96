import json
import os
import subprocess
import sys

import pytest

from superdiff import cli
from superdiff.cli import main


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


def test_apply_verb(tmp_path, capsys):
    phi = write(tmp_path, "phi.txt", "x1 -> x1 + th[1]*t[1]\nth1 -> th1\n")
    f = write(tmp_path, "f.txt", "x1^2\n")
    code, out, _ = run_cli(capsys, "apply", phi, f)
    assert code == 0
    assert out.strip() == "x1^2 + 2*x1*th[1]*t[1]"


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


def test_push_verb(tmp_path, capsys):
    phi = write(tmp_path, "phi.txt", PHI)
    gm = write(tmp_path, "gm.txt", "t[1] -> t[2]\nt[2] -> t[1]\n")
    code, out, _ = run_cli(capsys, "push", gm, phi)
    assert code == 0
    assert "th[1]*t[2]" in out


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
    doc = json.loads(out)
    assert doc["kind"] == "factored"
    assert doc["p"] == 2
    assert "[1]" in doc["fields"]


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
    assert "unrecognized arguments: --m 5 --n 3" in capsys.readouterr().err


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
