"""Command-line front end.

Verbs operate on text files in the package's expression and morphism
formats ("-" reads stdin).  Results print to stdout either as canonical
text (default) or as a JSON document (--format doc), which is built only
under --format doc.  Only the named verb's argument parser is built,
unless the root parser must report an error.  Exit codes: 0
success, 1 property-check failure, 2 malformed input (a parse error, or
an input file or stdin that cannot be read or is not UTF-8: "cannot read
PATH"), 3 invertibility could not be certified, 4 dimension/parity/domain
mismatch, 5 internal error (any other exception, reported as "internal
error: TYPE: MESSAGE" instead of a traceback), 6 an explicit size limit
passed ("limit exceeded: ...", e.g. an exponent above 2**31 - 1).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Callable, Iterable, Optional, Sequence

from . import parser as fmt
from . import sampling
from .derivation import SuperDerivation, exp_nilpotent, log_unipotent
from .errors import (
    DimensionError,
    DomainError,
    InvertibilityError,
    LimitError,
    ParityError,
    ParseError,
)
from .grassmann import GrassmannMorphism
from .morphism import SuperMorphism, factorize
from .sdiff import (
    SDiffPoint,
    compose,
    compose_factored,
    functor_map,
    invert,
    recombine,
    split,
)
from .sections import section_basis
from .substitution import UnderlyingMorphism
from .superfn import Superfunction


class _Unreadable(Exception):
    """An input file that cannot be opened or decoded."""


def _read(path: str) -> str:
    try:
        if path == "-":
            if sys.stdin is None:  # the process was started without fd 0
                raise OSError("stdin is closed")
            raw = getattr(sys.stdin, "buffer", None)
            return sys.stdin.read() if raw is None else raw.read().decode("utf-8")
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise _Unreadable(f"cannot read {path}: {reason}") from None


def _load_point(kind: str, value: object, args: argparse.Namespace) -> SDiffPoint:
    """The group element of a parsed morphism or factored document."""
    if kind == "factored":
        body, fields, p = value  # type: ignore[misc]
        return SDiffPoint.from_factored(body, fields, p)
    if kind == "morphism":
        morphism = value
        assert isinstance(morphism, SuperMorphism)
        forced = getattr(args, "p", None)
        if forced is not None and forced != morphism.p:
            morphism = morphism.lift(forced)
        return SDiffPoint(morphism)
    raise ParseError(0, (), f"expected a morphism or factored form, found {kind}")


def _align(a: SDiffPoint, b: SDiffPoint) -> tuple[SDiffPoint, SDiffPoint]:
    if (a.m, a.n) != (b.m, b.n):
        raise DimensionError(
            f"operands live on different superdomains: "
            f"{a.m}|{a.n} versus {b.m}|{b.n}"
        )
    p = max(a.p, b.p)
    if a.p < p:
        a = SDiffPoint(a.morphism.lift(p), a.body)
    if b.p < p:
        b = SDiffPoint(b.morphism.lift(p), b.body)
    return a, b


def _point_morphism(point: SDiffPoint) -> SuperMorphism:
    """The expanded morphism, with the certified body inverse attached."""
    phi = point.morphism
    if phi.inverse_hint is None and point.body.inverse is not None:
        phi = SuperMorphism._of(phi.m, phi.n, phi.p, phi.images, point.body.inverse)
    return phi


def _doc(phi: SuperMorphism | UnderlyingMorphism) -> dict:
    """The JSON document of a morphism or a substitution, inverse included."""
    if isinstance(phi, SuperMorphism):
        doc, inverse = {"kind": "morphism", "p": phi.p}, phi.inverse_hint
    else:
        doc, inverse = {"kind": "substitution"}, phi.inverse
    doc.update(m=phi.m, n=phi.n, images=dict(fmt.image_pairs(phi)))
    if inverse is not None:
        doc["inverse"] = dict(fmt.image_pairs(inverse))
    return doc


def _factored_doc(point: SDiffPoint) -> dict:
    fields = {
        "[" + ",".join(str(i) for i in key) + "]": fmt.format_derivation(field)
        for key, field in point.fields.items()
    }
    return {
        "kind": "factored",
        "p": point.p,
        "body": _doc(point.body),
        "fields": fields,
    }


def _emit(args: argparse.Namespace, text: str, doc: Callable[[], dict]) -> None:
    """Print `text`, or under --format doc the document that `doc` builds."""
    if args.format == "doc":
        print(json.dumps(doc(), sort_keys=True, indent=2))
    else:
        print(text)


def _emit_point(args: argparse.Namespace, point: SDiffPoint) -> None:
    phi = _point_morphism(point)
    _emit(args, fmt.format_morphism(phi), lambda: _doc(phi))


# -- verbs -------------------------------------------------------------------


def cmd_compose(args: argparse.Namespace) -> int:
    outer = _load_point(*fmt.parse_any(_read(args.outer)), args)
    inner = _load_point(*fmt.parse_any(_read(args.inner)), args)
    outer, inner = _align(outer, inner)
    result = compose(outer, inner)
    if args.check_factored:
        alt = compose_factored(outer, inner)
        if alt != result.morphism:
            print("composition cross-check failed", file=sys.stderr)
            return 1
    _emit_point(args, result)
    return 0


def cmd_invert(args: argparse.Namespace) -> int:
    point = _load_point(*fmt.parse_any(_read(args.input)), args)
    _emit_point(args, invert(point))
    return 0


def cmd_factorize(args: argparse.Namespace) -> int:
    point = _load_point(*fmt.parse_any(_read(args.input)), args)
    text = fmt.format_factored(point.body, point.fields, point.p)
    _emit(args, text, lambda: _factored_doc(point))
    return 0


def cmd_expand(args: argparse.Namespace) -> int:
    kind, value = fmt.parse_any(_read(args.input))
    if kind != "factored":
        raise ParseError(0, (), f"expected a factored form, found {kind}")
    _emit_point(args, _load_point(kind, value, args))
    return 0


def cmd_split(args: argparse.Namespace) -> int:
    point = _load_point(*fmt.parse_any(_read(args.input)), args)
    parts = split(point)
    if recombine(parts) != point:
        print("split failed to recombine", file=sys.stderr)
        return 1
    kernel_phi = _point_morphism(parts.kernel)
    text = "\n".join(
        [
            "kernel: {",
            fmt.format_morphism(kernel_phi),
            "}",
            "body: {",
            fmt.format_underlying(parts.body),
            "}",
        ]
    )
    _emit(
        args, text, lambda: {"kind": "split", "kernel": _doc(kernel_phi), "body": _doc(parts.body)}
    )
    return 0


def cmd_push(args: argparse.Namespace) -> int:
    kind, relabel = fmt.parse_any(_read(args.relabel))
    if kind != "grassmann_morphism":
        raise ParseError(0, (), f"expected a Grassmann morphism, found {kind}")
    assert isinstance(relabel, GrassmannMorphism)
    point = _load_point(*fmt.parse_any(_read(args.input)), args)
    if point.p != relabel.source_n:
        point = SDiffPoint(point.morphism.lift(relabel.source_n), point.body)
    _emit_point(args, functor_map(relabel, point))
    return 0


def cmd_apply(args: argparse.Namespace) -> int:
    kind, op = fmt.parse_any(_read(args.operator))
    f = fmt.parse_superfunction(_read(args.argument), args.m, args.n, args.p)
    if kind == "factored":
        op, kind = _load_point(kind, op, args).morphism, "morphism"
    if kind not in ("morphism", "derivation"):
        raise ParseError(0, (), f"cannot apply a {kind}")
    f = fmt.placed(f, op.m, op.n, f.p)
    target = max(f.p, op.p)
    op, f = op.lift(target), f.lift(target)
    result = op.apply_extended(f) if kind == "morphism" else op.apply(f)
    text = fmt.format_superfunction(result)
    _emit(args, text, lambda: {"kind": "superfunction", "value": text})
    return 0


def cmd_bracket(args: argparse.Namespace) -> int:
    left = fmt.parse_derivation(_read(args.left), args.m, args.n, args.p)
    right = fmt.parse_derivation(_read(args.right), args.m, args.n, args.p)
    mm = max(left.m, right.m)
    nn = max(left.n, right.n)
    pp = max(left.p, right.p)

    def pad(d: SuperDerivation) -> SuperDerivation:
        """d on mm|nn;pp: each part embedded, then zeros for the new slots."""
        zero = Superfunction.zero(mm, nn, pp)
        x, th = ([g.embed(mm, nn, pp) for g in part] for part in (d.x_coeffs, d.th_coeffs))
        return SuperDerivation(mm, nn, pp, x + [zero] * (mm - d.m), th + [zero] * (nn - d.n))

    result = pad(left).bracket(pad(right))
    text = fmt.format_derivation(result)
    _emit(args, text, lambda: {"kind": "derivation", "value": text})
    return 0


def cmd_exp(args: argparse.Namespace) -> int:
    field = fmt.parse_derivation(_read(args.input), args.m, args.n, args.p)
    morphism = exp_nilpotent(field)
    _emit(args, fmt.format_underlying(morphism), lambda: _doc(morphism))
    return 0


def cmd_log(args: argparse.Namespace) -> int:
    kind, value = fmt.parse_any(_read(args.input))
    if kind != "morphism":
        raise ParseError(0, (), f"expected a morphism, found {kind}")
    assert isinstance(value, SuperMorphism)
    if value.p != 0:
        raise DimensionError("logarithm expects a rank-0 substitution")
    field = log_unipotent(value.underlying())
    text = fmt.format_derivation(field)
    _emit(args, text, lambda: {"kind": "derivation", "value": text})
    return 0


def cmd_sections(args: argparse.Namespace) -> int:
    basis = section_basis(args.m, args.n, args.p, args.degree)
    lines = [fmt.format_derivation(sec.field) for sec in basis]
    text = "\n".join([f"count: {len(basis)}"] + lines)
    _emit(
        args,
        text,
        lambda: {
            "kind": "sections",
            "m": args.m,
            "n": args.n,
            "p": args.p,
            "degree": args.degree,
            "count": len(basis),
            "basis": lines,
        },
    )
    return 0


# -- selftest ----------------------------------------------------------------


def _selftest_checks(rng: random.Random, count: int) -> list[tuple[str, bool]]:
    results: list[tuple[str, bool]] = []

    ok = True
    for _ in range(count):
        body = sampling.random_body(rng, 2, 2, degree=1)
        fields = sampling.random_field_family(rng, 2, 2, 2, degree=1)
        point = SDiffPoint.from_factored(body, fields, 2)
        rebody, refields = factorize(point.morphism)
        ok = ok and refields == fields and rebody == body
    results.append(("factor round trip", ok))

    ident = SDiffPoint.identity(2, 2, 2)
    ok = True
    for _ in range(count):
        point = sampling.random_point(rng, 2, 2, 2, degree=1)
        other = invert(point)
        ok = ok and compose(other, point) == ident
        ok = ok and compose(point, other) == ident
    results.append(("inverse round trip", ok))

    ok = True
    for _ in range(count):
        a = sampling.random_point(rng, 2, 2, 2, degree=1)
        b = sampling.random_point(rng, 2, 2, 2, degree=1)
        ok = ok and compose(a, b).morphism == compose_factored(a, b)
    results.append(("composition routes", ok))

    ok = True
    for _ in range(count):
        point = sampling.random_point(rng, 2, 2, 2, degree=1)
        parts = split(point)
        ok = ok and parts.kernel.in_kernel() and recombine(parts) == point
    results.append(("semidirect split", ok))

    ok = True
    for _ in range(count):
        field = sampling.random_filtration_field(rng, 2, 3, degree=1)
        morphism = exp_nilpotent(field)
        ok = ok and log_unipotent(morphism) == field
    results.append(("exp/log round trip", ok))

    ok = True
    for _ in range(count):
        f = sampling.random_superfunction(rng, 2, 2, 2)
        text = fmt.format_superfunction(f)
        ok = ok and fmt.format_superfunction(fmt.parse_superfunction(text)) == text
        d = sampling.random_derivation(rng, 2, 2, 2)
        dtext = fmt.format_derivation(d)
        ok = ok and fmt.format_derivation(fmt.parse_derivation(dtext)) == dtext
    results.append(("printer fixpoint", ok))

    return results


def cmd_selftest(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    failures = 0
    for label, passed in _selftest_checks(rng, args.count):
        print(f"{'ok' if passed else 'fail'} {label} x{args.count}")
        failures += 0 if passed else 1
    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print("all checks passed")
    return 0


# -- wiring ------------------------------------------------------------------


_DIMS = {"m": "even coordinate count", "n": "odd coordinate count", "p": "external rank"}


def _add_options(sub: argparse.ArgumentParser, dims: str) -> None:
    """--format, then one --X option for each letter of dims the verb reads."""
    sub.add_argument(
        "--format", choices=("text", "doc"), default="text", help="output style"
    )
    for dim in dims:
        sub.add_argument(f"--{dim}", type=int, default=None, help=_DIMS[dim])


# Each verb: its help line, its own arguments in order, and the dimension
# options it reads (None: not even --format).  Its handler is cmd_<verb>.
_INPUT = (("input", {}),)
_VERBS: dict[str, tuple[str, tuple, Optional[str]]] = {
    "compose": (
        "multiply two invertible families",
        (
            ("outer", {}),
            ("inner", {}),
            (
                "--check-factored",
                {"action": "store_true", "help": "cross-check through the factored route"},
            ),
        ),
        "p",
    ),
    "invert": ("group inverse of an invertible family", _INPUT, "p"),
    "factorize": ("split into body and component fields", _INPUT, "p"),
    "expand": ("rebuild the morphism from factored data", _INPUT, ""),
    "split": ("separate kernel part and constant part", _INPUT, "p"),
    "push": (
        "relabel external generators along a map",
        (
            ("relabel", {"help": "Grassmann morphism file"}),
            ("input", {"help": "morphism or factored file"}),
        ),
        "p",
    ),
    "apply": (
        "apply a morphism or operator to a function",
        (("operator", {}), ("argument", {})),
        "mnp",
    ),
    "bracket": ("graded commutator of two operators", (("left", {}), ("right", {})), "mnp"),
    "exp": ("exponentiate a filtration-raising field", _INPUT, "mnp"),
    "log": ("logarithm of a unipotent substitution", _INPUT, ""),
    "sections": (
        "basis of even field families",
        (
            ("--m", {"type": int, "required": True}),
            ("--n", {"type": int, "required": True}),
            ("--p", {"type": int, "required": True}),
            ("--degree", {"type": int, "default": 1, "help": "max polynomial degree"}),
        ),
        "",
    ),
    "selftest": (
        "seeded property checks",
        (("--seed", {"type": int, "default": 0}), ("--count", {"type": int, "default": 10})),
        None,
    ),
}


def build_parser(verbs: Iterable[str] = _VERBS) -> argparse.ArgumentParser:
    """The root parser with a subparser for each of `verbs` (all by default)."""
    root = argparse.ArgumentParser(
        prog="superdiff",
        description="exact calculus on families of superdomain morphisms",
    )
    sub = root.add_subparsers(dest="verb", required=True)
    for verb in verbs:
        help_text, arguments, dims = _VERBS[verb]
        sp = sub.add_parser(verb, help=help_text)
        for name, options in arguments:
            sp.add_argument(name, **options)
        if dims is not None:
            _add_options(sp, dims)
        sp.set_defaults(func=globals()[f"cmd_{verb}"])
    return root


def _parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    """The parsed command line, building only the named verb's parser.

    A verb's arguments all go to its own subparser, so the root plus that
    one subparser parses a well-formed command exactly as the full parser
    does.  Anything the root itself must report (no verb, an unknown verb,
    arguments left over) goes to the full parser, whose usage line lists
    every verb, so each message stays the same.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _VERBS:
        args, rest = build_parser(argv[:1]).parse_known_args(argv)
        if not rest:
            return args
    return build_parser().parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except _Unreadable as exc:
        print(exc, file=sys.stderr)
        return 2
    except InvertibilityError as exc:
        print(f"not certifiable: {exc}", file=sys.stderr)
        return 3
    except (DimensionError, ParityError, DomainError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 4
    except LimitError as exc:
        print(f"limit exceeded: {exc}", file=sys.stderr)
        return 6
    except Exception as exc:  # the last resort: no traceback reaches the user
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
