"""The benchmark's workloads: seeded inputs, one operation, its exact check.

Every workload draws its inputs in set-up from `superdiff.sampling`,
seeded by the workload name and `--seed`, and keeps a pool of them that
the timed loop walks through in order, wrapping around.  Operation i
always uses pool entry i mod pool size, so two processes given the same
seed run the same operations in the same order.

Every input point has a component field on each external index set
(`random_field_family` at density 1).  Operation cost varies steeply
between such points, so without a fixed input size the mix of points one
seed happens to draw, not the code, would set most of a run's figures.
The operations that compose are sized by their substitution work (see
`_substitution_work`), which predicts their time well (correlation 0.8
to 0.9 on the unmodified package); the CLI pipeline, whose time goes to
parsing and factorizing text, is sized by the canonical text of its
point.  A candidate outside its workload's band is drawn again.  Both
measures are properties of the mathematical objects, not of the code,
so every commit whose sampler is unchanged draws the same inputs.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import sys
from pathlib import Path

# Modules, not names: the traced run swaps functions on these modules.
from superdiff import cli, sampling, sdiff, sections
from superdiff import parser as fmt
from superdiff.morphism import SuperMorphism

# Canonical text bytes of a cli-pipeline point; about one draw in three fits.
TEXT_BAND = (3300, 3900)
# Substitution work of one group-law operation; about one draw in two fits.
GROUP_WORK_BAND = (31000, 50000)
# Substitution work of one poly-dense composite; about one pair in three fits.
DENSE_WORK_BAND = (3600, 4900)
# Equal parts of a band, each filling the same share of the pool.
STRATA = 4
MAX_DRAWS_PER_INPUT = 40


def _coefficient_terms(f) -> int:
    return sum(len(poly.terms) for poly in f.terms.values())


def _substitution_work(outer, inner) -> int:
    """Estimated work of substituting `outer`'s images into `inner`'s.

    Every monomial of an image of `inner` is rebuilt from the images of
    `outer` it names: each even generator once per unit of its exponent,
    each odd generator once.  The estimate sums the coefficient terms of
    those images over all monomials.
    """
    even = [_coefficient_terms(f) for f in outer.images_x]
    odd = [_coefficient_terms(f) for f in outer.images_th]
    work = 0
    for image in list(inner.images_x) + list(inner.images_th):
        for (theta_key, _), poly in image.terms.items():
            odd_work = sum(odd[j - 1] for j in theta_key)
            for exponents in poly.terms:
                work += odd_work + sum(even[i] * e for i, e in enumerate(exponents))
    return work


def _draw_point(rng: random.Random, m: int, n: int, p: int, degree: int):
    body = sampling.random_body(rng, m, n, degree)
    fields = sampling.random_field_family(rng, m, n, p, degree, density=1.0)
    return sdiff.SDiffPoint.from_factored(body, fields, p)


def _stratified_pool(size: int, band: tuple[int, int], describe: str, draw) -> list:
    """`size` inputs whose measure lies in `band`, spread evenly across it.

    `draw()` returns (input, measure).  The band is cut into STRATA equal
    parts and each part takes size / STRATA inputs, so every seed's pool
    has the same spread of sizes; a draw outside the band or in a full
    part is discarded.  The pool takes the parts in turn, so a run that
    stops partway through a pass still has the same mix of sizes.
    """
    lo, hi = band
    parts: list[list] = [[] for _ in range(STRATA)]
    for _ in range(size * MAX_DRAWS_PER_INPUT):
        found, measure = draw()
        if lo <= measure <= hi:
            part = parts[min(STRATA - 1, (measure - lo) * STRATA // (hi - lo))]
            if len(part) < size // STRATA:
                part.append(found)
                if sum(map(len, parts)) == size:
                    return [item for turn in zip(*parts) for item in turn]
    raise RuntimeError(
        f"fewer than {size} {describe} of measure {lo}..{hi} in "
        f"{size * MAX_DRAWS_PER_INPUT} draws; the sampler has changed"
    )


def _with_body_inverse(point) -> SuperMorphism:
    """The expanded morphism carrying its body inverse, as the CLI prints it."""
    phi = point.morphism
    return SuperMorphism(
        phi.m, phi.n, phi.p, phi.images_x, phi.images_th, inverse_hint=point.body.inverse
    )


class Workload:
    """Base class: a seeded pool of inputs and one checked operation on it."""

    name = ""
    pool_size = 0
    # operations a traced run makes; also how many outputs go into the digest
    trace_ops = 0
    # op_ms_tail's percentile: the highest that keeps ten samples beyond it
    # at the number of operations a run makes in a slow phase of the host
    tail_percentile = 80

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.workdir = workdir
        self.pool: list = []
        self.input_texts: list[str] = []

    @property
    def min_ops(self) -> int:
        """Operations a run needs for ten samples beyond the tail percentile."""
        return -(-1000 // (100 - self.tail_percentile))

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, i: int):
        """Operation i: returns (passed its exact check, output)."""
        raise NotImplementedError

    def output_text(self, output) -> str:
        """Canonical text of one operation's output, for the output digest."""
        raise NotImplementedError


class GroupLaw(Workload):
    """invert, then both composites with the inverse must be the identity."""

    name = "group-law"
    pool_size = 24
    trace_ops = 6
    tail_percentile = 60

    def setup(self) -> None:
        def draw():
            point = _draw_point(self.rng, 2, 2, 3, 1)
            inv = sdiff.invert(point).morphism
            work = _substitution_work(point.morphism, inv) + _substitution_work(
                inv, point.morphism
            )
            return point, work

        self.pool = _stratified_pool(self.pool_size, GROUP_WORK_BAND, "2|2;3 points", draw)
        self.input_texts = [fmt.format_morphism(point.morphism) for point in self.pool]

    def run(self, i: int):
        point = self.pool[i % self.pool_size]
        inv = sdiff.invert(point)
        ok = (
            sdiff.compose(point, inv).is_identity()
            and sdiff.compose(inv, point).is_identity()
        )
        return ok, inv

    def output_text(self, output) -> str:
        return fmt.format_morphism(output.morphism)


class PolyDense(Workload):
    """compose by substitution, checked against the factored oracle."""

    name = "poly-dense"
    pool_size = 48
    trace_ops = 16

    def setup(self) -> None:
        def draw():
            a = _draw_point(self.rng, 3, 1, 2, 3)
            b = _draw_point(self.rng, 3, 1, 2, 3)
            return (a, b), _substitution_work(a.morphism, b.morphism)

        self.pool = _stratified_pool(self.pool_size, DENSE_WORK_BAND, "3|1;2 pairs", draw)
        self.input_texts = [
            fmt.format_morphism(a.morphism) + "\n" + fmt.format_morphism(b.morphism)
            for a, b in self.pool
        ]

    def run(self, i: int):
        a, b = self.pool[i % self.pool_size]
        product = sdiff.compose(a, b).morphism
        return product == sdiff.compose_factored(a, b), product

    def output_text(self, output) -> str:
        return fmt.format_morphism(output)


def _run_cli(argv: list[str], stdin_text: str = "") -> tuple[int, str]:
    """superdiff's CLI in this process, stdin and stdout redirected."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


SECTIONS_SHAPE = (2, 2, 3, 2)


def _section_count(m: int, n: int, p: int, degree: int) -> int:
    """Closed-form size of the section basis for p >= 1 (acceptance criterion 10)."""
    polys = math.comb(m + degree, m)
    theta_even = sum(math.comb(n, r) for r in range(0, n + 1, 2))
    theta_odd = sum(math.comb(n, r) for r in range(1, n + 1, 2))
    even_fields = m * polys * theta_even + n * polys * theta_odd
    odd_fields = m * polys * theta_odd + n * polys * theta_even
    return (even_fields + odd_fields) * 2 ** (p - 1)


class CliPipeline(Workload):
    """Canonical text through the CLI verbs, each output compared byte for byte.

    The expected texts are built in set-up from the sampled objects
    through the Python API, never through the parser, so the CLI's text
    path is checked against an independent route.  `bracket` is run on
    two of the point's component fields because no other verb reaches
    the bracket of fields.
    """

    name = "cli-pipeline"
    pool_size = 16
    trace_ops = 6
    tail_percentile = 75

    def setup(self) -> None:
        m, n, p, degree = SECTIONS_SHAPE
        basis = sections.section_basis(m, n, p, degree)
        lines = [f"count: {len(basis)}"] + [fmt.format_derivation(s.field) for s in basis]
        self.sections_text = "\n".join(lines) + "\n"
        self.section_count = _section_count(m, n, p, degree)
        self.sections_argv = [
            "sections", "--m", str(m), "--n", str(n), "--p", str(p), "--degree", str(degree)
        ]

        def draw():
            point = _draw_point(self.rng, 2, 2, 3, 1)
            text = fmt.format_morphism(point.morphism)
            return (point, text), len(text)

        drawn = _stratified_pool(self.pool_size, TEXT_BAND, "2|2;3 points", draw)
        for k, (point, text) in enumerate(drawn):
            relabel = sampling.random_grassmann_morphism(self.rng, 3, 3)
            keys = sorted(point.fields, key=lambda key: (len(key), key))
            left, right = point.fields[keys[0]], point.fields[keys[-1]]
            files = {
                "relabel": fmt.format_grassmann_morphism(relabel),
                "left": fmt.format_derivation(left),
                "right": fmt.format_derivation(right),
            }
            paths = {}
            for label, content in files.items():
                path = self.workdir / f"{k}-{label}.txt"
                path.write_text(content + "\n", encoding="utf-8")
                paths[label] = str(path)
            expected = {
                "factored": fmt.format_factored(point.body, point.fields, point.p),
                "expanded": fmt.format_morphism(_with_body_inverse(point)),
                "inverse": fmt.format_morphism(_with_body_inverse(sdiff.invert(point))),
                "pushed": fmt.format_morphism(
                    _with_body_inverse(sdiff.functor_map(relabel, point))
                ),
                "bracket": fmt.format_derivation(left.bracket(right)),
            }
            self.pool.append(
                (text + "\n", paths, {key: value + "\n" for key, value in expected.items()})
            )
            self.input_texts.append("\n".join([text, files["relabel"]]))

    def run(self, i: int):
        text, paths, expected = self.pool[i % self.pool_size]
        out = {}
        codes = []

        def verb(label: str, argv: list[str], stdin_text: str = "") -> str:
            code, out[label] = _run_cli(argv, stdin_text)
            codes.append(code)
            return out[label]

        factored = verb("factored", ["factorize", "-"], text)
        expanded = verb("expanded", ["expand", "-"], factored)
        verb("refactored", ["factorize", "-"], expanded)
        verb("inverse", ["invert", "-"], text)
        verb("pushed", ["push", paths["relabel"], "-"], text)
        verb("bracket", ["bracket", paths["left"], paths["right"], "--m", "2", "--n", "2"])
        sections_text = verb("sections", self.sections_argv)
        ok = (
            all(code == 0 for code in codes)
            and out["refactored"] == factored
            and all(out[key] == value for key, value in expected.items())
            and sections_text == self.sections_text
            and sections_text.split("\n", 1)[0] == f"count: {self.section_count}"
        )
        return ok, list(out.values())

    def output_text(self, output) -> str:
        return "".join(output)


WORKLOADS = {cls.name: cls for cls in (GroupLaw, PolyDense, CliPipeline)}
