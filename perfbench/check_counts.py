"""The benchmark's own test.

    python3 perfbench/check_counts.py [--seed N]

For each workload it makes two traced runs and one short untraced run on
the same seed, and fails (exit code 1) unless

* every run is correct;
* the two traced runs give identical counts (every per-layer metric that
  is not a time or the overhead ratio);
* every per-layer metric is nonzero on the workloads that
  EXPECTED_NONZERO maps it to, and the failure counters are zero,
  which catches a wrapper bound to a stale name;
* the traced and untraced runs have the same input and output digests;
* BENCHMARK.json lists exactly the metrics the runs print.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run
import spans

# The workloads on which each metric must be nonzero, by layer prefix.
# Set-up runs traced, so the layers that sampling reaches count on every
# workload.
ALL = run.WORKLOADS
CLI = ("cli-pipeline",)
EXPECTED_NONZERO = {
    "superfn.substitute": ("group-law", "poly-dense"),
    "superfn.mul": ALL,
    "superfn.add": ALL,
    "superfn.map_external": CLI,
    "grassmann.mul": CLI,
    "grassmann.morphism_apply": CLI,
    "substitution": ALL,
    "derivation.apply": ALL,
    "derivation.symmetrize_apply": CLI,
    "derivation.bracket": CLI,
    "derivation.pushforward": ("poly-dense",),
    "derivation.exp_nilpotent": ALL,
    "derivation.log_unipotent": CLI,
    "morphism.compose": ("group-law", "poly-dense"),
    "morphism.factorize": CLI,
    "morphism.expand_factored": ALL,
    "morphism.certify_inverse": ALL,
    "morphism.gr_push": CLI,
    "sdiff.compose": ("group-law", "poly-dense"),
    "sdiff.invert": ("group-law", "cli-pipeline"),
    "sdiff.compose_factored": ("poly-dense",),
    "sdiff.functor_map": CLI,
    "sections": CLI,
    "parser": CLI,
    "cli": CLI,
    "sampling": ALL,
    "trace": ALL,
}
# Failure counters, which must stay zero.
MUST_BE_ZERO = ("cli.main.nonzero_exits",)


def expected_nonzero(metric: str) -> tuple[str, ...]:
    """Workloads on which `metric` must be nonzero, by longest layer prefix."""
    parts = metric.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        prefix = ".".join(parts[:cut])
        if prefix in EXPECTED_NONZERO:
            return () if metric in MUST_BE_ZERO else EXPECTED_NONZERO[prefix]
    raise KeyError(metric)


def is_count(metric: str) -> bool:
    """Metrics that must repeat exactly across traced runs of one seed."""
    return spans.METRICS[metric] != "ms" and metric != spans.OVERHEAD


def _run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [
        sys.executable, str(run.HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2].removeprefix("info: "))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    args = ap.parse_args()
    problems: list[str] = []

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if listed != spans.METRICS:
        problems.append("BENCHMARK.json per_layer differs from spans.METRICS")
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")

    for workload in run.WORKLOADS:
        first, first_info = _run(workload, args.seed, 1)
        second, _ = _run(workload, args.seed, 1)
        plain, plain_info = _run(workload, args.seed, 0)
        for label, result in (("traced", first), ("traced again", second), ("untraced", plain)):
            if not result["correct"]:
                problems.append(f"{workload}: {label} run is not correct")
        printed = {name: m["unit"] for name, m in plain["metrics"].items()}
        if printed != end_to_end:
            problems.append(f"{workload}: end-to-end metrics differ from BENCHMARK.json")
        for name, metric in first["metrics"].items():
            value = metric["value"]
            if is_count(name) and value != second["metrics"][name]["value"]:
                problems.append(
                    f"{workload}: {name} differs between traced runs: "
                    f"{value} vs {second['metrics'][name]['value']}"
                )
            if name in MUST_BE_ZERO and value != 0:
                problems.append(f"{workload}: {name} is {value}, expected 0")
            if workload in expected_nonzero(name) and not value:
                problems.append(f"{workload}: {name} is zero")
        for key in ("input_digest", "output_digest"):
            if first_info[key] != plain_info[key]:
                problems.append(f"{workload}: traced and untraced {key} differ")
        print(
            f"{workload}: overhead ratio {first_info['overhead_ratio']:.3f}, "
            f"output digest {plain_info['output_digest'][:16]}",
            flush=True,
        )

    for problem in problems:
        print("FAIL", problem)
    print("counts check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
