"""The superdiff benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload group-law --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from its
`src/`.  With `--trace 0` the run sets the workload up SETUPS times, each
in a fresh process, and the last of those processes runs the closed
loop; it prints the end-to-end metrics.  With `--trace 1` one process
runs a fixed number of operations untraced and then traced, and the run
prints the per-layer metrics.  Either way the last line of stdout is
one JSON object: correct, attempted, failed and metrics.  The line
before it, prefixed `info:`, carries what is recorded but not compared;
both also go to `perfbench/out/`.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("group-law", "poly-dense", "cli-pipeline")
DEFAULT_SEED = 1
# Confirms a claimed gain on inputs not used while the change was written.
HELD_OUT_SEED = 7919
SETUPS = 3
DEADLINE_S = 170


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def _src_lines() -> int:
    """Non-blank lines under src/superdiff that are not `#` comments."""
    count = 0
    for path in sorted((ROOT / "src" / "superdiff").rglob("*.py")):
        for line in path.read_text(encoding="utf-8").splitlines():
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                count += 1
    return count


def _worker(args, mode: str, deadline: float) -> dict:
    """One worker process; it has ended, killed if need be, when this returns."""
    started = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
        "--seconds", str(args.seconds), "--started", repr(started), "--out", str(OUT),
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(1.0, deadline - started)
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{mode} process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[rank - 1]


def _measure(args, deadline: float, info: dict) -> dict:
    setups = [_worker(args, "setup", deadline) for _ in range(SETUPS - 1)]
    run = _worker(args, "measure", deadline)
    setups.append(run)
    raw, ref_s = run["op_s"], run["ref_s"]
    times = hostspeed.scale_each(raw, ref_s)
    passed = run["attempted"] - run["failed"]
    info.update(
        setup_s_all=[s["setup_s"] for s in setups],
        warmup_ok=all(s["warmup_ok"] for s in setups),
        fail_ratio=run["failed"] / run["attempted"],
        tail_percentile=run["tail_percentile"],
        tail_samples=len(times),
        elapsed_s=run["elapsed_s"],
        host_slowdown=hostspeed.slowdown(ref_s),
        raw_ops_per_s=passed / sum(raw),
        raw_op_ms_p50=statistics.median(raw) * 1000,
        input_digest=run["input_digest"],
        output_digest=run["output_digest"],
        op_s=times,
        raw_op_s=raw,
        ref_s=ref_s,
    )
    metrics = {
        "ops_per_s": (passed / hostspeed.scale_total(raw, ref_s), "op/s"),
        "op_ms_p50": (statistics.median(times) * 1000, "ms"),
        "op_ms_tail": (_percentile(times, run["tail_percentile"]) * 1000, "ms"),
        "setup_s": (statistics.median(info["setup_s_all"]), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MiB"),
    }
    return {
        "correct": run["failed"] == 0 and info["warmup_ok"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def _trace(args, deadline: float, info: dict) -> dict:
    import spans

    run = _worker(args, "trace", deadline)
    digests_match = run["output_digest"] == run["traced_output_digest"]
    for key in (
        "overhead_ratio", "untraced_ops_per_s", "traced_ops_per_s",
        "input_digest", "output_digest", "traced_output_digest",
    ):
        info[key] = run[key]
    values = dict(run["layers"], **{spans.OVERHEAD: run["overhead_ratio"]})
    return {
        "correct": run["failed"] == 0 and run["warmup_ok"] and digests_match,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in spans.METRICS.items()
        },
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "superdiff" / "__init__.py").is_file():
        print(f"perfbench: no superdiff package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_lines": _src_lines(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": _loadavg(),
    }
    try:
        result = (_trace if args.trace else _measure)(args, deadline, info)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    info["loadavg_end"] = _loadavg()
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"info": info, "result": result}, indent=1) + "\n")
    for key in ("op_s", "raw_op_s", "ref_s"):
        info.pop(key, None)
    print("info: " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
