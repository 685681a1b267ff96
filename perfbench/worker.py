"""One benchmark process: set up one workload, then time it or trace it.

`run.py` starts this script in a fresh process for every set-up it
measures, so each set-up pays for the interpreter and the import:

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE \
        --seconds S --started T --out DIR

MODE is `setup` (set up, warm up, report the set-up time), `measure`
(then run the closed loop for S seconds) or `trace` (set up traced, then
run a fixed number of operations, each untraced and then traced).  T is the
parent's `time.monotonic()` just before it started this process.  The
script prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_package():
    sys.path.insert(0, str(SRC))
    import superdiff

    if not Path(superdiff.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"superdiff was imported from {superdiff.__file__}, not {SRC}")


def _sha256(texts) -> str:
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()


def _timed_op(workload, i: int):
    """(seconds, passed, output) of operation i; a raise counts as a failure."""
    began = time.perf_counter()
    try:
        ok, output = workload.run(i)
    except Exception as exc:  # a failed operation must not end the run
        ok, output = False, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - began, ok, output


def _closed_loop(workload, seconds: float):
    """One client: operation i starts when i-1 has finished.

    The reference work of hostspeed.py is timed just before each
    operation.  Runs until `seconds` have passed and the workload's
    `min_ops` have run.
    """
    times, ref_s, outputs, failed = [], [], [], 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(times) < workload.min_ops:
        ref_s.append(hostspeed.calibrate())
        elapsed, ok, output = _timed_op(workload, len(times))
        times.append(elapsed)
        failed += not ok
        if len(outputs) < workload.trace_ops:
            outputs.append(output)
    return times, ref_s, outputs, failed, time.perf_counter() - start


def _traced_pairs(workload, tracer):
    """Each of the first trace_ops operations untraced, then at once traced.

    Alternating keeps drift in host speed out of the overhead ratio.
    """
    plain, traced = [], []
    for i in range(workload.trace_ops):
        plain.append(_timed_op(workload, i))
        tracer.op = i
        tracer.install()
        traced.append(_timed_op(workload, i))
        tracer.uninstall()
    return plain, traced


def _output_digest(workload, outputs) -> str:
    return _sha256(o if isinstance(o, str) else workload.output_text(o) for o in outputs)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--started", type=float, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    _import_package()
    import workloads

    tracer = None
    if args.mode == "trace":
        import spans

        tracer = spans.Tracer()
        tracer.install()
    workdir = args.out / f"work-{args.workload}-{args.seed}-{args.mode}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workload.setup()
        ok, _ = workload.run(0)  # warm-up
        setup_s = time.monotonic() - args.started
        result = {"setup_s": setup_s, "warmup_ok": ok}
        if args.mode == "setup":
            print(json.dumps(result))
            return 0
        result.update(
            tail_percentile=workload.tail_percentile,
            input_digest=_sha256(workload.input_texts),
        )
        if tracer is None:
            times, ref_s, outputs, failed, elapsed = _closed_loop(workload, args.seconds)
            result.update(
                attempted=len(times),
                failed=failed,
                elapsed_s=elapsed,
                op_s=times,
                ref_s=ref_s,
                output_digest=_output_digest(workload, outputs),
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            )
        else:
            tracer.uninstall()
            plain, traced = _traced_pairs(workload, tracer)
            plain_s = sum(elapsed for elapsed, _, _ in plain)
            traced_s = sum(elapsed for elapsed, _, _ in traced)
            result.update(
                attempted=len(plain) + len(traced),
                failed=sum(not ok for _, ok, _ in plain + traced),
                output_digest=_output_digest(workload, [out for _, _, out in plain]),
                traced_output_digest=_output_digest(workload, [out for _, _, out in traced]),
                layers=tracer.layer_metrics(),
                overhead_ratio=plain_s / traced_s,
                untraced_ops_per_s=len(plain) / plain_s,
                traced_ops_per_s=len(traced) / traced_s,
            )
            tracer.write(args.out / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
