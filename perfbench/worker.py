"""One workload process: set up, warm up, then time ops until the time is up.

Started by ``run.py`` in a fresh interpreter with the BLAS thread count
pinned, and prints one JSON record as its last line of output.

    worker.py --workload W --seed N --seconds S --mode {setup,measure,trace}
              --t0 T --workdir DIR [--inject-wrong-kappa]

``--t0`` is the ``time.monotonic()`` reading taken by the parent just
before starting this process; ``setup_s`` runs from there to the first
timed op.  ``setup`` mode stops after the warm-up.  ``trace`` mode times
half of the run untraced and half traced, then repeats the first
``counted_ops`` ops traced and requires their counts to match exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def environment() -> dict:
    import numpy

    blas = {}
    try:
        config = numpy.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
    except (TypeError, ValueError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def timed_loop(wl, seconds: float, failures, kappa_scale: float, tracer=None):
    """Run whole cycles of ops until ``seconds`` have passed (and at least
    ``wl.counted_ops`` ops).  Returns (op times, failed, op numbers, error)."""
    op_s, seqs = [], []
    failed = 0
    start = time.perf_counter()
    i = 0
    while True:
        for _ in range(wl.cycle):
            if tracer is not None:
                seqs.append(tracer.begin_op())
            t0 = time.perf_counter()
            try:
                result = wl.op(i)
            except failures:
                result = None
                failed += 1
            finally:
                op_s.append(time.perf_counter() - t0)
                if tracer is not None:
                    tracer.end_op()
            if result is not None:
                try:
                    wl.check(i, result, kappa_scale)
                except AssertionError as exc:
                    return op_s, failed, seqs, str(exc)
            i += 1
        if time.perf_counter() - start >= seconds and i >= wl.counted_ops:
            return op_s, failed, seqs, None


def traced_run(wl, half: float, failures, kappa_scale: float, workdir: Path) -> dict:
    """Time ``half`` seconds untraced, then ``half`` seconds traced from op 0
    again, then repeat the first ``wl.counted_ops`` ops traced; their exact
    counts must match."""
    from tracer import Tracer, exact_counts, layer_metrics

    plain, failed, _, error = timed_loop(wl, half, failures, kappa_scale)
    out = {"op_s": plain, "attempted": len(plain), "failed": failed, "error": error}
    if error is not None:
        return out
    tracer = Tracer()
    tracer.install(wl.problems())
    wl.tracer = tracer
    traced, failed, seqs, error = timed_loop(wl, half, failures, kappa_scale, tracer)
    out.update(attempted=len(plain) + len(traced), failed=out["failed"] + failed, error=error)
    if error is not None:
        return out
    counted = seqs[: wl.counted_ops]
    _, _, again, error = timed_loop(wl, 0.0, failures, kappa_scale, tracer)
    first, second = exact_counts(tracer, counted), exact_counts(tracer, again)
    if error is None and first != second:
        diff = {k: (first.get(k), second.get(k)) for k in first.keys() | second.keys() if first.get(k) != second.get(k)}
        error = f"counts did not repeat exactly: {diff}"
    extra = wl.extra_metrics(seqs)
    extra["certify.pool_failures"] = wl.pool_failures
    extra["trace.overhead_frac"] = 1.0 - (len(traced) / sum(traced)) / (len(plain) / sum(plain))
    metrics, counts = layer_metrics(tracer, seqs, counted, extra)
    spans = workdir / "spans.json"
    tracer.dump(spans)
    out.update(error=error, layers=metrics, counts=counts, counted_ops=len(counted), traced_ops=len(seqs), spans=str(spans))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--inject-wrong-kappa", action="store_true")
    args = ap.parse_args(argv)

    import crepcond
    import workloads

    src = Path(__file__).resolve().parents[1] / "src"
    if Path(crepcond.__file__).resolve().parent.parent != src:
        print(f"error: crepcond was imported from {crepcond.__file__}, not from {src}", file=sys.stderr)
        return 2
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    wl.warm_up()
    setup_s = time.monotonic() - args.t0
    record = {"setup_s": setup_s, "error": None, "pool_failures": wl.pool_failures}
    if args.mode == "setup":
        print(json.dumps(record))
        return 0

    kappa_scale = 1.5 if args.inject_wrong_kappa else 1.0
    record["env"] = environment()
    if args.mode == "measure":
        op_s, failed, _, error = timed_loop(wl, args.seconds, workloads.FAILURES, kappa_scale)
        record.update(op_s=op_s, attempted=len(op_s), failed=failed, error=error)
    else:
        record.update(traced_run(wl, args.seconds / 2.0, workloads.FAILURES, kappa_scale, workdir))
    record["peak_rss_mb"] = peak_rss_mb(args.workload)
    print(json.dumps(record))
    return 0


def peak_rss_mb(workload: str) -> float:
    """Peak RSS of this process, or of its largest child for the CLI workload
    (whose ops are child processes).  Linux reports ``ru_maxrss`` in KiB."""
    who = resource.RUSAGE_CHILDREN if workload == "cli_analyze" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


if __name__ == "__main__":
    sys.exit(main())
