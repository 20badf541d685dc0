"""crepcond benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  Workloads, metrics and bounds are declared in ``BENCHMARK.json``
and described in ``perfbench/README.md``.

``--trace 0`` starts ``SETUP_PROBES`` set-up-only processes and one
measuring process, each a fresh interpreter with one BLAS thread, and
reports the end-to-end metrics.  ``--trace 1`` starts one traced process
and reports the per-layer metrics.  Every op's answer is checked against a
reference (see ``gates.py``); a wrong answer makes the run exit 1, after
printing its result with ``"correct": false``.  ``--inject-wrong-kappa``
hands the gates a kappa 50% too large, to show that they catch it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(every op time, the environment, the exact counts) is written to
``.perfbench/<workload>/result-seed<N>-trace<0|1>.json`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"

# Seed kept out of tuning, for checking a later performance claim.
HELD_OUT_SEED = 9127
# One BLAS thread: on a shared 2-core machine two OpenBLAS threads made
# Tucker (8, 8, 8) cross-validation 2.3x slower in one run and steady in the
# next, while one thread repeated within a few percent.
BLAS_THREADS = 1
SETUP_PROBES = 4
RUN_LIMIT_S = 170.0


class RunError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_worker(args, mode: str, workdir: Path, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--mode", mode, "--workdir", str(workdir),
    ]
    if args.inject_wrong_kappa:
        cmd.append("--inject-wrong-kappa")
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RunError(f"{mode} process for {args.workload} did not finish in time")
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"{mode} process for {args.workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = res.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def run_one(args, spec: dict) -> dict:
    """Run one workload; returns the full record including ``result``."""
    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = OUT / args.workload
    if args.trace:
        rec = run_worker(args, "trace", workdir, deadline)
        setups = [rec["setup_s"]]
    else:
        setups = [run_worker(args, "setup", workdir, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        rec = run_worker(args, "measure", workdir, deadline)
        setups.append(rec["setup_s"])
    op_s = rec["op_s"]
    error = rec["error"]
    if args.trace:
        wanted = spec["per_layer"]
        values = rec.get("layers", {})
    else:
        wanted = spec["end_to_end"]
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(op_s) / sum(op_s),
            "op_s.p50": statistics.median(op_s),
            "op_s.p90": quantile(op_s, 0.9),
            "peak_rss_mb": rec["peak_rss_mb"],
        }
    metrics = {}
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        elif error is None:
            error = f"metric {m['name']} was not measured"
    result = {"correct": error is None, "attempted": rec["attempted"], "failed": rec["failed"], "metrics": metrics}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": BLAS_THREADS,
        "env": rec.get("env"),
        "source": source_identity(),
        "setup_samples_s": setups,
        "op_s": op_s,
        "error": error,
        "pool_failures": rec["pool_failures"],
        "counts": rec.get("counts"),
        "counted_ops": rec.get("counted_ops"),
        "traced_ops": rec.get("traced_ops"),
        "spans": rec.get("spans"),
        "result": result,
    }


def summarize(record: dict) -> None:
    res = record["result"]
    env = record["env"] or {}
    print(f"workload {record['workload']}  seed {record['seed']}  (held-out seed {record['held_out_seed']})  "
          f"trace {record['trace']}  seconds {record['seconds']}")
    print(f"env: nproc {env.get('nproc')}, python {env.get('python')}, numpy {env.get('numpy')}, "
          f"{env.get('blas')} {env.get('blas_version')}, BLAS threads {record['blas_threads']}, "
          f"commit {record['source']['git_commit']}, src sha256 {record['source']['src_sha256'][:12]}")
    for name, m in res["metrics"].items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    n = len(record["op_s"])
    print(f"  {'ops timed untraced':<40} {n}")
    print(f"  {'failed_frac':<40} {res['failed'] / res['attempted']:.6g} ({res['failed']}/{res['attempted']})")
    print(f"  {'inputs left out (failed at set-up)':<40} {record['pool_failures']}")
    if record["error"]:
        print(f"WRONG ANSWER OR BENCHMARK ERROR: {record['error']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-wrong-kappa", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "crepcond" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} is not a crepcond source checkout (src/crepcond or BENCHMARK.json missing)",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        print(f"error: unknown workload {args.workload!r}; choose from {names} or 'all'", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be nonnegative and --seconds positive", file=sys.stderr)
        return 2

    sys.path.insert(0, str(HERE))
    import gates

    accepted = gates.self_check()
    if accepted:
        print(f"error: correctness gates accepted a wrong kappa: {accepted}", file=sys.stderr)
        return 3

    records = []
    for name in names if args.workload == "all" else [args.workload]:
        one = argparse.Namespace(**{**vars(args), "workload": name})
        try:
            record = run_one(one, spec)
        except RunError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        path = OUT / name / f"result-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1), encoding="utf-8")
        summarize(record)
        records.append(record)

    results = [r["result"] for r in records]
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{rec['workload']}.{k}": v for rec in records for k, v in rec["result"]["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
