"""qduplex benchmark: three closed-loop workloads, end-to-end and per-layer metrics.

Run from the root of a plain checkout; nothing needs installing:

    python3 benchmarks/run.py --workload detect-intercept-16 --seed 1 --seconds 30 --trace 0

Each workload runs in fresh worker processes (this file with --worker)
that put the checkout's ``src`` first on the import path.  SETUPS workers
are started one after another; each reports the time from its launch to
the end of its warm-up, and the median of those is ``setup_s``.  The last
worker then runs the timed part: whole rounds of the workload's
operations until --seconds have passed, each round checked for
correctness.  With --trace 1 the timed part is split in two halves, the
second with every layer wrapped in timing spans (see tracing.py).

Both timings are reported at a nominal host speed: the worker times a
fixed reference kernel next to every round and after its set-up, and
scales by it (see REF_NOMINAL_S).  The raw figures go to the results file.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The same result, with per-round
detail, goes to benchmarks/results/BENCH_<workload>_seed<seed>[_trace].json,
and a traced run's span totals to TRACE_<workload>_seed<seed>.json.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKLOAD_NAMES = ("detect-intercept-16", "info-quiet-1024", "roundtrip-transcript-4096")
SETUPS = 5
# Time a workload may take beyond --seconds: its set-ups, checks and the
# final round that started just before the deadline.
GRACE_S = 120.0


class BenchError(Exception):
    pass


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--started-ns", type=int, help=argparse.SUPPRESS)
    return parser


# ---------------------------------------------------------------------------
# Parent: start workers, take the median set-up, report


def _spawn(name: str, args, setup_only: bool, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--worker", "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    # CLOCK_MONOTONIC is one clock for every process on the host, so the
    # worker can subtract this launch time from its own reading.
    cmd += ["--started-ns", str(time.monotonic_ns())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name}: worker did not finish in time")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"{name}: worker exited {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{name}: worker printed no result")
    return json.loads(lines[-1])


def measure(name: str, args) -> dict:
    deadline = time.monotonic() + args.seconds + GRACE_S
    setups = [_spawn(name, args, True, deadline) for _ in range(SETUPS - 1)]
    result = _spawn(name, args, False, deadline)
    setups.append(result)
    for key in ("setup_s", "setup_raw_s"):
        result[f"{key}_samples"] = [s[key] for s in setups]
        result[key] = statistics.median(result[f"{key}_samples"])
    if args.trace:
        metrics = result["per_layer"]
    else:
        metrics = {
            "norm_pairs_per_s": {"value": result["norm_pairs_per_s"], "unit": "pairs/s"},
            "setup_s": {"value": result["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    result["metrics"] = metrics
    return result


def _write_results(name: str, args, result: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    suffix = "_trace" if args.trace else ""
    trace_dump = result.pop("trace", None)
    if trace_dump is not None:
        (RESULTS / f"TRACE_{name}_seed{args.seed}.json").write_text(
            json.dumps(trace_dump, indent=1) + "\n", encoding="utf-8"
        )
    (RESULTS / f"BENCH_{name}_seed{args.seed}{suffix}.json").write_text(
        json.dumps({"workload": name, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, **result}, indent=1) + "\n",
        encoding="utf-8",
    )


def _print_summary(name: str, result: dict) -> None:
    verdict = "checks passed" if result["correct"] and not result["problems"] else "CHECKS FAILED"
    print(
        f"{name}: {result['rounds']} rounds, {result['attempted']} operations attempted, "
        f"{result['failed']} failed, {verdict}"
    )
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    for metric, m in result["metrics"].items():
        print(f"  {metric:<52} {m['value']:>14.6g} {m['unit']}")
    print(
        f"  (not normalized: {result['pairs_per_s']:.6g} pairs/s, "
        f"set-up {result['setup_raw_s']:.4g} s)"
    )


def parent(args) -> int:
    if not (SRC / "qduplex" / "__init__.py").is_file():
        print(f"error: no qduplex sources under {SRC}; run from a qduplex checkout", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args)
            _write_results(name, args, results[name])
            _print_summary(name, results[name])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


# ---------------------------------------------------------------------------
# Worker: set up, warm up, run whole rounds, check


# Host speed on this kind of shared machine drifts between regimes that
# differ by up to 2x for seconds at a time, and it slows the program and
# any other code alike.  So the benchmark times a fixed reference kernel
# (which never calls qduplex) between rounds and scales each round's rate
# to a host on which that kernel takes REF_NOMINAL_S.
REF_ITERATIONS = 1500
REF_NOMINAL_S = 0.02


def reference_kernel() -> float:
    """Host seconds for a fixed mix of small numpy calls, dict inserts and json."""
    import numpy as np

    state = np.array([0.0, 0.5**0.5, -(0.5**0.5), 0.0], dtype=complex)
    flip = np.array([[0, 1], [1, 0]], dtype=complex)
    records = {}
    was_enabled = gc.isenabled()
    gc.disable()  # a collection would time the program's heap, not the host
    try:
        start = time.perf_counter()
        for i in range(REF_ITERATIONS):
            out = (flip @ state.reshape(2, 2)).reshape(4)
            prob = float(np.sum(np.abs(out) ** 2))
            records[i] = json.dumps({"pair": i, "p": round(prob, 6)}, sort_keys=True)
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def _rounds(wl, seconds: float, first_k: int, min_rounds: int) -> list:
    """Whole rounds until `seconds` pass, with the reference kernel timed between rounds."""
    import workloads

    rounds = []
    deadline = time.perf_counter() + seconds
    k = first_k
    ref_before = reference_kernel()
    while len(rounds) < min_rounds or time.perf_counter() < deadline:
        try:
            r = wl.run_round(k)
        except Exception as exc:  # a failing operation is counted, and the run goes on
            traceback.print_exc()
            wl.problems.append(f"round {k}: {type(exc).__name__}: {exc}")
            r = workloads.Round(0, wl.ops_per_round, wl.ops_per_round, 0.0)
        ref_after = reference_kernel()
        r.ref_s = (ref_before + ref_after) / 2
        ref_before = ref_after
        rounds.append(r)
        k += 1
    return rounds


def _rates(rounds: list) -> tuple[float, float]:
    """Raw and host-normalized pairs/s over the rounds that passed their checks.

    The normalized rate divides the pairs by the rounds' time converted to
    the nominal host: each round's seconds times REF_NOMINAL_S over the
    reference kernel's time next to it.
    """
    ok = [r for r in rounds if not r.failed and r.seconds > 0]
    if not ok:
        return 0.0, 0.0
    pairs = sum(r.pairs for r in ok)
    raw = pairs / sum(r.seconds for r in ok)
    norm = pairs / sum(r.seconds * REF_NOMINAL_S / r.ref_s for r in ok)
    return raw, norm


def worker(args) -> int:
    sys.path.insert(0, str(SRC))
    import qduplex

    if not Path(qduplex.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported qduplex from {qduplex.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = workloads.BY_NAME[args.workload](args.seed, workdir)
        wl.warm_up()
        setup_raw_s = (time.monotonic_ns() - args.started_ns) / 1e9
        ref_s = statistics.median(reference_kernel() for _ in range(3))
        result = {"setup_raw_s": setup_raw_s, "setup_s": setup_raw_s * REF_NOMINAL_S / ref_s}
        if args.setup_only:
            print(json.dumps(result))
            return 0
        if args.trace:
            untraced = _rounds(wl, args.seconds / 2, 0, wl.min_rounds)
            tracer = tracing.Tracer()
            with tracer:
                traced = _rounds(wl, args.seconds / 2, len(untraced), 1)
            rounds = untraced + traced
            raw, norm = _rates(untraced)
            reconcile = tracer.reconcile(sum(r.pairs for r in traced))
            values = tracer.metrics(norm, _rates(traced)[1])
            values["host.pairs_per_s"] = raw
            values["host.ref_kernel_ms"] = 1e3 * statistics.median(r.ref_s for r in rounds)
            units = {name: unit for name, unit, _ in tracing.PER_LAYER}
            result["per_layer"] = {k: {"value": values[k], "unit": units[k]} for k in units}
            result["trace"] = tracer.dump()
        else:
            rounds = _rounds(wl, args.seconds, 0, wl.min_rounds)
            raw, norm = _rates(rounds)
            reconcile = []
        pooled = wl.pooled_problems()
        attempted = sum(r.ops for r in rounds)
        failed = sum(r.failed for r in rounds)
        result.update(
            correct=not pooled and not reconcile and failed < attempted,
            attempted=attempted,
            failed=failed,
            rounds=len(rounds),
            norm_pairs_per_s=norm,
            pairs_per_s=raw,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            problems=(wl.problems + pooled + reconcile)[:20],
            round_pairs_per_s=[r.pairs / r.seconds if r.seconds else 0.0 for r in rounds],
            round_ref_ms=[1e3 * r.ref_s for r in rounds],
        )
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    return worker(args) if args.worker else parent(args)


if __name__ == "__main__":
    sys.exit(main())
