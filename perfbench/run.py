"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload appro-600 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout of the repository (the program is
imported from ``src/``).  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 0 only when every output check passed.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import (  # noqa: E402
    best_of_rounds,
    latency_summary,
    load_layers,
    median_or_zero,
    op_layers,
)

#: Ops per run.  The tail percentile 100 * (1 - 10 / N) is p58.3.
OPS = 24
#: Nominal op executions per ``--seconds`` second.  A run executes the
#: same N ops in R = seconds * rate / N rounds, fixed before the run
#: starts, so both sides of a comparison do identical work.  At
#: ``--seconds 35`` R is 8, 4 and 4.
EXECUTIONS_PER_SECOND = {"appro-600": 5.5, "fig3-100": 2.75, "serve-600": 2.75}
MIN_ROUNDS = 2

#: Fresh processes whose set-up time is measured; setup_s is the median.
#: One set-up-only process runs before the measuring process and one
#: after it, so the samples span the whole run.
SETUP_REPEATS = 3

#: A child is stopped after this long (the run's own limit is 180 s).
CHILD_TIMEOUT_S = 160.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "tours_per_s": "tours/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "collected_mb_per_tour": "Mb",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
}

#: What the host would otherwise vary between runs: thread pools of the
#: linked BLAS/OpenMP (numpy's OpenBLAS is threaded), hash seed, bytecode.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
    "PYTHONUNBUFFERED": "1",
}


class BenchError(RuntimeError):
    """The run could not produce metrics (no result line is printed)."""


def round_count(workload: str, seconds: int) -> int:
    """The fixed number of rounds R of a run of ``seconds`` seconds."""
    return max(MIN_ROUNDS, round(seconds * EXECUTIONS_PER_SECOND[workload] / OPS))


def host_probe_ms(repeats: int = 3) -> float:
    """Fastest of ``repeats`` timings of a fixed pure-Python kernel: a
    diagnostic of host speed, reported but never gated."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc * 31 + i) % 1_000_003
        best = min(best, time.perf_counter() - started)
    return best * 1e3


def spawn(
    workload: str, seed: int, rounds: int, mode: str, deadline: int = 0
) -> Tuple[float, Optional[dict]]:
    """Run the measuring process once; returns (set-up seconds, result).

    Set-up runs from just before the process starts until it prints
    ``READY``.  The process is always waited for before returning.
    """
    env = {**os.environ, **PINNED_ENV}
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--ops", str(OPS), "--rounds", str(rounds), "--mode", mode,
           "--deadline", str(deadline)]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - started
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{mode} process exceeded {CHILD_TIMEOUT_S:.0f} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"{mode} process failed (exit {proc.returncode})")
    if mode == "setup":
        return setup, None
    lines = rest.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} process printed no result")
    return setup, json.loads(lines[-1])


# ----------------------------------------------------------------------
# Metrics from raw per-op records
# ----------------------------------------------------------------------
def end_to_end(result: dict, setups: List[float]) -> Tuple[Dict[str, float], dict]:
    """The end-to-end metrics of the untraced rounds."""
    rounds = result["rounds"]
    ops = best_of_rounds([r["ops"] for r in rounds])
    ok = [op["ok"] for op in ops]
    summary = latency_summary([op["latency"] for op in ops], ok)
    tours = [mb for op in ops if op["ok"] for mb in op["megabits"]]
    executions = [op for r in rounds for op in r["ops"]]
    values = {
        "setup_s": statistics.median(setups),
        # One closed-loop client running every op at its best-of-R latency.
        "tours_per_s": len(tours) / sum(op["latency"] for op in ops),
        "latency_p50_ms": summary["p50"] * 1e3,
        "latency_tail_ms": summary["tail"] * 1e3,
        "collected_mb_per_tour": statistics.fmean(tours) if tours else 0.0,
        "ok_share": sum(ok) / len(ops),
        "peak_rss_mb": result["rss_kb"] / 1024,
    }
    errors = [f"op {i}: {op['error']}" for i, op in enumerate(ops) if not op["ok"]]
    return values, {**summary, "errors": errors, "attempted": len(executions)}


def trace_failures(result: dict) -> List[str]:
    """Traced and untraced passes must agree exactly on every op's
    collected megabits, and a repeat of op 0 on its work counts."""
    untraced = result["rounds"][0]["ops"]
    traced = result["traced"]["ops"]
    problems = [
        f"op {i}: traced megabits {b['megabits']} != untraced {a['megabits']}"
        for i, (a, b) in enumerate(zip(untraced, traced))
        if a["ok"] and b["ok"] and a["megabits"] != b["megabits"]
    ]
    repeat = result["repeat"]
    if repeat["ok"] and traced[0]["ok"] and (
        repeat["counts"] != traced[0]["counts"] or repeat["megabits"] != traced[0]["megabits"]
    ):
        problems.append(f"op 0 repeated: counts {repeat['counts']} != {traced[0]['counts']}")
    return problems


def per_layer(result: dict) -> Dict[str, float]:
    """The per-layer metrics of the traced pass."""
    layers = load_layers()
    ops = result["traced"]["ops"]
    spans = result["spans"]
    metric_of_span = {spec["span"]: name for name, spec in layers.items() if "span" in spec}
    by_op = op_layers(spans, metric_of_span)
    values: Dict[str, float] = {}
    for name, spec in layers.items():
        if "span" in spec:
            samples = [op[name] for op in by_op.values() if name in op]
            values[name] = median_or_zero(samples) * 1e3
        elif "counter" in spec:
            values[name] = statistics.fmean(op["counts"][spec["counter"]] for op in ops)
        elif "total_of" in spec:
            samples = [s["end"] - s["start"] for s in spans if s["name"] == spec["total_of"]]
            values[name] = median_or_zero(samples) * 1e3
        elif "reply" in spec:
            samples = [float(op["extra"][spec["reply"]]) for op in ops
                       if spec["reply"] in op["extra"]]
            values[name] = statistics.fmean(samples) if samples else 0.0
    values["unattributed_ms"] = median_or_zero(
        [op["unattributed"] for op in by_op.values()]
    ) * 1e3
    untraced = [op["latency"] for op in result["rounds"][0]["ops"]]
    traced = [op["latency"] for op in ops]
    values["trace_overhead_share"] = statistics.median(traced) / statistics.median(untraced) - 1
    return values


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(EXECUTIONS_PER_SECOND))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program source under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    rounds = round_count(args.workload, args.seconds)
    diagnostics = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "ops": OPS,
        "rounds_planned": rounds if not args.trace else 1,
        "nproc": os.cpu_count(), "loadavg_start": os.getloadavg(),
        "host_probe_ms_start": host_probe_ms(),
    }
    try:
        extra = 0 if args.trace else SETUP_REPEATS - 1
        setups = [spawn(args.workload, args.seed, rounds, "setup")[0]
                  for _ in range(extra // 2)]
        # No round starts once the rounds have taken --seconds, so that a
        # slowed host cannot make a run outlast the time it is given.  R is
        # sized so that this does not cut a run on a host as fast as usual.
        setup, result = spawn(args.workload, args.seed, rounds, "trace" if args.trace else "run",
                              deadline=args.seconds)
        setups.append(setup)
        setups += [spawn(args.workload, args.seed, rounds, "setup")[0]
                   for _ in range(extra - extra // 2)]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    diagnostics["host_probe_ms_end"] = host_probe_ms()
    diagnostics["loadavg_end"] = os.getloadavg()

    e2e, summary = end_to_end(result, setups)
    attempted, errors = summary["attempted"], summary["errors"]
    diagnostics.update({
        "rounds": len(result["rounds"]),
        "tail_percentile": summary["tail_percentile"],
        "setup_s_samples": setups,
        "executions_per_cpu": dict(Counter(
            op["cpu"] for r in result["rounds"] for op in r["ops"])),
    })
    if args.trace:
        traced = result["traced"]["ops"] + [result["repeat"]]
        attempted += len(traced)
        errors += [f"traced op {i}: {op['error']}" for i, op in enumerate(traced) if not op["ok"]]
        errors += trace_failures(result)
        values = per_layer(result)
        units = {name: spec["unit"] for name, spec in load_layers().items()}
        diagnostics["collected_mb_per_tour"] = e2e["collected_mb_per_tour"]
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        span_path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-spans.jsonl")
        with open(span_path, "w") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in result["spans"])
        diagnostics["spans"] = os.path.relpath(span_path, ROOT)
    else:
        values, units = e2e, END_TO_END_UNITS
    diagnostics["errors"] = errors[:20]

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"N={OPS} R={diagnostics['rounds']} tail=p{summary['tail_percentile']:.2f}")
    for name, value in values.items():
        print(f"  {name:<28} {value:>14.6g} {units[name]}")
    for line in errors[:20]:
        print(f"  FAILED {line}")
    print(json.dumps({"diagnostics": diagnostics}))
    correct = not errors
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
