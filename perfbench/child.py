"""The measuring process of one benchmark run; ``run.py`` starts it.

    python3 perfbench/child.py --workload appro-600 --seed 1 --ops 24 --rounds 8 --mode run

It moves to the faster CPU, imports the program, sets the workload up,
runs its untimed warm-up and prints ``READY`` as soon as the first timed
op is ready; the launcher times set-up from its own start of this
process to that line.  ``--mode setup`` stops there.  ``--mode run``
then runs the N timed ops ``--rounds`` times, each round on fresh
state; after two rounds it starts no further round once the rounds have
taken ``--deadline`` seconds (0: no deadline).  ``--mode trace`` runs
them once untraced, once traced, then op 0 once more, and prints the
spans.  The last line is one JSON document of raw per-op records;
``run.py`` does the arithmetic.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


class Placement:
    """Moves this process, and the worker processes it started, to the CPU
    where a short reference kernel runs fastest right now.

    The host slows each vCPU in phases of its own, lasting seconds;
    running each op on the currently faster one keeps most of those
    phases out of the measurement.  Probing takes about 2 ms per CPU and
    is never inside a timed op.
    """

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))

    @staticmethod
    def _kernel_s() -> float:
        best = float("inf")
        for _ in range(2):
            started = time.perf_counter()
            acc = 0
            for i in range(10_000):
                acc = (acc * 31 + i) % 1_000_003
            best = min(best, time.perf_counter() - started)
        return best

    def _probe(self, cpu: int) -> float:
        os.sched_setaffinity(0, {cpu})
        return self._kernel_s()

    def place(self) -> int:
        cpu = min(self.cpus, key=self._probe)
        os.sched_setaffinity(0, {cpu})
        for child in multiprocessing.active_children():
            os.sched_setaffinity(child.pid, {cpu})
        return cpu


def run_round(workload, ops: int, placement: Placement, spans=None) -> dict:
    gc.collect()
    records = []
    for index in range(ops):
        cpu = placement.place()
        records.append({**workload.run(index, spans).as_dict(), "cpu": cpu})
    return {"ops": records}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    parser.add_argument("--deadline", type=float, default=0.0)
    args = parser.parse_args()

    placement = Placement()
    placement.place()
    # Imported only now, so that set-up runs on the faster CPU too.
    from metrics import Spans
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    out: dict = {}
    try:
        workload.start()
        workload.warmup()
        print("READY", flush=True)
        if args.mode == "setup":
            return 0
        rounds = []
        started = time.perf_counter()
        for _ in range(args.rounds if args.mode == "run" else 1):
            late = args.deadline and time.perf_counter() - started > args.deadline
            if len(rounds) >= 2 and late:
                break
            workload.restart()
            rounds.append(run_round(workload, args.ops, placement))
        out["rounds"] = rounds
        if args.mode == "trace":
            workload.restart()
            spans = Spans()
            out["traced"] = run_round(workload, args.ops, placement, spans)
            out["spans"] = spans.records
            workload.restart()
            out["repeat"] = workload.run(0, Spans()).as_dict()
    finally:
        workload.close()
    out["rss_kb"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
