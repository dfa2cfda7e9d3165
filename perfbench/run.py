"""Benchmark runner for trofey: run one workload for a fixed time, check every
output, and print the metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a trofey checkout (it needs ``src/trofey``).  A run
is a sequence of rounds; each round runs the workload's queries (see
``workloads.py``), each in a fresh interpreter so that trofey's caches are
cold, as they are for every command-line user.  Round ``r`` draws its inputs
from ``Random(f"{seed}/{r}")``.  Rounds start until ``--seconds`` have passed.

--trace 0 reports the end-to-end metrics, with tracing off:
  wall_s       sum over the queries of the median wall time of a query
  cpu_s        the same for user+sys CPU time of the query process
  setup_s      median over all query processes of interpreter start plus
               ``import trofey.cli``
  peak_rss_mb  largest peak RSS among the query processes
--trace 1 runs each round twice, untraced and traced, and reports the
per-layer metrics of ``spans.PER_LAYER``: medians over rounds of the traced
round's sums, and trace.overhead_ratio, traced wall_s / untraced wall_s.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import marshal
import math
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spans import PER_LAYER, analyse, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Query, stdout_path  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(HERE, "_work")
RUN_LIMIT_S = 150.0  # a run must end within 180 s, span analysis included
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SELF_SUM_TOLERANCE_S = 1e-6


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env(src: str) -> dict[str, str]:
    """A controlled environment: no TROFEY_THREADS (it overrides --threads)
    and no other inherited Python or trofey settings."""
    return {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "PYTHONPATH": src, "LC_ALL": "C.UTF-8"}


@dataclass
class Sample:
    query: str
    wall: float
    cpu: float
    setup: float
    rss_kb: int
    ok: bool
    layers: tuple[Counter, float] | None  # analyse() of the query's spans, when traced


def run_query(query: Query, workdir: str, trace: bool, env: dict, deadline: float) -> Sample:
    out = stdout_path(workdir, query.name)
    meta = os.path.join(workdir, f"{query.name}.meta")
    argv = [sys.executable, CHILD, meta, "1" if trace else "0", query.kind, *query.args]
    create = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, out, create, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, os.path.join(workdir, f"{query.name}.err"), create, 0o644),
    ]
    start = monotonic()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        finished, _, _ = select.select([pidfd], [], [], max(0.0, deadline - start))
        if not finished:
            os.kill(pid, signal.SIGKILL)  # not reaped yet, so the pid is still ours
    finally:
        os.close(pidfd)
    _, status, usage = os.wait4(pid, 0)
    wall = monotonic() - start
    with open(out, "rb") as handle:
        ok = os.waitstatus_to_exitcode(status) == 0 and query.output_ok(handle.read())
    info = {"imported": start + wall, "trace": None}  # for a process killed early
    if os.path.exists(meta):
        with open(meta, "rb") as handle:
            info = marshal.load(handle)
    return Sample(
        query.name, wall, usage.ru_utime + usage.ru_stime, info["imported"] - start,
        usage.ru_maxrss, ok, analyse(info["trace"]) if info["trace"] else None,
    )


def run_round(workload: str, seed: int, r: int, traced: tuple[bool, ...], env: dict,
              deadline: float) -> dict[bool, list[Sample]]:
    """One round: the same generated inputs, once per tracing setting."""
    workdir = os.path.join(WORK, f"round{r}")
    os.makedirs(workdir)
    queries = WORKLOADS[workload](random.Random(f"{seed}/{r}"), workdir)
    return {t: [run_query(q, workdir, t, env, deadline) for q in queries] for t in traced}


def summed_median(samples: list[Sample], field: str) -> float:
    by_query: dict[str, list[float]] = defaultdict(list)
    for s in samples:
        by_query[s.query].append(getattr(s, field))
    return sum(statistics.median(v) for v in by_query.values())


def describe(values: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    text = f"median {statistics.median(xs):.4f}"
    if n > 10:
        text += f", p{math.floor(100 * (n - 10) / n)} {xs[n - 11]:.4f}"
    return f"{text} (n={n})"


def report(samples: list[Sample]) -> None:
    for name in dict.fromkeys(s.query for s in samples):
        mine = [s for s in samples if s.query == name]
        print(f"  {name}: wall {describe([s.wall for s in mine])} s;"
              f" cpu {describe([s.cpu for s in mine])} s")
    print(f"  setup: {describe([s.setup for s in samples])} s")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = monotonic()
    deadline = started + RUN_LIMIT_S
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "trofey", "cli.py")):
        print("error: run from the root of a trofey checkout (no src/trofey)", file=sys.stderr)
        return 2
    env = child_env(src)
    # Untimed warm-up: byte-compile trofey once, as an installed package would be.
    warm = subprocess.run([sys.executable, "-c", "import trofey.cli"], env=env,
                          stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=60)
    if warm.returncode != 0:
        print(f"error: cannot import trofey.cli:\n{warm.stderr}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)

    traced = (False, True) if args.trace else (False,)
    rounds: list[dict[bool, list[Sample]]] = []
    last_round_s = 0.0
    try:
        while not rounds or (monotonic() - started < args.seconds
                             and monotonic() + last_round_s < deadline):
            begun = monotonic()
            rounds.append(run_round(args.workload, args.seed, len(rounds), traced, env, deadline))
            last_round_s = monotonic() - begun
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    plain = [s for r in rounds for s in r[False]]
    every = [s for r in rounds for t in traced for s in r[t]]
    failed = sum(not s.ok for s in every)
    correct = failed == 0
    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds,"
          f" fail_ratio {failed}/{len(every)} = {failed / len(every):.4f} ratio")
    report(plain)

    if not args.trace:
        values = {
            "wall_s": summed_median(plain, "wall"),
            "cpu_s": summed_median(plain, "cpu"),
            "setup_s": statistics.median(s.setup for s in plain),
            "peak_rss_mb": max(s.rss_kb for s in plain) / 1024,
        }
        units = END_TO_END
    else:
        per_round = []
        worst_self_sum = 0.0
        for r in rounds:
            raw: Counter = Counter()
            for s in r[True]:
                if s.layers is None:
                    continue
                query_raw, self_sum_error = s.layers
                raw.update(query_raw)
                worst_self_sum = max(worst_self_sum, abs(self_sum_error))
            per_round.append(layer_metrics(raw))
        values = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
        tracedw = summed_median([s for r in rounds for s in r[True]], "wall")
        values["trace.overhead_ratio"] = tracedw / summed_median(plain, "wall")
        units = {name: unit for name, unit, _ in PER_LAYER}
        print(f"  traced wall_s {tracedw:.4f} s; root span minus summed self times:"
              f" at most {worst_self_sum:.2e} s")
        if worst_self_sum > SELF_SUM_TOLERANCE_S:
            correct = False
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": len(every), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
