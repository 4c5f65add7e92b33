"""Per-repetition wall and process CPU time of one perfbench workload.

Serves the workload of ``perfbench/workloads.py`` from the checkout at
``--root`` (its ``src`` and its ``perfbench``), one repetition after
another, and prints one JSON object: each timed repetition's wall
seconds (around the whole repetition, output checks included) and
process CPU seconds, with their minimum and median, and the process's
peak resident memory.  The first repetition is a warm-up and is not
timed; no repetition's results are kept past its checks.

With ``--against OTHER`` both checkouts run, each in a process of its
own, and take turns repetition by repetition (which one goes first
alternates), so that each pair of repetitions sees the same machine.
The output then holds both summaries, the number of pairs in which
``--root`` was faster and, for wall and CPU time, the gap between the
medians (positive when ``--root`` is faster) and whether it exceeds the
``--against`` side's interquartile range: a gain is claimed only when
``--root`` wins at least nine pairs in ten and the gap exceeds that
spread.  Pin it to one CPU to compare two commits::

    taskset -c 0 python3 benchmarks/rep_times.py --root . \\
        --against ../parent --workload yolo-serve --seed 1 --reps 10
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path


def _worker(root: Path, workload: str, seed: int) -> None:
    """Serve one repetition per line on stdin; print its times."""
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench import workloads

    bench = workloads.Bench(workloads.WORKLOADS[workload], seed)
    references = bench.references()
    print("ready", flush=True)
    for _ in sys.stdin:
        if bench._prepared is None:
            bench._prepared = bench._prepare()  # fresh pools, untimed
        start_wall, start_cpu = time.perf_counter(), time.process_time()
        rep = bench.repetition(references)
        wall = time.perf_counter() - start_wall
        cpu = time.process_time() - start_cpu
        if rep.problems or rep.bad_outputs:
            raise SystemExit(f"a repetition failed its checks: {rep.problems}")
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps([wall, cpu, rss]), flush=True)


def _quartiles(values: list) -> list:
    """The first and third quartiles (both the value, for one run)."""
    if len(values) < 2:
        return [values[0]] * 2
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def _summary(root: Path, runs: list) -> dict:
    out = {"root": str(root)}
    for k, key in enumerate(("wall", "cpu")):
        values = [r[k] for r in runs]
        out[f"{key}_s"] = values
        out[f"{key}_min"] = min(values)
        out[f"{key}_median"] = statistics.median(values)
        out[f"{key}_quartiles"] = _quartiles(values)
    out["peak_rss_mb"] = runs[-1][2]
    return out


def _gaps(root: dict, against: dict) -> dict:
    """Per clock: the median gap (``against`` minus ``root``), the
    ``against`` side's interquartile range, and whether the gap is the
    wider of the two."""
    out = {}
    for key in ("wall", "cpu"):
        q1, q3 = against[f"{key}_quartiles"]
        gap = against[f"{key}_median"] - root[f"{key}_median"]
        out[key] = {
            "median_gap": gap, "against_iqr": q3 - q1,
            "gap_exceeds_iqr": abs(gap) > q3 - q1,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).parents[1])
    parser.add_argument("--against", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, default=8)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        _worker(args.root.resolve(), args.workload, args.seed)
        return 0
    roots = [args.root.resolve()]
    if args.against:
        roots.append(args.against.resolve())
    workers = [
        subprocess.Popen(
            [sys.executable, __file__, "--worker", "--root", str(root),
             "--workload", args.workload, "--seed", str(args.seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        for root in roots
    ]
    for worker in workers:
        if worker.stdout.readline().strip() != "ready":
            raise SystemExit("a worker failed to set up")
    runs = [[] for _ in roots]
    for index in range(args.reps + 1):
        order = list(range(len(roots)))
        for i in order[::-1] if index % 2 else order:
            workers[i].stdin.write("rep\n")
            workers[i].stdin.flush()
            line = workers[i].stdout.readline()
            if not line:
                raise SystemExit(f"the worker for {roots[i]} stopped")
            if index:  # the first repetition warms up
                runs[i].append(json.loads(line))
    for worker in workers:
        worker.stdin.close()
        worker.wait()
    out = {"workload": args.workload, "seed": args.seed}
    out["root"] = _summary(roots[0], runs[0])
    if args.against:
        out["against"] = _summary(roots[1], runs[1])
        out["root_faster"] = {
            key: sum(a[k] < b[k] for a, b in zip(*runs))
            for k, key in enumerate(("wall", "cpu"))
        }
        out["gaps"] = _gaps(out["root"], out["against"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
