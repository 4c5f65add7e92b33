"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload ebnn-serve --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the benchmark repeats the workload, untraced, until
``--seconds`` have passed and prints the end-to-end metrics of
``BENCHMARK.json``.  With ``--trace 1`` it then serves the workload once
more under the program's tracer, with every layer's public functions
timed from outside, prints the per-layer metrics and writes the
per-YOLO-conv-layer rows and the stage breakdown to
``perfbench/out/<workload>-seed<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted``
counts the requests offered to the server; ``failed`` counts requests
whose response is missing or whose output differs from the offline
reference.  A request refused by admission control, shed at its
deadline or given up after DPU faults is a correct answer of the server
and counts against ``fail_ratio`` instead.
"""

import time

# Set-up time runs from before the program is imported.
T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SPEC = ROOT / "BENCHMARK.json"
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

#: Set-ups per ``--trace 0`` run (this process plus fresh processes); the
#: reported ``setup_s`` is their median.
SETUPS = 7


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--tiny", action="store_true",
        help="serve a few requests per rate point (the benchmark's own tests)",
    )
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set up, print {\"setup_s\": ...} and exit",
    )
    return parser.parse_args(argv)


def _import_program():
    """Import the program from this checkout's ``src``, and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no program to benchmark: {SRC / 'repro'} is missing")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"imported repro from {repro.__file__}, not {SRC}")
    from perfbench import workloads

    return workloads


def _setup_probe(args) -> float:
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--trace", "0", "--setup-only",
    ]
    if args.tiny:
        command.append("--tiny")
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=120,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def _resolved_workers() -> int | None:
    try:
        from repro.host.parallel import default_workers
    except ImportError:
        return None
    return default_workers()


def _shutdown_workers() -> None:
    try:
        from repro.host.parallel import shutdown_executors
    except ImportError:
        return
    shutdown_executors()


def main(argv=None) -> int:
    args = _parse(argv)
    # Every workload runs with the program's defaults; the set-up probes
    # inherit this environment.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    spec = json.loads(SPEC.read_text())
    workloads = _import_program()
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        raise SystemExit(
            f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}"
        )
    if args.tiny:
        workload = workload.tiny_variant()
    bench = workloads.Bench(workload, args.seed)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    try:
        return _measure(args, spec, workloads, workload, bench, setup_s)
    finally:
        _shutdown_workers()


def _measure(args, spec, workloads, workload, bench, setup_s) -> int:
    references = bench.references()
    reps = []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < args.seconds:
        reps.append(bench.repetition(references))
    if args.trace:
        reps.append(bench.repetition(references, traced=True))

    problems = [p for rep in reps for p in rep.problems]
    first = reps[0].fingerprint()
    for index, rep in enumerate(reps[1:], start=1):
        if rep.fingerprint() != first:
            kind = "traced run" if rep.traced else f"repetition {index}"
            problems.append(f"simulated results of the {kind} differ from the first")
    attempted = sum(rep.offered for rep in reps)
    failed = sum(rep.bad_outputs for rep in reps)

    sim = workloads.simulated_metrics(workload, reps[0].results)
    untraced = [rep.wall_s for rep in reps if rep.traced is None]
    nproc, workers = os.cpu_count(), _resolved_workers()
    print(f"workload {workload.name}  seed {args.seed}  nproc {nproc}  "
          f"workers {workers}  repetitions {len(untraced)}")
    for point, result in reps[0].results.items():
        print(f"  {point}: {result.summary().splitlines()[0]}")
    print(f"  tail: p{sim['tail_percentile']:.1f} of {sim['tail_samples']} "
          f"nominal latencies; limit {workload.limit_ms} ms")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")

    if args.trace:
        values = _per_layer(args, workload, reps, untraced, nproc, workers)
    else:
        setups = [setup_s] + [_setup_probe(args) for _ in range(SETUPS - 1)]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            **sim,
        }
    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed
    }
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _per_layer(args, workload, reps, untraced, nproc, workers) -> dict:
    traced = reps[-1]
    probe = traced.traced["probe"]
    rejects: dict[str, int] = {}
    for result in traced.results.values():
        for reason, count in result.rejects_by_reason().items():
            rejects[reason] = rejects.get(reason, 0) + count
    values = probe.metrics(
        traced_wall_s=traced.wall_s,
        untraced_wall_s=statistics.median(untraced),
        tracer=traced.traced["tracer"],
        traced_sim_s=traced.traced["traced_sim_s"],
        counter_deltas={
            key: sum(point[key] for point in traced.counters.values())
            for key in traced.counters["nominal"]
        },
        rejects=rejects,
    )
    print(f"  stage coverage {values['stage.coverage']:.3f} of traced wall "
          f"{traced.wall_s:.3f} s; the rest is the server loop")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{workload.name}-seed{args.seed}.json", "w") as fh:
        json.dump({
            "workload": workload.name, "seed": args.seed, "nproc": nproc,
            "workers": workers, "metrics": values, "layers": probe.layer_rows(),
        }, fh, indent=2)
        fh.write("\n")
    return values


if __name__ == "__main__":
    raise SystemExit(main())
