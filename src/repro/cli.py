"""Command-line interface: regenerate the paper's tables and figures.

Usage::

    repro list                 # enumerate available experiments
    repro run table_5_4        # regenerate one artifact
    repro run all              # regenerate every artifact
    repro attributes           # print the platform sheet (Table 2.1)
    repro trace ebnn_pim       # run traced, write a Chrome trace JSON
    repro metrics ebnn_pim     # run, then dump the metrics registry
"""

from __future__ import annotations

import argparse
import sys

from repro import experiments
from repro.dpu.attributes import UPMEM_ATTRIBUTES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Implementation and Evaluation of Deep Neural "
            "Networks in Commercially Available Processing in Memory "
            "Hardware' (Das, 2022)"
        ),
    )
    parser.add_argument(
        "--fault-rate", type=float, default=None, metavar="P",
        help="per-DPU probability of an injected execution fault "
        "(deterministic per seed; see repro.faults)",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=None, metavar="SEED",
        help="seed for the fault-injection plan; the same seed "
        "reproduces the same fault sites (default: 0)",
    )
    parser.add_argument(
        "--fault-policy", choices=["raise", "isolate", "retry"],
        default=None,
        help="what a set-wide launch does with a faulted DPU "
        "(default: retry; healthy DPUs always complete)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run_parser = sub.add_parser("run", help="run one experiment (or 'all')")
    run_parser.add_argument(
        "experiment",
        help="experiment id (see 'repro list'), or 'all'",
    )

    sub.add_parser("attributes", help="print the UPMEM platform attributes")

    plan_parser = sub.add_parser(
        "plan", help="auto-map a network onto the PIM system"
    )
    plan_parser.add_argument("network", choices=["ebnn", "yolov3"])
    plan_parser.add_argument(
        "--input-size", type=int, default=416,
        help="YOLOv3 input resolution (multiple of 32)",
    )
    plan_parser.add_argument(
        "--width-scale", type=float, default=1.0,
        help="YOLOv3 channel width multiplier",
    )

    report_parser = sub.add_parser(
        "report", help="run every experiment and write a markdown report"
    )
    report_parser.add_argument(
        "path", nargs="?", default="REPRODUCTION_REPORT.md",
        help="output file (default: REPRODUCTION_REPORT.md)",
    )

    trace_parser = sub.add_parser(
        "trace",
        help="run one experiment under the tracer and export a Chrome trace",
    )
    trace_parser.add_argument(
        "experiment", help="experiment id (see 'repro list')"
    )
    trace_parser.add_argument(
        "--out", default="trace.json",
        help="Chrome trace-event JSON output path (default: trace.json); "
        "open it in chrome://tracing or ui.perfetto.dev",
    )
    trace_parser.add_argument(
        "--tree", action="store_true",
        help="also print the span tree to stdout",
    )

    metrics_parser = sub.add_parser(
        "metrics",
        help="run an experiment (optional), then dump the metrics registry",
    )
    metrics_parser.add_argument(
        "experiment", nargs="?",
        help="experiment id to run before dumping (omit to dump as-is)",
    )
    metrics_parser.add_argument(
        "--json", dest="json_path", metavar="PATH",
        help="also write the registry as JSON to PATH",
    )

    serve_parser = sub.add_parser(
        "serve",
        help="serve a seeded online workload through the DPU pool",
    )
    _add_load_arguments(serve_parser)
    serve_parser.add_argument(
        "--max-batch", type=int, default=None, metavar="N",
        help="batcher flush size (default: REPRO_SERVE_MAX_BATCH or 16)",
    )
    serve_parser.add_argument(
        "--max-delay-ms", type=float, default=None, metavar="MS",
        help="batcher flush delay (default: REPRO_SERVE_MAX_DELAY_MS or 2)",
    )
    serve_parser.add_argument(
        "--queue-cap", type=int, default=None, metavar="N",
        help="per-model queue bound (default: REPRO_SERVE_QUEUE_CAP or 64)",
    )
    serve_parser.add_argument(
        "--system-dpus", type=int, default=16, metavar="N",
        help="DPUs in the simulated system (default: 16)",
    )
    serve_parser.add_argument(
        "--dpus-per-model", type=int, default=4, metavar="N",
        help="warm DPUs each model class gets in the pool (default: 4)",
    )
    serve_parser.add_argument(
        "--no-heal", action="store_true",
        help="do not allocate replacement DPUs after fault isolation",
    )

    loadgen_parser = sub.add_parser(
        "loadgen",
        help="generate a seeded workload and print its shape (dry run)",
    )
    _add_load_arguments(loadgen_parser)
    loadgen_parser.add_argument(
        "--show", type=int, default=5, metavar="N",
        help="print the first N requests (default: 5)",
    )
    return parser


def _add_load_arguments(parser) -> None:
    """Workload flags shared by ``repro serve`` and ``repro loadgen``."""
    parser.add_argument(
        "--rps", type=float, default=2000.0, metavar="R",
        help="offered load in requests per simulated second (default: 2000)",
    )
    parser.add_argument(
        "--duration-s", type=float, default=0.01, metavar="S",
        help="workload length in simulated seconds (default: 0.01)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="workload seed; same seed, same workload (default: 0)",
    )
    parser.add_argument(
        "--mix", default="ebnn=3,yolo=1", metavar="M=W,...",
        help="model mix as model=weight pairs (default: ebnn=3,yolo=1)",
    )
    parser.add_argument(
        "--arrival-process", choices=["poisson", "uniform"],
        default="poisson",
        help="arrival process (default: poisson)",
    )
    parser.add_argument(
        "--deadline-ms", type=float, default=None, metavar="MS",
        help="per-request deadline relative to arrival (default: none)",
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if (
        args.fault_rate is not None
        or args.fault_seed is not None
        or args.fault_policy is not None
    ):
        from repro import faults

        faults.install_plan(faults.FaultPlan(
            seed=args.fault_seed or 0,
            fault_rate=args.fault_rate or 0.0,
            default_policy=args.fault_policy or "retry",
        ))
    if args.command == "list":
        for experiment_id in experiments.available():
            print(experiment_id)
        return 0
    if args.command == "attributes":
        for name, value in UPMEM_ATTRIBUTES.as_table():
            print(f"{name}: {value}")
        return 0
    if args.command == "run":
        ids = (
            experiments.available()
            if args.experiment == "all"
            else [args.experiment]
        )
        for experiment_id in ids:
            print(experiments.run(experiment_id).render())
            print()
        return 0
    if args.command == "plan":
        return _plan(args)
    if args.command == "trace":
        return _trace(args)
    if args.command == "metrics":
        return _metrics(args)
    if args.command == "report":
        from repro.experiments.report import write_report

        count = write_report(args.path)
        print(f"wrote {count} experiments to {args.path}")
        return 0
    if args.command == "serve":
        return _serve(args)
    if args.command == "loadgen":
        return _loadgen(args)
    return 1  # pragma: no cover - argparse enforces the command set


def _trace(args) -> int:
    """Run one experiment with tracing enabled; export the Chrome trace."""
    from repro import telemetry

    with telemetry.tracing() as tracer:
        print(experiments.run(args.experiment).render())
    n_events = telemetry.write_chrome_trace(tracer, args.out)
    print(f"\nwrote {n_events} trace events ({len(tracer)} spans) to "
          f"{args.out} — open in chrome://tracing or ui.perfetto.dev")
    if args.tree:
        print()
        print(telemetry.render_tree(tracer))
    return 0


def _metrics(args) -> int:
    """Dump the global metrics registry, optionally after a run."""
    from repro import telemetry

    if args.experiment:
        print(experiments.run(args.experiment).render())
        print()
    text = telemetry.GLOBAL_METRICS.render_text()
    print(text if text else "(no metrics recorded)")
    if args.json_path:
        telemetry.GLOBAL_METRICS.dump_json(args.json_path)
        print(f"\nwrote metrics JSON to {args.json_path}")
    return 0


def _load_spec(args):
    """Build a LoadSpec + payloads from the shared workload flags."""
    from repro.errors import ServeError
    from repro.serve import LoadSpec, default_payloads

    mix = []
    for part in args.mix.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ServeError(
                f"--mix entries must be model=weight, got {part!r}"
            )
        model, _, weight = part.partition("=")
        mix.append((model.strip(), float(weight)))
    spec = LoadSpec(
        rps=args.rps,
        duration_s=args.duration_s,
        seed=args.seed,
        mix=tuple(mix),
        arrival_process=args.arrival_process,
        deadline_s=(
            args.deadline_ms / 1e3 if args.deadline_ms is not None else None
        ),
    )
    return spec, default_payloads()


def _serve(args) -> int:
    """Serve a seeded workload and print the result summary."""
    from repro.dpu.attributes import UPMEM_ATTRIBUTES
    from repro.host.runtime import DpuSystem
    from repro.serve import (
        BatchPolicy,
        DpuPool,
        EbnnBackend,
        InferenceServer,
        YoloBackend,
        generate_load,
    )

    spec, payloads = _load_spec(args)
    requests = generate_load(spec, payloads)
    policy = BatchPolicy.from_env(
        max_batch=args.max_batch,
        max_delay_s=(
            args.max_delay_ms / 1e3 if args.max_delay_ms is not None else None
        ),
        queue_cap=args.queue_cap,
    )
    backends = {"ebnn": EbnnBackend(), "yolo": YoloBackend()}
    models = [model for model, _ in spec.mix]
    system = DpuSystem(UPMEM_ATTRIBUTES.scaled(args.system_dpus))
    pool = DpuPool(
        system,
        {model: backends[model] for model in models},
        dpus_per_model=args.dpus_per_model,
        heal=not args.no_heal,
    )
    server = InferenceServer(pool, policy=policy, fault_policy=args.fault_policy)
    result = server.run(requests)
    print(
        f"policy: max_batch={policy.max_batch} "
        f"max_delay={policy.max_delay_s * 1e3:g} ms "
        f"queue_cap={policy.queue_cap}"
    )
    print(result.summary())
    for model in models:
        print(f"  pool[{model}]: {pool.active_dpus(model)} healthy DPUs")
    pool.shutdown()
    return 0


def _loadgen(args) -> int:
    """Materialize a workload without serving it; print its shape."""
    from repro.serve import generate_load

    spec, payloads = _load_spec(args)
    requests = generate_load(spec, payloads)
    per_model: dict[str, int] = {}
    for request in requests:
        per_model[request.model] = per_model.get(request.model, 0) + 1
    print(
        f"{len(requests)} requests over {spec.duration_s:g} simulated s "
        f"at {spec.rps:g} req/s ({spec.arrival_process}, seed {spec.seed})"
    )
    for model in sorted(per_model):
        print(f"  {model}: {per_model[model]}")
    for request in requests[: args.show]:
        deadline = (
            f"  deadline {request.deadline_s * 1e3:.3f} ms"
            if request.deadline_s is not None else ""
        )
        print(
            f"  #{request.request_id} {request.model} "
            f"arrival {request.arrival_s * 1e3:.3f} ms{deadline}"
        )
    return 0


def _plan(args) -> int:
    """Run the mapping planner and print its decisions."""
    from repro.core.planner import MappingPlanner
    from repro.nn.models.darknet import Yolov3Model
    from repro.nn.models.ebnn import EbnnConfig

    planner = MappingPlanner()
    if args.network == "ebnn":
        plan = planner.plan_auto(EbnnConfig())
    else:
        plan = planner.plan_auto(
            Yolov3Model(args.input_size, width_scale=args.width_scale)
        )
    print(f"plan for {args.network}: {len(plan.decisions)} mapped stages, "
          f"peak {plan.peak_dpus} DPUs, "
          f"estimated latency {plan.total_seconds:.4g} s")
    for decision in plan.decisions[:10]:
        print(f"  {decision.layer_name:12s} {decision.scheme.value:22s} "
              f"{decision.n_dpus:5d} DPUs  {decision.n_tasklets:2d} tasklets")
        print(f"    {decision.rationale}")
    if len(plan.decisions) > 10:
        print(f"  ... {len(plan.decisions) - 10} more stages")
    return 0


if __name__ == "__main__":
    sys.exit(main())
