"""Benchmark entry point; run from the repository root.

    python3 perfbench/run.py --workload retrieve --seed 1 --seconds 30 --trace 0

Prints, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (every end-to-end metric with ``--trace 0``,
every per-layer metric with ``--trace 1``). See perfbench/README.md.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here, the process's start

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("retrieve", "validate", "suite")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "omprag" / "__init__.py").is_file():
        print(f"perfbench: no omprag sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    work = ROOT / ".perfbench" / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args: argparse.Namespace, work: Path) -> int:
    nproc = len(os.sched_getaffinity(0))
    from perfbench import workloads  # imports omprag and NumPy: part of set-up
    from perfbench.tracing import Tracer, layer_metrics

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](ROOT, work, args.seed, nproc, tracer)
    prep0 = time.perf_counter()
    workload.prepare()
    prepare_s = time.perf_counter() - prep0

    if tracer is not None:
        tracer.active = True
    workload.setup()
    setup_s = time.perf_counter() - T0 - prepare_s
    if tracer is not None:
        tracer.active = False

    workload.after_setup()
    workload.warmup()
    meter = workloads.Meter(tracer=tracer)
    rounds = 0
    # The deadline only stops a run whose rounds keep failing before they
    # reach their timed part; a working run ends on the timed seconds.
    deadline = time.perf_counter() + 3 * args.seconds + 30
    per_round = []  # (operations, timed wall, CPU) of each round
    while meter.wall < args.seconds and time.perf_counter() < deadline:
        before = (workload.tally.attempted, meter.wall, meter.cpu_self + meter.cpu_children)
        workload.guarded_round(rounds, meter)
        rounds += 1
        after = (workload.tally.attempted, meter.wall, meter.cpu_self + meter.cpu_children)
        per_round.append(tuple(b - a for a, b in zip(before, after)))
    tally = workload.tally
    # Rounds have the same make-up, so the median over rounds discards a
    # round that a burst of load from outside slowed down.
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "cases_per_s": (statistics.median(
            [n / wall for n, wall, _ in per_round if wall > 0] or [0.0]), "cases/s"),
        "cpu_s_per_case": (statistics.median(
            [cpu / n for n, wall, cpu in per_round if wall > 0] or [0.0]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "prompt_tokens_per_case": (statistics.fmean(tally.prompt_tokens or [0]), "tokens"),
    }
    print(f"perfbench: {args.workload} seed={args.seed} trace={args.trace} rounds={rounds} "
          f"ops={tally.attempted} failed={tally.failed} timed_wall_s={meter.wall:.3f} "
          f"cpu_self_s={meter.cpu_self:.3f} cpu_children_s={meter.cpu_children:.3f} "
          + " ".join(f"{k}={v:.6g}" for k, (v, _) in end_to_end.items()), file=sys.stderr)
    print("perfbench: rounds (ops, wall_s, cpu_s): "
          + " ".join(f"({n},{w:.2f},{c:.2f})" for n, w, c in per_round), file=sys.stderr)
    for problem in tally.problems[:20]:
        print(f"perfbench: problem: {problem}", file=sys.stderr)

    metrics = end_to_end
    if tracer is not None:
        tracer.uninstall()
        metrics = layer_metrics(tracer, workers=nproc, child_cpu_s=meter.cpu_children)
        trace_path = ROOT / ".perfbench" / "trace" / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path, T0)
        print(f"perfbench: {len(tracer.spans)} spans -> {trace_path}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
