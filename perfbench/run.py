"""Benchmark launcher for catalyq.

    python3 perfbench/run.py --workload synth_haar --seed 1 --seconds 10 --trace 0

Run from the repository root. Prints a report, then as its last line one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``. See README.md in this directory.
"""

import os

# Pin BLAS to one thread before numpy loads, so the figures measure the
# program rather than the scheduler of a small shared machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _print_metrics(title: str, metrics: dict) -> None:
    print(f"# {title}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>16.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "catalyq" / "__init__.py").is_file():
        print(f"error: no catalyq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import envnote
    import harness
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    env = envnote.collect()
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("# env " + json.dumps(env))

    setup_s, setup_raw_s, inputs = harness.measure_setup(workload, args.seed, SRC)
    if args.trace == 0:
        samples = harness.run_phase(workload, inputs, args.seconds)
        metrics, extra = harness.end_to_end(samples, setup_s, setup_raw_s)
        _print_metrics("end-to-end", metrics)
        _print_metrics("report only", extra)
    else:
        with Tracer(harness.TARGETS) as tracer:
            samples = harness.run_phase(workload, inputs, args.seconds, tracer)
        metrics, extra = harness.per_layer(tracer.spans, samples, workloads.rule_table())
        _print_metrics("per-layer", metrics)
        _print_metrics("report only", extra)
        if tracer.missing:
            print("# not defined by the program, so not traced: " + " ".join(tracer.missing))
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        dump = {
            "workload": args.workload,
            "seed": args.seed,
            "env": env,
            "fields": ["name", "start", "end", "parent", "item", "error", "attrs"],
            "spans": [
                [s.name, s.start, s.end, s.parent, s.item, s.error, s.attrs]
                for s in tracer.spans
            ],
        }
        (out_dir / f"spans-{args.workload}.json").write_text(json.dumps(dump))

    failed = sum(1 for s in samples if s.error is not None)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
