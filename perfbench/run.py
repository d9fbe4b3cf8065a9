"""Per-task front-end cost of automatic tracing, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload steady --seed 1 --seconds 25 --trace 0

Timed passes over the workload's stream repeat until ``--seconds`` have
passed (at least three), then one pass issues the same
stream with no Apophenia in front of the runtime. With ``--trace 1`` a
final pass wraps every layer and records spans. The end-to-end metrics
are medians over the timed passes; the per-layer metrics come from the
traced pass. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``). A
full record, and with ``--trace 1`` the spans, go to ``perfbench/out/``.
See ``perfbench/README.md``.
"""

import argparse
import json
import sys
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def print_table(title, rows, values, notes=None):
    print(title)
    for name, unit in rows:
        value = values[name]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        note = (notes or {}).get(name, "")
        print(f"  {name:32s} {shown:>14s} {unit:8s} {note}")


def with_units(values, rows):
    return {name: {"value": values[name], "unit": unit} for name, unit in rows}


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} "
              "is missing; run from the root of a full checkout",
              file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True  # leave the checkout's files alone
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.layers import PER_LAYER
    from perfbench.measure import END_TO_END, Run
    from perfbench.record import environment
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment(ROOT)
    run = Run(workload, args.seed, args.seconds, args.trace)

    e2e = run.end_to_end()
    seed_note = "" if workload.uses_seed else " (not used: no random draws)"
    slowdown = median(p.slowdown for p in run.passes)
    print_table(
        f"perfbench {workload.name}: seed {args.seed}{seed_note}, "
        f"{len(run.passes)} timed passes in {run.measured_s:.1f} s, "
        f"correct={run.correct}; times at the nominal speed "
        f"(median slowdown {slowdown:.3f})",
        END_TO_END, e2e, run.end_to_end_notes(),
    )
    for problem in run.problems:
        print(f"  CHECK FAILED: {problem}")

    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seed_used": workload.uses_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "end_to_end": with_units(e2e, END_TO_END),
        "end_to_end_raw": run.timing_medians(normalized=False),
        "passes": [
            {"setup_s": p.setup_s, "wall_s": p.wall_s, "tasks": p.tasks,
             "calibration_s": p.calibration_s, "slowdown": p.slowdown,
             **p.latency}
            for p in run.passes
        ],
        "baseline": {"wall_s": run.baseline.wall_s,
                     "tasks": run.baseline.tasks,
                     "virtual_s": run.baseline.virtual_s},
        "virtual_s": run.passes[0].virtual_s,
    }
    metrics = record["end_to_end"]
    OUT.mkdir(parents=True, exist_ok=True)
    if run.traced is not None:
        layer_values = run.per_layer()
        print_table(
            f"per layer: traced pass of {run.traced.tasks} tasks, "
            f"{len(run.probe.tracer)} spans, {run.traced.wall_s:.2f} s",
            PER_LAYER, layer_values,
        )
        metrics = record["per_layer"] = with_units(layer_values, PER_LAYER)
        spans_path = OUT / f"spans-{workload.name}.npz"
        run.probe.tracer.save(spans_path)
        record["spans"] = str(spans_path.relative_to(ROOT))
    record_path = OUT / (
        f"record-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    )
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
