#!/usr/bin/env python3
"""The repository benchmark: one closed-loop client driving the Maxoid
simulation through its public surface.

Usage (from the repository root)::

    python3 perfbench/run.py --workload delegate_files --seed 1 --seconds 30 --trace 0

Workloads: ``delegate_files``, ``delegate_provider``, ``delegate_sessions``
(see ``workloads.py`` and ``BENCHMARK.json``); ``--workload all`` runs the
three in turn, each in its own process. The run

1. generates one epoch of sessions from ``--seed``;
2. sets the device up several times and reports the median as ``setup_s``;
3. runs untimed warm-up sessions, collects garbage once, then measures
   whole sessions for ``--seconds`` of wall time, booting a fresh device
   (untimed) whenever the epoch is used up, checking every result against
   the generator's shadow model and timing a CPU control every 0.05 s
   and on either side of every set-up and every long operation;
4. reports times scaled by that control (see ``Runner.calibrated``);
5. with ``--trace 1``, measures for half of ``--seconds`` untraced, then
   repeats step 3 for the other half on a fresh device with every layer
   wrapped (see ``layers.py``), and reports the per-layer metrics instead
   of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when every operation returned the right result, 1 when one did not, and
2 when the program's source tree is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = ("delegate_files", "delegate_provider", "delegate_sessions")
SETUP_REPEATS = 9


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path[:0] = [str(SRC), str(HERE)]
    import driver
    import metrics
    import workloads
    from layers import LayerTracer

    plan = workloads.PLANNERS[args.workload](args.seed, workloads.EPOCH_SESSIONS[args.workload])
    control = driver.CpuControl()
    # The stream and the control's table are the benchmark's own objects:
    # keep them out of the collector's work, which the program pays for.
    gc.collect()
    gc.freeze()
    print(f"workload {args.workload} seed {args.seed}: {len(plan.sessions)} sessions an epoch")

    runner = driver.Runner(plan, control=control)
    for _ in range(SETUP_REPEATS):
        runner.setup()
    # A traced run splits its time between the untraced phase, which its
    # tracing overhead is measured against, and the traced phase.
    seconds = args.seconds / 2 if args.trace else args.seconds
    wall, controls = runner.measure(seconds)
    reference = metrics.CONTROL_REFERENCE_MS
    scale = reference / statistics.median(controls)
    peak_rss_mb = runner.peak_rss_mb()
    setup_s = statistics.median(runner.setups)
    raw = metrics.end_to_end(runner, runner.samples, setup_s, peak_rss_mb)
    values = metrics.end_to_end(runner, runner.calibrated(reference),
                                statistics.median(runner.setup_seconds(reference)), peak_rss_mb)
    units = {name: unit for name, unit, _b, _bound in metrics.END_TO_END}
    _report(runner, wall, controls, scale, metrics.properties(runner))
    attempted, failed = runner.attempted, runner.failed
    failures = list(runner.failures)

    if args.trace:
        tracer = LayerTracer()
        traced = driver.Runner(plan, tracer, control)
        # Installed before set-up, so callbacks the device binds at boot
        # (Device.clear_volatile) are the wrapped ones too.
        tracer.install()
        try:
            traced.setup()
            traced_wall, traced_controls = traced.measure(seconds)
        finally:
            tracer.uninstall()
        traced_scale = reference / statistics.median(traced_controls)
        traced_ops = metrics.ops_per_s(traced.calibrated(reference))
        raw = metrics.per_layer(
            tracer, traced, traced.mounts_built(),
            statistics.median(controls), (values["ops_per_s"] / traced_ops - 1.0) * 100.0,
        )
        values = metrics.calibrate_self_times(raw, traced_scale)
        units = {name: unit for name, unit, _b in metrics.PER_LAYER}
        attempted += traced.attempted
        failed += traced.failed
        failures += traced.failures
        print(f"traced: {sum(tracer.ops.values())} ops in {traced_wall:.1f} s, "
              f"{len(tracer.sql_texts)} distinct SQL texts")

    for line in failures:
        print(f"FAILED {line}")
    for name in units:
        print(f"  {name:<44} {values[name]:>14.6g} {units[name]:<12} (as timed {raw[name]:.6g})")
    print(f"  failed_op_ratio {failed / max(1, attempted):.6g} ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if failed == 0 else 1


def _run_all(args) -> int:
    """Run every workload, each in its own process, and end with one JSON
    line whose metrics are named ``<workload>.<metric>``."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stderr.write(out.stderr)
        lines = out.stdout.splitlines()
        for line in lines[:-1]:
            print(f"{workload}: {line}")
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"] and out.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def _report(runner, wall: float, controls, scale: float, properties) -> None:
    """Human-readable summary of the untraced run and its workload
    properties (the JSON line carries the metrics)."""
    sizes = ", ".join(f"{cls} {len(s)}" for cls, s in runner.samples.items())
    print(f"measured {runner.sessions_run} sessions over {runner.epochs + 1} epochs "
          f"in {wall:.1f} s ({sizes})")
    print(f"cpu control: median {statistics.median(controls):.3f} ms over {len(controls)} "
          f"timings ({min(controls):.3f}..{max(controls):.3f}); overall scale {scale:.4f}; "
          f"set-ups and {'/'.join(sorted(runner.plan.bracketed))} operations scaled by the "
          f"control on either side, others by the control around each")
    for name, value in properties.items():
        print(f"  property {name:<35} {value:.6g}")


if __name__ == "__main__":
    sys.exit(main())
