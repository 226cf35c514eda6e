"""Metric definitions, the prediction table, and how each metric is
computed from a run.

``END_TO_END`` and ``PER_LAYER`` are the lists ``BENCHMARK.json`` carries
(the self-tests check the two agree). ``PREDICTIONS`` is the table the
benchmark was designed against: which end-to-end metric each per-layer
metric should move, on which workload it is active, and on which the
prediction is no change. It is data, so a later change that claims a gain
can be checked against the row it names.
"""

from __future__ import annotations

import statistics
from typing import Dict, List

import workloads as w
from layers import AUFS, AUFS_COUNTERS, LAYER_NAMES, SQL, SQL_COUNTERS

WORKLOADS = {
    "delegate_files": "B^A reads, writes, appends (copy-up), renames and deletes over internal "
                      "and external storage beside A; kernel.* does the work, minisql and core.cow none",
    "delegate_provider": "B^A queries and edits the 1000-row User Dictionary for two initiators "
                         "through binder, CowProxy and minisql; core.cow and minisql do the work",
    "delegate_sessions": "Table 5 apps launched as delegates for four initiators under a process "
                         "cap; am, zygote, core.branches and kernel.mounts do the work",
}

# name, unit, better, bound (the share of the parent's median by which the
# metric may worsen). The bounds follow the spreads (interquartile range over
# median, ten seeds) measured on a shared 2-core host, where another set of
# runs read up to twice the spread of the first: up to 0.09 for the scaled
# times, so 0.24 for every time and rate; setup_s, milliseconds to tens of
# milliseconds per boot, gets the largest.
END_TO_END = [
    ("ops_per_s", "ops/s", "higher", 0.24),
    ("delegate_read_p50_ms", "ms", "lower", 0.24),
    ("delegate_read_p95_ms", "ms", "lower", 0.24),
    ("delegate_write_p50_ms", "ms", "lower", 0.24),
    ("delegate_write_p95_ms", "ms", "lower", 0.24),
    ("initiator_op_p50_ms", "ms", "lower", 0.24),
    ("initiator_op_p95_ms", "ms", "lower", 0.24),
    ("launch_p50_ms", "ms", "lower", 0.24),
    ("launch_p95_ms", "ms", "lower", 0.24),
    ("commit_p50_ms", "ms", "lower", 0.24),
    ("stored_bytes_per_written_byte", "ratio", "lower", 0.20),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
]

LAYER_UNITS = {
    "kernel.syscall": ["calls_per_op:calls/op", "self_us_per_op:us/op"],
    "kernel.mounts": ["resolves_per_op:calls/op", "self_us_per_op:us/op"],
    "kernel.aufs": ["self_us_per_op:us/op", "branches_scanned_per_op:branches/op",
                    "copy_ups_per_op:copy-ups/op", "copy_up_kb_per_op:KB/op",
                    "copy_up_share:ratio"],
    "kernel.vfs": ["self_us_per_op:us/op"],
    "kernel.path": ["normalize_calls_per_op:calls/op"],
    "kernel.binder": ["transacts_per_op:calls/op", "self_us_per_op:us/op"],
    "kernel.proc": ["live_processes:processes"],
    "android.content": ["self_us_per_op:us/op"],
    "android.am": ["self_us_per_launch:us/launch"],
    "android.zygote": ["self_us_per_launch:us/launch"],
    "core.branches": ["self_us_per_launch:us/launch", "mounts_per_launch:mounts/launch"],
    "core.cow": ["self_us_per_op:us/op", "delta_rows:rows"],
    "core.volatile": ["self_us_per_commit:us/commit"],
    "minisql": ["self_us_per_op:us/op", "statements_per_op:stmts/op",
                "rows_scanned_per_row_returned:ratio", "materialized_rows_per_op:rows/op",
                "flattened_share:ratio", "distinct_sql_texts:texts"],
    "apps": ["self_us_per_launch:us/launch"],
}

PER_LAYER = (
    [(f"{layer}.{entry.split(':')[0]}", entry.split(":")[1], "lower")
     for layer, entries in LAYER_UNITS.items() for entry in entries]
    + [(f"{layer}.errors", "errors/op", "lower") for layer in LAYER_NAMES]
    + [
        ("bench.cpu_control_ms", "ms", "lower"),
        ("bench.tracing_overhead_pct", "%", "lower"),
        ("bench.delegate_write_share", "ratio", "lower"),
        ("bench.traced_ops", "ops", "higher"),
    ]
)
# Per-layer metrics are costs (lower is better) except these two: more
# flattened queries and more traced operations are better.
_HIGHER = {"minisql.flattened_share", "bench.traced_ops"}
PER_LAYER = [(n, u, "higher" if n in _HIGHER else b) for n, u, b in PER_LAYER]

ALL_WORKLOADS = tuple(WORKLOADS)
# (per-layer metrics, end-to-end metrics they should move, workloads where
#  the layer is active, workloads where the prediction is no change)
PREDICTIONS = [
    (["minisql.self_us_per_op", "minisql.statements_per_op",
      "minisql.rows_scanned_per_row_returned", "minisql.materialized_rows_per_op",
      "minisql.flattened_share"],
     ["delegate_read_p50_ms", "ops_per_s", "guard: delegate_write_p50_ms"],
     ["delegate_provider"], ["delegate_files"]),
    (["core.cow.self_us_per_op", "core.cow.delta_rows"],
     ["delegate_read_p50_ms", "delegate_read_p95_ms", "delegate_write_p50_ms",
      "delegate_write_p95_ms"],
     ["delegate_provider"], ["delegate_files"]),
    (["android.content.self_us_per_op", "kernel.binder.transacts_per_op",
      "kernel.binder.self_us_per_op"],
     ["all latencies"], ["delegate_provider", "delegate_sessions"], ["delegate_files"]),
    (["kernel.syscall.calls_per_op", "kernel.syscall.self_us_per_op",
      "kernel.mounts.resolves_per_op", "kernel.mounts.self_us_per_op",
      "kernel.vfs.self_us_per_op", "kernel.path.normalize_calls_per_op"],
     ["delegate_read_p50_ms", "delegate_write_p50_ms", "ops_per_s"],
     ["delegate_files"], ["delegate_provider"]),
    (["kernel.aufs.self_us_per_op", "kernel.aufs.branches_scanned_per_op",
      "kernel.aufs.copy_ups_per_op", "kernel.aufs.copy_up_kb_per_op",
      "kernel.aufs.copy_up_share"],
     ["delegate_write_p95_ms", "stored_bytes_per_written_byte"],
     ["delegate_files"], []),
    (["android.am.self_us_per_launch", "android.zygote.self_us_per_launch",
      "core.branches.self_us_per_launch", "core.branches.mounts_per_launch",
      "kernel.proc.live_processes"],
     ["launch_p50_ms", "launch_p95_ms"],
     ["delegate_sessions"], []),
    (["core.volatile.self_us_per_commit"], ["commit_p50_ms"], list(ALL_WORKLOADS), []),
    (["apps.self_us_per_launch"], [], ["delegate_sessions"], []),
    (["bench.cpu_control_ms", "bench.tracing_overhead_pct"], [], list(ALL_WORKLOADS), []),
]

#: What the CPU control loop (``driver.CpuControl``) takes on a lightly
#: loaded core of the reference machine. The benchmark reports times scaled
#: by this over the control's timings (see ``Runner.calibrated``), so a
#: busier or slower host does not read as a slower program.
CONTROL_REFERENCE_MS = 1.5
SELF_TIME_UNITS = {"us/op", "us/launch", "us/commit"}


def calibrate_self_times(values: Dict[str, float], scale: float) -> Dict[str, float]:
    """Scale the per-layer self times by ``scale``."""
    units = {name: unit for name, unit, _better in PER_LAYER}
    return {name: value * scale if units[name] in SELF_TIME_UNITS else value
            for name, value in values.items()}


CLASS_METRICS = {
    w.DELEGATE_READ: "delegate_read",
    w.DELEGATE_WRITE: "delegate_write",
    w.INITIATOR: "initiator_op",
    w.LAUNCH: "launch",
}


def percentile(samples: List[int], q: int) -> float:
    """The q-th percentile of nanosecond samples, in milliseconds."""
    if len(samples) < 2:
        return samples[0] / 1e6 if samples else 0.0
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1] / 1e6


def ops_per_s(samples: Dict[str, List[int]]) -> float:
    """Completed timed operations per second of time spent in them."""
    count = sum(len(s) for s in samples.values())
    busy = sum(sum(s) for s in samples.values())
    return count / (busy / 1e9) if busy else 0.0


def end_to_end(runner, samples, setup_s: float, peak_rss_mb: float) -> Dict[str, float]:
    """The end-to-end metrics from per-class timings ``samples`` (ns)."""
    values = {"ops_per_s": ops_per_s(samples)}
    for cls, prefix in CLASS_METRICS.items():
        values[f"{prefix}_p50_ms"] = percentile(samples[cls], 50)
        values[f"{prefix}_p95_ms"] = percentile(samples[cls], 95)
    values["commit_p50_ms"] = percentile(samples[w.COMMIT], 50)
    values["stored_bytes_per_written_byte"] = (
        runner.stored_bytes / runner.written_bytes if runner.written_bytes else 0.0
    )
    values["peak_rss_mb"] = peak_rss_mb
    values["setup_s"] = setup_s
    return values


def properties(runner) -> Dict[str, float]:
    """Workload properties the driver measures on every run, untimed."""
    reads = len(runner.samples[w.DELEGATE_READ])
    writes = len(runner.samples[w.DELEGATE_WRITE])
    return {
        "kernel.aufs.copy_up_share": (
            runner.append_copied_up / runner.appends if runner.appends else 0.0
        ),
        "core.cow.delta_rows": (
            statistics.mean(runner.delta_rows) if runner.delta_rows else 0.0
        ),
        "kernel.proc.live_processes": (
            statistics.mean(runner.live_processes) if runner.live_processes else 0.0
        ),
        "bench.delegate_write_share": writes / (reads + writes) if reads + writes else 0.0,
    }


def per_layer(tracer, runner, mounts_built: int, cpu_control_ms: float,
              overhead_pct: float) -> Dict[str, float]:
    ops = max(1, sum(tracer.ops.values()))
    launches = max(1, tracer.ops.get(w.LAUNCH, 0))
    commits = max(1, tracer.ops.get(w.COMMIT, 0))
    aufs = dict(zip(AUFS_COUNTERS, tracer.counters[AUFS]))
    sql = dict(zip(SQL_COUNTERS, tracer.counters[SQL]))
    values = {
        "kernel.syscall.calls_per_op": tracer.count("kernel.syscall") / ops,
        "kernel.syscall.self_us_per_op": tracer.self_us("kernel.syscall") / ops,
        "kernel.mounts.resolves_per_op": tracer.count("kernel.mounts") / ops,
        "kernel.mounts.self_us_per_op": tracer.self_us("kernel.mounts") / ops,
        "kernel.aufs.self_us_per_op": tracer.self_us("kernel.aufs") / ops,
        "kernel.aufs.branches_scanned_per_op": aufs["branches_scanned"] / ops,
        "kernel.aufs.copy_ups_per_op": aufs["copy_ups"] / ops,
        "kernel.aufs.copy_up_kb_per_op": aufs["copy_up_bytes"] / 1024 / ops,
        "kernel.vfs.self_us_per_op": tracer.self_us("kernel.vfs") / ops,
        "kernel.path.normalize_calls_per_op": tracer.count("kernel.path") / ops,
        "kernel.binder.transacts_per_op": tracer.count("kernel.binder") / ops,
        "kernel.binder.self_us_per_op": tracer.self_us("kernel.binder") / ops,
        "android.content.self_us_per_op": tracer.self_us("android.content") / ops,
        "android.am.self_us_per_launch": tracer.self_us("android.am") / launches,
        "android.zygote.self_us_per_launch": tracer.self_us("android.zygote") / launches,
        "core.branches.self_us_per_launch": tracer.self_us("core.branches") / launches,
        "core.branches.mounts_per_launch": mounts_built / launches,
        "core.cow.self_us_per_op": tracer.self_us("core.cow") / ops,
        "core.volatile.self_us_per_commit": tracer.self_us("core.volatile") / commits,
        "minisql.self_us_per_op": tracer.self_us("minisql") / ops,
        "minisql.statements_per_op": tracer.count("minisql") / ops,
        "minisql.rows_scanned_per_row_returned": (
            sql["rows_scanned"] / tracer.rows_returned if tracer.rows_returned else 0.0
        ),
        "minisql.materialized_rows_per_op": sql["materialized_rows"] / ops,
        "minisql.flattened_share": (
            sql["flattened"] / (sql["flattened"] + sql["materialized_views"])
            if sql["flattened"] + sql["materialized_views"] else 0.0
        ),
        "minisql.distinct_sql_texts": float(len(tracer.sql_texts)),
        "apps.self_us_per_launch": tracer.self_us("apps") / launches,
        "bench.cpu_control_ms": cpu_control_ms,
        "bench.tracing_overhead_pct": overhead_pct,
        "bench.traced_ops": float(ops),
    }
    for index, layer in enumerate(LAYER_NAMES):
        values[f"{layer}.errors"] = tracer.errors[index] / ops
    values.update(properties(runner))
    return values
