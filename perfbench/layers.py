"""Per-layer attribution, recorded from outside the program.

:class:`LayerTracer` wraps the public functions of each layer of the
program (named by module, see :data:`LAYERS`) with a wrapper that records
a span — layer, parent span, start, end, whether it raised — while a
timed operation runs. At the end of each operation the spans are folded
into per-layer totals: call counts, errors, and *self time*, a span's
duration minus the part its child spans cover. Where a layer keeps its
own public counters (Aufs copy-up and lookup counters, the SQL planner's
``PlannerStats``) the outermost span of that layer adds their change.

``install()`` patches the classes and modules; ``uninstall()`` puts every
original back, so the program is byte-for-byte itself again. Nothing in
the program's source changes.
"""

from __future__ import annotations

import importlib
import inspect
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

#: (layer, [(module, class or None for the module itself, names or None
#: for every public function)]).
LAYERS: List[Tuple[str, List[Tuple[str, Optional[str], Optional[List[str]]]]]] = [
    ("kernel.syscall", [("repro.kernel.syscall", "Syscalls", None)]),
    ("kernel.mounts", [("repro.kernel.mounts", "MountNamespace", ["resolve"])]),
    ("kernel.aufs", [("repro.kernel.aufs", "AufsMount", None)]),
    ("kernel.vfs", [("repro.kernel.vfs", "Filesystem", None)]),
    ("kernel.path", [("repro.kernel.path", None, ["normalize"])]),
    ("kernel.binder", [("repro.kernel.binder", "BinderDriver", ["transact"])]),
    ("kernel.proc", [("repro.kernel.proc", "ProcessTable", None)]),
    ("android.content", [("repro.android.content.provider", "ContentResolver", None)]),
    ("android.am", [("repro.android.am", "ActivityManagerService", ["start_activity"])]),
    ("android.zygote", [("repro.android.zygote", "Zygote", ["fork_app"])]),
    ("core.branches", [("repro.core.branches", "BranchManager",
                        ["materialize", "prepare_delegate_priv"])]),
    ("core.cow", [("repro.core.cow", "CowProxy", None)]),
    ("core.volatile", [("repro.core.volatile", "VolatileFiles", None),
                       ("repro.core.device", "Device", ["clear_volatile"])]),
    ("minisql", [("repro.minisql.engine", "Database", ["execute"])]),
    ("apps", [("repro.apps.base", "SimApp", ["main"])]),
]
LAYER_NAMES = [name for name, _targets in LAYERS]
AUFS = LAYER_NAMES.index("kernel.aufs")
SQL = LAYER_NAMES.index("minisql")

_MISSING = object()


def _aufs_counters(mount) -> Tuple[int, ...]:
    return (mount.copy_up_count, mount.copy_up_bytes, mount.lookup_branches_scanned)


def _sql_counters(db) -> Tuple[int, ...]:
    stats = db.stats
    return (stats.flattened_queries, stats.materialized_views,
            stats.materialized_rows, stats.rows_scanned)


#: Public counters read around the outermost span of a layer.
COUNTERS = {AUFS: _aufs_counters, SQL: _sql_counters}
AUFS_COUNTERS = ("copy_ups", "copy_up_bytes", "branches_scanned")
SQL_COUNTERS = ("flattened", "materialized_views", "materialized_rows", "rows_scanned")


def targets() -> List[Tuple[int, object, str]]:
    """Every (layer index, owner, attribute) the tracer wraps."""
    found = []
    for index, (_layer, specs) in enumerate(LAYERS):
        for module_name, class_name, names in specs:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            if names is None:
                names = [
                    n for n in dir(owner)
                    if not n.startswith("_")
                    and inspect.isfunction(inspect.getattr_static(owner, n))
                ]
            found.extend((index, owner, n) for n in names)
    return found


class LayerTracer:
    """Span recorder over the program's layers; see the module doc."""

    def __init__(self) -> None:
        self.on = False
        self.spans: List[list] = []
        self.current = -1
        self.depth = [0] * len(LAYERS)
        self._saved: List[Tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget the totals (after the warm-up)."""
        n = len(LAYERS)
        self.self_ns = [0] * n
        self.calls = [0] * n
        self.errors = [0] * n
        self.counters = {AUFS: [0] * len(AUFS_COUNTERS), SQL: [0] * len(SQL_COUNTERS)}
        self.rows_returned = 0
        self.sql_texts: set = set()
        self.ops: Dict[str, int] = {}

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        for layer, owner, name in targets():
            original = owner.__dict__.get(name, _MISSING)
            function = getattr(owner, name)
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(function, layer))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._saved = []

    def _wrap(self, function, layer: int):
        tracer = self
        clock = time.perf_counter_ns
        probe = COUNTERS.get(layer)
        is_sql = layer == SQL

        def traced(*args, **kwargs):
            if not tracer.on:
                return function(*args, **kwargs)
            outer = probe is not None and tracer.depth[layer] == 0
            if outer:
                before = probe(args[0])
            if is_sql:
                tracer.sql_texts.add(args[1] if len(args) > 1 else kwargs["sql"])
            spans = tracer.spans
            span = [layer, tracer.current, clock(), 0, False]
            tracer.current = len(spans)
            spans.append(span)
            tracer.depth[layer] += 1
            try:
                result = function(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[3] = clock()
                tracer.depth[layer] -= 1
                tracer.current = span[1]
            if outer:
                totals = tracer.counters[layer]
                for i, value in enumerate(probe(args[0])):
                    totals[i] += value - before[i]
                if is_sql:
                    tracer.rows_returned += len(result.rows)
            return result

        traced.__wrapped__ = function
        return traced

    # -- per-operation bookkeeping -------------------------------------------

    def begin_op(self) -> None:
        self.spans = []
        self.current = -1
        self.on = True

    def end_op(self, cls: str) -> None:
        self.on = False
        self.ops[cls] = self.ops.get(cls, 0) + 1
        spans = self.spans
        covered = [0] * len(spans)
        for span in spans:
            if span[1] >= 0:
                covered[span[1]] += span[3] - span[2]
        for index, span in enumerate(spans):
            layer = span[0]
            self.self_ns[layer] += span[3] - span[2] - covered[index]
            self.calls[layer] += 1
            if span[4]:
                self.errors[layer] += 1
        self.spans = []

    @contextmanager
    def paused(self):
        """Run benchmark-side probes without recording them."""
        previous, self.on = self.on, False
        try:
            yield
        finally:
            self.on = previous

    # -- results ---------------------------------------------------------------

    def layer(self, name: str) -> int:
        return LAYER_NAMES.index(name)

    def self_us(self, name: str) -> float:
        return self.self_ns[self.layer(name)] / 1000.0

    def count(self, name: str) -> int:
        return self.calls[self.layer(name)]
