"""Runs a :class:`~workloads.Plan` against a booted ``Device``.

One process, one thread, one closed-loop client: each operation is sent
only after the previous one returned. Only the call into the program is
timed; checking its result against the plan's expected value, the
session-end confinement checks and the low-memory killer run untimed.

The driver reaches the program only through its public surface:
``Device``, ``AppApi`` (syscalls, content resolver, volatile files), the
``Launcher`` and the providers' COW proxies for an initiator's commit.
"""

from __future__ import annotations

import bisect
import gc
import resource
import statistics
import time
import zlib
from contextlib import nullcontext
from typing import Dict, List, Optional

from repro import Device, Intent
from repro.android.content.provider import ContentValues
from repro.android.uri import Uri
from repro.apps.base import AppBuild, SimApp
from repro.apps.camera import CameraApp
from repro.apps.pdf_viewer import PdfViewerApp
from repro.apps.scanner import CamScannerApp
from repro.errors import FileNotFound
from repro.kernel import path as vpath
from repro.kernel.vfs import ROOT_CRED

import workloads as w

WORDS_URI = Uri.content("user_dictionary", "words")
MEDIA_FILES_URI = Uri.content("media", "files")
WORD_COLUMNS = list(w.WORDS)
#: Seconds of measurement between two runs of the CPU control loop, and
#: the window of control timings (centred on an operation) whose median
#: scales that operation's time.
CONTROL_EVERY = 0.05
CONTROL_WINDOW_NS = 300_000_000
#: Control timings taken just before and just after the measured phase.
CONTROL_REPEATS = 5


class _Column:
    def __init__(self, name: str) -> None:
        self.name = name

    def eval(self, row):
        return row[self.name]


class _Literal:
    def __init__(self, value) -> None:
        self.value = value

    def eval(self, row):
        return self.value


class _Equals:
    def __init__(self, left, right) -> None:
        self.left, self.right = left, right

    def eval(self, row):
        return self.left.eval(row) == self.right.eval(row)


class CpuControl:
    """A fixed pure-Python loop that touches none of the program.

    It scans a table of dict rows, evaluating a small expression tree on
    each row through method calls: the same kind of work the simulation
    spends its time on. On a shared host its time moves with the
    simulation's (checked window by window against all three workloads),
    which a plain arithmetic loop's does not.
    """

    ROWS = 2000
    PASSES = 6
    #: Passes of the short timing taken on either side of a bracketed
    #: operation: about half a millisecond on the reference machine.
    SHORT_PASSES = 2

    def __init__(self) -> None:
        self._rows = [
            {"_id": i, "word": f"w{i}", "frequency": i % 255, "locale": None}
            for i in range(self.ROWS)
        ]
        self._where = _Equals(_Column("_id"), _Literal(-1))

    def __call__(self, passes: int = PASSES) -> float:
        """Milliseconds ``passes`` scans of the table take."""
        where = self._where
        start = time.perf_counter()
        hits = 0
        for _ in range(passes):
            for row in self._rows:
                if where.eval(row):
                    hits += 1
        return (time.perf_counter() - start) * 1000.0

    def short(self) -> float:
        """A timing of SHORT_PASSES scans, scaled to the length of a full
        one so the two can be compared."""
        return self(self.SHORT_PASSES) * self.PASSES / self.SHORT_PASSES


class EditorApp(SimApp):
    """The benchmark's delegate app: on launch it saves its session state
    in its private directory (so a delegate launch copies up Priv(B))."""

    def on_main_action(self, api, intent):
        api.sys.write_file(f"{api.internal_dir}/state/session.bin", intent.extras["state"])
        return {"initiator": api.maxoid.initiator()}


def _editor(package: str):
    return type(f"Editor_{package.rsplit('.', 1)[1]}", (EditorApp,),
                {"BUILD": AppBuild(package=package, label=package)})


def _plain(package: str):
    return type(f"App_{package.rsplit('.', 1)[1]}", (SimApp,),
                {"BUILD": AppBuild(package=package, label=package)})


APP_CODE = {
    w.NOTES: _editor(w.NOTES),
    w.KEYBOARD: _editor(w.KEYBOARD),
    w.PDF: PdfViewerApp,
    w.SCANNER: CamScannerApp,
    w.CAMERA: CameraApp,
}

ACTIONS = {
    "main": Intent.ACTION_MAIN,
    "view": Intent.ACTION_VIEW,
    "scan": Intent.ACTION_SCAN,
    "capture": Intent.ACTION_IMAGE_CAPTURE,
    "edit": Intent.ACTION_EDIT,
}


class CheckFailed(Exception):
    """A session-end confinement check saw the wrong view."""


class NullTracer:
    """Stands in for the layer tracer in untraced runs."""

    def begin_op(self) -> None:
        pass

    def end_op(self, cls: str) -> None:
        pass

    def reset(self) -> None:
        pass

    def paused(self):
        return nullcontext()


class Runner:
    """Executes one plan on one device and keeps the measurements."""

    def __init__(self, plan: w.Plan, tracer=None, control: Optional[CpuControl] = None) -> None:
        self.plan = plan
        # Timed runs (``run(seconds=...)``) interleave this control loop.
        self.control = control
        self.tracer = tracer or NullTracer()
        self.device: Optional[Device] = None
        self.apis: Dict[str, object] = {}
        self.delegates: Dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.next_session = 0
        self.setups: List[float] = []
        # The CPU control around each set-up (None without a control).
        self.setup_controls: List[Optional[float]] = []
        self._session_written = 0
        self._session_stored: Optional[int] = None
        self._clear_measurements()

    def _clear_measurements(self) -> None:
        # Timings (ns) and their start times, by latency class.
        self.samples: Dict[str, List[int]] = {c: [] for c in w.CLASSES}
        self.starts: Dict[str, List[int]] = {c: [] for c in w.CLASSES}
        # For operations of the plan's bracketed classes, the mean of the
        # CPU control timed just before and just after; None for others.
        self.brackets: Dict[str, List[Optional[float]]] = {c: [] for c in w.CLASSES}
        # CPU control timings taken between sessions while measuring.
        self.controls: List[float] = []
        self.control_starts: List[int] = []
        self.epochs = self.sessions_run = 0
        # Workload properties, all gathered untimed.
        self.live_processes: List[int] = []
        self.appends = self.append_copied_up = 0
        self.delta_rows: List[int] = []
        self.stored_bytes = self.written_bytes = 0
        # The process's peak resident memory when the first epoch ended.
        self.first_epoch_rss_mb: Optional[float] = None
        # Aufs mounts the branch manager built since the last clear.
        self._mounts = 0
        self._mounts_mark = self.device.branches.mounts_built if self.device else 0

    # ------------------------------------------------------------------
    # Set-up
    # ------------------------------------------------------------------

    def setup(self) -> float:
        """Boot a fresh device, install the apps and seed files and rows,
        ready for the plan's first session; returns the seconds it took."""
        if self.device is not None:
            self._mounts += self.device.branches.mounts_built - self._mounts_mark
            # Free the old device's cycles now rather than inside a timed
            # operation.
            self.device = None
            gc.collect()
        control_before = self.control.short() if self.control else None
        start = time.perf_counter()
        self.apis, self.delegates = {}, {}
        self.next_session = 0
        device = Device(maxoid_enabled=True)
        for package in self.plan.apps:
            (APP_CODE.get(package) or _plain(package)).install(device)
        self.device = device
        for package in self.plan.apps:
            if package not in APP_CODE:
                self.apis[package] = device.spawn(package)
        owners = {op[2] for op in self.plan.setup} - set(self.apis)
        for package in owners:
            # A delegate app's private files come from a normal run of it.
            self.apis[package] = device.spawn(package)
        for op in self.plan.setup:
            kind, _cls, actor = op[:3]
            api = self.apis[actor]
            if kind == "mkdirs":
                api.sys.makedirs(op[3], mode=0o777)
            elif kind == "write":
                api.sys.write_file(op[3], op[4], mode=_mode(op[3]))
            elif kind == "seed_rows":
                for word, frequency in op[3]:
                    api.insert(WORDS_URI, ContentValues({"word": word, "frequency": frequency}))
        for package in owners:
            self.apis.pop(package).process.kill()
        elapsed = time.perf_counter() - start
        self.setups.append(elapsed)
        self.setup_controls.append(
            (control_before + self.control.short()) / 2 if self.control else None
        )
        self._mounts_mark = device.branches.mounts_built
        return elapsed

    # ------------------------------------------------------------------
    # The session loop
    # ------------------------------------------------------------------

    def run(self, sessions: Optional[int] = None, seconds: Optional[float] = None) -> float:
        """Run whole sessions from where the last call stopped: a fixed
        number (within the plan), or as many as ``seconds`` of wall time
        allow. A timed run that uses up the plan's sessions (one *epoch*)
        boots a fresh device, untimed, and starts the plan again, so the
        state every operation meets does not depend on how fast the host
        is. Returns the wall time taken."""
        start = time.perf_counter()
        deadline = None if seconds is None else start + seconds
        next_control = start
        done = 0
        while sessions is None or done < sessions:
            now = time.perf_counter()
            if deadline is not None:
                if now >= deadline:
                    break
                if now >= next_control:
                    self.control_starts.append(time.perf_counter_ns())
                    self.controls.append(self.control())
                    next_control = now + CONTROL_EVERY
            if self.next_session == len(self.plan.sessions):
                if deadline is None:
                    break
                if self.epochs == 0:
                    self.first_epoch_rss_mb = peak_rss_mb()
                self.setup()
                self.epochs += 1
            self._run_session(self.plan.sessions[self.next_session])
            self.next_session += 1
            self.sessions_run += 1
            done += 1
        return time.perf_counter() - start

    def measure(self, seconds: float):
        """Warm up untimed, collect garbage once, then measure whole
        sessions for ``seconds``, timing the CPU control before, during and
        after. Returns the measured wall time and every control timing."""
        self.run(sessions=w.WARMUP_SESSIONS)
        self.reset_samples()
        gc.collect()
        before = [self.control() for _ in range(CONTROL_REPEATS)]
        wall = self.run(seconds=seconds)
        after = [self.control() for _ in range(CONTROL_REPEATS)]
        return wall, before + self.controls + after

    def reset_samples(self) -> None:
        """Start measuring afresh (after the warm-up)."""
        self.tracer.reset()
        self._clear_measurements()

    def calibrated(self, reference_ms: float) -> Dict[str, List[float]]:
        """Every timing scaled by ``reference_ms`` over the CPU control, so
        each operation is judged against how fast the host ran at the time.

        The host's speed moves within tenths of a second, so an operation
        of a bracketed class is scaled by the control timed on either side
        of it; any other by the median control timing within
        CONTROL_WINDOW_NS of its start."""
        starts, controls = self.control_starts, self.controls
        half = CONTROL_WINDOW_NS // 2
        scaled = {}
        for cls, samples in self.samples.items():
            out = []
            for t0, elapsed, bracket in zip(self.starts[cls], samples, self.brackets[cls]):
                if bracket is None:
                    lo = min(bisect.bisect_left(starts, t0 - half), len(starts) - 1)
                    hi = max(bisect.bisect_right(starts, t0 + half), lo + 1)
                    bracket = statistics.median(controls[lo:hi])
                out.append(elapsed * reference_ms / bracket)
            scaled[cls] = out
        return scaled

    def peak_rss_mb(self) -> float:
        """The process's peak resident memory over the first epoch, or over
        the whole run if it ended sooner.

        Memory held by the program creeps up with every fresh device, so
        a peak over the whole run would grow with the number of epochs a
        run gets through: with how fast the host and the program are."""
        return self.first_epoch_rss_mb or peak_rss_mb()

    def setup_seconds(self, reference_ms: float) -> List[float]:
        """Every set-up's time scaled by ``reference_ms`` over the control
        timed on either side of it."""
        return [elapsed * reference_ms / control
                for elapsed, control in zip(self.setups, self.setup_controls)]

    def mounts_built(self) -> int:
        """Aufs mounts built since the last reset_samples()."""
        return self._mounts + self.device.branches.mounts_built - self._mounts_mark

    def _run_session(self, session) -> None:
        # Stored bytes are measured, by an untimed walk of the backing
        # filesystems, on every session of the first epoch only: later
        # epochs replay it, and a share of a partial one would make the
        # ratio depend on how fast the host ran.
        sample_storage = self.epochs == 0
        self._session_written = 0
        self._session_stored = self._stored() if sample_storage else None
        for op in session:
            if op[1] is None:
                self._check(op)
            else:
                if op[1] == w.COMMIT and self._session_stored is not None:
                    self.stored_bytes += self._stored() - self._session_stored
                    self.written_bytes += self._session_written
                self._timed(op)

    def _timed(self, op) -> None:
        kind, cls = op[0], op[1]
        call = getattr(self, "_call_" + kind)
        before = self._before(op)
        control = self.control if cls in self.plan.bracketed else None
        control_before = control.short() if control else None
        tracer = self.tracer
        tracer.begin_op()
        t0 = time.perf_counter_ns()
        try:
            result = call(op)
            error = None
        except Exception as exc:  # the program failed the operation
            result, error = None, exc
        elapsed = time.perf_counter_ns() - t0
        tracer.end_op(cls)
        self.samples[cls].append(elapsed)
        self.starts[cls].append(t0)
        self.brackets[cls].append((control_before + control.short()) / 2 if control else None)
        self.attempted += 1
        if error is None:
            try:
                ok = getattr(self, "_expect_" + kind)(op, result)
            except Exception as exc:  # a malformed result is a wrong one
                ok, error = False, exc
        else:
            ok = False
        if not ok:
            self._fail(op, error if error is not None else result)
        self._after(op, result, before)

    def _fail(self, op, detail) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(f"{op[0]} {op[2]} {op[3:5]!r:.160}: {detail!r:.300}")

    def _check(self, op) -> None:
        with self.tracer.paused():
            try:
                getattr(self, "_check_" + op[0])(op)
            except Exception as exc:  # a view that differs from the model
                self._fail(op, exc)

    def actor(self, key: str):
        return self.delegates[key] if "^" in key else self.apis[key]

    # -- untimed probes around timed operations ---------------------------

    def _before(self, op):
        with self.tracer.paused():
            kind = op[0]
            if kind == "append":
                return self._priv_mount(op).copy_up_count
            if kind in ("query_id", "query_all") and "^" in op[2]:
                app, initiator = op[2].split("^")
                proxy = self.device.user_dictionary.proxy
                if proxy.has_delta("words", initiator):
                    table = proxy.db.table(proxy.delta_name("words", initiator))
                    self.delta_rows.append(len(table))
                else:
                    self.delta_rows.append(0)
            return None

    def _after(self, op, result, before) -> None:
        with self.tracer.paused():
            kind = op[0]
            if kind in ("write", "append"):
                self._session_written += len(op[4])
            elif kind == "launch":
                self._session_written += op[8]
                if result is not None:
                    self.delegates[w.delegate(op[3], op[4])] = self.device.api_for(result.process)
                self._low_memory_killer()
                self.live_processes.append(len(self.device.processes))
            if kind == "append":
                self.appends += 1
                if self._priv_mount(op).copy_up_count > before:
                    self.append_copied_up += 1

    def _priv_mount(self, op):
        _point, mount = self.actor(op[2]).process.namespace.mount_for(op[3])
        return mount

    def _low_memory_killer(self) -> None:
        """Keep at most ``PROCESS_CAP`` live delegates; kill the oldest."""
        delegates = [p for p in self.device.processes.alive() if p.context.is_delegate]
        for process in sorted(delegates, key=lambda p: p.pid)[: max(0, len(delegates) - w.PROCESS_CAP)]:
            process.kill()

    def _stored(self) -> int:
        """Bytes held across the six backing filesystems, walked as root."""
        branches = self.device.branches
        total = 0
        with self.tracer.paused():
            for fs in (branches.system_fs, branches.pub_fs, branches.extpriv_fs,
                       branches.vol_fs, branches.deleg_fs, branches.ppriv_fs):
                for top, _dirs, files in fs.walk("/", ROOT_CRED):
                    for name in files:
                        total += fs.stat(vpath.join(top, name), ROOT_CRED).size
        return total

    # ------------------------------------------------------------------
    # Timed operations: _call_<kind> issues it, _expect_<kind> checks it
    # ------------------------------------------------------------------

    def _call_launch(self, op):
        app, initiator, action, extras = op[3:7]
        intent = Intent(ACTIONS[action], extras=extras)
        return self.device.launcher.start_as_delegate(app, initiator, intent)

    def _expect_launch(self, op, invocation) -> bool:
        result = invocation.result
        return invocation.process.context.is_delegate and all(
            result.get(k) == v for k, v in op[7].items()
        )

    def _call_read(self, op):
        return self.actor(op[2]).sys.read_file(op[3])

    def _expect_read(self, op, data) -> bool:
        return (len(data), zlib.crc32(data)) == op[4]

    def _call_stat(self, op):
        return self.actor(op[2]).sys.stat(op[3])

    def _expect_stat(self, op, stat) -> bool:
        return stat.size == op[4]

    def _call_readdir(self, op):
        return self.actor(op[2]).sys.listdir(op[3])

    def _expect_readdir(self, op, names) -> bool:
        return sorted(names) == op[4]

    def _call_write(self, op):
        sys = self.actor(op[2]).sys
        sys.makedirs(vpath.parent(op[3]), mode=0o777)
        sys.write_file(op[3], op[4], mode=_mode(op[3]))

    def _call_append(self, op):
        self.actor(op[2]).sys.append_file(op[3], op[4])

    def _call_unlink(self, op):
        self.actor(op[2]).sys.unlink(op[3])

    def _call_rename(self, op):
        self.actor(op[2]).sys.rename(op[3], op[4])

    def _expect_write(self, op, result) -> bool:
        return result is None

    _expect_append = _expect_unlink = _expect_rename = _expect_write

    def _call_query_id(self, op):
        return self.actor(op[2]).query(WORDS_URI.with_appended_id(op[3]), projection=WORD_COLUMNS)

    def _expect_query_id(self, op, result) -> bool:
        return [tuple(r) for r in result.rows] == op[4]

    def _call_query_all(self, op):
        return self.actor(op[2]).query(WORDS_URI, projection=WORD_COLUMNS, order_by="_id")

    def _expect_query_all(self, op, result) -> bool:
        return w.rows_digest(result.rows) == op[3]

    def _call_update(self, op):
        return self.actor(op[2]).update(
            WORDS_URI.with_appended_id(op[3]), ContentValues({"frequency": op[4]})
        )

    def _expect_update(self, op, count) -> bool:
        return count == op[5]

    def _call_insert(self, op):
        return self.actor(op[2]).insert(
            WORDS_URI, ContentValues({"word": op[3], "frequency": op[4]})
        )

    def _expect_insert(self, op, uri) -> bool:
        return uri.row_id == op[5]

    def _call_delete(self, op):
        return self.actor(op[2]).delete(WORDS_URI.with_appended_id(op[3]))

    def _call_delete_media(self, op):
        return self.actor(op[2]).delete(MEDIA_FILES_URI.with_appended_id(op[3]))

    def _expect_delete(self, op, count) -> bool:
        return count == op[4]

    _expect_delete_media = _expect_delete

    def _call_commit(self, op):
        """A reviews Vol(A), commits the chosen files, discards the rest."""
        api = self.apis[op[2]]
        volatile = api.volatile
        listing = volatile.list_files()
        for path in op[3]:
            volatile.commit(path)
        api.clear_my_volatile()
        return listing

    def _expect_commit(self, op, listing) -> bool:
        return listing == op[4]

    def _call_commit_rows(self, op):
        """A reviews its volatile words, commits the chosen ones, discards
        the rest."""
        api = self.apis[op[2]]
        review = _project(api.query(WORDS_URI.to_volatile()), WORD_COLUMNS)
        committed = 0
        if op[4]:
            committed = self.device.user_dictionary.proxy.commit_volatile_batch(
                "words", op[2], op[4]
            )
        api.clear_my_volatile()
        return sorted(review), committed

    def _expect_commit_rows(self, op, result) -> bool:
        review, committed = result
        return review == op[3] and committed == len(op[4])

    def _call_commit_media(self, op):
        """A reviews Vol(A), commits the chosen files and their Media rows,
        discards the rest."""
        api = self.apis[op[2]]
        volatile = api.volatile
        listing = volatile.list_files()
        for path in op[4]:
            volatile.commit(path)
        wanted = set(op[5])
        rows = _project(api.query(MEDIA_FILES_URI.to_volatile()), ["_id", "_data"])
        ids = sorted(k for k, data in rows if data in wanted)
        committed = 0
        if ids:
            committed = self.device.media.proxy.commit_volatile_batch("files", op[2], ids)
        api.clear_my_volatile()
        return listing, committed

    def _expect_commit_media(self, op, result) -> bool:
        listing, committed = result
        return listing == op[3] and committed == len(op[5])

    # ------------------------------------------------------------------
    # Untimed session checks (S1 before the commit, S2 after it)
    # ------------------------------------------------------------------

    def _read_digest(self, api, path):
        try:
            data = api.sys.read_file(path)
        except FileNotFound:
            return None
        return (len(data), zlib.crc32(data))

    def _expect_files(self, readers, expected: Dict[str, object]) -> None:
        for reader in readers:
            api = self.apis[reader]
            for path, want in expected.items():
                got = self._read_digest(api, path)
                if got != want:
                    raise CheckFailed(f"{reader} sees {path} as {got}, expected {want}")

    def _check_check_hidden(self, op) -> None:
        initiator, hidden, tmp, bystanders, priv = op[2], op[3], op[4], op[5], op[6]
        self._expect_files([initiator] + bystanders, hidden)
        self._expect_files([initiator], tmp)
        system_fs = self.device.system_fs
        for path, want in priv.items():
            data = system_fs.read_file(path, ROOT_CRED)
            if (len(data), zlib.crc32(data)) != want:
                raise CheckFailed(f"Priv(B) file {path} changed under its delegate")

    def _check_check_visible(self, op) -> None:
        self._expect_files([op[2]] + op[4], op[3])

    def _check_check_rows(self, op) -> None:
        for reader in op[3]:
            result = self.apis[reader].query(WORDS_URI, projection=WORD_COLUMNS, order_by="_id")
            if w.rows_digest(result.rows) != op[4]:
                raise CheckFailed(f"{reader}'s dictionary differs from the model")

    def _check_check_media(self, op) -> None:
        for reader in op[4]:
            result = self.apis[reader].query(
                MEDIA_FILES_URI, projection=["_id", "_data"], order_by="_id")
            got = [tuple(r) for r in result.rows]
            if got != op[3]:
                raise CheckFailed(f"{reader} sees media rows {got}, expected {op[3]}")

    def _check_clear_priv(self, op) -> None:
        self.device.launcher.clear_priv(op[2])
        for key in [k for k in self.delegates if k.endswith("^" + op[2])]:
            del self.delegates[key]


def peak_rss_mb() -> float:
    """The process's peak resident memory so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _mode(path: str) -> int:
    return 0o666 if path.startswith(w.EXTDIR) else 0o600


def _project(result, columns: List[str]) -> List[tuple]:
    index = [c.lower() for c in result.columns]
    picks = [index.index(c) for c in columns]
    return [tuple(row[i] for i in picks) for row in result.rows]
