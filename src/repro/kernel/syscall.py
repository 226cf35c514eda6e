"""The syscall layer: filesystem operations bound to a process.

Every simulated app performs file I/O through a :class:`Syscalls` object,
which resolves paths through the *process's own* mount namespace with the
process's credentials. This is the choke point that makes Maxoid's view
switching transparent: the same ``open("/storage/sdcard/doc.pdf")`` reaches
a different filesystem depending on which process issued it.

Open flags mirror POSIX names (``O_RDONLY`` etc.) so simulated app code
reads naturally.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Iterator, List, Optional

from repro.errors import CrossDeviceLink, NoSuchProcess
from repro.faults import FAULTS as _FAULTS
from repro.kernel import path as vpath
from repro.kernel.proc import Process
from repro.kernel.vfs import FileHandle, Stat
from repro.obs import DEFAULT_BYTE_BUCKETS
from repro.sched import SCHED as _SCHED

O_RDONLY = 0x0
O_WRONLY = 0x1
O_RDWR = 0x2
O_CREAT = 0x40
O_EXCL = 0x80
O_TRUNC = 0x200
O_APPEND = 0x400


class Syscalls:
    """File-related syscalls for one process."""

    def __init__(self, process: Process) -> None:
        self.process = process
        # The owning device's observability context, resolved through the
        # process this syscall table acts for (one load + branch when off).
        self.obs = process.obs

    def _check_alive(self) -> None:
        if not self.process.alive:
            raise NoSuchProcess(f"pid {self.process.pid} has exited")

    # ------------------------------------------------------------------

    def open(self, path: str, flags: int = O_RDONLY, mode: int = 0o644) -> FileHandle:
        """Open ``path`` with POSIX-style ``flags``; returns a file handle."""
        if self.obs.enabled:
            with self.obs.tracer.span(
                "vfs.open", ctx=str(self.process.context), path=path, flags=flags
            ):
                self.obs.metrics.count("vfs.open")
                return self._open_impl(path, flags, mode)
        return self._open_impl(path, flags, mode)

    @contextmanager
    def _io_locks(self, path: str, write: bool) -> Iterator[None]:
        """Scheduler-mode lock discipline for whole-file I/O: the mount
        namespace's read lock around resolution, then the resolved
        filesystem's rwlock in the I/O mode — the canonical ns -> fs
        acquisition order the lock-order checker validates."""
        namespace = self.process.namespace
        ns_lock = getattr(namespace, "rwlock", None)
        with ns_lock.read() if ns_lock is not None else nullcontext():
            fs, _inner = namespace.resolve(path)
            fs_lock = getattr(fs, "rwlock", None)
            if fs_lock is None:
                yield
            else:
                with fs_lock.write() if write else fs_lock.read():
                    yield

    def _open_impl(self, path: str, flags: int, mode: int) -> FileHandle:
        self._check_alive()
        if _SCHED.enabled:
            accmode = flags & 0o3
            is_write = bool(accmode or flags & (O_CREAT | O_TRUNC | O_APPEND))
            # Yield *inside* the lock scope so the access annotation
            # reflects the locks actually protecting the operation.
            with self._io_locks(path, write=is_write):
                _SCHED.yield_point(
                    "vfs.open",
                    path=path,
                    resource=f"file:{path}",
                    rw="w" if is_write else "r",
                )
                return self._open_locked(path, flags, mode)
        return self._open_locked(path, flags, mode)

    def _open_locked(self, path: str, flags: int, mode: int) -> FileHandle:
        fs, inner = self.process.namespace.resolve(path)
        accmode = flags & 0o3
        read = accmode in (O_RDONLY, O_RDWR)
        write = accmode in (O_WRONLY, O_RDWR)
        if self.obs.prov:
            # Copy-up may fire inside fs.open(); the actor stack tells the
            # ledger which process the copied data is flowing on behalf of.
            self.obs.provenance.push_actor(str(self.process.context), self.process.pid)
            try:
                return self._fs_open(fs, inner, read, write, flags, mode)
            finally:
                self.obs.provenance.pop_actor()
        return self._fs_open(fs, inner, read, write, flags, mode)

    def _fs_open(self, fs, inner: str, read: bool, write: bool, flags: int, mode: int) -> FileHandle:
        return fs.open(
            inner,
            self.process.cred,
            read=read,
            write=write,
            create=bool(flags & O_CREAT),
            truncate=bool(flags & O_TRUNC),
            append=bool(flags & O_APPEND),
            exclusive=bool(flags & O_EXCL),
            mode=mode,
        )

    def stat(self, path: str) -> Stat:
        self._check_alive()
        fs, inner = self.process.namespace.resolve(path)
        return fs.stat(inner, self.process.cred)

    def exists(self, path: str) -> bool:
        self._check_alive()
        fs, inner = self.process.namespace.resolve(path)
        return fs.exists(inner, self.process.cred)

    def mkdir(self, path: str, mode: int = 0o755, parents: bool = False) -> None:
        self._check_alive()
        fs, inner = self.process.namespace.resolve(path)
        fs.mkdir(inner, self.process.cred, mode=mode, parents=parents)

    def listdir(self, path: str) -> List[str]:
        self._check_alive()
        fs, inner = self.process.namespace.resolve(path)
        return fs.readdir(inner, self.process.cred)

    def unlink(self, path: str) -> None:
        self._check_alive()
        fs, inner = self.process.namespace.resolve(path)
        fs.unlink(inner, self.process.cred)

    def rmdir(self, path: str) -> None:
        self._check_alive()
        fs, inner = self.process.namespace.resolve(path)
        fs.rmdir(inner, self.process.cred)

    def rename(self, old: str, new: str) -> None:
        """Rename; raises EXDEV when old and new live on different mounts."""
        self._check_alive()
        old_fs, old_inner = self.process.namespace.resolve(old)
        new_fs, new_inner = self.process.namespace.resolve(new)
        if old_fs is not new_fs:
            raise CrossDeviceLink(f"{old} and {new} are on different mounts")
        old_fs.rename(old_inner, new_inner, self.process.cred)

    # -- convenience wrappers -------------------------------------------

    def read_file(self, path: str) -> bytes:
        if self.obs.enabled:
            with self.obs.tracer.span(
                "vfs.read", ctx=str(self.process.context), path=path
            ) as span:
                data = self._read_file_impl(path)
                span.set(bytes=len(data))
                self.obs.metrics.count("vfs.read")
                self.obs.metrics.observe("vfs.read.bytes", len(data), DEFAULT_BYTE_BUCKETS)
                return data
        return self._read_file_impl(path)

    def _read_file_impl(self, path: str) -> bytes:
        if _SCHED.enabled:
            with self._io_locks(path, write=False):
                _SCHED.yield_point(
                    "vfs.read", path=path, resource=f"file:{path}", rw="r"
                )
                return self._read_file_body(path)
        return self._read_file_body(path)

    def _read_file_body(self, path: str) -> bytes:
        with self.open(path, O_RDONLY) as handle:
            data = handle.read()
            if self.obs.prov:
                self.obs.provenance.read(
                    self.process.pid, str(self.process.context), path, ino=handle.ino
                )
            return data

    def write_file(self, path: str, data: bytes, mode: int = 0o644) -> None:
        if _FAULTS.enabled:
            _FAULTS.hit(
                "vfs.write",
                ctx=str(self.process.context),
                path=path,
                device_id=self.obs.device_id,
            )
        if self.obs.enabled:
            with self.obs.tracer.span(
                "vfs.write", ctx=str(self.process.context), path=path, bytes=len(data)
            ):
                self.obs.metrics.count("vfs.write")
                self.obs.metrics.observe("vfs.write.bytes", len(data), DEFAULT_BYTE_BUCKETS)
                return self._write_file_impl(path, data, mode)
        return self._write_file_impl(path, data, mode)

    def _write_file_impl(self, path: str, data: bytes, mode: int = 0o644) -> None:
        if _SCHED.enabled:
            with self._io_locks(path, write=True):
                _SCHED.yield_point(
                    "vfs.write", path=path, resource=f"file:{path}", rw="w"
                )
                return self._write_file_body(path, data, mode)
        return self._write_file_body(path, data, mode)

    def _write_file_body(self, path: str, data: bytes, mode: int = 0o644) -> None:
        with self.open(path, O_WRONLY | O_CREAT | O_TRUNC, mode=mode) as handle:
            handle.write(data)
            if self.obs.prov:
                self.obs.provenance.write(
                    self.process.pid, str(self.process.context), path, ino=handle.ino
                )

    def append_file(self, path: str, data: bytes) -> None:
        if _FAULTS.enabled:
            _FAULTS.hit(
                "vfs.write",
                ctx=str(self.process.context),
                path=path,
                device_id=self.obs.device_id,
            )
        if self.obs.enabled:
            with self.obs.tracer.span(
                "vfs.write", ctx=str(self.process.context), path=path,
                bytes=len(data), append=True,
            ):
                self.obs.metrics.count("vfs.write")
                self.obs.metrics.observe("vfs.write.bytes", len(data), DEFAULT_BYTE_BUCKETS)
                return self._append_file_impl(path, data)
        return self._append_file_impl(path, data)

    def _append_file_impl(self, path: str, data: bytes) -> None:
        if _SCHED.enabled:
            with self._io_locks(path, write=True):
                _SCHED.yield_point(
                    "vfs.write", path=path, resource=f"file:{path}", rw="w"
                )
                return self._append_file_body(path, data)
        return self._append_file_body(path, data)

    def _append_file_body(self, path: str, data: bytes) -> None:
        with self.open(path, O_WRONLY | O_APPEND) as handle:
            handle.write(data)
            if self.obs.prov:
                self.obs.provenance.write(
                    self.process.pid, str(self.process.context), path, ino=handle.ino
                )

    def copy_file(self, src: str, dst: str, mode: int = 0o644) -> None:
        self.write_file(dst, self.read_file(src), mode=mode)

    def makedirs(self, path: str, mode: int = 0o755) -> None:
        """mkdir -p: create ``path`` and any missing ancestors."""
        self.mkdir(path, mode=mode, parents=True)

    def walk_files(self, top: str) -> List[str]:
        """All file paths under ``top`` (depth-first, sorted)."""
        found: List[str] = []
        stack = [vpath.normalize(top)]
        while stack:
            current = stack.pop()
            for name in sorted(self.listdir(current), reverse=True):
                child = vpath.child(current, name)
                if self.stat(child).is_dir:
                    stack.append(child)
                else:
                    found.append(child)
        return sorted(found)
