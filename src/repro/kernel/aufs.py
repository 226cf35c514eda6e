"""A from-scratch union filesystem modelled on Aufs.

The paper (section 4.2) builds Maxoid's custom views of files on Aufs: a
union mount presents several *branches* (directories in underlying
filesystems) as a single tree. The branch with the highest priority wins on
name collisions; if only one branch is writable, all writes are confined to
it, and modifying a file that lives in a read-only branch first *copies it
up* into the writable branch. Deleting a file that exists in a read-only
branch leaves a *whiteout* marker in the writable branch so the name
disappears from the merged view.

This module implements those semantics:

- ordered branches, each ``(filesystem, root-subdirectory, writable?)``;
- per-file copy-on-write via copy-up on the first write/append/truncate;
- whiteouts (``.wh.<name>``) and opaque directories (``.wh..wh..opq``) for
  deletions that must mask lower branches;
- the Maxoid modification: ``always_allow_read=True`` lets a mount bypass
  lower-branch permission checks, which is how a delegate (different UID)
  reads its initiator's private files. Maxoid only creates such mounts when
  policy allows the access, and apps cannot mount Aufs themselves once
  Zygote drops root (paper section 4.2). The same flag permits the copy-up
  that redirects a delegate's write into its own writable branch.

Branch-internal operations run as root: in the real system the branch
directories live in paths only root can reach, and apps can only touch them
through the mount point, where the union enforces the merged view's checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from repro.errors import (
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    IsADirectory,
    NotADirectory,
    PermissionDenied,
    ReadOnlyFilesystem,
)
from repro.faults import FAULTS as _FAULTS
from repro.kernel import path as vpath
from repro.obs import DEFAULT_BYTE_BUCKETS, OBS as _OBS
from repro.kernel.vfs import (
    Credentials,
    FileHandle,
    Filesystem,
    FilesystemAPI,
    Inode,
    InodeKind,
    ROOT_CRED,
    Stat,
)
from repro.sched import SCHED as _SCHED
from repro.sched.locks import RWLock

WHITEOUT_PREFIX = ".wh."
OPAQUE_MARKER = ".wh..wh..opq"
#: Copy-up staging name. The ``.wh.`` prefix keeps in-flight temp files out
#: of the merged readdir view, so a crash mid-copy-up never exposes a torn
#: partial file through the union; recovery just purges leftovers.
COPYUP_TMP_PREFIX = ".wh..wh.cpup."


@dataclass
class Branch:
    """One layer of a union mount.

    ``fs`` is the backing filesystem, ``root`` the subdirectory within it
    that this branch exposes, and ``writable`` whether writes may land here.
    At most one branch of a mount may be writable (as in the paper's mounts,
    Table 2).
    """

    fs: Filesystem
    root: str = "/"
    writable: bool = False
    label: str = ""

    def __post_init__(self) -> None:
        self.root = vpath.canonical(self.root)

    def path(self, union_path: str) -> str:
        """Translate a canonical union path into this branch's filesystem."""
        return vpath.graft(self.root, union_path)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        rw = "rw" if self.writable else "ro"
        return f"<Branch {self.label or self.root} ({rw})>"


def _split_last(union_path: str) -> Tuple[str, str]:
    """``(parent, name)`` of a canonical path (``("/", "")`` for the root)."""
    head, _, name = union_path.rpartition("/")
    return head or "/", name


def _whiteout_path(branch: Branch, union_path: str) -> str:
    parent, name = _split_last(union_path)
    return vpath.child(branch.path(parent), WHITEOUT_PREFIX + name)


def _descend(branch: Branch, parts: Sequence[str]) -> Tuple[Optional[Inode], bool]:
    """Walk one branch toward the union path ``parts``, once.

    Returns ``(inode, masks)``: the branch's inode at the path (None when
    the branch lacks it), and whether the branch masks the path in every
    lower branch. A branch masks a path when, at some depth along the part
    of the path it holds as directories, it has a whiteout for the next
    component, holds that component as a file although the path goes on
    below it, or holds it as an opaque directory. Branch-internal, so no
    permission applies (the branch is read as root).
    """
    node = branch.fs.root
    # The root is canonical (Branch.__post_init__), so a plain split gives
    # its components. They are not kept on the Branch: every live process
    # holds its mounts' branches, and a stored tuple each shows in memory.
    if branch.root != "/":
        for name in branch.root[1:].split("/"):
            node = node.children.get(name)
            if node is None:
                return None, False
    masks = False
    last = len(parts) - 1
    for depth, name in enumerate(parts):
        children = node.children
        if WHITEOUT_PREFIX + name in children:
            masks = True
        node = children.get(name)
        if node is None:
            return None, masks
        if depth < last:
            if node.kind is not InodeKind.DIR:
                # A file in an upper branch shadows lower directories.
                return None, True
            if OPAQUE_MARKER in node.children:
                masks = True
    return node, masks


class _AufsFileHandle(FileHandle):
    """File handle that counts copy-up work for the performance model."""


class AufsMount(FilesystemAPI):
    """A union of branches presented as a single filesystem.

    Branches are ordered highest-priority first. Statistics counters
    (``copy_up_count``, ``copy_up_bytes``, ``lookup_branches_scanned``)
    feed the reproduction's latency model: the paper's Table 3 delegate
    overheads come precisely from multi-branch lookups and copy-up.
    """

    def __init__(
        self,
        branches: List[Branch],
        *,
        always_allow_read: bool = False,
        label: str = "",
        obs: Optional[Any] = None,
    ) -> None:
        if not branches:
            raise ValueError("an Aufs mount needs at least one branch")
        writable = [i for i, b in enumerate(branches) if b.writable]
        if len(writable) > 1:
            raise ValueError("at most one writable branch is supported")
        self.branches = list(branches)
        self._writable_index: Optional[int] = writable[0] if writable else None
        self.always_allow_read = always_allow_read
        self.label = label
        self.copy_up_count = 0
        self.copy_up_bytes = 0
        self.lookup_branches_scanned = 0
        # The owning device's observability context (the branch manager
        # passes its device's handle; bare mounts fall back to OBS).
        self.obs = obs if obs is not None else _OBS
        self.rwlock = RWLock(f"aufs:{label or 'union'}")
        for branch in self.branches:
            if not branch.fs.exists(branch.root, ROOT_CRED):
                branch.fs.mkdir(branch.root, ROOT_CRED, parents=True)
        # Single-branch mounts (every initiator mount, Table 2) take a
        # passthrough fast path: no whiteout/masking machinery can apply,
        # which is how the paper gets "no overhead for initiators".
        self._single = self.branches[0] if len(self.branches) == 1 else None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<AufsMount {self.label} branches={self.branches!r}>"

    @property
    def writable_branch(self) -> Optional[Branch]:
        if self._writable_index is None:
            return None
        return self.branches[self._writable_index]

    # ------------------------------------------------------------------
    # Visibility
    # ------------------------------------------------------------------

    def _locate(self, parts: Sequence[str]) -> Tuple[int, Optional[Inode]]:
        """The topmost visible instance of the union path ``parts``.

        Returns ``(branch_index, inode)``, or ``(-1, None)`` when the path
        is not visible. Each branch is descended once, top first, until
        one holds the path; it is visible unless a branch above masks it
        (see :func:`_descend`). ``lookup_branches_scanned`` counts the
        branches descended.
        """
        if self.obs.enabled:
            self.obs.metrics.count("aufs.lookup")
        masked = False
        for index, branch in enumerate(self.branches):
            self.lookup_branches_scanned += 1
            if self.obs.enabled:
                self.obs.metrics.count("aufs.lookup.branches_scanned")
            node, masks = _descend(branch, parts)
            if node is not None:
                # Higher branches mask everything below; nothing further
                # down can be visible either.
                return (-1, None) if masked else (index, node)
            masked = masked or masks
        return -1, None

    def _find(self, union_path: str) -> Tuple[int, Inode]:
        """:meth:`_locate` for a canonical path; raises FileNotFound."""
        index, node = self._locate(vpath.split(union_path))
        if node is None:
            raise FileNotFound(union_path)
        return index, node

    def _held_below(self, parts: Sequence[str], start: int) -> bool:
        """True if any branch from ``start`` down holds the path."""
        return any(
            _descend(branch, parts)[0] is not None for branch in self.branches[start:]
        )

    def _check_access(self, node: Inode, cred: Credentials, want: int) -> None:
        """Enforce the merged view's permission bits.

        Reads (and the copy-up that precedes a redirected write) are exempt
        when ``always_allow_read`` is set — the Maxoid Aufs patch.
        """
        if not self.always_allow_read and not node.permits(cred, want):
            raise PermissionDenied(f"access {want:o} denied (mode {node.mode:o})")

    # ------------------------------------------------------------------
    # Write plumbing
    # ------------------------------------------------------------------

    def _require_writable(self) -> Branch:
        branch = self.writable_branch
        if branch is None:
            raise ReadOnlyFilesystem(self.label or "no writable branch")
        return branch

    def _ensure_parents(self, union_path: str) -> None:
        """Replicate the ancestor directory chain into the writable branch."""
        branch = self._require_writable()
        partial = "/"
        for component in vpath.split(union_path)[:-1]:
            partial = vpath.child(partial, component)
            target = branch.path(partial)
            if not branch.fs.exists(target, ROOT_CRED):
                # The directory must be visible in the union for the write
                # to be legal; copy its mode from the visible instance.
                index, stat = self._find(partial)
                if not stat.is_dir:
                    raise NotADirectory(partial)
                branch.fs.mkdir(target, ROOT_CRED, mode=stat.mode)
                branch.fs.chown(target, stat.uid, gid=stat.gid)

    def _drop_whiteout(self, union_path: str) -> None:
        branch = self._require_writable()
        whiteout = _whiteout_path(branch, union_path)
        if branch.fs.exists(whiteout, ROOT_CRED):
            branch.fs.unlink(whiteout, ROOT_CRED)

    def _copy_up(self, union_path: str, source_index: int, cred: Credentials) -> None:
        """Copy a lower-branch file into the writable branch (copy-on-write).

        The copy is owned by the writer, matching Maxoid's redirect
        semantics: after copy-up the delegate owns its private copy.
        """
        if self.obs.enabled:
            with self.obs.tracer.span(
                "aufs.copy_up", mount=self.label, path=union_path
            ) as span:
                self._copy_up_impl(union_path, source_index, cred, span)
            return
        self._copy_up_impl(union_path, source_index, cred, None)

    def _copy_up_impl(self, union_path, source_index, cred, span) -> None:
        if _FAULTS.enabled:
            _FAULTS.hit(
                "aufs.copy_up",
                mount=self.label,
                path=union_path,
                device_id=self.obs.device_id,
            )
        if _SCHED.enabled:
            with self.rwlock.write():
                _SCHED.yield_point(
                    "aufs.copy_up",
                    path=union_path,
                    resource=f"file:{union_path}",
                    rw="w",
                )
                return self._copy_up_body(union_path, source_index, cred, span)
        return self._copy_up_body(union_path, source_index, cred, span)

    def _copy_up_body(self, union_path, source_index, cred, span) -> None:
        branch = self._require_writable()
        source = self.branches[source_index]
        data = source.fs.read_file(source.path(union_path), ROOT_CRED)
        stat = source.fs.stat(source.path(union_path), ROOT_CRED)
        self._ensure_parents(union_path)
        self._drop_whiteout(union_path)
        target = branch.path(union_path)
        # Crash-atomic: stage the copy under a whiteout-prefixed temp name
        # (invisible through the union), then publish it with an atomic
        # rename — a crash at any intermediate point leaves either the old
        # view or the new one, never a torn file.
        parent, name = _split_last(union_path)
        staging = vpath.child(branch.path(parent), COPYUP_TMP_PREFIX + name)
        branch.fs.write_file(staging, data, ROOT_CRED, mode=stat.mode | 0o600)
        branch.fs.chown(staging, cred.uid, gid=cred.gid)
        if _FAULTS.enabled:
            _FAULTS.hit(
                "aufs.copy_up.publish",
                mount=self.label,
                path=union_path,
                device_id=self.obs.device_id,
            )
        if _SCHED.enabled:
            _SCHED.yield_point("aufs.copy_up.publish", path=union_path)
        branch.fs.rename(staging, target, ROOT_CRED)
        if self.obs.prov:
            self.obs.provenance.copy_up(
                stat.ino,
                branch.fs.stat(target, ROOT_CRED).ino,
                union_path,
                mount=self.label,
            )
        self.copy_up_count += 1
        self.copy_up_bytes += len(data)
        if span is not None:
            span.set(bytes=len(data), branch=branch.label or branch.root)
            self.obs.metrics.count("aufs.copy_up")
            self.obs.metrics.count("aufs.copy_up.bytes", len(data))
            self.obs.metrics.observe("aufs.copy_up.size", len(data), DEFAULT_BYTE_BUCKETS)

    def _copy_up_tree(self, union_path: str, cred: Credentials) -> None:
        """Recursively materialize a visible subtree in the writable branch."""
        index, stat = self._find(union_path)
        if stat.is_file:
            if not self.branches[index].writable:
                self._copy_up(union_path, index, cred)
            return
        branch = self._require_writable()
        target = branch.path(union_path)
        if not branch.fs.exists(target, ROOT_CRED):
            self._ensure_parents(union_path)
            self._drop_whiteout(union_path)
            branch.fs.mkdir(target, ROOT_CRED, mode=stat.mode)
        for name in self.readdir(union_path, ROOT_CRED):
            self._copy_up_tree(vpath.child(union_path, name), cred)

    # ------------------------------------------------------------------
    # FilesystemAPI
    # ------------------------------------------------------------------

    def stat(self, path: str, cred: Credentials) -> Stat:
        """Stat the topmost visible instance of ``path``."""
        path = vpath.canonical(path)
        if self._single is not None:
            return self._single.fs.stat(self._single.path(path), ROOT_CRED)
        return self._find(path)[1].stat()

    def exists(self, path: str, cred: Credentials) -> bool:
        path = vpath.canonical(path)
        if self._single is not None:
            return self._single.fs.exists(self._single.path(path), ROOT_CRED)
        return self._locate(vpath.split(path))[1] is not None

    def open(
        self,
        path: str,
        cred: Credentials,
        *,
        read: bool = True,
        write: bool = False,
        create: bool = False,
        truncate: bool = False,
        append: bool = False,
        exclusive: bool = False,
        mode: int = 0o644,
    ) -> FileHandle:
        if self.obs.enabled:
            wb = self.writable_branch
            with self.obs.tracer.span(
                "aufs.open",
                mount=self.label,
                path=path,
                write=write or truncate or append,
                writable_branch=(wb.label or wb.root) if wb is not None else None,
                writable_root=wb.root if wb is not None else None,
            ):
                self.obs.metrics.count("aufs.open")
                return self._open_impl(
                    path,
                    cred,
                    read=read,
                    write=write,
                    create=create,
                    truncate=truncate,
                    append=append,
                    exclusive=exclusive,
                    mode=mode,
                )
        return self._open_impl(
            path,
            cred,
            read=read,
            write=write,
            create=create,
            truncate=truncate,
            append=append,
            exclusive=exclusive,
            mode=mode,
        )

    def _open_impl(
        self,
        path: str,
        cred: Credentials,
        *,
        read: bool = True,
        write: bool = False,
        create: bool = False,
        truncate: bool = False,
        append: bool = False,
        exclusive: bool = False,
        mode: int = 0o644,
    ) -> FileHandle:
        path = vpath.canonical(path)
        wants_write = write or truncate or append
        if self._single is not None and self._single.writable:
            target = self._single.path(path)
            fresh = create and not self._single.fs.exists(target, ROOT_CRED)
            handle = self._single.fs.open(
                target,
                ROOT_CRED,
                read=read,
                write=write,
                create=create,
                truncate=truncate,
                append=append,
                exclusive=exclusive,
                mode=mode,
            )
            if fresh:
                self._single.fs.chown(target, cred.uid, gid=cred.gid)
            return handle
        index, node = self._locate(vpath.split(path))
        if node is None:
            if not create:
                raise FileNotFound(path)
            branch = self._require_writable()
            self._ensure_parents(path)
            self._drop_whiteout(path)
            target = branch.path(path)
            handle = branch.fs.open(
                target,
                ROOT_CRED,
                read=read,
                write=True,
                create=True,
                truncate=truncate,
                append=append,
                mode=mode,
            )
            branch.fs.chown(target, cred.uid, gid=cred.gid)
            return handle
        if exclusive and create:
            raise FileExists(path)
        if node.is_dir:
            raise IsADirectory(path)
        if read:
            self._check_access(node, cred, 0o4)
        if wants_write:
            self._check_access(node, cred, 0o2)
            if not self.branches[index].writable:
                self._copy_up(path, index, cred)
                index = self._writable_index  # type: ignore[assignment]
        branch = self.branches[index]
        return branch.fs.open(
            branch.path(path),
            ROOT_CRED,
            read=read,
            write=wants_write and not append,
            truncate=truncate,
            append=append,
        )

    def mkdir(self, path: str, cred: Credentials, mode: int = 0o755, parents: bool = False) -> None:
        path = vpath.canonical(path)
        if self._single is not None and self._single.writable:
            self._single.fs.mkdir(self._single.path(path), ROOT_CRED, mode=mode, parents=parents)
            return
        branch = self._require_writable()
        if parents:
            partial = "/"
            for component in vpath.split(path):
                partial = vpath.child(partial, component)
                if not self.exists(partial, cred):
                    self.mkdir(partial, cred, mode=mode, parents=False)
            return
        if self.exists(path, cred):
            raise FileExists(path)
        had_whiteout = branch.fs.exists(_whiteout_path(branch, path), ROOT_CRED)
        self._ensure_parents(path)
        self._drop_whiteout(path)
        target = branch.path(path)
        branch.fs.mkdir(target, ROOT_CRED, mode=mode)
        branch.fs.chown(target, cred.uid, gid=cred.gid)
        if had_whiteout:
            # The name was deleted earlier; the fresh directory must not let
            # stale lower-branch entries show through.
            branch.fs.write_file(vpath.child(target, OPAQUE_MARKER), b"", ROOT_CRED)

    def readdir(self, path: str, cred: Credentials) -> List[str]:
        path = vpath.canonical(path)
        if self._single is not None:
            return self._single.fs.readdir(self._single.path(path), ROOT_CRED)
        parts = vpath.split(path)
        index, node = self._locate(parts)
        if node is None:
            raise FileNotFound(path)
        if not node.is_dir:
            raise NotADirectory(path)
        self._check_access(node, cred, 0o4)
        names: List[str] = []
        seen = set()
        hidden = set()
        # Whether a branch above the current one masks the path.
        masked = False
        for i in range(index, len(self.branches)):
            branch_dir, masks = _descend(self.branches[i], parts)
            if branch_dir is None:
                masked = masked or masks
                continue
            if not branch_dir.is_dir:
                break
            if masked:
                break
            masked = masks
            opaque = False
            for name in sorted(branch_dir.children):
                if name == OPAQUE_MARKER:
                    opaque = True
                    continue
                if name.startswith(WHITEOUT_PREFIX):
                    hidden.add(name[len(WHITEOUT_PREFIX) :])
                    continue
                if name not in seen and name not in hidden:
                    seen.add(name)
                    names.append(name)
            if opaque:
                break
        return sorted(names)

    def unlink(self, path: str, cred: Credentials) -> None:
        path = vpath.canonical(path)
        if self._single is not None and self._single.writable:
            self._single.fs.unlink(self._single.path(path), ROOT_CRED)
            return
        index, node = self._find(path)
        if node.is_dir:
            raise IsADirectory(path)
        self._check_access(node, cred, 0o2)
        branch = self._require_writable()
        if self.branches[index].writable:
            branch.fs.unlink(branch.path(path), ROOT_CRED)
            index += 1
        # If the name still exists in any lower branch, mask it.
        if self._held_below(vpath.split(path), index):
            self._ensure_parents(path)
            branch.fs.write_file(_whiteout_path(branch, path), b"", ROOT_CRED)

    def rmdir(self, path: str, cred: Credentials) -> None:
        path = vpath.canonical(path)
        index, node = self._find(path)
        if not node.is_dir:
            raise NotADirectory(path)
        if self.readdir(path, ROOT_CRED):
            raise DirectoryNotEmpty(path)
        self._check_access(node, cred, 0o2)
        branch = self._require_writable()
        if self.branches[index].writable:
            target = branch.path(path)
            opaque = vpath.child(target, OPAQUE_MARKER)
            if branch.fs.exists(opaque, ROOT_CRED):
                branch.fs.unlink(opaque, ROOT_CRED)
            for name in list(branch.fs.readdir(target, ROOT_CRED)):
                branch.fs.unlink(vpath.child(target, name), ROOT_CRED)
            branch.fs.rmdir(target, ROOT_CRED)
            index += 1
        if self._held_below(vpath.split(path), index):
            self._ensure_parents(path)
            branch.fs.write_file(_whiteout_path(branch, path), b"", ROOT_CRED)

    def rename(self, old: str, new: str, cred: Credentials) -> None:
        """Rename within the union.

        Implemented as copy-up of the source into the writable branch at the
        new name, then deletion of the old name — the strategy real union
        filesystems use when the source lives in a read-only branch.
        """
        old = vpath.canonical(old)
        new = vpath.canonical(new)
        index, node = self._find(old)
        self._check_access(node, cred, 0o2)
        branch = self._require_writable()
        if node.is_file:
            data = self.read_file(old, ROOT_CRED)
            self._ensure_parents(new)
            self._drop_whiteout(new)
            target = branch.path(new)
            branch.fs.write_file(target, data, ROOT_CRED, mode=node.mode)
            branch.fs.chown(target, cred.uid, gid=cred.gid)
            self.unlink(old, cred)
            return
        # Directory rename: materialize the subtree under the new name.
        self._copy_up_tree(old, cred)
        source_root = branch.path(old)
        self._ensure_parents(new)
        self._drop_whiteout(new)
        branch.fs.rename(source_root, branch.path(new), ROOT_CRED)
        old_parts = vpath.split(old)
        still_visible = any(
            _descend(b, old_parts)[0] is not None for b in self.branches if not b.writable
        )
        if still_visible:
            branch.fs.write_file(_whiteout_path(branch, old), b"", ROOT_CRED)

    # ------------------------------------------------------------------
    # Introspection (used by the branch manager and the benchmarks)
    # ------------------------------------------------------------------

    def describe(self) -> List[str]:
        """Human-readable branch list, highest priority first."""
        out = []
        for branch in self.branches:
            rw = "rw" if branch.writable else "ro"
            out.append(f"{branch.label or branch.root}({rw})")
        return out

    def reset_counters(self) -> None:
        """Zero the copy-up/lookup statistics counters."""
        self.copy_up_count = 0
        self.copy_up_bytes = 0
        self.lookup_branches_scanned = 0


def purge_copyup_temps(fs: Filesystem) -> List[str]:
    """Remove orphaned copy-up staging files from a branch filesystem.

    A crash between the staging write and the publishing rename leaves a
    ``.wh..wh.cpup.*`` file behind; it is invisible through the union but
    still occupies space. ``Device.recover()`` calls this on every branch
    store. Returns the paths removed.
    """
    removed: List[str] = []
    stack = ["/"]
    while stack:
        current = stack.pop()
        for name in list(fs.readdir(current, ROOT_CRED)):
            child = vpath.child(current, name)
            if fs.stat(child, ROOT_CRED).is_dir:
                stack.append(child)
            elif name.startswith(COPYUP_TMP_PREFIX):
                fs.unlink(child, ROOT_CRED)
                removed.append(child)
    return removed
