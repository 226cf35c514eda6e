"""The Priv(B) version stamp that decides when nPriv(B^A) is re-forked.

``BranchManager.priv_version`` walks Priv(B)'s inodes directly. The
reference below is the path-by-path walk it replaced: stat the root, then
readdir and stat every entry by its full path. Both must give the same
stamp after every change to Priv(B), and reads must never move it.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.android.storage import DATA_ROOT
from repro.core.branches import BranchManager
from repro.errors import KernelError
from repro.kernel import path as vpath
from repro.kernel.vfs import Filesystem, ROOT_CRED

B = "com.example.b"
PRIV = f"{DATA_ROOT}/{B}"

DIRS = ["", "d", "d/e", "d/e/f", "g", "g/h"]
NAMES = ["x", "y"]


def path_walk_version(fs: Filesystem, root: str) -> int:
    """The stamp as the path-walking implementation computed it."""
    if not fs.exists(root, ROOT_CRED):
        return 0
    newest = fs.stat(root, ROOT_CRED).mtime
    stack = [root]
    while stack:
        current = stack.pop()
        for name in fs.readdir(current, ROOT_CRED):
            child = vpath.join(current, name)
            stat = fs.stat(child, ROOT_CRED)
            newest = max(newest, stat.mtime)
            if stat.is_dir:
                stack.append(child)
    return newest


def _file(directory, name):
    return vpath.join(PRIV, directory, name)


op = st.one_of(
    st.tuples(st.just("write"), st.sampled_from(DIRS), st.sampled_from(NAMES), st.binary(max_size=8)),
    st.tuples(st.just("append"), st.sampled_from(DIRS), st.sampled_from(NAMES), st.binary(max_size=8)),
    st.tuples(st.just("unlink"), st.sampled_from(DIRS), st.sampled_from(NAMES)),
    st.tuples(
        st.just("rename"),
        st.sampled_from(DIRS),
        st.sampled_from(NAMES),
        st.sampled_from(DIRS),
        st.sampled_from(NAMES),
    ),
    st.tuples(st.just("mkdir"), st.sampled_from(DIRS[1:])),
    st.tuples(st.just("read"), st.sampled_from(DIRS), st.sampled_from(NAMES)),
)


def apply(fs: Filesystem, step) -> None:
    kind = step[0]
    if kind == "write":
        fs.write_file(_file(step[1], step[2]), step[3], ROOT_CRED)
    elif kind == "append":
        fs.append_file(_file(step[1], step[2]), step[3], ROOT_CRED)
    elif kind == "unlink":
        fs.unlink(_file(step[1], step[2]), ROOT_CRED)
    elif kind == "rename":
        fs.rename(_file(step[1], step[2]), _file(step[3], step[4]), ROOT_CRED)
    elif kind == "mkdir":
        fs.mkdir(vpath.join(PRIV, step[1]), ROOT_CRED, parents=True)
    else:
        fs.read_file(_file(step[1], step[2]), ROOT_CRED)


def read_everything(fs: Filesystem) -> None:
    """Every read-only operation, over the whole of Priv(B)."""
    for top, dirnames, filenames in fs.walk(PRIV, ROOT_CRED):
        fs.readdir(top, ROOT_CRED)
        for name in filenames:
            fs.read_file(vpath.join(top, name), ROOT_CRED)
            fs.stat(vpath.join(top, name), ROOT_CRED)
        for name in dirnames:
            fs.exists(vpath.join(top, name), ROOT_CRED)
    fs.tree_size(PRIV)


def fresh_manager() -> BranchManager:
    system_fs = Filesystem(label="system")
    system_fs.mkdir(PRIV, ROOT_CRED, parents=True)
    return BranchManager(system_fs)


class TestPrivVersion:
    def test_missing_tree_is_version_zero(self):
        manager = BranchManager(Filesystem(label="system"))
        assert manager.priv_version(B) == 0

    def test_overwrite_deep_in_the_tree_moves_the_stamp(self):
        # Overwriting an existing file touches only that file's inode, so
        # a walk that stops short of the file's depth misses it.
        manager = fresh_manager()
        fs = manager.system_fs
        fs.mkdir(f"{PRIV}/d/e", ROOT_CRED, parents=True)
        fs.write_file(f"{PRIV}/d/e/x", b"1", ROOT_CRED)
        before = manager.priv_version(B)
        fs.write_file(f"{PRIV}/d/e/x", b"2", ROOT_CRED)
        after = manager.priv_version(B)
        assert after > before
        assert after == path_walk_version(fs, PRIV)

    @given(steps=st.lists(op, max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_path_walk_after_every_step(self, steps):
        manager = fresh_manager()
        fs = manager.system_fs
        # Unrelated trees beside Priv(B) never count.
        fs.mkdir(f"{DATA_ROOT}/com.example.a", ROOT_CRED, parents=True)
        for step in steps:
            before = manager.priv_version(B)
            try:
                apply(fs, step)
            except KernelError:
                pass
            stamp = manager.priv_version(B)
            assert stamp == path_walk_version(fs, PRIV)
            if step[0] == "read":
                assert stamp == before
            fs.write_file(f"{DATA_ROOT}/com.example.a/f", b"a", ROOT_CRED)
            assert manager.priv_version(B) == stamp
        stamp = manager.priv_version(B)
        read_everything(fs)
        assert manager.priv_version(B) == stamp
