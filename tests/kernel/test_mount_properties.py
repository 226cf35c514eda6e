"""Property-based tests for path handling and mount resolution."""

from __future__ import annotations

import posixpath

from hypothesis import given, settings, strategies as st

from repro.kernel import path as vpath
from repro.kernel.mounts import MountNamespace
from repro.kernel.vfs import Filesystem

component = st.text(alphabet="abcdwxyz0", min_size=1, max_size=5)
abs_path = st.lists(component, min_size=0, max_size=5).map(
    lambda parts: "/" + "/".join(parts)
)


class TestPathProperties:
    @given(path=abs_path)
    @settings(max_examples=80, deadline=None)
    def test_normalize_idempotent(self, path):
        once = vpath.normalize(path)
        assert vpath.normalize(once) == once

    @given(path=abs_path)
    @settings(max_examples=80, deadline=None)
    def test_normalize_matches_posixpath(self, path):
        # For dot-free absolute paths our normalize agrees with the
        # reference implementation.
        expected = posixpath.normpath(path)
        if expected == "//":
            expected = "/"
        assert vpath.normalize(path) == expected

    @given(parent=abs_path, name=component)
    @settings(max_examples=80, deadline=None)
    def test_join_then_split_roundtrip(self, parent, name):
        joined = vpath.join(parent, name)
        assert vpath.basename(joined) == name
        assert vpath.parent(joined) == vpath.normalize(parent)

    @given(path=abs_path, ancestor=abs_path)
    @settings(max_examples=80, deadline=None)
    def test_relative_to_inverts_join(self, path, ancestor):
        if vpath.is_within(path, ancestor):
            relative = vpath.relative_to(path, ancestor)
            assert vpath.join(ancestor, relative) == vpath.normalize(path)

    @given(path=abs_path)
    @settings(max_examples=50, deadline=None)
    def test_every_path_within_root(self, path):
        assert vpath.is_within(path, "/")


class TestMountResolutionProperties:
    @given(
        mounts=st.lists(abs_path.filter(lambda p: p != "/"), min_size=0, max_size=5, unique=True),
        probe=abs_path,
    )
    @settings(max_examples=80, deadline=None)
    def test_longest_prefix_always_wins(self, mounts, probe):
        namespace = MountNamespace(Filesystem(label="root"))
        for point in mounts:
            namespace.mount(point, Filesystem(label=point))
        fs, inner = namespace.resolve(probe)
        matching = [p for p in mounts if vpath.is_within(probe, p)]
        if matching:
            best = max(matching, key=len)
            assert fs.label == best
            assert vpath.join(best, inner) == vpath.normalize(probe)
        else:
            assert fs.label == "root"
            assert inner == vpath.normalize(probe)

    @given(
        mounts=st.lists(abs_path.filter(lambda p: p != "/"), min_size=1, max_size=4, unique=True),
        probe=abs_path,
    )
    @settings(max_examples=50, deadline=None)
    def test_unshare_resolves_identically(self, mounts, probe):
        namespace = MountNamespace(Filesystem(label="root"))
        for point in mounts:
            namespace.mount(point, Filesystem(label=point))
        clone = namespace.unshare()
        original_fs, original_inner = namespace.resolve(probe)
        clone_fs, clone_inner = clone.resolve(probe)
        assert original_fs is clone_fs
        assert original_inner == clone_inner


# Spellings a caller may hand the namespace: repeated slashes (an empty
# component), ".", "..", a trailing "/", and names that share a string
# prefix ("b", "bc") so that a mount at /a/b must not capture /a/bc.
noisy_component = st.sampled_from(["a", "b", "bc", "b.c", "", ".", ".."])
noisy_path = st.tuples(
    st.lists(noisy_component, min_size=0, max_size=5), st.booleans()
).map(lambda value: "/" + "/".join(value[0]) + ("/" if value[1] else ""))


def reference_normalize(path: str) -> str:
    # posixpath keeps exactly two leading slashes; the VFS does not.
    return "/" + posixpath.normpath(path).lstrip("/")


def reference_resolve(mounts, probe):
    table = {"/": "root"}
    for point in mounts:
        table[reference_normalize(point)] = point
    probe = reference_normalize(probe)
    best = max(
        (p for p in table if p == "/" or probe == p or probe.startswith(p + "/")),
        key=len,
    )
    inner = probe if best == "/" else probe[len(best):] or "/"
    return table[best], best, inner


class TestNoisyPathResolution:
    @given(
        mounts=st.lists(noisy_path, min_size=0, max_size=6),
        probe=noisy_path,
    )
    @settings(max_examples=300, deadline=None)
    def test_longest_prefix_matches_the_posixpath_reference(self, mounts, probe):
        namespace = MountNamespace(Filesystem(label="root"))
        for point in mounts:
            namespace.mount(point, Filesystem(label=point))
        label, point, inner = reference_resolve(mounts, probe)
        fs, resolved_inner = namespace.resolve(probe)
        assert fs.label == label
        assert resolved_inner == inner
        assert namespace.mount_for(probe) == (point, fs)
        assert vpath.normalize(probe) == reference_normalize(probe)

    def test_name_prefix_mounts_stay_apart(self):
        namespace = MountNamespace(Filesystem(label="root"))
        namespace.mount("/a/b", Filesystem(label="b"))
        namespace.mount("/a/bc/", Filesystem(label="bc"))
        assert namespace.resolve("/a/bc/x")[0].label == "bc"
        assert namespace.resolve("/a/b/x")[0].label == "b"
        assert namespace.resolve("/a/bcd")[0].label == "root"
        assert namespace.resolve("//a/./b/../bc")[0].label == "bc"
        assert namespace.resolve("/a/b/..") == (namespace.resolve("/a")[0], "/a")
        assert namespace.mount_for("/a/bc/x/") == ("/a/bc", namespace.resolve("/a/bc")[0])
