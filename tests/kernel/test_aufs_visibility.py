"""Differential test of union visibility against a small reference model.

Random three-branch layouts hold files, directories, whiteouts
(``.wh.<name>``), opaque markers (``.wh..wh..opq``) and upper files that
shadow lower directories. ``AufsMount.stat``, ``exists`` and ``readdir``
must agree with :func:`reference_lookup` on every path of the layout's
name universe, including paths below files and below masked names.

The model resolves a path one component at a time, the way a union
directory is merged: a directory's *contributors* are the branches whose
copy of it is merged into the listing, top first. A child name is looked
up in the contributors in order; the first that holds it decides its
kind and branch. A whiteout of the name, an opaque child directory, or a
file where a directory would continue ends the search for anything
lower. Two restrictions keep layouts to ones a union filesystem can
produce: a branch never holds both a name and its whiteout in one
directory, and a branch root holds no opaque marker.
"""

from __future__ import annotations

import random
from itertools import product
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FileNotFound, NotADirectory
from repro.kernel.aufs import AufsMount, Branch, OPAQUE_MARKER, WHITEOUT_PREFIX
from repro.kernel.vfs import Credentials, Filesystem, ROOT_CRED

NAMES = ("a", "b", "c")
DEPTH = 3
ROOTS = ("/", "/br", "/deep/br")
APP = Credentials(uid=1001)

# A branch layout: directory path (a tuple of names) -> {name: kind},
# where kind is "file", "dir" or "whiteout"; plus the set of directories
# that hold an opaque marker.
Layout = Tuple[Dict[Tuple[str, ...], Dict[str, str]], set]


def random_layout(rng: random.Random) -> Layout:
    entries: Dict[Tuple[str, ...], Dict[str, str]] = {}
    opaque: set = set()

    def fill(directory: Tuple[str, ...]) -> None:
        entries[directory] = {}
        for name in NAMES:
            roll = rng.random()
            if roll < 0.35:
                continue
            if roll < 0.55:
                kind = "file"
            elif roll < 0.70:
                kind = "whiteout"
            else:
                kind = "dir" if len(directory) + 1 < DEPTH else "file"
            entries[directory][name] = kind
            if kind == "dir":
                child = directory + (name,)
                if rng.random() < 0.2:
                    opaque.add(child)
                fill(child)

    fill(())
    return entries, opaque


def build(layouts: List[Layout]) -> AufsMount:
    branches = []
    for index, (entries, opaque) in enumerate(layouts):
        fs = Filesystem(label=f"b{index}")
        root = ROOTS[index]
        fs.mkdir(root, ROOT_CRED, parents=True)
        base = "" if root == "/" else root
        for directory in sorted(entries, key=len):
            where = base + "".join("/" + part for part in directory)
            for name, kind in entries[directory].items():
                if kind == "dir":
                    fs.mkdir(f"{where}/{name}", ROOT_CRED)
                elif kind == "file":
                    fs.write_file(f"{where}/{name}", name.encode(), ROOT_CRED)
                else:
                    fs.write_file(f"{where}/{WHITEOUT_PREFIX}{name}", b"", ROOT_CRED)
            if directory in opaque:
                fs.write_file(f"{where}/{OPAQUE_MARKER}", b"", ROOT_CRED)
        branches.append(Branch(fs, root, writable=index == 0, label=f"b{index}"))
    return AufsMount(branches, label="diff")


def reference_lookup(
    layouts: List[Layout], parts: Tuple[str, ...]
) -> Optional[Tuple[str, int, List[int]]]:
    """``(kind, branch, contributors)`` of the visible path, or None."""
    kind, found, contributors = "dir", 0, list(range(len(layouts)))
    for depth, name in enumerate(parts):
        if kind != "dir":
            return None
        directory = parts[:depth]
        found_here: Optional[Tuple[str, int]] = None
        below: List[int] = []
        for index in contributors:
            entries, opaque = layouts[index]
            entry = entries[directory].get(name)
            if entry == "whiteout":
                break
            if entry is None:
                continue
            if found_here is None:
                found_here = (entry, index)
            if entry != "dir" or found_here[0] != "dir":
                break
            below.append(index)
            if directory + (name,) in opaque:
                break
        if found_here is None:
            return None
        (kind, found), contributors = found_here, below
    return kind, found, contributors


def reference_readdir(layouts: List[Layout], parts: Tuple[str, ...], contributors) -> List[str]:
    names, hidden = set(), set()
    for index in contributors:
        for name, kind in layouts[index][0][parts].items():
            if kind == "whiteout":
                hidden.add(name)
            elif name not in hidden:
                names.add(name)
    return sorted(names)


def every_path():
    for depth in range(DEPTH + 2):
        yield from product(NAMES, repeat=depth)


def check(layouts: List[Layout]) -> None:
    union = build(layouts)
    for parts in every_path():
        path = "/" + "/".join(parts)
        expected = reference_lookup(layouts, parts)
        assert union.exists(path, APP) == (expected is not None), path
        if expected is None:
            with pytest.raises(FileNotFound):
                union.stat(path, APP)
            with pytest.raises(FileNotFound):
                union.readdir(path, APP)
            continue
        kind, index, contributors = expected
        branch = union.branches[index]
        stat = union.stat(path, APP)
        assert stat.ino == branch.fs.stat(branch.path(path), ROOT_CRED).ino, path
        assert stat.is_dir == (kind == "dir"), path
        if kind == "dir":
            assert union.readdir(path, APP) == reference_readdir(layouts, parts, contributors), path
        else:
            with pytest.raises(NotADirectory):
                union.readdir(path, APP)


class TestUnionVisibility:
    @given(rng=st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_reference_model(self, rng):
        check([random_layout(rng) for _ in ROOTS])

    def test_opaque_directory_hides_lower_entries(self):
        upper = ({(): {"a": "dir"}, ("a",): {}}, {("a",)})
        middle = ({(): {"a": "dir"}, ("a",): {"b": "file"}}, set())
        lower = ({(): {}}, set())
        check([upper, middle, lower])
        assert not build([upper, middle, lower]).exists("/a/b", APP)

    def test_upper_file_shadows_lower_directory(self):
        upper = ({(): {}}, set())
        middle = ({(): {"a": "file"}}, set())
        lower = ({(): {"a": "dir"}, ("a",): {"b": "file"}}, set())
        check([upper, middle, lower])
        union = build([upper, middle, lower])
        assert union.stat("/a", APP).is_file
        assert not union.exists("/a/b", APP)

    def test_whiteout_in_a_middle_branch(self):
        upper = ({(): {"a": "dir"}, ("a",): {"c": "file"}}, set())
        middle = ({(): {"a": "dir"}, ("a",): {"b": "whiteout"}}, set())
        lower = ({(): {"a": "dir"}, ("a",): {"b": "file", "c": "file"}}, set())
        check([upper, middle, lower])
        union = build([upper, middle, lower])
        assert union.readdir("/a", APP) == ["c"]
        assert union.stat("/a/c", APP).ino == upper_ino(union, "/a/c")


def upper_ino(union: AufsMount, path: str) -> int:
    top = union.branches[0]
    return top.fs.stat(top.path(path), ROOT_CRED).ino
