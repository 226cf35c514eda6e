"""Path utilities for the simulated VFS.

All simulated paths are absolute, ``/``-separated, and normalized before any
filesystem sees them. Paths never refer to the host filesystem.

A path is *canonical* when it is what :func:`normalize` would return for it:
``/`` or ``/``-separated components that are neither empty, ``.`` nor
``..``. :meth:`repro.kernel.mounts.MountNamespace.resolve` normalizes once
at namespace entry; below it, paths are canonical and are only split
(:func:`split`) or concatenated (:func:`child`, :func:`graft`), never
normalized again. :func:`split` and :func:`canonical` still accept any path,
so a direct caller may pass one that is not canonical; only such a path
costs a call to :func:`normalize`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple


def normalize(path: str) -> str:
    """Normalize ``path`` to a canonical absolute form.

    Collapses repeated slashes, resolves ``.`` and ``..`` components (without
    consulting the filesystem — the simulated VFS has no symlink loops to
    worry about), and strips trailing slashes. The root is ``"/"``.

    >>> normalize("//a/./b/../c/")
    '/a/c'
    """
    if not path.startswith("/"):
        path = "/" + path
    parts: List[str] = []
    for component in path.split("/"):
        if component in ("", "."):
            continue
        if component == "..":
            if parts:
                parts.pop()
            continue
        parts.append(component)
    return "/" + "/".join(parts)


def _canonical_parts(path: str) -> Optional[List[str]]:
    """The components of ``path`` if it is canonical, else None."""
    if path == "/":
        return []
    parts = path.split("/")
    if parts[0]:
        return None
    del parts[0]
    if "" in parts or "." in parts or ".." in parts:
        return None
    return parts


def split(path: str) -> Tuple[str, ...]:
    """Split a path into the components of its normalized form.

    A canonical path is split as it is; any other goes through
    :func:`normalize` first.

    >>> split("/a/b/c")
    ('a', 'b', 'c')
    >>> split("/")
    ()
    >>> split("a//b/")
    ('a', 'b')
    """
    parts = _canonical_parts(path)
    if parts is None:
        parts = _canonical_parts(normalize(path))
    return tuple(parts)


def canonical(path: str) -> str:
    """``path`` itself if it is canonical, else :func:`normalize` of it.

    >>> canonical("/a/b")
    '/a/b'
    >>> canonical("/a/./b/")
    '/a/b'
    """
    return path if _canonical_parts(path) is not None else normalize(path)


def child(directory: str, name: str) -> str:
    """The path of entry ``name`` inside the canonical ``directory``.

    ``name`` is one component; nothing is normalized.

    >>> child("/a", "b")
    '/a/b'
    >>> child("/", "b")
    '/b'
    """
    if directory == "/":
        return "/" + name
    return directory + "/" + name


def graft(root: str, inner: str) -> str:
    """Concatenate two canonical paths: ``inner`` taken relative to ``root``.

    >>> graft("/branch", "/a/b")
    '/branch/a/b'
    >>> graft("/branch", "/")
    '/branch'
    >>> graft("/", "/a")
    '/a'
    """
    if inner == "/":
        return root
    if root == "/":
        return inner
    return root + inner


def join(*parts: str) -> str:
    """Join path fragments into a normalized absolute path.

    >>> join("/a", "b/c", "d")
    '/a/b/c/d'
    >>> join("/", "a/", "/b")
    '/a/b'
    """
    # Fragments' outer slashes only delimit empty components, which the
    # normalized form drops anyway; without them a join of canonical
    # fragments is canonical already.
    return canonical("/" + "/".join(q for q in (p.strip("/") for p in parts) if q))


def parent(path: str) -> str:
    """Return the parent directory of ``path`` (the root is its own parent).

    >>> parent("/a/b")
    '/a'
    >>> parent("/")
    '/'
    """
    components = split(path)
    if not components:
        return "/"
    return "/" + "/".join(components[:-1])


def basename(path: str) -> str:
    """Return the final component of ``path`` (empty string for the root).

    >>> basename("/a/b")
    'b'
    """
    components = split(path)
    return components[-1] if components else ""


def is_within(path: str, ancestor: str) -> bool:
    """True if ``path`` equals ``ancestor`` or lies beneath it.

    >>> is_within("/a/b/c", "/a/b")
    True
    >>> is_within("/a/bc", "/a/b")
    False
    """
    path = canonical(path)
    ancestor = canonical(ancestor)
    if ancestor == "/":
        return True
    return path == ancestor or path.startswith(ancestor + "/")


def relative_to(path: str, ancestor: str) -> str:
    """Return ``path`` relative to ``ancestor`` (no leading slash).

    Raises :class:`ValueError` if ``path`` is not within ``ancestor``.

    >>> relative_to("/a/b/c", "/a")
    'b/c'
    >>> relative_to("/a", "/a")
    ''
    """
    path = canonical(path)
    ancestor = canonical(ancestor)
    if not is_within(path, ancestor):
        raise ValueError(f"{path!r} is not within {ancestor!r}")
    if path == ancestor:
        return ""
    if ancestor == "/":
        return path[1:]
    return path[len(ancestor) + 1 :]
