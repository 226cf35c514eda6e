"""Differential test of the COW proxy's SQL against stdlib ``sqlite3``.

The proxy's real DDL (primary table, delta table, UNION ALL COW view and
its INSTEAD OF triggers) is captured as the proxy issues it to minisql and
replayed into an in-memory SQLite database. Both engines then run the same
hypothesis-generated sequence of point queries, updates, deletes and
inserts by ``_id`` through the COW view, and every result is compared as a
multiset (row order and plans may differ between the engines; results may
not).
"""

from __future__ import annotations

import sqlite3
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cow import VOLATILE_PK_BASE, CowProxy
from repro.errors import SqlError

PRIMARY_ROWS = 8
KEYS = st.one_of(
    st.integers(min_value=1, max_value=PRIMARY_ROWS + 2),
    st.integers(min_value=VOLATILE_PK_BASE, max_value=VOLATILE_PK_BASE + 3),
)
WORDS = st.sampled_from(["ant", "bee", "cat", "dog"])
FREQUENCIES = st.integers(min_value=0, max_value=255)

OPS = st.one_of(
    st.tuples(st.just("point"), KEYS),
    st.tuples(st.just("point_in"), KEYS, KEYS),
    st.tuples(st.just("update"), KEYS, FREQUENCIES),
    st.tuples(st.just("update_word"), KEYS, WORDS),
    st.tuples(st.just("delete"), KEYS),
    st.tuples(st.just("insert"), WORDS, FREQUENCIES),
    st.tuples(st.just("insert_id"), KEYS, WORDS, FREQUENCIES),
)


def build_engines():
    """A COW proxy over minisql with initiator A's COW machinery, and a
    sqlite3 database built from exactly the DDL the proxy issued."""
    proxy = CowProxy()
    ddl = []
    execute = proxy.db.execute

    def recording(sql, params=()):
        if sql.lstrip().upper().startswith("CREATE"):
            ddl.append(sql)
        return execute(sql, params)

    proxy.db.execute = recording
    proxy.create_table(
        "CREATE TABLE words (_id INTEGER PRIMARY KEY, word TEXT, frequency INTEGER)"
    )
    view = proxy.resolve("words", "A", for_write=True)
    proxy.db.execute = execute
    lite = sqlite3.connect(":memory:")
    for sql in ddl:
        lite.execute(sql)
    rows = [(i, f"w{i}", i * 3) for i in range(1, PRIMARY_ROWS + 1)]
    for i, word, frequency in rows:
        proxy.db.execute(
            "INSERT INTO words (_id, word, frequency) VALUES (?, ?, ?)", [i, word, frequency]
        )
    lite.executemany("INSERT INTO words (_id, word, frequency) VALUES (?, ?, ?)", rows)
    # minisql starts the delta's keys at N through a table hook SQLite lacks;
    # a whiteout row at N - 1, hidden by both view arms, gives SQLite's
    # max(rowid) + 1 allocation the same next key.
    sentinel = "INSERT INTO {} (_id, word, frequency, _whiteout) VALUES (?, '', 0, 1)"
    delta = proxy.delta_name("words", "A")
    for run in (proxy.db.execute, lite.execute):
        run(sentinel.format(delta), [VOLATILE_PK_BASE - 1])
    return proxy, view, lite


def statement(op, view: str):
    kind = op[0]
    if kind == "point":
        return f"SELECT _id, word, frequency FROM {view} WHERE _id = ?", [op[1]]
    if kind == "point_in":
        return f"SELECT _id, word, frequency FROM {view} WHERE _id IN (?, ?)", [op[1], op[2]]
    if kind == "update":
        return f"UPDATE {view} SET frequency = ? WHERE _id = ?", [op[2], op[1]]
    if kind == "update_word":
        return f"UPDATE {view} SET word = ? WHERE _id = ?", [op[2], op[1]]
    if kind == "delete":
        return f"DELETE FROM {view} WHERE _id = ?", [op[1]]
    if kind == "insert":
        return f"INSERT INTO {view} (word, frequency) VALUES (?, ?)", [op[1], op[2]]
    return f"INSERT INTO {view} (_id, word, frequency) VALUES (?, ?, ?)", list(op[1:])


def run_minisql(proxy, sql, params):
    try:
        return Counter(proxy.db.execute(sql, params).rows)
    except SqlError:
        return "error"


def run_sqlite(lite, sql, params):
    try:
        return Counter(lite.execute(sql, params).fetchall())
    except sqlite3.Error:
        return "error"


@given(ops=st.lists(OPS, min_size=1, max_size=25))
@settings(max_examples=60, deadline=None)
def test_cow_view_matches_sqlite(ops):
    proxy, view, lite = build_engines()
    full = f"SELECT _id, word, frequency FROM {view}"
    for op in ops:
        sql, params = statement(op, view)
        assert run_minisql(proxy, sql, params) == run_sqlite(lite, sql, params), op
        assert run_minisql(proxy, full, []) == run_sqlite(lite, full, []), op
        primary = "SELECT * FROM words"
        assert run_minisql(proxy, primary, []) == run_sqlite(lite, primary, []), op


def test_harness_sees_a_difference():
    """The comparison can fail: a row written only to one engine shows."""
    proxy, view, lite = build_engines()
    proxy.db.execute(f"UPDATE {view} SET frequency = 1 WHERE _id = 2")
    full = f"SELECT _id, word, frequency FROM {view}"
    assert run_minisql(proxy, full, []) != run_sqlite(lite, full, [])


@pytest.mark.parametrize("key", [3, VOLATILE_PK_BASE])
def test_insert_then_point_query(key):
    proxy, view, lite = build_engines()
    for sql, params in (
        statement(("insert", "ant", 1), view),
        statement(("point", key), view),
    ):
        assert run_minisql(proxy, sql, params) == run_sqlite(lite, sql, params)
