"""Differential test of the COW proxy's SQL against stdlib ``sqlite3``.

The proxy's real DDL (primary table, delta table, UNION ALL COW view and
its INSTEAD OF triggers) is captured as the proxy issues it to minisql and
replayed into an in-memory SQLite database. Both engines then run the same
hypothesis-generated sequence of point queries, updates, deletes and
inserts by ``_id`` through the COW view, plus reads with non-key WHERE
clauses and ORDER BY/LIMIT/OFFSET pages, over words that may be NULL.
Results are compared as multisets (row order and plans may differ between
the engines; results may not), and as ordered lists when the query has an
ORDER BY that fixes the order.

``MINISQL_DIFF_EXAMPLES`` sets the hypothesis example budget (default 60).
"""

from __future__ import annotations

import os
import sqlite3
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cow import VOLATILE_PK_BASE, CowProxy
from repro.errors import SqlError

#: The primary table's words: mixed case for LIKE, and NULLs.
PRIMARY_WORDS = ["Ant", "bee", "Cat", None, "dog", "w1", "eel", None]
PRIMARY_ROWS = len(PRIMARY_WORDS)
KEYS = st.one_of(
    st.integers(min_value=1, max_value=PRIMARY_ROWS + 2),
    st.integers(min_value=VOLATILE_PK_BASE, max_value=VOLATILE_PK_BASE + 3),
)
WORDS = st.sampled_from(["ant", "bee", "cat", "dog", None])
FREQUENCIES = st.integers(min_value=0, max_value=255)
PATTERNS = st.sampled_from(["a%", "%e%", "_at", "D%", "%", "w1%"])
EXAMPLES = int(os.environ.get("MINISQL_DIFF_EXAMPLES", "60"))

OPS = st.one_of(
    st.tuples(st.just("point"), KEYS),
    st.tuples(st.just("point_in"), KEYS, KEYS),
    st.tuples(st.just("update"), KEYS, FREQUENCIES),
    st.tuples(st.just("update_word"), KEYS, WORDS),
    st.tuples(st.just("delete"), KEYS),
    st.tuples(st.just("insert"), WORDS, FREQUENCIES),
    st.tuples(st.just("insert_id"), KEYS, WORDS, FREQUENCIES),
    st.tuples(st.just("above"), FREQUENCIES),
    st.tuples(st.just("like"), PATTERNS),
    st.tuples(st.just("null_word"), st.booleans()),
    st.tuples(
        st.just("page"),
        st.integers(min_value=-1, max_value=6),
        st.integers(min_value=-2, max_value=12),
    ),
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
    rows = [(i, word, i * 3 % 20) for i, word in enumerate(PRIMARY_WORDS, start=1)]
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
    select = f"SELECT _id, word, frequency FROM {view}"
    if kind == "point":
        return f"{select} WHERE _id = ?", [op[1]]
    if kind == "above":
        return f"{select} WHERE frequency > ?", [op[1]]
    if kind == "like":
        return f"{select} WHERE word LIKE ?", [op[1]]
    if kind == "null_word":
        return f"{select} WHERE word IS {'NOT ' if op[1] else ''}NULL", []
    if kind == "page":
        return f"{select} ORDER BY frequency DESC, _id LIMIT ? OFFSET ?", [op[1], op[2]]
    if kind == "point_in":
        return f"{select} WHERE _id IN (?, ?)", [op[1], op[2]]
    if kind == "update":
        return f"UPDATE {view} SET frequency = ? WHERE _id = ?", [op[2], op[1]]
    if kind == "update_word":
        return f"UPDATE {view} SET word = ? WHERE _id = ?", [op[2], op[1]]
    if kind == "delete":
        return f"DELETE FROM {view} WHERE _id = ?", [op[1]]
    if kind == "insert":
        return f"INSERT INTO {view} (word, frequency) VALUES (?, ?)", [op[1], op[2]]
    return f"INSERT INTO {view} (_id, word, frequency) VALUES (?, ?, ?)", list(op[1:])


def _result(rows, sql):
    """Rows as a list when the query fixes their order, else a multiset."""
    return list(rows) if "ORDER BY" in sql else Counter(rows)


def run_minisql(proxy, sql, params):
    try:
        return _result(proxy.db.execute(sql, params).rows, sql)
    except SqlError:
        return "error"


def run_sqlite(lite, sql, params):
    try:
        return _result(lite.execute(sql, params).fetchall(), sql)
    except sqlite3.Error:
        return "error"


@given(ops=st.lists(OPS, min_size=1, max_size=25))
@settings(max_examples=EXAMPLES, deadline=None)
def test_cow_view_matches_sqlite(ops):
    proxy, view, lite = build_engines()
    reads = [
        f"SELECT _id, word, frequency FROM {view}",
        f"SELECT _id, word, frequency FROM {view} ORDER BY _id",
        f"SELECT _id, word, frequency FROM {view} ORDER BY word, _id",
        f"SELECT word, _id FROM {view} ORDER BY _id",
        "SELECT * FROM words",
    ]
    for op in ops:
        sql, params = statement(op, view)
        assert run_minisql(proxy, sql, params) == run_sqlite(lite, sql, params), op
        for read in reads:
            assert run_minisql(proxy, read, []) == run_sqlite(lite, read, []), (op, read)


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


def test_ordered_reads_compare_order():
    """An ORDER BY read is compared as a list: the same rows in another
    order differ."""
    proxy, view, lite = build_engines()
    ordered = f"SELECT _id, word, frequency FROM {view} ORDER BY _id"
    assert run_minisql(proxy, ordered, []) == run_sqlite(lite, ordered, [])
    reversed_order = ordered + " DESC"
    assert run_minisql(proxy, reversed_order, []) != run_sqlite(lite, ordered, [])
