"""Property-based tests for the mini SQL engine.

Invariants:

1. Insert/read round-trip: what goes in through ``INSERT`` comes back out
   of ``SELECT`` unchanged.
2. The COW-view algebra: for any interleaving of writes through a
   Figure 6-style view, the view equals the reference computation
   (primary rows minus delta'd ids, plus non-whiteout delta rows), and
   the primary table never changes.
3. ORDER BY produces a total order consistent with the comparator.
"""

from __future__ import annotations

from functools import cmp_to_key

from hypothesis import given, settings, strategies as st

from repro.minisql import Database
from repro.minisql.expr import sql_compare

texts = st.text(alphabet="abcxyz ,'", min_size=0, max_size=12)
numbers = st.integers(min_value=-1_000_000, max_value=1_000_000)


class TestRoundTrip:
    @given(rows=st.lists(st.tuples(texts, numbers), min_size=0, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_insert_select_roundtrip(self, rows):
        db = Database()
        db.execute("CREATE TABLE t (_id INTEGER PRIMARY KEY, s TEXT, n INTEGER)")
        for s, n in rows:
            db.execute("INSERT INTO t (s, n) VALUES (?, ?)", [s, n])
        result = db.execute("SELECT s, n FROM t ORDER BY _id")
        assert result.rows == rows

    @given(rows=st.lists(numbers, min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_aggregates_match_python(self, rows):
        db = Database()
        db.execute("CREATE TABLE t (_id INTEGER PRIMARY KEY, n INTEGER)")
        for n in rows:
            db.execute("INSERT INTO t (n) VALUES (?)", [n])
        got = db.execute("SELECT COUNT(n), SUM(n), MIN(n), MAX(n) FROM t").rows[0]
        assert got == (len(rows), sum(rows), min(rows), max(rows))

    @given(rows=st.lists(numbers, min_size=0, max_size=20), pivot=numbers)
    @settings(max_examples=50, deadline=None)
    def test_where_filter_matches_python(self, rows, pivot):
        db = Database()
        db.execute("CREATE TABLE t (_id INTEGER PRIMARY KEY, n INTEGER)")
        for n in rows:
            db.execute("INSERT INTO t (n) VALUES (?)", [n])
        got = sorted(r[0] for r in db.execute("SELECT n FROM t WHERE n > ?", [pivot]).rows)
        assert got == sorted(n for n in rows if n > pivot)


class TestOrdering:
    @given(rows=st.lists(st.one_of(numbers, texts, st.none()), min_size=0, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_order_by_is_sorted_by_comparator(self, rows):
        db = Database()
        db.execute("CREATE TABLE t (_id INTEGER PRIMARY KEY, v)")
        for v in rows:
            db.execute("INSERT INTO t (v) VALUES (?)", [v])
        got = [r[0] for r in db.execute("SELECT v FROM t ORDER BY v").rows]
        for left, right in zip(got, got[1:]):
            assert sql_compare(left, right) <= 0

    @given(
        rows=st.lists(
            st.tuples(st.one_of(numbers, texts, st.none()), st.sampled_from([1, 2.5, "x", None])),
            min_size=0,
            max_size=20,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_multi_key_order_is_stable_and_directed(self, rows):
        # Reference: one comparator over both terms, a DESC, b ASC, ties
        # kept in insertion order.
        def compare(left, right):
            return -sql_compare(left[1], right[1]) or sql_compare(left[2], right[2])

        db = Database()
        db.execute("CREATE TABLE t (_id INTEGER PRIMARY KEY, a, b)")
        for a, b in rows:
            db.execute("INSERT INTO t (a, b) VALUES (?, ?)", [a, b])
        got = db.execute("SELECT _id, a, b FROM t ORDER BY a DESC, b").rows
        want = sorted(db.execute("SELECT _id, a, b FROM t").rows, key=cmp_to_key(compare))
        assert got == want


# --- COW view algebra -------------------------------------------------------


@st.composite
def cow_workload(draw):
    primary = draw(
        st.lists(texts, min_size=0, max_size=6).map(
            lambda vs: [(i + 1, v) for i, v in enumerate(vs)]
        )
    )
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("update"), st.integers(1, 8), texts),
                st.tuples(st.just("delete"), st.integers(1, 8), st.just("")),
                st.tuples(st.just("insert"), st.just(0), texts),
            ),
            min_size=0,
            max_size=12,
        )
    )
    return primary, ops


class TestCowViewAlgebra:
    @given(workload=cow_workload())
    @settings(max_examples=50, deadline=None)
    def test_view_matches_reference_model(self, workload):
        primary, ops = workload
        db = Database()
        db.execute("CREATE TABLE tab (_id INTEGER PRIMARY KEY, data TEXT)")
        db.execute(
            "CREATE TABLE tab_delta (_id INTEGER PRIMARY KEY, data TEXT, "
            "_whiteout INTEGER DEFAULT 0)"
        )
        db.table("tab_delta").set_autoincrement_base(10_000_001)
        for row_id, value in primary:
            db.execute("INSERT INTO tab (_id, data) VALUES (?, ?)", [row_id, value])
        db.execute(
            "CREATE VIEW tab_view AS "
            "SELECT _id, data FROM tab WHERE _id NOT IN (SELECT _id FROM tab_delta) "
            "UNION ALL SELECT _id, data FROM tab_delta WHERE _whiteout = 0"
        )
        db.execute(
            "CREATE TRIGGER tv_u INSTEAD OF UPDATE ON tab_view BEGIN "
            "INSERT OR REPLACE INTO tab_delta (_id, data, _whiteout) "
            "VALUES (OLD._id, NEW.data, 0); END"
        )
        db.execute(
            "CREATE TRIGGER tv_d INSTEAD OF DELETE ON tab_view BEGIN "
            "INSERT OR REPLACE INTO tab_delta (_id, data, _whiteout) "
            "VALUES (OLD._id, OLD.data, 1); END"
        )
        db.execute(
            "CREATE TRIGGER tv_i INSTEAD OF INSERT ON tab_view BEGIN "
            "INSERT INTO tab_delta (_id, data, _whiteout) VALUES (NEW._id, NEW.data, 0); END"
        )
        # Reference model: the delegate's view as a dict.
        model = dict(primary)
        next_volatile = [10_000_001]
        for op, row_id, value in ops:
            if op == "update":
                if row_id in model:
                    db.execute("UPDATE tab_view SET data = ? WHERE _id = ?", [value, row_id])
                    model[row_id] = value
            elif op == "delete":
                if row_id in model:
                    db.execute("DELETE FROM tab_view WHERE _id = ?", [row_id])
                    del model[row_id]
            else:
                db.execute("INSERT INTO tab_view (data) VALUES (?)", [value])
                model[next_volatile[0]] = value
                next_volatile[0] += 1
        got = dict(db.execute("SELECT _id, data FROM tab_view").rows)
        assert got == model
        # The primary table is never modified by view writes.
        assert dict(db.execute("SELECT _id, data FROM tab").rows) == dict(primary)
