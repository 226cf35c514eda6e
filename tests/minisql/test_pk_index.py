"""The INTEGER PRIMARY KEY access path.

``Table.pk_index`` (pk value -> rowid) is maintained by every write, and
``WHERE pk = ?`` / ``pk IN (...)`` reads only the indexed candidates, on
base tables and pushed into the arms of a flattened UNION ALL COW view.
The index must never change a result, so the properties here drive two
databases in lockstep with the same operations: one writes ``_id = ?``,
which the index serves, the other ``+_id = ?``, which (as in SQLite) it
cannot, so that side scans.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cow import CowProxy
from repro.errors import SqlError, SqlNameError
from repro.minisql import Database

KEYS = st.integers(min_value=1, max_value=12)
TAGS = st.sampled_from(["a", "b", "c", "d", None])
NUMBERS = st.integers(min_value=0, max_value=9)

TABLE_OPS = st.one_of(
    st.tuples(st.just("insert"), TAGS, NUMBERS),
    st.tuples(st.just("insert_pk"), KEYS, TAGS, NUMBERS),
    st.tuples(st.just("replace"), KEYS, TAGS, NUMBERS),
    st.tuples(st.just("update"), KEYS, NUMBERS),
    st.tuples(st.just("update_pk"), KEYS, KEYS),
    st.tuples(st.just("delete"), KEYS),
    st.tuples(st.just("delete_in"), KEYS, KEYS),
)


def rebuilt_index(table) -> dict:
    """The pk index a full scan of ``rows`` implies."""
    return {
        row[table.pk_column]: rowid
        for rowid, row in table.rows.items()
        if row[table.pk_column] is not None
    }


def outcome(run):
    """A statement's result, or the class of error it raised."""
    try:
        result = run()
    except SqlError as exc:
        return type(exc).__name__
    return (result.rowcount, result.rows)


def table_statement(op, key: str):
    """(sql, params) for one table op, with ``key`` as the pk reference."""
    kind = op[0]
    if kind == "insert":
        return "INSERT INTO t (tag, n) VALUES (?, ?)", list(op[1:])
    if kind == "insert_pk":
        return "INSERT INTO t (_id, tag, n) VALUES (?, ?, ?)", list(op[1:])
    if kind == "replace":
        return "INSERT OR REPLACE INTO t (_id, tag, n) VALUES (?, ?, ?)", list(op[1:])
    if kind == "update":
        return f"UPDATE t SET n = ? WHERE {key} = ?", [op[2], op[1]]
    if kind == "update_pk":
        return f"UPDATE t SET _id = ? WHERE {key} = ?", [op[2], op[1]]
    if kind == "delete":
        return f"DELETE FROM t WHERE {key} = ?", [op[1]]
    return f"DELETE FROM t WHERE {key} IN (?, ?)", [op[1], op[2]]


def make_table_db() -> Database:
    db = Database()
    db.execute("CREATE TABLE t (_id INTEGER PRIMARY KEY, tag TEXT UNIQUE, n INTEGER)")
    return db


class TestIndexMatchesScan:
    @given(ops=st.lists(TABLE_OPS, max_size=30), probes=st.lists(KEYS, min_size=2, max_size=2))
    @settings(max_examples=60, deadline=None)
    def test_table_index_vs_scan(self, ops, probes):
        indexed, scanned = make_table_db(), make_table_db()
        for op in ops:
            got = outcome(lambda: indexed.execute(*table_statement(op, "_id")))
            want = outcome(lambda: scanned.execute(*table_statement(op, "+_id")))
            assert got == want, op
            table = indexed.table("t")
            assert table.pk_index == rebuilt_index(table)
            assert indexed.execute("SELECT * FROM t").rows == scanned.execute(
                "SELECT * FROM t"
            ).rows
            for sql in ("SELECT * FROM t WHERE {} = ?", "SELECT n FROM t WHERE {} = ? AND n >= 0"):
                assert indexed.execute(sql.format("_id"), probes[:1]).rows == indexed.execute(
                    sql.format("+_id"), probes[:1]
                ).rows
            in_list = "SELECT * FROM t WHERE {} IN (?, ?)"
            assert indexed.execute(in_list.format("_id"), probes).rows == indexed.execute(
                in_list.format("+_id"), probes
            ).rows

    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("insert"), NUMBERS),
                st.tuples(st.just("update"), KEYS, NUMBERS),
                st.tuples(st.just("delete"), KEYS),
                st.tuples(st.just("query"), KEYS),
            ),
            max_size=25,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_cow_view_index_vs_scan(self, ops):
        proxies = [CowProxy(), CowProxy()]
        for proxy in proxies:
            proxy.create_table("CREATE TABLE words (_id INTEGER PRIMARY KEY, word TEXT, n INTEGER)")
            for i in range(1, 9):
                proxy.insert("words", None, {"word": f"w{i}", "n": i})
        indexed, scanned = proxies
        for op in ops:
            results = []
            for proxy, key in ((indexed, "_id"), (scanned, "+_id")):
                kind = op[0]
                if kind == "insert":
                    results.append(proxy.insert("words", "A", {"word": "new", "n": op[1]}))
                elif kind == "update":
                    results.append(proxy.update("words", "A", {"n": op[2]}, f"{key} = ?", [op[1]]))
                elif kind == "delete":
                    results.append(proxy.delete("words", "A", f"{key} = ?", [op[1]]))
                else:
                    result = proxy.query("words", "A", where=f"{key} = ?", params=[op[1]])
                    results.append(result.rows)
            assert results[0] == results[1], op
            view = indexed.view_name("words", "A")
            if indexed.db.has_view(view):
                for key in range(1, 10):
                    assert indexed.db.execute(
                        f"SELECT * FROM {view} WHERE _id = ?", [key]
                    ).rows == indexed.db.execute(f"SELECT * FROM {view} WHERE +_id = ?", [key]).rows
                delta = indexed.db.table(indexed.delta_name("words", "A"))
                assert delta.pk_index == rebuilt_index(delta)
            for proxy in proxies:
                primary = proxy.db.table("words")
                assert primary.pk_index == rebuilt_index(primary)
            assert indexed.query("words", "A", order_by="_id").rows == scanned.query(
                "words", "A", order_by="_id"
            ).rows


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE a (_id INTEGER PRIMARY KEY, v TEXT)")
    database.execute("CREATE TABLE b (_id INTEGER PRIMARY KEY, v TEXT)")
    database.executemany("INSERT INTO a (v) VALUES (?)", [[f"a{i}"] for i in range(10)])
    database.executemany("INSERT INTO b (_id, v) VALUES (?, ?)", [[100, "b0"], [3, "b3"]])
    database.execute("CREATE VIEW u AS SELECT _id, v FROM a UNION ALL SELECT _id, v FROM b")
    return database


class TestAccessPath:
    def test_point_query_reads_one_row(self, db):
        db.stats.reset()
        assert db.execute("SELECT v FROM a WHERE _id = ?", [4]).rows == [("a3",)]
        assert db.stats.rows_scanned == 1

    def test_in_list_keeps_scan_order(self, db):
        rows = db.execute("SELECT _id FROM a WHERE _id IN (7, 2, 7, 99)").rows
        assert rows == [(2,), (7,)]

    def test_key_on_either_side_and_qualified(self, db):
        db.stats.reset()
        assert db.execute("SELECT v FROM a x WHERE ? = x._id AND v <> ''", [2]).rows == [("a1",)]
        assert db.stats.rows_scanned == 1

    def test_unary_plus_scans(self, db):
        db.stats.reset()
        db.execute("SELECT v FROM a WHERE +_id = 2")
        assert db.stats.rows_scanned == 10

    def test_or_and_negations_scan(self, db):
        for where in ("_id = 2 OR v = 'a5'", "_id NOT IN (1, 2)", "NOT _id = 2"):
            db.stats.reset()
            db.execute(f"SELECT v FROM a WHERE {where}")
            assert db.stats.rows_scanned == 10, where

    def test_correlated_outer_reference_scans(self, db):
        # ``a._id`` in the subquery names the outer row, not b's key.
        db.stats.reset()
        rows = db.execute(
            "SELECT v FROM a WHERE _id = 3 AND EXISTS (SELECT 1 FROM b WHERE a._id = 3)"
        ).rows
        assert rows == [("a2",)]
        assert db.stats.rows_scanned == 1 + 2

    def test_unhashable_key_falls_back_to_scan(self, db):
        assert db.execute("SELECT v FROM a WHERE _id = ?", [[1]]).rows == []

    def test_null_key_matches_nothing(self, db):
        assert db.execute("SELECT v FROM a WHERE _id = ?", [None]).rows == []
        assert db.execute("SELECT v FROM a WHERE _id IN (NULL, 1)").rows == [("a0",)]

    def test_pushed_into_union_all_arms(self, db):
        db.stats.reset()
        rows = db.execute("SELECT _id, v FROM u WHERE _id = ?", [3]).rows
        assert rows == [(3, "a2"), (3, "b3")]
        assert db.stats.rows_scanned == 2
        assert db.stats.flattened_queries == 1

    def test_footnote5_materialisation_does_not_search(self, db):
        db.stats.reset()
        rows = db.execute("SELECT v FROM u WHERE _id = ? ORDER BY _id", [3]).rows
        assert rows == [("a2",), ("b3",)]
        assert db.stats.materialized_views == 1
        assert db.stats.rows_scanned == 12

    def test_view_dml_pushed_into_arms(self, db):
        db.execute("CREATE TABLE log (_id INTEGER PRIMARY KEY, old_id INTEGER, v TEXT)")
        db.execute(
            "CREATE TRIGGER u_upd INSTEAD OF UPDATE ON u BEGIN "
            "INSERT INTO log (old_id, v) VALUES (OLD._id, NEW.v); END"
        )
        db.stats.reset()
        assert db.execute("UPDATE u SET v = ? WHERE _id = ?", ["z", 100]).rowcount == 1
        assert db.stats.rows_scanned == 1
        assert db.execute("SELECT old_id, v FROM log").rows == [(100, "z")]

    def test_in_subquery_of_keys_probes_the_index(self, db):
        db.stats.reset()
        rows = db.execute("SELECT _id FROM a WHERE _id NOT IN (SELECT _id FROM b)").rows
        assert rows == [(i,) for i in range(1, 11) if i != 3]
        assert db.stats.rows_scanned == 10  # a only: b's keys come from its index
        assert rows == db.execute(
            "SELECT _id FROM a WHERE _id NOT IN (SELECT +_id FROM b)"
        ).rows

    def test_min_max_pk_from_index(self, db):
        db.stats.reset()
        assert db.execute("SELECT MAX(_id) FROM a").scalar() == 10
        assert db.execute("SELECT MIN(a._id) AS low FROM a").rows == [(1,)]
        assert db.stats.rows_scanned == 0
        db.execute("DELETE FROM a")
        assert db.execute("SELECT MAX(_id) FROM a").scalar() is None

    def test_min_max_pk_mixed_types_order_as_sql(self):
        db = Database()
        db.execute("CREATE TABLE m (k PRIMARY KEY, v TEXT)")
        db.executemany("INSERT INTO m (k, v) VALUES (?, ?)", [[5, "x"], ["abc", "y"], [2.5, "z"]])
        assert db.execute("SELECT MAX(k) FROM m").scalar() == "abc"
        assert db.execute("SELECT MIN(k) FROM m").scalar() == 2.5

    def test_autoincrement_continues_from_largest_key(self, db):
        db.execute("DELETE FROM a WHERE _id = 10")
        db.execute("INSERT INTO a (v) VALUES ('n')")
        assert db.execute("SELECT MAX(_id) FROM a").scalar() == 10
        db.execute("UPDATE a SET _id = 50 WHERE _id = 1")
        assert db.execute("INSERT INTO a (v) VALUES ('m')").lastrowid == 51

    def test_unhashable_pk_value_is_rejected(self, db):
        with pytest.raises(SqlError):
            db.execute("INSERT INTO a (_id, v) VALUES (?, 'x')", [[1]])
        assert db.table("a").pk_index == rebuilt_index(db.table("a"))


class TestUpdateValidatesColumns:
    """SET columns are checked against the schema before any row is
    looked at, so a WHERE that matches nothing still reports the typo."""

    @pytest.mark.parametrize("key", [1, 999])
    def test_base_table(self, db, key):
        with pytest.raises(SqlNameError, match="nosuch"):
            db.execute("UPDATE a SET nosuch = 1 WHERE _id = ?", [key])

    @pytest.mark.parametrize("key", [1, 999])
    def test_view(self, key):
        proxy = CowProxy()
        proxy.create_table("CREATE TABLE words (_id INTEGER PRIMARY KEY, word TEXT)")
        proxy.insert("words", None, {"word": "w"})
        with pytest.raises(SqlNameError, match="nosuch"):
            proxy.update("words", "A", {"nosuch": 1}, "_id = ?", [key])
        assert proxy.volatile_rows("words", "A").rows == []
