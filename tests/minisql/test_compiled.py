"""Compiled expressions: SQLite-compatible edge cases of the evaluator and
the lifetime of the closures each statement, view and trigger holds."""

from __future__ import annotations

import copy
import gc
import sqlite3
import weakref

import pytest

from repro.core.cow import VOLATILE_PK_BASE, CowProxy
from repro.errors import SqlError
from repro.minisql import Database

ROWS = [(1, "ant"), (2, "bee"), (3, "cat")]


@pytest.fixture
def engines():
    """minisql and sqlite3, each holding ``t(id, w)`` with ROWS."""
    db, lite = Database(), sqlite3.connect(":memory:")
    for run in (db.execute, lite.execute):
        run("CREATE TABLE t (id INTEGER PRIMARY KEY, w TEXT)")
    for row in ROWS:
        db.execute("INSERT INTO t (id, w) VALUES (?, ?)", list(row))
    lite.executemany("INSERT INTO t (id, w) VALUES (?, ?)", ROWS)
    return db, lite


class TestOrderByOrdinal:
    @pytest.mark.parametrize("sql", [
        "SELECT w FROM t ORDER BY 0",
        "SELECT w FROM t ORDER BY 5",
        "SELECT w FROM t WHERE id = 1 ORDER BY 2",
        "SELECT id, w FROM t ORDER BY 1, 3",
    ])
    def test_out_of_range_is_an_error_in_both(self, engines, sql):
        db, lite = engines
        with pytest.raises(sqlite3.OperationalError) as expected:
            lite.execute(sql)
        with pytest.raises(SqlError) as raised:
            db.execute(sql)
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("sql", [
        "SELECT w FROM t ORDER BY 1 DESC",
        "SELECT id, w FROM t ORDER BY 2, 1",
    ])
    def test_in_range_orders_like_sqlite(self, engines, sql):
        db, lite = engines
        assert db.execute(sql).rows == lite.execute(sql).fetchall()


class TestOffsetAndNegation:
    @pytest.mark.parametrize("sql", [
        "SELECT w FROM t ORDER BY id LIMIT 1 OFFSET -1",
        "SELECT w FROM t ORDER BY id LIMIT 2 OFFSET -5",
        "SELECT w FROM t ORDER BY id LIMIT -1 OFFSET -1",
        "SELECT w FROM t ORDER BY id LIMIT 1 OFFSET 1",
    ])
    def test_negative_offset_counts_as_zero(self, engines, sql):
        db, lite = engines
        assert db.execute(sql).rows == lite.execute(sql).fetchall()

    def test_negating_text_raises_sql_error(self, engines):
        db, _lite = engines
        with pytest.raises(SqlError, match="unary -"):
            db.execute("SELECT -w FROM t")
        with pytest.raises(SqlError):
            db.execute("SELECT -?", [b"blob"])

    def test_negating_numbers_and_null(self, engines):
        db, _lite = engines
        assert db.execute("SELECT -id FROM t ORDER BY id").rows == [(-1,), (-2,), (-3,)]
        assert db.execute("SELECT -?", [None]).scalar() is None
        assert db.execute("SELECT -?", [2.5]).scalar() == -2.5


class TestClosureLifetime:
    def test_cow_copy_of_a_compiled_view_runs_its_own_subquery(self):
        """A user view whose IN-subquery was compiled for the primary table
        must, in its COW copy, probe the initiator's COW view instead."""
        proxy = CowProxy()
        proxy.create_table(
            "CREATE TABLE words (_id INTEGER PRIMARY KEY, word TEXT, frequency INTEGER)"
        )
        for index in range(1, 5):
            proxy.insert("words", None, {"word": f"w{index}", "frequency": index})
        proxy.create_user_view(
            "frequent",
            "SELECT _id, word FROM words "
            "WHERE _id IN (SELECT _id FROM words WHERE frequency > 2)",
        )
        primary = [(3, "w3"), (4, "w4")]
        assert proxy.query("frequent", None, order_by="_id").rows == primary
        # The delegate makes w1 frequent and adds a frequent word.
        proxy.update("words", "A", {"frequency": 9}, where="_id = ?", params=[1])
        added = proxy.insert("words", "A", {"word": "new", "frequency": 7})
        assert added >= VOLATILE_PK_BASE
        delegate = proxy.query("frequent", "A", order_by="_id").rows
        assert delegate == [(1, "w1"), (3, "w3"), (4, "w4"), (added, "new")]
        assert proxy.query("frequent", None, order_by="_id").rows == primary
        assert proxy.query("frequent", "B", order_by="_id").rows == primary

    def test_a_deep_copy_of_a_compiled_view_runs_its_own_subquery(self):
        """The COW proxy's way of building a per-initiator view: deep-copy a
        view's AST and rename the tables it reads. The copy must not reuse
        closures compiled for the original."""
        db = Database()
        for table in ("words", "other"):
            db.execute(f"CREATE TABLE {table} (_id INTEGER PRIMARY KEY, word TEXT)")
            db.execute(f"INSERT INTO {table} (_id, word) VALUES (1, ?), (2, ?)", [table, table])
        db.execute("CREATE TABLE keep (_id INTEGER PRIMARY KEY)")
        db.execute("INSERT INTO keep (_id) VALUES (1)")
        db.execute("CREATE TABLE keep2 (_id INTEGER PRIMARY KEY)")
        db.execute("INSERT INTO keep2 (_id) VALUES (2)")
        db.execute(
            "CREATE VIEW v AS SELECT _id, word FROM words WHERE _id IN (SELECT _id FROM keep)"
        )
        assert db.execute("SELECT * FROM v").rows == [(1, "words")]
        select = copy.deepcopy(db.views["v"].select)
        select.cores[0].source.name = "other"
        select.cores[0].where.select.cores[0].source.name = "keep2"
        db.define_view("v_copy", select)
        assert db.execute("SELECT * FROM v_copy").rows == [(2, "other")]
        assert db.execute("SELECT * FROM v").rows == [(1, "words")]

    def test_compiled_programs_live_only_as_long_as_their_statements(self):
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        first = "SELECT id FROM t WHERE v > 0"
        db.execute(first)
        program = weakref.ref(db._statement_cache[first][1])
        for index in range(2 * db._cache_limit):
            db.execute(f"SELECT id FROM t WHERE v > {index}")
        gc.collect()
        assert len(db._statement_cache) <= db._cache_limit
        assert program() is None

    def test_closures_never_capture_parameters(self):
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, w TEXT)")
        for word in ("ant", "bee", "cat"):
            db.execute("INSERT INTO t (w) VALUES (?)", [word])
        db.execute("CREATE VIEW v AS SELECT id, w FROM t UNION ALL SELECT id, w FROM t")
        sql = "SELECT w FROM v WHERE id = ? OR w LIKE ?"
        assert db.execute(sql, [1, "c%"]).rows == [("ant",), ("cat",)] * 2
        assert db.execute(sql, [2, "zzz"]).rows == [("bee",)] * 2
        assert db.execute(sql, [3, "a%"]).rows == [("ant",), ("cat",)] * 2
        assert len([key for key in db._statement_cache if key == sql]) == 1
