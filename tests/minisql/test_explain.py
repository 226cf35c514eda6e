"""Tests for the EXPLAIN-style plan description."""

import pytest

from repro.minisql import Database
from repro.minisql.planner import FLATTEN_NEVER_WITH_ORDER_BY


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE a (_id INTEGER PRIMARY KEY, v TEXT)")
    database.execute("CREATE TABLE b (_id INTEGER PRIMARY KEY, v TEXT)")
    database.execute("INSERT INTO a (v) VALUES ('x'), ('y')")
    database.execute(
        "CREATE VIEW u AS SELECT _id, v FROM a UNION ALL SELECT _id, v FROM b"
    )
    database.execute("CREATE VIEW simple AS SELECT v FROM a")
    return database


class TestExplain:
    def test_table_scan_with_row_count(self, db):
        plan = db.explain("SELECT v FROM a")
        assert plan == ["SCAN a (2 rows)"]

    def test_flattened_view(self, db):
        plan = db.explain("SELECT v FROM u WHERE v = 'x'")
        assert plan[0] == "VIEW u (FLATTEN)"
        assert "SCAN a (2 rows)" in [line.strip() for line in plan]

    def test_materialized_view_under_3711(self, db):
        old = Database(sqlite_emulation=FLATTEN_NEVER_WITH_ORDER_BY)
        old.execute("CREATE TABLE a (_id INTEGER PRIMARY KEY, v TEXT)")
        old.execute("CREATE TABLE b (_id INTEGER PRIMARY KEY, v TEXT)")
        old.execute("CREATE VIEW u AS SELECT _id, v FROM a UNION ALL SELECT _id, v FROM b")
        plan = old.explain("SELECT v FROM u ORDER BY _id")
        assert plan[0] == "VIEW u (MATERIALIZE)"

    def test_footnote5_workaround_visible_in_plan(self, db):
        # Non-subset ORDER BY: materialize; widening the projection flips
        # it back to the flattened plan — the proxy's exact trick.
        db_386 = db
        materializing = db_386.explain("SELECT v FROM u ORDER BY _id")
        flattened = db_386.explain("SELECT v, _id FROM u ORDER BY _id")
        assert materializing[0] == "VIEW u (MATERIALIZE)"
        assert flattened[0] == "VIEW u (FLATTEN)"

    def test_simple_view_expands(self, db):
        plan = db.explain("SELECT v FROM simple")
        assert plan[0] == "VIEW simple (EXPAND)"

    def test_order_by_and_limit_noted(self, db):
        plan = db.explain("SELECT v FROM a ORDER BY v LIMIT 1")
        assert "ORDER BY 1 key(s)" in plan
        assert "LIMIT" in plan

    def test_subquery_in_from(self, db):
        plan = db.explain("SELECT x FROM (SELECT v AS x FROM a) sub")
        assert plan[0] == "SUBQUERY sub:"
        assert plan[1].strip() == "SCAN a (2 rows)"

    def test_constant_select(self, db):
        assert db.explain("SELECT 1") == ["CONSTANT ROW"]

    def test_non_select(self, db):
        assert db.explain("DELETE FROM a") == ["DELETE"]


class TestExplainPrimaryKey:
    def test_search_by_primary_key(self, db):
        assert db.explain("SELECT v FROM a WHERE _id = ?") == ["SEARCH a USING PRIMARY KEY"]
        assert db.explain("SELECT v FROM a WHERE v = 'x' AND _id IN (1, 2)") == [
            "SEARCH a USING PRIMARY KEY"
        ]

    def test_non_key_terms_scan(self, db):
        for where in ("+_id = 1", "_id = 1 OR v = 'x'", "_id > 1", "v = 'x'"):
            assert db.explain(f"SELECT v FROM a WHERE {where}") == ["SCAN a (2 rows)"], where

    def test_key_pushed_into_flattened_arms(self, db):
        plan = db.explain("SELECT v FROM u WHERE _id = ?")
        assert plan[0] == "VIEW u (FLATTEN, pk → 2 arms)"
        assert [line.strip() for line in plan[1:]] == [
            "SEARCH a USING PRIMARY KEY",
            "SEARCH b USING PRIMARY KEY",
        ]

    def test_key_of_a_computed_view_column_is_not_pushed(self, db):
        db.execute(
            "CREATE VIEW w AS SELECT _id + 1 AS _id, v FROM a UNION ALL SELECT _id, v FROM b"
        )
        plan = db.explain("SELECT v FROM w WHERE _id = 3")
        assert plan[0] == "VIEW w (FLATTEN, pk → 1 arms)"
        assert [line.strip() for line in plan[1:]] == [
            "SCAN a (2 rows)",
            "SEARCH b USING PRIMARY KEY",
        ]

    def test_footnote5_materialises_without_search(self, db):
        # The ORDER BY column is not queried: 3.8.6 materialises the whole
        # view, so no arm may be read by key.
        plan = db.explain("SELECT v FROM u WHERE _id = ? ORDER BY _id")
        assert plan[0] == "VIEW u (MATERIALIZE)"
        assert not any(line.strip().startswith("SEARCH") for line in plan)
        # The proxy's widening flips it back to a flattened key lookup.
        widened = db.explain("SELECT v, _id FROM u WHERE _id = ? ORDER BY _id")
        assert widened[0] == "VIEW u (FLATTEN, pk → 2 arms)"

    def test_3711_materialises_without_search(self):
        old = Database(sqlite_emulation=FLATTEN_NEVER_WITH_ORDER_BY)
        old.execute("CREATE TABLE a (_id INTEGER PRIMARY KEY, v TEXT)")
        old.execute("CREATE TABLE b (_id INTEGER PRIMARY KEY, v TEXT)")
        old.execute("CREATE VIEW u AS SELECT _id, v FROM a UNION ALL SELECT _id, v FROM b")
        plan = old.explain("SELECT v, _id FROM u WHERE _id = 1 ORDER BY _id")
        assert plan[0] == "VIEW u (MATERIALIZE)"
        assert not any(line.strip().startswith("SEARCH") for line in plan)
