"""The mini SQL engine: statement execution over in-memory tables.

The public entry point is :class:`Database`. ``execute(sql, params)``
parses (with a statement cache), dispatches, and returns a
:class:`ResultSet`. SQL views are stored SELECTs re-evaluated on use;
``INSTEAD OF`` triggers intercept writes to views — the two features the
Maxoid COW proxy is built from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import (
    SqlError,
    SqlNameError,
    SqlReadOnlyError,
)
from repro.minisql import ast_nodes as ast
from repro.minisql import planner
from repro.minisql.expr import (
    EMPTY_SCOPE,
    Evaluator,
    Scope,
    contains_aggregate,
    is_aggregate_call,
    sql_compare,
    sql_sort_key,
)
from repro.minisql.parser import parse
from repro.minisql.table import Table
from repro.obs import OBS as _OBS


@dataclass
class ResultSet:
    """The result of one statement."""

    columns: List[str] = field(default_factory=list)
    rows: List[tuple] = field(default_factory=list)
    rowcount: int = 0
    lastrowid: Optional[int] = None

    def dicts(self) -> List[Dict[str, object]]:
        """Rows as dictionaries keyed by column name."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def scalar(self) -> object:
        """First column of the first row (None if empty)."""
        if not self.rows:
            return None
        return self.rows[0][0]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


@dataclass
class _View:
    name: str
    select: ast.Select
    columns: List[str]


@dataclass
class _Trigger:
    name: str
    event: str
    view: str
    body: List[ast.TriggerAction]


class _ProjectedRow:
    """A projected output row plus the scope it came from (for ORDER BY on
    non-projected columns)."""

    __slots__ = ("values", "scope")

    def __init__(self, values: tuple, scope: Scope) -> None:
        self.values = values
        self.scope = scope


#: A primary-key access request: the WHERE to search, the column a key
#: term must name (None: the table's own pk) and the source name a
#: qualified reference must carry.
Access = Tuple[ast.Expr, Optional[str], str]


def _names_column(expr: ast.Expr, column: Optional[str], source_name: str) -> bool:
    """True if ``expr`` references ``column`` of the source ``source_name``:
    unqualified, or qualified with that name (never an outer row's)."""
    return (
        isinstance(expr, ast.Column)
        and column is not None
        and expr.name.lower() == column.lower()
        and (expr.table or source_name).lower() == source_name.lower()
    )


def _pk_terms(table: Table, access: Optional[Access]) -> Optional[List[ast.Expr]]:
    """The key expressions of the first top-level AND term of the access's
    WHERE that reads ``column = key`` or ``column IN (key, ...)``, each key
    a parameter or literal; None when there is no such term.

    The column must be unqualified or qualified with the access's source
    name, so a correlated reference to an outer row never qualifies, and a
    unary ``+column`` defeats the match as it does in SQLite.
    """
    if access is None or table.pk_column is None:
        return None
    where, column, qualifier = access
    column = column or table.pk_column

    def is_key(expr: ast.Expr) -> bool:
        return isinstance(expr, (ast.Param, ast.Literal))

    pending = [where]
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Binary):
            if node.op == "AND":
                pending.extend((node.right, node.left))
            elif node.op == "=":
                if _names_column(node.left, column, qualifier) and is_key(node.right):
                    return [node.right]
                if _names_column(node.right, column, qualifier) and is_key(node.left):
                    return [node.left]
        elif (
            isinstance(node, ast.InList)
            and not node.negated
            and _names_column(node.operand, column, qualifier)
            and all(is_key(item) for item in node.items)
        ):
            return list(node.items)
    return None


class Database:
    """An in-memory SQL database.

    ``sqlite_emulation`` selects the subquery-flattening behaviour (see
    :mod:`repro.minisql.planner`); the default matches SQLite 3.8.6, the
    version the Maxoid authors ported to Android.
    """

    def __init__(
        self,
        sqlite_emulation: str = planner.FLATTEN_ORDER_BY_SUBSET,
        obs: Optional[object] = None,
    ) -> None:
        # The observability context of whoever owns this database (a COW
        # proxy passes its device's handle; bare databases use OBS).
        self.obs = obs if obs is not None else _OBS
        self.tables: Dict[str, Table] = {}
        self.views: Dict[str, _View] = {}
        # view name -> event -> trigger
        self.triggers: Dict[str, Dict[str, _Trigger]] = {}
        self.sqlite_emulation = sqlite_emulation
        self.stats = planner.PlannerStats()
        self._statement_cache: Dict[str, ast.Statement] = {}
        self._cache_limit = 512

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def execute(self, sql: str, params: Sequence[object] = ()) -> ResultSet:
        """Parse and execute one SQL statement."""
        if self.obs.enabled:
            with self.obs.tracer.span(
                "sql.execute", sql=sql if len(sql) <= 200 else sql[:197] + "..."
            ) as span:
                result = self._execute_impl(sql, params)
                span.set(rows=len(result.rows), rowcount=result.rowcount)
                self.obs.metrics.count("sql.statements")
                self.obs.metrics.observe("sql.execute.ms", span.elapsed_ms)
                return result
        return self._execute_impl(sql, params)

    def _execute_impl(self, sql: str, params: Sequence[object]) -> ResultSet:
        statement = self._statement_cache.get(sql)
        if statement is None:
            statement = parse(sql)
            if len(self._statement_cache) >= self._cache_limit:
                self._statement_cache.clear()
            self._statement_cache[sql] = statement
        required = getattr(statement, "param_count", 0)
        if len(params) < required:
            raise SqlError(
                f"statement requires {required} parameters, got {len(params)}: {sql!r}"
            )
        result = self._dispatch(statement, list(params))
        if (
            self.obs.prov
            and isinstance(statement, ast.Insert)
            and result.lastrowid is not None
        ):
            # Raw inserts (outside the COW proxy) still stamp the row, so
            # provider state written directly is never label-less.
            self.obs.provenance.row_write(
                statement.table.lower(), result.lastrowid, op="sql.insert"
            )
        return result

    def executemany(self, sql: str, param_rows: Sequence[Sequence[object]]) -> ResultSet:
        """Execute ``sql`` once per parameter row; returns the last result."""
        result = ResultSet()
        for params in param_rows:
            result = self.execute(sql, params)
        return result

    def explain(self, sql: str) -> List[str]:
        """Describe how a SELECT would execute (a minimal EXPLAIN).

        One line per FROM source: ``SCAN table``, or ``SEARCH table USING
        PRIMARY KEY`` when the WHERE pins the table's primary key;
        ``VIEW name (FLATTEN)`` for a UNION ALL view the planner would push
        the query into (``FLATTEN, pk → N arms`` when the key lookup is
        pushed into N of its arms too), or ``VIEW name (MATERIALIZE)`` when
        footnote-5 rules force the view into a temp result first.
        Subqueries are annotated recursively.
        """
        statement = parse(sql)
        if not isinstance(statement, ast.Select):
            return [f"{type(statement).__name__.upper()}"]
        return self._explain_select(statement)

    def _explain_select(
        self,
        select: ast.Select,
        depth: int = 0,
        pushed: Optional[List[Optional[Access]]] = None,
    ) -> List[str]:
        pad = "  " * depth
        lines: List[str] = []
        for index, core in enumerate(select.cores):
            refs = []
            if core.source is not None:
                refs.append(core.source)
            refs.extend(join.table for join in core.joins)
            if not refs:
                lines.append(f"{pad}CONSTANT ROW")
            for ref in refs:
                if ref.subquery is not None:
                    lines.append(f"{pad}SUBQUERY {ref.effective_name}:")
                    lines.extend(self._explain_select(ref.subquery, depth + 1))
                    continue
                name = (ref.name or "").lower()
                if name in self.tables:
                    table = self.tables[name]
                    access = (pushed[index] if pushed else None) or self._core_access(core)
                    if ref is core.source and _pk_terms(table, access) is not None:
                        lines.append(f"{pad}SEARCH {name} USING PRIMARY KEY")
                    else:
                        lines.append(f"{pad}SCAN {name} ({len(table)} rows)")
                elif name in self.views:
                    view = self.views[name]
                    arms: Optional[List[Optional[Access]]] = None
                    if not view.select.is_compound:
                        mode = "EXPAND"
                    elif self._flattened_view(core, select) is view:
                        arms = self._arm_accesses(view, core.where, ref.effective_name)
                        searched = sum(access is not None for access in arms)
                        mode = f"FLATTEN, pk → {searched} arms" if searched else "FLATTEN"
                    else:
                        mode = "MATERIALIZE"
                    lines.append(f"{pad}VIEW {name} ({mode})")
                    lines.extend(self._explain_select(view.select, depth + 1, arms))
                else:
                    lines.append(f"{pad}UNKNOWN {ref.name}")
        if select.order_by:
            lines.append(f"{pad}ORDER BY {len(select.order_by)} key(s)")
        if select.limit is not None:
            lines.append(f"{pad}LIMIT")
        return lines

    def table_names(self) -> List[str]:
        """Sorted names of all base tables."""
        return sorted(self.tables)

    def view_names(self) -> List[str]:
        """Sorted names of all views."""
        return sorted(self.views)

    def has_table(self, name: str) -> bool:
        """True if a base table named ``name`` exists."""
        return name.lower() in self.tables

    def has_view(self, name: str) -> bool:
        """True if a view named ``name`` exists."""
        return name.lower() in self.views

    def table(self, name: str) -> Table:
        """The :class:`Table` object for ``name`` (raises if unknown)."""
        table = self.tables.get(name.lower())
        if table is None:
            raise SqlNameError(f"no such table: {name}")
        return table

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _dispatch(
        self, statement: ast.Statement, params: List[object], scope: Optional[Scope] = None
    ) -> ResultSet:
        if isinstance(statement, ast.Select):
            return self._execute_select(statement, params, outer_scope=scope)
        if isinstance(statement, ast.Insert):
            return self._execute_insert(statement, params, scope)
        if isinstance(statement, ast.Update):
            return self._execute_update(statement, params, scope)
        if isinstance(statement, ast.Delete):
            return self._execute_delete(statement, params, scope)
        if isinstance(statement, ast.CreateTable):
            return self._execute_create_table(statement)
        if isinstance(statement, ast.CreateView):
            return self._execute_create_view(statement)
        if isinstance(statement, ast.CreateTrigger):
            return self._execute_create_trigger(statement)
        if isinstance(statement, ast.DropStatement):
            return self._execute_drop(statement)
        raise SqlError(f"cannot execute {type(statement).__name__}")

    def _evaluator(self, params: Sequence[object]) -> Evaluator:
        return Evaluator(
            params,
            subquery_runner=lambda select, scope: self._execute_select(
                select, list(params), outer_scope=scope
            ).rows,
            key_set_runner=self._pk_key_set,
        )

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------

    def _execute_create_table(self, statement: ast.CreateTable) -> ResultSet:
        key = statement.name.lower()
        if key in self.tables or key in self.views:
            if statement.if_not_exists:
                return ResultSet()
            raise SqlNameError(f"table {statement.name} already exists")
        self.tables[key] = Table(statement.name, statement.columns)
        return ResultSet()

    def _execute_create_view(self, statement: ast.CreateView) -> ResultSet:
        key = statement.name.lower()
        if key in self.tables or key in self.views:
            if statement.if_not_exists:
                return ResultSet()
            raise SqlNameError(f"view {statement.name} already exists")
        columns = self._select_output_columns(statement.select)
        self.views[key] = _View(name=statement.name, select=statement.select, columns=columns)
        return ResultSet()

    def define_view(self, name: str, select: ast.Select) -> None:
        """Register a view directly from a SELECT AST.

        Used by the COW proxy to build per-initiator copies of user-defined
        views whose base tables have been rewritten to COW views — textual
        SQL rewriting would be fragile, so the proxy rewrites the AST.
        """
        key = name.lower()
        if key in self.tables or key in self.views:
            raise SqlNameError(f"view {name} already exists")
        columns = self._select_output_columns(select)
        self.views[key] = _View(name=name, select=select, columns=columns)

    def _execute_create_trigger(self, statement: ast.CreateTrigger) -> ResultSet:
        view_key = statement.view.lower()
        if view_key not in self.views:
            raise SqlNameError(
                f"INSTEAD OF triggers require a view; {statement.view} is not one"
            )
        per_view = self.triggers.setdefault(view_key, {})
        if statement.event in per_view and statement.if_not_exists:
            return ResultSet()
        per_view[statement.event] = _Trigger(
            name=statement.name,
            event=statement.event,
            view=statement.view,
            body=statement.body,
        )
        return ResultSet()

    def _execute_drop(self, statement: ast.DropStatement) -> ResultSet:
        key = statement.name.lower()
        if statement.kind == "TABLE":
            if key not in self.tables:
                if statement.if_exists:
                    return ResultSet()
                raise SqlNameError(f"no such table: {statement.name}")
            del self.tables[key]
        elif statement.kind == "VIEW":
            if key not in self.views:
                if statement.if_exists:
                    return ResultSet()
                raise SqlNameError(f"no such view: {statement.name}")
            del self.views[key]
            self.triggers.pop(key, None)
        else:  # TRIGGER
            for per_view in self.triggers.values():
                for event, trigger in list(per_view.items()):
                    if trigger.name.lower() == key:
                        del per_view[event]
                        return ResultSet()
            if not statement.if_exists:
                raise SqlNameError(f"no such trigger: {statement.name}")
        return ResultSet()

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------

    def _select_output_columns(self, select: ast.Select) -> List[str]:
        """Column names a SELECT produces (used for view schemas)."""
        core = select.cores[0]
        names: List[str] = []
        for item in core.items:
            if isinstance(item.expr, ast.Star):
                names.extend(self._star_columns(core, item.expr))
            elif item.alias:
                names.append(item.alias)
            elif isinstance(item.expr, ast.Column):
                names.append(item.expr.name)
            else:
                names.append(f"col{len(names) + 1}")
        return names

    def _star_columns(self, core: ast.SelectCore, star: ast.Star) -> List[str]:
        names: List[str] = []
        refs = []
        if core.source is not None:
            refs.append(core.source)
        refs.extend(join.table for join in core.joins)
        for ref in refs:
            if star.table and ref.effective_name.lower() != star.table.lower():
                continue
            names.extend(self._source_columns(ref))
        return names

    def _source_columns(self, ref: ast.TableRef) -> List[str]:
        if ref.subquery is not None:
            return self._select_output_columns(ref.subquery)
        assert ref.name is not None
        key = ref.name.lower()
        if key in self.tables:
            return [c.name for c in self.tables[key].columns]
        if key in self.views:
            return list(self.views[key].columns)
        raise SqlNameError(f"no such table: {ref.name}")

    def _source_rows(
        self,
        ref: ast.TableRef,
        params: List[object],
        outer_scope: Optional[Scope],
        evaluator: Optional[Evaluator] = None,
        access: Optional[Access] = None,
    ) -> Tuple[List[str], List[Dict[str, object]]]:
        """Produce (column names, row dicts) for a FROM source; a base table
        reads only its primary-key candidates when ``access`` allows."""
        if ref.subquery is not None:
            result = self._execute_select(ref.subquery, params, outer_scope=outer_scope)
            rows = [dict(zip([c.lower() for c in result.columns], row)) for row in result.rows]
            return result.columns, rows
        assert ref.name is not None
        key = ref.name.lower()
        if key in self.tables:
            table = self.tables[key]
            rowids = self._pk_rowids(table, access, evaluator) if evaluator else None
            stored = (
                table.rows.values() if rowids is None else [table.rows[r] for r in rowids]
            )
            rows = [dict(row) for row in stored]
            self.stats.rows_scanned += len(rows)
            return [c.name for c in table.columns], rows
        if key in self.views:
            view = self.views[key]
            result = self._execute_select(view.select, params, outer_scope=outer_scope)
            self.stats.materialized_views += 1
            self.stats.materialized_rows += len(result.rows)
            rows = [dict(zip([c.lower() for c in view.columns], row)) for row in result.rows]
            return list(view.columns), rows
        raise SqlNameError(f"no such table: {ref.name}")

    def _pk_rowids(
        self, table: Table, access: Optional[Access], evaluator: Evaluator
    ) -> Optional[List[int]]:
        """The primary-key access path: the rowids of ``table`` whose key
        matches the access's ``pk = ?`` / ``pk IN (...)`` term, in scan
        order, or None when the table must be scanned. Callers still
        evaluate the full WHERE on every candidate."""
        terms = _pk_terms(table, access)
        if terms is None:
            return None
        rowids = set()
        for term in terms:
            value = evaluator.evaluate(term, EMPTY_SCOPE)
            if value is None:
                continue
            try:
                rowid = table.pk_index.get(value)
            except TypeError:  # unhashable key: fall back to the scan
                return None
            if rowid is not None:
                rowids.add(rowid)
        return sorted(rowids)

    @staticmethod
    def _core_access(core: ast.SelectCore) -> Optional[Access]:
        """The access a single-source core's own WHERE offers its table."""
        if core.where is None or core.source is None or core.joins:
            return None
        return (core.where, None, core.source.effective_name)

    @staticmethod
    def _scope_maker(
        name: str, columns: Sequence[str]
    ) -> Callable[[Dict[str, object], Optional[Scope]], Scope]:
        """A function building one row's scope, which binds each column
        bare and as ``name.col``; the key strings are built once."""
        lowered = name.lower()
        keys = [(c.lower(), f"{lowered}.{c.lower()}") for c in columns]

        def make(row: Dict[str, object], outer: Optional[Scope]) -> Scope:
            bindings: Dict[str, object] = {}
            for key, qualified in keys:
                value = row.get(key)
                bindings[key] = value
                bindings[qualified] = value
            return Scope(bindings, outer)

        return make

    @staticmethod
    def _merge_scopes(base: Scope, extra: Scope) -> Scope:
        merged = dict(base.bindings)
        merged.update(extra.bindings)
        return Scope(merged, extra.outer or base.outer)

    def _execute_select(
        self,
        select: ast.Select,
        params: List[object],
        outer_scope: Optional[Scope] = None,
    ) -> ResultSet:
        evaluator = self._evaluator(params)
        projected: List[_ProjectedRow] = []
        columns: List[str] = []
        for index, core in enumerate(select.cores):
            core_columns, core_rows = self._execute_core(
                core, select, params, evaluator, outer_scope
            )
            if index == 0:
                columns = core_columns
            elif len(core_columns) != len(columns):
                raise SqlError("UNION ALL arms have differing column counts")
            projected.extend(core_rows)
        # ORDER BY over the compound result.
        if select.order_by:
            projected = self._order_rows(projected, columns, select.order_by, evaluator)
        # LIMIT / OFFSET
        if select.limit is not None or select.offset is not None:
            scope = outer_scope or Scope({})
            offset = 0
            if select.offset is not None:
                offset = int(evaluator.evaluate(select.offset, scope) or 0)
            if select.limit is not None:
                limit = evaluator.evaluate(select.limit, scope)
                if limit is not None and int(limit) >= 0:
                    projected = projected[offset : offset + int(limit)]
                else:
                    projected = projected[offset:]
            else:
                projected = projected[offset:]
        rows = [p.values for p in projected]
        return ResultSet(columns=columns, rows=rows, rowcount=len(rows))

    def _queried_column_set(self, core: ast.SelectCore) -> Optional[Set[str]]:
        """Lowercased output column names, or None when the core selects *."""
        names: Set[str] = set()
        for item in core.items:
            if isinstance(item.expr, ast.Star):
                return None
            if item.alias:
                names.add(item.alias.lower())
            if isinstance(item.expr, ast.Column):
                names.add(item.expr.name.lower())
        return names

    def _execute_core(
        self,
        core: ast.SelectCore,
        enclosing: ast.Select,
        params: List[object],
        evaluator: Evaluator,
        outer_scope: Optional[Scope],
        access: Optional[Access] = None,
    ) -> Tuple[List[str], List[_ProjectedRow]]:
        """Run one SELECT core. ``access`` is a primary-key lookup pushed
        down from an enclosing query over a UNION ALL view; without one the
        core's own WHERE is searched for a key term."""
        # --- planner hook: flattened execution over a UNION ALL view -----
        flattened = self._try_flattened_view(core, enclosing, params, evaluator, outer_scope)
        if flattened is not None:
            return flattened
        extreme = self._pk_extreme(core)
        if extreme is not None:
            return extreme
        # --- build the joined row set -------------------------------------
        scopes: List[Scope]
        source_columns: List[Tuple[str, List[str]]] = []
        if core.source is None:
            scopes = [Scope({}, outer_scope)]
        else:
            name = core.source.effective_name
            cols, rows = self._source_rows(
                core.source, params, outer_scope, evaluator, access or self._core_access(core)
            )
            source_columns.append((name, cols))
            make = self._scope_maker(name, cols)
            scopes = [make(row, outer_scope) for row in rows]
            for join in core.joins:
                join_name = join.table.effective_name
                join_cols, join_rows = self._source_rows(join.table, params, outer_scope)
                source_columns.append((join_name, join_cols))
                make_join = self._scope_maker(join_name, join_cols)
                join_scopes = [make_join(row, outer_scope) for row in join_rows]
                joined: List[Scope] = []
                for left_scope in scopes:
                    matched = False
                    for right_scope in join_scopes:
                        candidate = self._merge_scopes(left_scope, right_scope)
                        if join.on is None or evaluator.truth(join.on, candidate):
                            joined.append(candidate)
                            matched = True
                    if join.kind == "LEFT" and not matched:
                        null_row = {c.lower(): None for c in join_cols}
                        joined.append(
                            self._merge_scopes(left_scope, make_join(null_row, outer_scope))
                        )
                scopes = joined
        # --- WHERE -----------------------------------------------------------
        if core.where is not None:
            scopes = [s for s in scopes if evaluator.truth(core.where, s)]
        # --- aggregate or plain projection ------------------------------------
        has_aggregates = any(contains_aggregate(item.expr) for item in core.items) or (
            core.having is not None and contains_aggregate(core.having)
        )
        columns = self._core_output_columns(core, source_columns)
        if core.group_by or has_aggregates:
            rows = self._aggregate(core, scopes, columns, evaluator)
        else:
            rows = []
            for scope in scopes:
                values = self._project(core, scope, source_columns, evaluator)
                rows.append(_ProjectedRow(tuple(values), scope))
        if core.distinct:
            seen = set()
            unique: List[_ProjectedRow] = []
            for row in rows:
                key = row.values
                if key not in seen:
                    seen.add(key)
                    unique.append(row)
            rows = unique
        return columns, rows

    def _flattened_view(self, core: ast.SelectCore, enclosing: ast.Select) -> Optional[_View]:
        """The UNION ALL view ``core`` reads, when the planner pushes the
        query into the view's arms instead of materialising it."""
        if core.source is None or core.source.name is None or core.joins:
            return None
        view = self.views.get(core.source.name.lower())
        if view is None or not view.select.is_compound:
            return None
        if core.group_by or core.having or core.distinct:
            return None
        if any(contains_aggregate(item.expr) for item in core.items):
            return None
        if not planner.should_flatten(
            view.select,
            enclosing.order_by if len(enclosing.cores) == 1 else [],
            self._queried_column_set(core),
            self.sqlite_emulation,
        ):
            return None
        return view

    def _arm_accesses(
        self, view: _View, where: Optional[ast.Expr], qualifier: str
    ) -> List[Optional[Access]]:
        """Push a ``pk = ?`` term of ``where`` (over the view's columns)
        into each arm of a UNION ALL view: an arm gets the access when the
        view column the term names is its own table's primary key,
        projected unchanged."""
        accesses: List[Optional[Access]] = []
        for arm in view.select.cores:
            accesses.append(None)
            table = self.tables.get((arm.source.name or "").lower()) if arm.source else None
            if where is None or table is None:
                continue
            exprs: List[ast.Expr] = []
            for item in arm.items:
                if isinstance(item.expr, ast.Star):
                    exprs.extend(ast.Column(name=c) for c in table.column_names)
                else:
                    exprs.append(item.expr)
            arm_name = arm.source.effective_name
            for column, expr in zip(view.columns, exprs):
                if (
                    _names_column(expr, table.pk_column, arm_name)
                    and _pk_terms(table, (where, column, qualifier)) is not None
                ):
                    accesses[-1] = (where, column, qualifier)
                    break
        return accesses

    def _try_flattened_view(
        self,
        core: ast.SelectCore,
        enclosing: ast.Select,
        params: List[object],
        evaluator: Evaluator,
        outer_scope: Optional[Scope],
    ) -> Optional[Tuple[List[str], List[_ProjectedRow]]]:
        """Execute ``SELECT ... FROM union_all_view WHERE ...`` by pushing
        the work (and any primary-key lookup) into the view's arms when the
        planner allows it."""
        view = self._flattened_view(core, enclosing)
        if view is None:
            return None
        self.stats.flattened_queries += 1
        effective = core.source.effective_name
        view_columns_lower = [c.lower() for c in view.columns]
        out_rows: List[_ProjectedRow] = []
        source_columns = [(effective, list(view.columns))]
        make = self._scope_maker(effective, view.columns)
        for arm_values in self._arm_rows(
            view, core.where, effective, params, evaluator, outer_scope
        ):
            scope = make(dict(zip(view_columns_lower, arm_values)), outer_scope)
            if core.where is not None and not evaluator.truth(core.where, scope):
                continue
            values = self._project(core, scope, source_columns, evaluator)
            out_rows.append(_ProjectedRow(tuple(values), scope))
        return self._core_output_columns(core, source_columns), out_rows

    def _arm_rows(
        self,
        view: _View,
        where: Optional[ast.Expr],
        qualifier: str,
        params: List[object],
        evaluator: Evaluator,
        outer_scope: Optional[Scope],
    ) -> Iterator[tuple]:
        """The rows of a flattened UNION ALL view, arm by arm, each arm
        reading by primary key when ``where`` (over the view) pins it."""
        for arm, access in zip(view.select.cores, self._arm_accesses(view, where, qualifier)):
            _columns, arm_rows = self._execute_core(
                arm, view.select, params, evaluator, outer_scope, access
            )
            for arm_row in arm_rows:
                yield arm_row.values

    def _bare_table_item(self, core: ast.SelectCore) -> Optional[Table]:
        """The table a ``SELECT <one item> FROM table`` core reads whole,
        with no WHERE, join or grouping; None for any other core."""
        if core.where is not None or core.joins or core.group_by or core.having:
            return None
        if core.source is None or core.source.name is None or len(core.items) != 1:
            return None
        table = self.tables.get(core.source.name.lower())
        return table if table is not None and table.pk_column is not None else None

    def _pk_extreme(
        self, core: ast.SelectCore
    ) -> Optional[Tuple[List[str], List[_ProjectedRow]]]:
        """Answer ``SELECT MIN(pk)`` / ``MAX(pk)`` over a bare base table
        from its primary-key index."""
        table = self._bare_table_item(core)
        if table is None:
            return None
        call = core.items[0].expr
        name = core.source.effective_name
        if (
            not isinstance(call, ast.FunctionCall)
            or call.name not in ("min", "max")
            or len(call.args) != 1
            or not _names_column(call.args[0], table.pk_column, name)
        ):
            return None
        pick = min if call.name == "min" else max
        keys = table.pk_index.keys()
        try:
            value = pick(keys, default=None)
        except TypeError:  # mixed types: order them as SQL does
            value = pick(keys, key=sql_sort_key)
        columns = self._core_output_columns(core, [(name, [c.name for c in table.columns])])
        return columns, [_ProjectedRow((value,), Scope({}))]

    def _pk_key_set(self, select: ast.Select) -> Optional[frozenset]:
        """The keys of ``SELECT pk FROM table``, read from the table's index
        for an ``IN (...)`` probe; None for any other subquery."""
        if select.is_compound or select.limit is not None or select.offset is not None:
            return None
        core = select.cores[0]
        table = self._bare_table_item(core)
        if table is None or not _names_column(
            core.items[0].expr, table.pk_column, core.source.effective_name
        ):
            return None
        return frozenset(table.pk_index)

    def _core_output_columns(
        self, core: ast.SelectCore, source_columns: List[Tuple[str, List[str]]]
    ) -> List[str]:
        names: List[str] = []
        for item in core.items:
            if isinstance(item.expr, ast.Star):
                for table_name, cols in source_columns:
                    if item.expr.table and table_name.lower() != item.expr.table.lower():
                        continue
                    names.extend(cols)
            elif item.alias:
                names.append(item.alias)
            elif isinstance(item.expr, ast.Column):
                names.append(item.expr.name)
            elif isinstance(item.expr, ast.FunctionCall):
                star = "*" if item.expr.star else ""
                names.append(f"{item.expr.name}({star})")
            else:
                names.append(f"col{len(names) + 1}")
        return names

    def _project(
        self,
        core: ast.SelectCore,
        scope: Scope,
        source_columns: List[Tuple[str, List[str]]],
        evaluator: Evaluator,
    ) -> List[object]:
        values: List[object] = []
        for item in core.items:
            if isinstance(item.expr, ast.Star):
                for table_name, cols in source_columns:
                    if item.expr.table and table_name.lower() != item.expr.table.lower():
                        continue
                    for column in cols:
                        values.append(scope.lookup(f"{table_name.lower()}.{column.lower()}"))
            else:
                values.append(evaluator.evaluate(item.expr, scope))
        return values

    # -- aggregation --------------------------------------------------------

    def _aggregate(
        self,
        core: ast.SelectCore,
        scopes: List[Scope],
        columns: List[str],
        evaluator: Evaluator,
    ) -> List[_ProjectedRow]:
        groups: Dict[tuple, List[Scope]] = {}
        order: List[tuple] = []
        if core.group_by:
            for scope in scopes:
                key = tuple(
                    self._hashable(evaluator.evaluate(expr, scope)) for expr in core.group_by
                )
                if key not in groups:
                    groups[key] = []
                    order.append(key)
                groups[key].append(scope)
        else:
            groups[()] = scopes
            order.append(())
        rows: List[_ProjectedRow] = []
        for key in order:
            group = groups[key]
            representative = group[0] if group else Scope({})
            if core.having is not None:
                having_value = self._eval_aggregate_expr(core.having, group, evaluator)
                if not having_value:
                    continue
            values = [
                self._eval_aggregate_expr(item.expr, group, evaluator) for item in core.items
            ]
            rows.append(_ProjectedRow(tuple(values), representative))
        return rows

    @staticmethod
    def _hashable(value: object) -> object:
        return tuple(value) if isinstance(value, list) else value

    def _eval_aggregate_expr(
        self, expr: ast.Expr, group: List[Scope], evaluator: Evaluator
    ) -> object:
        if is_aggregate_call(expr):
            assert isinstance(expr, ast.FunctionCall)
            return self._compute_aggregate(expr, group, evaluator)
        if isinstance(expr, ast.Binary):
            left = self._eval_aggregate_expr(expr.left, group, evaluator)
            right = self._eval_aggregate_expr(expr.right, group, evaluator)
            synthetic = ast.Binary(
                op=expr.op, left=ast.Literal(value=left), right=ast.Literal(value=right)
            )
            return evaluator.evaluate(synthetic, group[0] if group else Scope({}))
        if isinstance(expr, ast.Unary):
            inner = self._eval_aggregate_expr(expr.operand, group, evaluator)
            synthetic = ast.Unary(op=expr.op, operand=ast.Literal(value=inner))
            return evaluator.evaluate(synthetic, group[0] if group else Scope({}))
        scope = group[0] if group else Scope({})
        return evaluator.evaluate(expr, scope)

    def _compute_aggregate(
        self, call: ast.FunctionCall, group: List[Scope], evaluator: Evaluator
    ) -> object:
        if call.star:
            if call.name == "count":
                return len(group)
            raise SqlError(f"{call.name}(*) is not supported")
        if not call.args:
            raise SqlError(f"aggregate {call.name}() needs an argument")
        values = [evaluator.evaluate(call.args[0], scope) for scope in group]
        present = [v for v in values if v is not None]
        if call.distinct:
            deduped: List[object] = []
            for value in present:
                if value not in deduped:
                    deduped.append(value)
            present = deduped
        if call.name == "count":
            return len(present)
        if call.name == "sum":
            return sum(present) if present else None  # type: ignore[arg-type]
        if call.name == "total":
            return float(sum(present)) if present else 0.0  # type: ignore[arg-type]
        if call.name == "avg":
            return (sum(present) / len(present)) if present else None  # type: ignore[arg-type]
        if call.name in ("min", "max"):
            if not present:
                return None
            chosen = present[0]
            for value in present[1:]:
                order = sql_compare(value, chosen)
                if (call.name == "min" and order < 0) or (call.name == "max" and order > 0):
                    chosen = value
            return chosen
        if call.name == "group_concat":
            if not present:
                return None
            return ",".join(str(v) for v in present)
        raise SqlNameError(f"no such aggregate: {call.name}")

    # -- ordering -------------------------------------------------------------

    def _order_rows(
        self,
        rows: List[_ProjectedRow],
        columns: List[str],
        order_by: List[ast.OrderItem],
        evaluator: Evaluator,
    ) -> List[_ProjectedRow]:
        if len(rows) < 2:
            return rows
        lowered = [c.lower() for c in columns]
        # Each term reads a projected position, or evaluates its expression.
        positions: List[Optional[int]] = []
        for item in order_by:
            expr = item.expr
            position = None
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                position = expr.value - 1
            elif isinstance(expr, ast.Column) and expr.table is None:
                name = expr.name.lower()
                if name in lowered:
                    position = lowered.index(name)
            positions.append(position)
        keyed = [
            (
                tuple(
                    sql_sort_key(
                        row.values[position]
                        if position is not None
                        else evaluator.evaluate(item.expr, row.scope)
                    )
                    for item, position in zip(order_by, positions)
                ),
                row,
            )
            for row in rows
        ]
        # Stable sorts from the last term to the first give the
        # lexicographic order, each term in its own direction.
        for index in reversed(range(len(order_by))):
            keyed.sort(key=lambda pair: pair[0][index], reverse=order_by[index].descending)
        return [row for _key, row in keyed]

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------

    def _execute_insert(
        self, statement: ast.Insert, params: List[object], scope: Optional[Scope]
    ) -> ResultSet:
        key = statement.table.lower()
        if key in self.views:
            return self._insert_into_view(statement, params, scope)
        table = self.table(statement.table)
        evaluator = self._evaluator(params)
        eval_scope = scope or Scope({})
        value_rows: List[List[object]] = []
        if statement.select is not None:
            result = self._execute_select(statement.select, params, outer_scope=scope)
            value_rows = [list(row) for row in result.rows]
        else:
            for exprs in statement.values:
                value_rows.append([evaluator.evaluate(e, eval_scope) for e in exprs])
        columns = statement.columns or [c.name for c in table.columns]
        lastrowid = None
        for values in value_rows:
            if len(values) != len(columns):
                raise SqlError(
                    f"{len(columns)} columns but {len(values)} values in INSERT"
                )
            row = {c.lower(): v for c, v in zip(columns, values)}
            lastrowid = table.insert_row(row, or_replace=statement.or_replace)
        return ResultSet(rowcount=len(value_rows), lastrowid=lastrowid)

    @staticmethod
    def _check_assignments(statement: ast.Update, columns: Sequence[str]) -> None:
        """Reject unknown SET columns before any row is looked at."""
        known = {c.lower() for c in columns}
        unknown = {column.lower() for column, _expr in statement.assignments} - known
        if unknown:
            raise SqlNameError(f"no such columns in UPDATE: {sorted(unknown)}")

    def _table_matches(
        self,
        table: Table,
        where: Optional[ast.Expr],
        evaluator: Evaluator,
        scope: Optional[Scope],
    ) -> Iterator[Tuple[int, Scope]]:
        """(rowid, scope) of each row of ``table`` an UPDATE or DELETE with
        ``where`` touches, read by primary key when it can be. Each row's
        WHERE is evaluated only when the caller asks for the next match."""
        rowids = self._pk_rowids(table, (where, None, table.name), evaluator) if where else None
        make = self._scope_maker(table.name, table.column_names)
        for rowid in list(table.rows) if rowids is None else rowids:
            row_scope = make(table.rows[rowid], scope)
            if evaluator.truth(where, row_scope):
                yield rowid, row_scope

    def _execute_update(
        self, statement: ast.Update, params: List[object], scope: Optional[Scope]
    ) -> ResultSet:
        key = statement.table.lower()
        if key in self.views:
            return self._update_view(statement, params, scope)
        table = self.table(statement.table)
        self._check_assignments(statement, table.column_names)
        evaluator = self._evaluator(params)
        updated = 0
        for rowid, row_scope in self._table_matches(table, statement.where, evaluator, scope):
            new_values = {
                column.lower(): evaluator.evaluate(expr, row_scope)
                for column, expr in statement.assignments
            }
            table.update_row(rowid, new_values)
            updated += 1
        return ResultSet(rowcount=updated)

    def _execute_delete(
        self, statement: ast.Delete, params: List[object], scope: Optional[Scope]
    ) -> ResultSet:
        key = statement.table.lower()
        if key in self.views:
            return self._delete_from_view(statement, params, scope)
        table = self.table(statement.table)
        evaluator = self._evaluator(params)
        doomed = [
            rowid for rowid, _scope in self._table_matches(table, statement.where, evaluator, scope)
        ]
        removed = table.delete_rowids(doomed)
        return ResultSet(rowcount=removed)

    # -- INSTEAD OF triggers ---------------------------------------------------

    def _view_trigger(self, view_key: str, event: str) -> _Trigger:
        trigger = self.triggers.get(view_key, {}).get(event)
        if trigger is None:
            raise SqlReadOnlyError(
                f"cannot modify view {view_key}: no INSTEAD OF {event} trigger"
            )
        return trigger

    def _run_trigger(
        self,
        trigger: _Trigger,
        params: List[object],
        new_row: Optional[Dict[str, object]],
        old_row: Optional[Dict[str, object]],
    ) -> None:
        bindings: Dict[str, object] = {}
        if new_row is not None:
            for column, value in new_row.items():
                bindings[f"new.{column.lower()}"] = value
        if old_row is not None:
            for column, value in old_row.items():
                bindings[f"old.{column.lower()}"] = value
        trigger_scope = Scope(bindings)
        for action in trigger.body:
            self._dispatch(action.statement, params, scope=trigger_scope)

    def _insert_into_view(
        self, statement: ast.Insert, params: List[object], scope: Optional[Scope]
    ) -> ResultSet:
        view = self.views[statement.table.lower()]
        trigger = self._view_trigger(statement.table.lower(), "INSERT")
        evaluator = self._evaluator(params)
        eval_scope = scope or Scope({})
        value_rows: List[List[object]] = []
        if statement.select is not None:
            result = self._execute_select(statement.select, params, outer_scope=scope)
            value_rows = [list(r) for r in result.rows]
        else:
            for exprs in statement.values:
                value_rows.append([evaluator.evaluate(e, eval_scope) for e in exprs])
        columns = statement.columns or list(view.columns)
        for values in value_rows:
            new_row = {c.lower(): None for c in view.columns}
            for column, value in zip(columns, values):
                new_row[column.lower()] = value
            self._run_trigger(trigger, params, new_row=new_row, old_row=None)
        return ResultSet(rowcount=len(value_rows))

    def _view_rows(
        self,
        view: _View,
        where: Optional[ast.Expr],
        params: List[object],
        scope: Optional[Scope],
    ) -> List[Dict[str, object]]:
        """The rows of ``view`` an UPDATE or DELETE with ``where`` considers.
        When the planner would flatten the UNION ALL view and ``where`` pins
        the primary key, each arm reads by its key instead of computing the
        whole view."""
        rows: Iterable[tuple]
        if view.select.is_compound and planner.should_flatten(
            view.select, [], None, self.sqlite_emulation
        ):
            rows = self._arm_rows(view, where, view.name, params, self._evaluator(params), scope)
        else:
            rows = self._execute_select(view.select, params, outer_scope=scope).rows
        lowered = [c.lower() for c in view.columns]
        return [dict(zip(lowered, row)) for row in rows]

    def _view_matches(
        self,
        view: _View,
        where: Optional[ast.Expr],
        params: List[object],
        evaluator: Evaluator,
        scope: Optional[Scope],
    ) -> Iterator[Tuple[Dict[str, object], Scope]]:
        """(row, scope) of each view row the statement's ``where`` selects,
        evaluated as the caller iterates (its triggers run in between)."""
        make = self._scope_maker(view.name, view.columns)
        for row in self._view_rows(view, where, params, scope):
            row_scope = make(row, scope)
            if evaluator.truth(where, row_scope):
                yield row, row_scope

    def _update_view(
        self, statement: ast.Update, params: List[object], scope: Optional[Scope]
    ) -> ResultSet:
        view = self.views[statement.table.lower()]
        trigger = self._view_trigger(statement.table.lower(), "UPDATE")
        self._check_assignments(statement, view.columns)
        evaluator = self._evaluator(params)
        updated = 0
        for row, row_scope in self._view_matches(view, statement.where, params, evaluator, scope):
            new_row = dict(row)
            for column, expr in statement.assignments:
                new_row[column.lower()] = evaluator.evaluate(expr, row_scope)
            self._run_trigger(trigger, params, new_row=new_row, old_row=row)
            updated += 1
        return ResultSet(rowcount=updated)

    def _delete_from_view(
        self, statement: ast.Delete, params: List[object], scope: Optional[Scope]
    ) -> ResultSet:
        view = self.views[statement.table.lower()]
        trigger = self._view_trigger(statement.table.lower(), "DELETE")
        evaluator = self._evaluator(params)
        deleted = 0
        for row, _scope in self._view_matches(view, statement.where, params, evaluator, scope):
            self._run_trigger(trigger, params, new_row=None, old_row=row)
            deleted += 1
        return ResultSet(rowcount=deleted)
