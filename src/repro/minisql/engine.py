"""The mini SQL engine: statement execution over in-memory tables.

The public entry point is :class:`Database`. ``execute(sql, params)``
parses (with a statement cache), dispatches, and returns a
:class:`ResultSet`. SQL views are stored SELECTs re-evaluated on use;
``INSTEAD OF`` triggers intercept writes to views — the two features the
Maxoid COW proxy is built from.
"""

from __future__ import annotations

import operator
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
    BINARY,
    UNARY,
    Evaluator,
    Program,
    Scope,
    compile_program,
    contains_aggregate,
    is_aggregate_call,
    is_true,
    sql_compare,
    sql_sort_key,
    sql_sort_keys,
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
    program: Program


@dataclass
class _Trigger:
    name: str
    event: str
    view: str
    body: List[ast.TriggerAction]
    program: Program


class _ProjectedRow:
    """A projected output row plus the scope it came from (for ORDER BY on
    non-projected columns; None when no such term needs it)."""

    __slots__ = ("values", "scope")

    def __init__(self, values: tuple, scope: Optional[Scope]) -> None:
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


def _ordinal(number: int) -> str:
    """``1st``, ``2nd``, ``3rd``, ``4th``, ... ``11th``, ``21st``."""
    suffix = {1: "st", 2: "nd", 3: "rd"}.get(number % 10, "th")
    if 10 <= number % 100 <= 20:
        suffix = "th"
    return f"{number}{suffix}"


def _binding(key: str) -> Callable[[Evaluator, Scope], object]:
    """Read one column of a ``*`` expansion from a row's own bindings."""
    return lambda evaluator, scope: scope.bindings[key]


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
        # SQL text -> (statement, its compiled expressions); the programs
        # live and die with their statements.
        self._statement_cache: Dict[str, Tuple[ast.Statement, Program]] = {}
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
        cached = self._statement_cache.get(sql)
        if cached is None:
            statement = parse(sql)
            cached = (statement, compile_program(statement))
            if len(self._statement_cache) >= self._cache_limit:
                self._statement_cache.clear()
            self._statement_cache[sql] = cached
        statement, program = cached
        required = getattr(statement, "param_count", 0)
        if len(params) < required:
            raise SqlError(
                f"statement requires {required} parameters, got {len(params)}: {sql!r}"
            )
        result = self._dispatch(statement, list(params), program)
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
        self,
        statement: ast.Statement,
        params: List[object],
        program: Program,
        scope: Optional[Scope] = None,
    ) -> ResultSet:
        if isinstance(statement, ast.Select):
            return self._execute_select(statement, params, program, outer_scope=scope)
        if isinstance(statement, ast.Insert):
            return self._execute_insert(statement, params, program, scope)
        if isinstance(statement, ast.Update):
            return self._execute_update(statement, params, program, scope)
        if isinstance(statement, ast.Delete):
            return self._execute_delete(statement, params, program, scope)
        if isinstance(statement, ast.CreateTable):
            return self._execute_create_table(statement)
        if isinstance(statement, ast.CreateView):
            return self._execute_create_view(statement)
        if isinstance(statement, ast.CreateTrigger):
            return self._execute_create_trigger(statement)
        if isinstance(statement, ast.DropStatement):
            return self._execute_drop(statement)
        raise SqlError(f"cannot execute {type(statement).__name__}")

    def _evaluator(self, params: List[object], program: Program) -> Evaluator:
        return Evaluator(
            params,
            program,
            subquery_runner=lambda select, scope: self._execute_select(
                select, params, program, outer_scope=scope
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
        self._define(statement.name, statement.select)
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
        self._define(name, select)

    def _define(self, name: str, select: ast.Select) -> None:
        columns = self._select_output_columns(select)
        self.views[name.lower()] = _View(
            name=name, select=select, columns=columns, program=compile_program(select)
        )

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
            program=compile_program(*(action.statement for action in statement.body)),
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
        evaluator: Evaluator,
        outer_scope: Optional[Scope],
        access: Optional[Access] = None,
    ) -> Tuple[List[str], Iterable[Dict[str, object]]]:
        """Produce (column names, row dicts keyed by lowercased column) for
        a FROM source; a base table reads only its primary-key candidates
        when ``access`` allows, and hands out its stored rows, which the
        statement only reads."""
        params = evaluator.params
        if ref.subquery is not None:
            result = self._execute_select(
                ref.subquery, params, evaluator.program, outer_scope=outer_scope
            )
            lowered = [c.lower() for c in result.columns]
            return result.columns, [dict(zip(lowered, row)) for row in result.rows]
        assert ref.name is not None
        key = ref.name.lower()
        if key in self.tables:
            table = self.tables[key]
            rowids = self._pk_rowids(table, access, evaluator)
            rows = table.rows.values() if rowids is None else [table.rows[r] for r in rowids]
            self.stats.rows_scanned += len(rows)
            return [c.name for c in table.columns], rows
        if key in self.views:
            view = self.views[key]
            result = self._execute_select(view.select, params, view.program, outer_scope)
            self.stats.materialized_views += 1
            self.stats.materialized_rows += len(result.rows)
            lowered = [c.lower() for c in view.columns]
            return list(view.columns), [dict(zip(lowered, row)) for row in result.rows]
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
            value = evaluator.constant(term)
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
    def _merged(scope: Scope) -> Dict[str, object]:
        """A scope's bindings keyed both bare and ``source.column``, the
        form a join's merged scope holds."""
        if scope.name is None:
            return scope.bindings
        merged = dict(scope.bindings)
        merged.update({f"{scope.name}.{k}": v for k, v in scope.bindings.items()})
        return merged

    def _join(
        self,
        scopes: List[Scope],
        join: ast.Join,
        evaluator: Evaluator,
        outer_scope: Optional[Scope],
    ) -> Tuple[List[str], List[Scope]]:
        """Join each of ``scopes`` with the rows of ``join``'s source; the
        results are merged scopes."""
        name = join.table.effective_name.lower()
        columns, rows = self._source_rows(join.table, evaluator, outer_scope)
        right = [self._merged(Scope(row, None, name)) for row in rows]
        on = evaluator.code(join.on) if join.on is not None else None
        joined: List[Scope] = []
        for left_scope in scopes:
            left = self._merged(left_scope)
            matched = False
            for bindings in right:
                candidate = Scope({**left, **bindings}, outer_scope)
                if on is None or is_true(on(evaluator, candidate)):
                    joined.append(candidate)
                    matched = True
            if join.kind == "LEFT" and not matched:
                nulls = Scope({c.lower(): None for c in columns}, None, name)
                joined.append(Scope({**left, **self._merged(nulls)}, outer_scope))
        return columns, joined

    def _execute_select(
        self,
        select: ast.Select,
        params: List[object],
        program: Program,
        outer_scope: Optional[Scope] = None,
    ) -> ResultSet:
        evaluator = self._evaluator(params, program)
        projected: List[_ProjectedRow] = []
        columns: List[str] = []
        for index, core in enumerate(select.cores):
            core_columns, core_rows = self._execute_core(
                core, select, evaluator, outer_scope
            )
            if index == 0:
                columns = core_columns
            elif len(core_columns) != len(columns):
                raise SqlError("UNION ALL arms have differing column counts")
            projected.extend(core_rows)
        # ORDER BY over the compound result.
        if select.order_by:
            projected = self._order_rows(projected, columns, select.order_by, evaluator)
        # LIMIT / OFFSET; a negative offset counts as 0, as in SQLite.
        if select.limit is not None or select.offset is not None:
            scope = outer_scope or Scope({})
            offset = 0
            if select.offset is not None:
                offset = max(0, int(evaluator.value(select.offset, scope) or 0))
            if select.limit is not None:
                limit = evaluator.value(select.limit, scope)
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
        evaluator: Evaluator,
        outer_scope: Optional[Scope],
        access: Optional[Access] = None,
    ) -> Tuple[List[str], List[_ProjectedRow]]:
        """Run one SELECT core. ``access`` is a primary-key lookup pushed
        down from an enclosing query over a UNION ALL view; without one the
        core's own WHERE is searched for a key term."""
        # --- planner hook: flattened execution over a UNION ALL view -----
        flattened = self._try_flattened_view(core, enclosing, evaluator, outer_scope)
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
                core.source, evaluator, outer_scope, access or self._core_access(core)
            )
            source_columns.append((name, cols))
            lowered = name.lower()
            scopes = [Scope(row, outer_scope, lowered) for row in rows]
            for join in core.joins:
                join_cols, scopes = self._join(scopes, join, evaluator, outer_scope)
                source_columns.append((join.table.effective_name, join_cols))
        # --- WHERE -----------------------------------------------------------
        if core.where is not None:
            where = evaluator.code(core.where)
            scopes = [s for s in scopes if is_true(where(evaluator, s))]
        # --- aggregate or plain projection ------------------------------------
        has_aggregates = any(contains_aggregate(item.expr) for item in core.items) or (
            core.having is not None and contains_aggregate(core.having)
        )
        columns = self._core_output_columns(core, source_columns)
        if core.group_by or has_aggregates:
            rows = self._aggregate(core, scopes, columns, evaluator)
        else:
            project = self._projector(core, source_columns, evaluator, bool(core.joins))
            rows = [_ProjectedRow(project(scope), scope) for scope in scopes]
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
        evaluator: Evaluator,
        outer_scope: Optional[Scope],
    ) -> Optional[Tuple[List[str], List[_ProjectedRow]]]:
        """Execute ``SELECT ... FROM union_all_view WHERE ...`` by pushing
        the work (and any primary-key lookup) into the view's arms when the
        planner allows it.

        When the select list names only view columns, each arm row maps to
        the output by positions worked out once; a row gets a scope only
        when the WHERE or a non-projected ORDER BY term reads one."""
        view = self._flattened_view(core, enclosing)
        if view is None:
            return None
        self.stats.flattened_queries += 1
        effective = core.source.effective_name
        name = effective.lower()
        lowered = [c.lower() for c in view.columns]
        source_columns = [(effective, list(view.columns))]
        columns = self._core_output_columns(core, source_columns)
        keys = self._plain_columns(core, lowered, name)
        positions = None if keys is None else [lowered.index(key) for key in keys]
        project = None
        if positions is None:
            project = self._projector(core, source_columns, evaluator, False)
        elif positions == list(range(len(lowered))):
            positions = None  # the arm row is the output row
        scoped = (
            project is not None
            or core.where is not None
            or (len(enclosing.cores) > 1 and bool(enclosing.order_by))
            or None in self._order_positions(columns, enclosing.order_by)
        )
        where = evaluator.code(core.where) if core.where is not None else None
        out_rows: List[_ProjectedRow] = []
        for values in self._arm_rows(view, core.where, effective, evaluator, outer_scope):
            scope = None
            if scoped:
                scope = Scope(dict(zip(lowered, values)), outer_scope, name)
                if where is not None and not is_true(where(evaluator, scope)):
                    continue
            if project is not None:
                values = project(scope)
            elif positions is not None:
                values = tuple([values[p] for p in positions])
            out_rows.append(_ProjectedRow(values, scope))
        return columns, out_rows

    @staticmethod
    def _plain_columns(
        core: ast.SelectCore, lowered: List[str], name: str
    ) -> Optional[List[str]]:
        """The column of ``core``'s one source (``name``, with columns
        ``lowered``) each output column reads, when the select list is
        made only of ``*`` and plain columns of that source."""
        keys: List[str] = []
        for item in core.items:
            expr = item.expr
            qualifier = getattr(expr, "table", None)
            if qualifier is not None and qualifier.lower() != name:
                return None
            if isinstance(expr, ast.Star):
                keys.extend(lowered)
            elif isinstance(expr, ast.Column) and expr.name.lower() in lowered:
                keys.append(expr.name.lower())
            else:
                return None
        return keys

    def _arm_rows(
        self,
        view: _View,
        where: Optional[ast.Expr],
        qualifier: str,
        evaluator: Evaluator,
        outer_scope: Optional[Scope],
    ) -> Iterator[tuple]:
        """The rows of a flattened UNION ALL view, arm by arm, each arm
        reading by primary key when ``where`` (over the view, searched with
        ``evaluator``'s parameters) pins it."""
        arms = self._evaluator(evaluator.params, view.program)
        for arm, access in zip(view.select.cores, self._arm_accesses(view, where, qualifier)):
            _columns, arm_rows = self._execute_core(arm, view.select, arms, outer_scope, access)
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

    def _projector(
        self,
        core: ast.SelectCore,
        source_columns: List[Tuple[str, List[str]]],
        evaluator: Evaluator,
        joined: bool,
    ) -> Callable[[Scope], tuple]:
        """A function projecting one row's scope through ``core``'s select
        list, whose items (and ``*`` key lists) are resolved once here; a
        joined scope reads a ``*`` column by its qualified key."""
        if not joined and source_columns:
            name, columns = source_columns[0]
            keys = self._plain_columns(core, [c.lower() for c in columns], name.lower())
            if keys:
                if len(keys) == 1:
                    key = keys[0]
                    return lambda scope: (scope.bindings[key],)
                pick = operator.itemgetter(*keys)
                return lambda scope: pick(scope.bindings)
        codes: List[Callable[[Evaluator, Scope], object]] = []
        for item in core.items:
            if not isinstance(item.expr, ast.Star):
                codes.append(evaluator.code(item.expr))
                continue
            for table_name, cols in source_columns:
                if item.expr.table and table_name.lower() != item.expr.table.lower():
                    continue
                prefix = f"{table_name.lower()}." if joined else ""
                codes.extend(_binding(prefix + column.lower()) for column in cols)
        return lambda scope: tuple([code(evaluator, scope) for code in codes])

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
            codes = [evaluator.code(expr) for expr in core.group_by]
            for scope in scopes:
                key = tuple(self._hashable(code(evaluator, scope)) for code in codes)
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
            return BINARY[expr.op](left, right)
        if isinstance(expr, ast.Unary):
            inner = self._eval_aggregate_expr(expr.operand, group, evaluator)
            return UNARY[expr.op](inner)
        return evaluator.value(expr, group[0] if group else Scope({}))

    def _compute_aggregate(
        self, call: ast.FunctionCall, group: List[Scope], evaluator: Evaluator
    ) -> object:
        if call.star:
            if call.name == "count":
                return len(group)
            raise SqlError(f"{call.name}(*) is not supported")
        if not call.args:
            raise SqlError(f"aggregate {call.name}() needs an argument")
        argument = evaluator.code(call.args[0])
        values = [argument(evaluator, scope) for scope in group]
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

    @staticmethod
    def _order_positions(
        columns: List[str], order_by: List[ast.OrderItem]
    ) -> List[Optional[int]]:
        """The output column each ORDER BY term reads: an ordinal, or a
        bare name of an output column; None for a term evaluated per row.
        An ordinal outside ``1..len(columns)`` is an error, as in SQLite."""
        lowered = [c.lower() for c in columns]
        positions: List[Optional[int]] = []
        for index, item in enumerate(order_by, start=1):
            expr = item.expr
            position = None
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                if not 1 <= expr.value <= len(columns):
                    raise SqlError(
                        f"{_ordinal(index)} ORDER BY term out of range - "
                        f"should be between 1 and {len(columns)}"
                    )
                position = expr.value - 1
            elif isinstance(expr, ast.Column) and expr.table is None:
                name = expr.name.lower()
                if name in lowered:
                    position = lowered.index(name)
            positions.append(position)
        return positions

    def _order_rows(
        self,
        rows: List[_ProjectedRow],
        columns: List[str],
        order_by: List[ast.OrderItem],
        evaluator: Evaluator,
    ) -> List[_ProjectedRow]:
        # Each term reads a projected position, or evaluates its expression.
        positions = self._order_positions(columns, order_by)
        if len(rows) < 2:
            return rows
        order = list(range(len(rows)))
        # Stable sorts from the last term to the first give the
        # lexicographic order, each term in its own direction.
        for item, position in reversed(list(zip(order_by, positions))):
            if position is not None:
                values = [row.values[position] for row in rows]
            else:
                code = evaluator.code(item.expr)
                values = [code(evaluator, row.scope) for row in rows]
            order.sort(key=sql_sort_keys(values).__getitem__, reverse=item.descending)
        return [rows[index] for index in order]

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------

    def _value_rows(
        self, statement: ast.Insert, evaluator: Evaluator, scope: Optional[Scope]
    ) -> List[List[object]]:
        """The rows an INSERT supplies, from its VALUES or its SELECT."""
        if statement.select is not None:
            result = self._execute_select(
                statement.select, evaluator.params, evaluator.program, outer_scope=scope
            )
            return [list(row) for row in result.rows]
        eval_scope = scope or Scope({})
        return [[evaluator.value(e, eval_scope) for e in exprs] for exprs in statement.values]

    def _execute_insert(
        self,
        statement: ast.Insert,
        params: List[object],
        program: Program,
        scope: Optional[Scope],
    ) -> ResultSet:
        key = statement.table.lower()
        evaluator = self._evaluator(params, program)
        if key in self.views:
            return self._insert_into_view(statement, evaluator, scope)
        table = self.table(statement.table)
        value_rows = self._value_rows(statement, evaluator, scope)
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

    @staticmethod
    def _matches(
        rows: Iterable[Tuple[object, Dict[str, object]]],
        name: str,
        where: Optional[ast.Expr],
        evaluator: Evaluator,
        scope: Optional[Scope],
    ) -> Iterator[Tuple[object, Scope]]:
        """(key, scope) of each (key, row) of the source ``name`` that
        ``where`` selects, evaluated only when the caller asks for the next
        match (a view's triggers run in between)."""
        test = evaluator.code(where) if where is not None else None
        name = name.lower()
        for key, row in rows:
            row_scope = Scope(row, scope, name)
            if test is None or is_true(test(evaluator, row_scope)):
                yield key, row_scope

    def _table_matches(
        self,
        table: Table,
        where: Optional[ast.Expr],
        evaluator: Evaluator,
        scope: Optional[Scope],
    ) -> Iterator[Tuple[object, Scope]]:
        """(rowid, scope) of each row of ``table`` an UPDATE or DELETE with
        ``where`` touches, read by primary key when it can be."""
        rowids = self._pk_rowids(table, (where, None, table.name), evaluator) if where else None
        candidates = list(table.rows) if rowids is None else rowids
        rows = ((rowid, table.rows[rowid]) for rowid in candidates)
        return self._matches(rows, table.name, where, evaluator, scope)

    def _execute_update(
        self,
        statement: ast.Update,
        params: List[object],
        program: Program,
        scope: Optional[Scope],
    ) -> ResultSet:
        key = statement.table.lower()
        evaluator = self._evaluator(params, program)
        assignments = [
            (column.lower(), evaluator.code(expr)) for column, expr in statement.assignments
        ]
        if key in self.views:
            return self._update_view(statement, assignments, evaluator, scope)
        table = self.table(statement.table)
        self._check_assignments(statement, table.column_names)
        updated = 0
        for rowid, row_scope in self._table_matches(table, statement.where, evaluator, scope):
            new_values = {column: code(evaluator, row_scope) for column, code in assignments}
            table.update_row(rowid, new_values)
            updated += 1
        return ResultSet(rowcount=updated)

    def _execute_delete(
        self,
        statement: ast.Delete,
        params: List[object],
        program: Program,
        scope: Optional[Scope],
    ) -> ResultSet:
        key = statement.table.lower()
        evaluator = self._evaluator(params, program)
        if key in self.views:
            return self._delete_from_view(statement, evaluator, scope)
        table = self.table(statement.table)
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
            self._dispatch(action.statement, params, trigger.program, scope=trigger_scope)

    def _insert_into_view(
        self, statement: ast.Insert, evaluator: Evaluator, scope: Optional[Scope]
    ) -> ResultSet:
        view = self.views[statement.table.lower()]
        trigger = self._view_trigger(statement.table.lower(), "INSERT")
        value_rows = self._value_rows(statement, evaluator, scope)
        columns = statement.columns or list(view.columns)
        for values in value_rows:
            new_row = {c.lower(): None for c in view.columns}
            for column, value in zip(columns, values):
                new_row[column.lower()] = value
            self._run_trigger(trigger, evaluator.params, new_row=new_row, old_row=None)
        return ResultSet(rowcount=len(value_rows))

    def _view_matches(
        self,
        view: _View,
        where: Optional[ast.Expr],
        evaluator: Evaluator,
        scope: Optional[Scope],
    ) -> Iterator[Tuple[object, Scope]]:
        """(row, scope) of each row of ``view`` an UPDATE or DELETE with
        ``where`` touches. When the planner would flatten the UNION ALL
        view and ``where`` pins the primary key, each arm reads by its key
        instead of computing the whole view."""
        rows: Iterable[tuple]
        if view.select.is_compound and planner.should_flatten(
            view.select, [], None, self.sqlite_emulation
        ):
            rows = self._arm_rows(view, where, view.name, evaluator, scope)
        else:
            rows = self._execute_select(
                view.select, evaluator.params, view.program, outer_scope=scope
            ).rows
        lowered = [c.lower() for c in view.columns]
        dicts = [dict(zip(lowered, row)) for row in rows]
        return self._matches(((row, row) for row in dicts), view.name, where, evaluator, scope)

    def _update_view(
        self,
        statement: ast.Update,
        assignments: List[Tuple[str, Callable[[Evaluator, Scope], object]]],
        evaluator: Evaluator,
        scope: Optional[Scope],
    ) -> ResultSet:
        view = self.views[statement.table.lower()]
        trigger = self._view_trigger(statement.table.lower(), "UPDATE")
        self._check_assignments(statement, view.columns)
        updated = 0
        for row, row_scope in self._view_matches(view, statement.where, evaluator, scope):
            new_row = dict(row)
            for column, code in assignments:
                new_row[column] = code(evaluator, row_scope)
            self._run_trigger(trigger, evaluator.params, new_row=new_row, old_row=row)
            updated += 1
        return ResultSet(rowcount=updated)

    def _delete_from_view(
        self, statement: ast.Delete, evaluator: Evaluator, scope: Optional[Scope]
    ) -> ResultSet:
        view = self.views[statement.table.lower()]
        trigger = self._view_trigger(statement.table.lower(), "DELETE")
        deleted = 0
        for row, _scope in self._view_matches(view, statement.where, evaluator, scope):
            self._run_trigger(trigger, evaluator.params, new_row=None, old_row=row)
            deleted += 1
        return ResultSet(rowcount=deleted)
