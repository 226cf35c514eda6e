"""Expression compilation and evaluation with SQL three-valued logic.

``NULL`` is represented by Python ``None``. Boolean results use ``1``/``0``
like SQLite, with ``None`` propagating as *unknown*; WHERE clauses treat
unknown as false.

:func:`compile_program` turns every expression of one statement, view or
trigger into a closure ``(evaluator, scope) -> value``, once. The engine
keeps the resulting :class:`Program` beside the AST it was compiled from,
and an :class:`Evaluator` runs it for one execution, holding that
execution's parameters and subquery results. Closures capture neither, and
they are never stored on AST nodes: a deep copy of an AST (the COW proxy's
per-initiator views) would otherwise carry closures that still run the
original's subqueries.

A :class:`Scope` binds one row's columns, chained to an outer scope so
correlated subqueries resolve the enclosing row's columns.
"""

from __future__ import annotations

import fnmatch
import functools
import operator
import re
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import SqlError, SqlNameError
from repro.minisql import ast_nodes as ast

AGGREGATE_NAMES = {"count", "sum", "avg", "total", "min", "max", "group_concat"}


class Scope:
    """Column bindings for one row, chained to an optional outer scope.

    A single source's scope binds its row dict as is (lowercased column
    names) and names the source (lowercased), which answers the qualified
    lookups; ``name`` is None when ``bindings`` holds its own
    ``table.column`` keys, as a join's merged scope and a trigger's
    ``new.``/``old.`` scope do.
    """

    __slots__ = ("bindings", "outer", "name")

    def __init__(
        self,
        bindings: Dict[str, object],
        outer: Optional["Scope"] = None,
        name: Optional[str] = None,
    ) -> None:
        self.bindings = bindings
        self.outer = outer
        self.name = name


def _lookup(scope: Optional[Scope], key: str, qualifier: Optional[str], qualified: str) -> object:
    """Walk the scope chain for a column (``qualifier`` is None for a bare
    name, and ``qualified`` is then ``key``)."""
    while scope is not None:
        probe = key if qualifier is None or scope.name == qualifier else qualified
        if probe in scope.bindings:
            return scope.bindings[probe]
        scope = scope.outer
    raise SqlNameError(f"no such column: {qualified}")


class _TouchDict(dict):
    """An always-empty bindings dict that raises a flag when consulted.

    Used to detect whether a subquery is *correlated*: the subquery runs
    with a tracking scope spliced between its own scopes and the outer
    row's; if the lookup chain ever reaches the tracker, the subquery read
    an outer column and its result must not be cached.
    """

    __slots__ = ("touched",)

    def __init__(self) -> None:
        super().__init__()
        self.touched = False

    def __contains__(self, key: object) -> bool:
        self.touched = True
        return False


def _to_bool(value: object) -> Optional[bool]:
    """SQL truthiness: NULL is unknown, zero/empty is false."""
    if value is None:
        return None
    if isinstance(value, (int, float)):
        return value != 0
    if isinstance(value, str):
        # SQLite coerces text; non-numeric text is false.
        try:
            return float(value) != 0
        except ValueError:
            return False
    return bool(value)


def is_true(value: object) -> bool:
    """A WHERE/HAVING/ON verdict: unknown counts as false."""
    if value.__class__ is int:  # the 1/0 of every predicate
        return value != 0
    return _to_bool(value) is True


_TYPE_RANK = {type(None): 0, int: 1, float: 1, bool: 1, str: 2, bytes: 3}


def sql_compare(a: object, b: object) -> int:
    """Total ordering over SQL values (SQLite ordering: NULL < numeric <
    text < blob). Returns -1/0/1."""
    rank_a = _TYPE_RANK.get(type(a), 4)
    rank_b = _TYPE_RANK.get(type(b), 4)
    if rank_a != rank_b:
        return -1 if rank_a < rank_b else 1
    if a is None and b is None:
        return 0
    if a == b:
        return 0
    return -1 if a < b else 1  # type: ignore[operator]


def sql_sort_key(value: object) -> tuple:
    """A sort key that orders values as :func:`sql_compare` does."""
    return (_TYPE_RANK.get(type(value), 4), value)


def sql_sort_keys(values: List[object]) -> List[object]:
    """Sort keys for a column of values: the values themselves when one
    Python ordering already agrees with :func:`sql_compare` on all of
    them, else :func:`sql_sort_key` of each."""
    kinds = {value.__class__ for value in values}
    if kinds <= {int, float} or kinds == {str} or kinds == {bytes}:
        return values
    return [sql_sort_key(value) for value in values]


# -- operators on values ------------------------------------------------------


def _comparison(test: Callable[[int, int], bool]) -> Callable[[object, object], object]:
    def compare(left: object, right: object) -> object:
        if left is None or right is None:
            return None
        return 1 if test(sql_compare(left, right), 0) else 0

    return compare


def _equal(left: object, right: object) -> object:
    if left is None or right is None:
        return None
    if left.__class__ is right.__class__:
        return 1 if left == right else 0
    return 1 if sql_compare(left, right) == 0 else 0


@functools.lru_cache(maxsize=256)
def _like_regex(pattern: str) -> "re.Pattern[str]":
    return re.compile(
        re.escape(pattern).replace("%", ".*").replace("_", "."), re.IGNORECASE | re.DOTALL
    )


@functools.lru_cache(maxsize=256)
def _glob_regex(pattern: str) -> "re.Pattern[str]":
    return re.compile(fnmatch.translate(pattern))


def _like(text: object, pattern: object) -> object:
    if text is None or pattern is None:
        return None
    return 1 if _like_regex(str(pattern)).fullmatch(str(text)) else 0


def _glob(text: object, pattern: object) -> object:
    if text is None or pattern is None:
        return None
    return 1 if _glob_regex(str(pattern)).match(str(text)) else 0


def _and(left: object, right: object) -> object:
    left, right = _to_bool(left), _to_bool(right)
    if left is False or right is False:
        return 0
    return None if left is None or right is None else 1


def _or(left: object, right: object) -> object:
    left, right = _to_bool(left), _to_bool(right)
    if left is True or right is True:
        return 1
    return None if left is None or right is None else 0


def _concat(left: object, right: object) -> object:
    if left is None or right is None:
        return None
    return f"{left}{right}"


def _arithmetic(
    op: str, apply: Callable[[object, object], object]
) -> Callable[[object, object], object]:
    def arithmetic(left: object, right: object) -> object:
        if left is None or right is None:
            return None
        if not isinstance(left, (int, float)) or not isinstance(right, (int, float)):
            raise SqlError(
                f"cannot apply {op} to {type(left).__name__} and {type(right).__name__}"
            )
        return apply(left, right)

    return arithmetic


def _divide(left, right):
    if right == 0:
        return None  # SQLite yields NULL on division by zero
    result = left / right
    if isinstance(left, int) and isinstance(right, int):
        return int(left / right) if result >= 0 else -(-left // right)
    return result


def _modulo(left, right):
    return None if right == 0 else left % right


#: Each binary operator as a function of its operands' values (aggregates
#: apply it to already-computed operands).
BINARY: Dict[str, Callable[[object, object], object]] = {
    "=": _equal,
    "<>": _comparison(operator.ne),
    "<": _comparison(operator.lt),
    "<=": _comparison(operator.le),
    ">": _comparison(operator.gt),
    ">=": _comparison(operator.ge),
    "LIKE": _like,
    "GLOB": _glob,
    "AND": _and,
    "OR": _or,
    "||": _concat,
    "+": _arithmetic("+", operator.add),
    "-": _arithmetic("-", operator.sub),
    "*": _arithmetic("*", operator.mul),
    "/": _arithmetic("/", _divide),
    "%": _arithmetic("%", _modulo),
}


def _not(value: object) -> object:
    truth = _to_bool(value)
    if truth is None:
        return None
    return 0 if truth else 1


def _negate(value: object) -> object:
    if value is None:
        return None
    if not isinstance(value, (int, float)):
        raise SqlError(f"cannot apply unary - to {type(value).__name__}")
    return -value


#: Each unary operator as a function of its operand's value.
UNARY: Dict[str, Callable[[object], object]] = {
    "NOT": _not,
    "-": _negate,
    "+": lambda value: value,
}


_SCALAR_FUNCTIONS: Dict[str, Callable[..., object]] = {}


def scalar_function(name: str):
    def decorator(fn):
        _SCALAR_FUNCTIONS[name] = fn
        return fn

    return decorator


@scalar_function("length")
def _fn_length(value: object) -> object:
    return None if value is None else len(str(value))


@scalar_function("upper")
def _fn_upper(value: object) -> object:
    return None if value is None else str(value).upper()


@scalar_function("lower")
def _fn_lower(value: object) -> object:
    return None if value is None else str(value).lower()


@scalar_function("abs")
def _fn_abs(value: object) -> object:
    return None if value is None else abs(value)  # type: ignore[arg-type]


@scalar_function("coalesce")
def _fn_coalesce(*values: object) -> object:
    for value in values:
        if value is not None:
            return value
    return None


@scalar_function("ifnull")
def _fn_ifnull(value: object, fallback: object) -> object:
    return fallback if value is None else value


@scalar_function("nullif")
def _fn_nullif(a: object, b: object) -> object:
    return None if a == b else a


@scalar_function("substr")
def _fn_substr(value: object, start: object, length: object = None) -> object:
    if value is None or start is None:
        return None
    text = str(value)
    index = int(start) - 1 if int(start) > 0 else len(text) + int(start)
    if length is None:
        return text[index:]
    return text[index : index + int(length)]


@scalar_function("replace")
def _fn_replace(value: object, old: object, new: object) -> object:
    if value is None or old is None or new is None:
        return None
    return str(value).replace(str(old), str(new))


@scalar_function("typeof")
def _fn_typeof(value: object) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool) or isinstance(value, int):
        return "integer"
    if isinstance(value, float):
        return "real"
    if isinstance(value, bytes):
        return "blob"
    return "text"


@scalar_function("instr")
def _fn_instr(haystack: object, needle: object) -> object:
    if haystack is None or needle is None:
        return None
    return str(haystack).find(str(needle)) + 1


def is_aggregate_call(expr: ast.Expr) -> bool:
    """True if ``expr`` is an aggregate function call (SQLite rule: min/max
    with a single argument are aggregates; with more they are scalar)."""
    if not isinstance(expr, ast.FunctionCall):
        return False
    if expr.name in ("min", "max"):
        return expr.star or len(expr.args) <= 1
    return expr.name in AGGREGATE_NAMES


def contains_aggregate(expr: ast.Expr) -> bool:
    """Recursively detect aggregate calls (not descending into subqueries)."""
    if is_aggregate_call(expr):
        return True
    if isinstance(expr, ast.Unary):
        return contains_aggregate(expr.operand)
    if isinstance(expr, ast.Binary):
        return contains_aggregate(expr.left) or contains_aggregate(expr.right)
    if isinstance(expr, ast.IsNull):
        return contains_aggregate(expr.operand)
    if isinstance(expr, ast.Between):
        return any(contains_aggregate(e) for e in (expr.operand, expr.low, expr.high))
    if isinstance(expr, ast.InList):
        return contains_aggregate(expr.operand) or any(contains_aggregate(e) for e in expr.items)
    if isinstance(expr, ast.FunctionCall):
        return any(contains_aggregate(a) for a in expr.args)
    if isinstance(expr, ast.CaseExpr):
        parts: List[ast.Expr] = [w for pair in expr.whens for w in pair]
        if expr.operand is not None:
            parts.append(expr.operand)
        if expr.otherwise is not None:
            parts.append(expr.otherwise)
        return any(contains_aggregate(p) for p in parts)
    return False


# -- the compiler ------------------------------------------------------------------

#: A compiled expression: evaluates its node for one row.
Code = Callable[["Evaluator", Scope], object]


class Program(dict):
    """``id(expression node) -> Code`` for every expression of one
    statement, view or trigger body. Valid only while that AST is alive,
    which is why it is kept beside it."""

    __slots__ = ("__weakref__",)


def compile_program(*statements: object) -> Program:
    """Compile every expression of ``statements`` (SELECT, INSERT, UPDATE
    or DELETE; other statements hold none the engine evaluates), nested
    subqueries included."""
    program = Program()
    compiler = _Compiler(program)
    for statement in statements:
        compiler.statement(statement)
    return program


def _failing(error: SqlError) -> Code:
    """A node that is only an error when evaluated (as SQLite reports it
    at step time, not for a query that reads no rows)."""

    def fail(evaluator: "Evaluator", scope: Scope) -> object:
        raise error

    return fail


class _Compiler:
    def __init__(self, program: Program) -> None:
        self.program = program

    def statement(self, node: object) -> None:
        if isinstance(node, ast.Select):
            self.select(node)
        elif isinstance(node, ast.Insert):
            for row in node.values:
                for expr in row:
                    self.expr(expr)
            if node.select is not None:
                self.select(node.select)
        elif isinstance(node, ast.Update):
            for _column, expr in node.assignments:
                self.expr(expr)
            self.optional(node.where)
        elif isinstance(node, ast.Delete):
            self.optional(node.where)

    def select(self, select: ast.Select) -> None:
        for core in select.cores:
            refs = [core.source] if core.source is not None else []
            refs.extend(join.table for join in core.joins)
            for ref in refs:
                if ref.subquery is not None:
                    self.select(ref.subquery)
            for item in core.items:
                self.expr(item.expr)
            for join in core.joins:
                self.optional(join.on)
            for expr in core.group_by:
                self.expr(expr)
            self.optional(core.where)
            self.optional(core.having)
        for item in select.order_by:
            self.expr(item.expr)
        self.optional(select.limit)
        self.optional(select.offset)

    def optional(self, expr: Optional[ast.Expr]) -> None:
        if expr is not None:
            self.expr(expr)

    def expr(self, node: ast.Expr) -> Code:
        build = _BUILDERS.get(type(node))
        if build is None:
            code = _failing(SqlError(f"cannot evaluate expression node {type(node).__name__}"))
        else:
            code = build(self, node)
        self.program[id(node)] = code
        return code


def _literal(compiler: _Compiler, node: ast.Literal) -> Code:
    value = node.value
    return lambda evaluator, scope: value


def _param(compiler: _Compiler, node: ast.Param) -> Code:
    index = node.index
    return lambda evaluator, scope: evaluator.param(index)


def _column(compiler: _Compiler, node: ast.Column) -> Code:
    key = node.name.lower()
    if node.table is None:

        def column(evaluator: "Evaluator", scope: Scope) -> object:
            try:
                return scope.bindings[key]
            except KeyError:
                return _lookup(scope, key, None, key)

        return column
    qualifier = node.table.lower()
    qualified = f"{qualifier}.{key}"

    def qualified_column(evaluator: "Evaluator", scope: Scope) -> object:
        if scope.name == qualifier and key in scope.bindings:
            return scope.bindings[key]
        return _lookup(scope, key, qualifier, qualified)

    return qualified_column


def _unary(compiler: _Compiler, node: ast.Unary) -> Code:
    operand = compiler.expr(node.operand)
    apply = UNARY.get(node.op)
    if apply is None:
        return _failing(SqlError(f"unknown operator {node.op}"))
    return lambda evaluator, scope: apply(operand(evaluator, scope))


def _binary(compiler: _Compiler, node: ast.Binary) -> Code:
    left = compiler.expr(node.left)
    right = compiler.expr(node.right)
    if node.op == "AND":

        def conjunction(evaluator: "Evaluator", scope: Scope) -> object:
            first = _to_bool(left(evaluator, scope))
            if first is False:
                return 0
            second = _to_bool(right(evaluator, scope))
            if second is False:
                return 0
            return None if first is None or second is None else 1

        return conjunction
    if node.op == "OR":

        def disjunction(evaluator: "Evaluator", scope: Scope) -> object:
            first = _to_bool(left(evaluator, scope))
            if first is True:
                return 1
            second = _to_bool(right(evaluator, scope))
            if second is True:
                return 1
            return None if first is None or second is None else 0

        return disjunction
    apply = BINARY.get(node.op)
    if apply is None:
        return _failing(SqlError(f"unknown operator {node.op}"))
    return lambda evaluator, scope: apply(left(evaluator, scope), right(evaluator, scope))


def _is_null(compiler: _Compiler, node: ast.IsNull) -> Code:
    operand = compiler.expr(node.operand)
    if node.negated:
        return lambda evaluator, scope: 0 if operand(evaluator, scope) is None else 1
    return lambda evaluator, scope: 1 if operand(evaluator, scope) is None else 0


def _verdict(found: bool, negated: bool) -> int:
    return 1 if found != negated else 0


def _between(compiler: _Compiler, node: ast.Between) -> Code:
    operand = compiler.expr(node.operand)
    low = compiler.expr(node.low)
    high = compiler.expr(node.high)
    negated = node.negated

    def between(evaluator: "Evaluator", scope: Scope) -> object:
        value = operand(evaluator, scope)
        lower = low(evaluator, scope)
        upper = high(evaluator, scope)
        if value is None or lower is None or upper is None:
            return None
        inside = sql_compare(value, lower) >= 0 and sql_compare(value, upper) <= 0
        return _verdict(inside, negated)

    return between


def _in_list(compiler: _Compiler, node: ast.InList) -> Code:
    operand = compiler.expr(node.operand)
    items = [compiler.expr(item) for item in node.items]
    negated = node.negated

    def in_list(evaluator: "Evaluator", scope: Scope) -> object:
        value = operand(evaluator, scope)
        if value is None:
            return None
        saw_null = False
        for item in items:
            candidate = item(evaluator, scope)
            if candidate is None:
                saw_null = True
            elif sql_compare(value, candidate) == 0:
                return _verdict(True, negated)
        return None if saw_null else _verdict(False, negated)

    return in_list


def _in_select(compiler: _Compiler, node: ast.InSelect) -> Code:
    operand = compiler.expr(node.operand)
    compiler.select(node.select)
    select = node.select
    negated = node.negated

    def in_select(evaluator: "Evaluator", scope: Scope) -> object:
        value = operand(evaluator, scope)
        if value is None:
            return None
        return 1 if evaluator.contains(select, value, scope) != negated else 0

    return in_select


def _exists(compiler: _Compiler, node: ast.ExistsSelect) -> Code:
    compiler.select(node.select)
    select = node.select
    negated = node.negated
    return lambda evaluator, scope: _verdict(
        bool(evaluator.run_subquery(select, scope)), negated
    )


def _scalar_select(compiler: _Compiler, node: ast.ScalarSelect) -> Code:
    compiler.select(node.select)
    select = node.select

    def scalar(evaluator: "Evaluator", scope: Scope) -> object:
        rows = evaluator.run_subquery(select, scope)
        return rows[0][0] if rows else None

    return scalar


def _function(compiler: _Compiler, node: ast.FunctionCall) -> Code:
    args = [compiler.expr(arg) for arg in node.args]
    if is_aggregate_call(node):
        return _failing(
            SqlError(f"aggregate function {node.name}() used outside of an aggregate query")
        )
    fn = _SCALAR_FUNCTIONS.get(node.name)
    if fn is not None:
        return lambda evaluator, scope: fn(*[arg(evaluator, scope) for arg in args])
    if node.name not in ("min", "max"):
        return _failing(SqlNameError(f"no such function: {node.name}"))
    wanted = -1 if node.name == "min" else 1

    def extreme(evaluator: "Evaluator", scope: Scope) -> object:
        values = [arg(evaluator, scope) for arg in args]
        if any(value is None for value in values):
            return None
        chosen = values[0]
        for value in values[1:]:
            if sql_compare(value, chosen) == wanted:
                chosen = value
        return chosen

    return extreme


def _case(compiler: _Compiler, node: ast.CaseExpr) -> Code:
    subject = compiler.expr(node.operand) if node.operand is not None else None
    whens = [(compiler.expr(condition), compiler.expr(result)) for condition, result in node.whens]
    otherwise = compiler.expr(node.otherwise) if node.otherwise is not None else None

    def case(evaluator: "Evaluator", scope: Scope) -> object:
        if subject is not None:
            value = subject(evaluator, scope)
            for condition, result in whens:
                candidate = condition(evaluator, scope)
                if candidate is not None and sql_compare(value, candidate) == 0:
                    return result(evaluator, scope)
        else:
            for condition, result in whens:
                if _to_bool(condition(evaluator, scope)):
                    return result(evaluator, scope)
        return otherwise(evaluator, scope) if otherwise is not None else None

    return case


def _star(compiler: _Compiler, node: ast.Star) -> Code:
    return _failing(SqlError("* is only valid in a select list"))


_BUILDERS: Dict[type, Callable[[_Compiler, ast.Expr], Code]] = {
    ast.Literal: _literal,
    ast.Param: _param,
    ast.Column: _column,
    ast.Unary: _unary,
    ast.Binary: _binary,
    ast.IsNull: _is_null,
    ast.Between: _between,
    ast.InList: _in_list,
    ast.InSelect: _in_select,
    ast.ExistsSelect: _exists,
    ast.ScalarSelect: _scalar_select,
    ast.FunctionCall: _function,
    ast.CaseExpr: _case,
    ast.Star: _star,
}


class Evaluator:
    """Runs a compiled :class:`Program` for one statement execution.

    ``subquery_runner`` is provided by the engine: it executes a
    :class:`~repro.minisql.ast_nodes.Select` of this program with the
    given scope as the outer scope and returns the result rows (list of
    tuples). ``key_set_runner``, also the engine's, answers ``IN (SELECT
    pk FROM t)`` from t's primary-key index: it returns the key set, or
    None when the subquery has another shape.
    """

    __slots__ = (
        "params",
        "program",
        "subquery_runner",
        "key_set_runner",
        "_subquery_cache",
        "_membership_sets",
    )

    def __init__(
        self,
        params: Sequence[object],
        program: Program,
        subquery_runner: Optional[Callable[[ast.Select, Scope], List[tuple]]] = None,
        key_set_runner: Optional[Callable[[ast.Select], Optional[frozenset]]] = None,
    ) -> None:
        self.params = params
        self.program = program
        self.subquery_runner = subquery_runner
        self.key_set_runner = key_set_runner
        # Results of uncorrelated subqueries, valid for this statement
        # execution (SQLite likewise evaluates them once). Keyed by the AST
        # node identity.
        self._subquery_cache: Dict[int, List[tuple]] = {}
        # id(select) -> frozenset of its first-column values (or None when
        # unhashable), the IN-subquery hash-probe fast path.
        self._membership_sets: Dict[int, Optional[frozenset]] = {}

    def code(self, expr: ast.Expr) -> Code:
        """The compiled form of one of this program's expressions."""
        return self.program[id(expr)]

    def value(self, expr: ast.Expr, scope: Scope) -> object:
        """Evaluate one of this program's expressions once."""
        return self.program[id(expr)](self, scope)

    def param(self, index: int) -> object:
        try:
            return self.params[index]
        except IndexError:
            raise SqlError(
                f"statement needs at least {index + 1} parameters, got {len(self.params)}"
            ) from None

    def constant(self, expr: ast.Expr) -> object:
        """The value of a parameter or literal, such as a primary-key
        search key pushed into a view's arms from the enclosing query."""
        if isinstance(expr, ast.Param):
            return self.param(expr.index)
        assert isinstance(expr, ast.Literal)
        return expr.value

    def run_subquery(self, select: ast.Select, scope: Scope) -> List[tuple]:
        if self.subquery_runner is None:
            raise SqlError("subqueries are not available in this context")
        key = id(select)
        if key in self._subquery_cache:
            return self._subquery_cache[key]
        tracker = _TouchDict()
        rows = self.subquery_runner(select, Scope(tracker, scope))
        if not tracker.touched:
            self._subquery_cache[key] = rows
        return rows

    def contains(self, select: ast.Select, value: object, scope: Scope) -> bool:
        """``value IN (select)`` for a non-NULL ``value``: a probe of the
        subquery's membership set when it has one (read from a primary-key
        index, or hashed once from an uncorrelated result), else a scan."""
        key = id(select)
        members = self._membership_sets.get(key)
        if members is not None:
            return value in members
        if key not in self._membership_sets and self.key_set_runner is not None:
            members = self.key_set_runner(select)
            if members is not None:
                self._membership_sets[key] = members
                return value in members
        rows = self.run_subquery(select, scope)
        if self._subquery_cache.get(key) is rows and key not in self._membership_sets:
            # Only cached (uncorrelated) results are hashed: their row list
            # is the same for the whole statement. Ints/strings hash
            # compatibly with SQL equality; unhashable values keep the scan.
            try:
                members = frozenset(row[0] for row in rows if row)
            except TypeError:
                members = None
            self._membership_sets[key] = members
            if members is not None:
                return value in members
        return any(row and sql_compare(value, row[0]) == 0 for row in rows)
