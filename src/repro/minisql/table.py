"""Table storage for the mini SQL engine.

Rows are stored as dictionaries keyed by rowid. A column declared
``INTEGER PRIMARY KEY`` aliases the rowid (as in SQLite) and autoincrements
from ``max(existing) + 1``. Every primary-key column is indexed: the
table maintains ``pk_index`` (pk value -> rowid) on each insert, update
and delete, so uniqueness checks and ``pk = ?`` lookups are one probe.
The COW proxy relies on being able to start a delta table's key space at
a large offset ``N`` to avoid collisions with the primary table (paper
section 5.2); :meth:`Table.set_autoincrement_base` provides that.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import SqlIntegrityError, SqlNameError
from repro.minisql import ast_nodes as ast


class Table:
    """One base table: schema plus rows."""

    def __init__(self, name: str, columns: List[ast.ColumnDef]) -> None:
        self.name = name.lower()
        self.display_name = name
        self.columns = columns
        self.column_names = [c.name.lower() for c in columns]
        pk = [c.name.lower() for c in columns if c.primary_key]
        if len(pk) > 1:
            raise SqlIntegrityError(f"table {name}: multiple primary keys")
        self.pk_column: Optional[str] = pk[0] if pk else None
        self.pk_is_integer = any(
            c.primary_key and c.type_name == "INTEGER" for c in columns
        )
        self.rows: Dict[int, Dict[str, object]] = {}
        # pk value -> rowid; NULL keys are not indexed (NULL equals nothing).
        self.pk_index: Dict[object, int] = {}
        # The largest integer key (or 0), which allocation continues from.
        self._top_int_pk = 0
        self._autoincrement_base = 1
        self._rowid_counter = 0

    # ------------------------------------------------------------------

    def has_column(self, name: str) -> bool:
        return name.lower() in self.column_names

    def column_def(self, name: str) -> ast.ColumnDef:
        for column in self.columns:
            if column.name.lower() == name.lower():
                return column
        raise SqlNameError(f"table {self.display_name} has no column {name}")

    def set_autoincrement_base(self, base: int) -> None:
        """Start INTEGER PRIMARY KEY allocation at ``base`` (COW proxy hook)."""
        self._autoincrement_base = base

    def _allocate_pk(self) -> int:
        return max(self._top_int_pk + 1, self._autoincrement_base)

    def _check_key(self, value: object) -> None:
        """Reject a pk value the index cannot hold (SQL values all hash)."""
        try:
            hash(value)
        except TypeError:
            raise SqlIntegrityError(
                f"datatype mismatch: {self.display_name}.{self.pk_column}"
            ) from None

    def _index_add(self, value: object, rowid: int) -> None:
        if value is None:
            return
        self.pk_index[value] = rowid
        if isinstance(value, int) and value > self._top_int_pk:
            self._top_int_pk = value

    def _index_remove(self, value: object) -> None:
        if value is None:
            return
        del self.pk_index[value]
        if isinstance(value, int) and value == self._top_int_pk:
            self._top_int_pk = max(
                [0] + [key for key in self.pk_index if isinstance(key, int)]
            )

    def _remove_rowid(self, rowid: int) -> None:
        row = self.rows.pop(rowid)
        if self.pk_column is not None:
            self._index_remove(row.get(self.pk_column))

    def _next_internal_rowid(self) -> int:
        self._rowid_counter += 1
        return self._rowid_counter

    # ------------------------------------------------------------------

    def insert_row(self, values: Dict[str, object], or_replace: bool = False) -> int:
        """Insert one row; returns the rowid (== INTEGER PRIMARY KEY value
        when the table has one). Enforces PK uniqueness and NOT NULL."""
        row: Dict[str, object] = {}
        for column in self.columns:
            key = column.name.lower()
            if key in values:
                row[key] = values[key]
            elif column.default is not None and isinstance(column.default, ast.Literal):
                row[key] = column.default.value
            else:
                row[key] = None
        unknown = set(values) - set(self.column_names)
        if unknown:
            raise SqlNameError(
                f"table {self.display_name} has no columns {sorted(unknown)}"
            )
        if self.pk_column is not None and row.get(self.pk_column) is None:
            if self.pk_is_integer:
                row[self.pk_column] = self._allocate_pk()
            else:
                raise SqlIntegrityError(f"NOT NULL constraint: {self.pk_column}")
        for column in self.columns:
            if column.not_null and row.get(column.name.lower()) is None and not column.primary_key:
                raise SqlIntegrityError(
                    f"NOT NULL constraint failed: {self.display_name}.{column.name}"
                )
        if self.pk_column is not None:
            pk_value = row[self.pk_column]
            self._check_key(pk_value)
            existing = self.find_by_pk(pk_value)
            if existing is not None:
                if not or_replace:
                    raise SqlIntegrityError(
                        f"UNIQUE constraint failed: {self.display_name}.{self.pk_column}"
                    )
                self._remove_rowid(existing)
        for column in self.columns:
            if column.unique and not column.primary_key:
                key = column.name.lower()
                value = row.get(key)
                if value is None:
                    continue
                clash = next(
                    (rid for rid, other in self.rows.items() if other.get(key) == value), None
                )
                if clash is not None:
                    if not or_replace:
                        raise SqlIntegrityError(
                            f"UNIQUE constraint failed: {self.display_name}.{column.name}"
                        )
                    self._remove_rowid(clash)
        rowid = self._next_internal_rowid()
        self.rows[rowid] = row
        if self.pk_column is not None:
            self._index_add(row[self.pk_column], rowid)
        if self.pk_is_integer and isinstance(row.get(self.pk_column), int):
            return int(row[self.pk_column])  # type: ignore[arg-type]
        return rowid

    def find_by_pk(self, value: object) -> Optional[int]:
        """Return the internal rowid whose PK equals ``value``, if any."""
        if value is None:
            return None
        try:
            return self.pk_index.get(value)
        except TypeError:  # unhashable: no row can hold it
            return None

    def update_row(self, rowid: int, values: Dict[str, object]) -> None:
        """Assign ``values`` to one row, keeping the pk unique and indexed."""
        row = self.rows[rowid]
        if self.pk_column in values:
            new_pk = values[self.pk_column]
            self._check_key(new_pk)
            clash = self.find_by_pk(new_pk)
            if clash is not None and clash != rowid:
                raise SqlIntegrityError(
                    f"UNIQUE constraint failed: {self.display_name}.{self.pk_column}"
                )
            self._index_remove(row.get(self.pk_column))
            row.update(values)
            self._index_add(new_pk, rowid)
        else:
            row.update(values)

    def delete_rowids(self, rowids: List[int]) -> int:
        removed = 0
        for rowid in rowids:
            if rowid in self.rows:
                self._remove_rowid(rowid)
                removed += 1
        return removed

    def all_rows(self) -> List[Dict[str, object]]:
        return list(self.rows.values())

    def __len__(self) -> int:
        return len(self.rows)
