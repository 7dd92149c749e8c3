"""Schema model: tables, row counts, indexes.

The schema exists so the lock manager knows which templates collide
(co-table blocking) and so the repair module's automatic-indexing action
has something concrete to act on: adding an index to a table reduces the
examined rows of templates that filter on the indexed column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["Table", "Schema"]


@dataclass
class Table:
    """A simulated table."""

    name: str
    row_count: int = 1_000_000
    indexes: set[str] = field(default_factory=set)
    #: Multi-column indexes as ordered column tuples; the workload index
    #: advisor and the add-index repair action maintain these.
    composite_indexes: set[tuple[str, ...]] = field(default_factory=set)

    def __post_init__(self) -> None:
        if self.row_count < 0:
            raise ValueError("row_count must be non-negative")
        self.indexes = set(self.indexes)
        self.composite_indexes = {tuple(ix) for ix in self.composite_indexes if ix}

    def has_index(self, column: str) -> bool:
        """True when ``column`` is the leading key part of some index."""
        if column in self.indexes:
            return True
        return any(ix[0] == column for ix in self.composite_indexes)

    def add_index(self, column: str) -> bool:
        """Add an index; returns False if it already existed."""
        if column in self.indexes:
            return False
        self.indexes.add(column)
        return True

    def add_composite_index(self, columns: tuple[str, ...] | list[str]) -> bool:
        """Add a multi-column index; returns False if it already existed."""
        cols = tuple(columns)
        if not cols:
            return False
        if len(cols) == 1:
            return self.add_index(cols[0])
        if cols in self.composite_indexes:
            return False
        self.composite_indexes.add(cols)
        return True

    def covers(self, columns: tuple[str, ...] | list[str]) -> bool:
        """True when an existing index serves ``columns`` as a key prefix."""
        cols = tuple(columns)
        if not cols:
            return False
        if len(cols) == 1 and cols[0] in self.indexes:
            return True
        return any(ix[: len(cols)] == cols for ix in self.composite_indexes)


class Schema:
    """The set of tables on one database instance."""

    def __init__(self, tables: list[Table] | None = None) -> None:
        self._tables: dict[str, Table] = {}
        for table in tables or []:
            self.add_table(table)

    def __len__(self) -> int:
        return len(self._tables)

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def __getitem__(self, name: str) -> Table:
        return self._tables[name]

    def get(self, name: str) -> Table | None:
        return self._tables.get(name)

    def add_table(self, table: Table) -> Table:
        if table.name in self._tables:
            raise ValueError(f"table {table.name!r} already exists")
        self._tables[table.name] = table
        return table

    def ensure_table(self, name: str, row_count: int = 1_000_000) -> Table:
        """Return the table, creating it if missing (workload-builder path)."""
        table = self._tables.get(name)
        if table is None:
            table = Table(name, row_count)
            self._tables[name] = table
        return table

    @property
    def table_names(self) -> list[str]:
        return list(self._tables)
