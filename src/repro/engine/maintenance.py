"""Incremental maintenance: rebuilding table extents after the load.

The paper loads the device once "in a secure setting"; real deployments
need re-synchronisation sessions (the authors' follow-up system, PlugDB,
made this a first-class feature).  This module implements batch appends
-- and the rebuild transaction UPDATE/DELETE ride on -- with the storage
model we have: NAND flash forbids in-place writes, so a mutation
*rebuilds* each affected structure.  All of that cost is charged to the
device, making maintenance measurable (the T6 extension bench).

Rebuild scope follows what changed.  Each structure depends on a set of
``(table, column)`` pairs derived from the catalog: an SKT on the key
columns (PKs, and the FKs linking them) of its subtree; a climbing index
``(t, c)`` on ``t.c`` plus the key columns along its level path to the
root (a key index is the climbing index on ``t``'s PK).  A statement
that changes the row set (append, DELETE) rebuilds the heap and every
structure with the table among its tables.  One that only changes
values of some device columns (UPDATE, which may not assign keys)
rebuilds the heap and the structures depending on those columns -- for
a hidden non-key column, its own climbing index and nothing else.

Crash atomicity (:func:`rebuild_table`) follows a strict build-all-then-
swap discipline.  Every flash write happens while the catalog still
points at the old extents; the commit -- swapping catalog dicts and
freeing old pages -- is pure host-side bookkeeping with no flash I/O, so
no fault decision (power cut, bad block, read-only latch) can land
inside it.  A failure during the build frees exactly the orphaned new
pages and re-raises, leaving the old state untouched; a power cut leaves
the new pages unreferenced, where the mount-time orphan sweep reclaims
them.  Either way, recovery sees the old version or the new version of
a statement -- never a torn mix.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.catalog.statistics import StatisticsCollector
from repro.engine.database import HiddenDatabase
from repro.index.climbing import ClimbingIndex
from repro.index.skt import SubtreeKeyTable
from repro.obs.log import get_logger
from repro.storage.heap import HeapTable

log = get_logger(__name__)


class MaintenanceError(ValueError):
    """An append violated the storage invariants."""


@dataclass
class MaintenanceReport:
    """What one append batch rebuilt."""

    table: str
    appended_rows: int
    rebuilt_skts: list[str]
    rebuilt_indexes: list[str]

    def summary(self) -> str:
        return (
            f"appended {self.appended_rows} rows to {self.table}; "
            f"rebuilt SKTs {self.rebuilt_skts or '[]'} and "
            f"{len(self.rebuilt_indexes)} indexes"
        )


def append_rows(
    db: HiddenDatabase, table: str, new_rows: list[tuple]
) -> MaintenanceReport:
    """Append full rows (schema column order) to one table's hidden part.

    New primary keys must exceed every existing key (appends model new
    entities -- visits that happened, prescriptions written; updates to
    historical rows are out of scope, as in the paper).
    """
    table = table.lower()
    if table not in db.heaps:
        raise MaintenanceError(f"unknown table {table!r}")
    if not new_rows:
        return MaintenanceReport(table, 0, [], [])
    table_def = db.tree.table(table)
    device_cols = table_def.device_columns()
    source_idx = [table_def.column_index(c.name) for c in device_cols]
    reduced = [tuple(row[i] for i in source_idx) for row in new_rows]
    reduced.sort(key=lambda r: r[0])

    old_heap = db.heaps[table]
    if old_heap.count and reduced[0][0] <= old_heap.pk_of_rowid(
        old_heap.count - 1
    ):
        raise MaintenanceError(
            f"{table}: appended keys must exceed the current maximum "
            f"({old_heap.pk_of_rowid(old_heap.count - 1)})"
        )

    def merged_rows():
        for row in old_heap.scan():
            yield row
        for row in reduced:
            yield tuple(
                c.dtype.validate(v) for c, v in zip(device_cols, row)
            )

    rebuilt = rebuild_table(db, table, merged_rows())
    rebuilt_skts = [label for label in rebuilt if label.startswith("SKT_")]
    rebuilt_indexes = [
        label for label in rebuilt if label.startswith(("cidx:", "kidx:"))
    ]

    log.info(
        "appended %d rows to %s (rebuilt %d SKTs, %d indexes)",
        len(reduced), table, len(rebuilt_skts), len(rebuilt_indexes),
    )
    return MaintenanceReport(
        table=table,
        appended_rows=len(reduced),
        rebuilt_skts=rebuilt_skts,
        rebuilt_indexes=rebuilt_indexes,
    )


def rebuild_table(
    db: HiddenDatabase,
    table: str,
    device_rows,
    changed: frozenset[str] | None = None,
) -> list[str]:
    """Atomically replace ``table``'s device extents with ``device_rows``.

    ``device_rows`` is an iterable of *device* rows (device-column
    order, primary key first, sorted ascending).  ``changed`` names the
    device columns whose values differ from the stored rows; ``None``
    means the row set itself changed.  The heap and every structure
    that depends on a changed column (see the module docstring) are
    built into fresh extents first -- the catalog untouched, the old
    pages still live -- and only then swapped in during a flash-free
    commit.  Structures outside that set keep their objects and pages.
    On any build failure the freshly written pages are freed and the
    exception re-raised: the old state stays fully intact.

    Statistics are recomputed for the changed columns only; the others
    are carried over.

    Returns the labels of the rebuilt structures, heap first.
    """
    tree = db.tree
    table_def = tree.table(table)
    device_cols = table_def.device_columns()
    device = db.device
    ftl = device.ftl
    fields = [
        i
        for i, c in enumerate(device_cols)
        if changed is None or c.name.lower() in changed
    ]
    collector = StatisticsCollector(
        table=table,
        column_names=[device_cols[i].name for i in fields],
        dtypes=[device_cols[i].dtype for i in fields],
        fields=None if changed is None else fields,
    )

    def stale(deps: set[tuple[str, str]]) -> bool:
        if changed is None:
            return any(t == table for t, _column in deps)
        return any((table, column) in deps for column in changed)

    def index_deps(index: ClimbingIndex) -> set[tuple[str, str]]:
        return {(index.table, index.column)} | _key_columns(tree, index.levels)

    def collected():
        for row in device_rows:
            collector.add(row)
            yield row

    before = ftl.mapped_lpages()
    try:
        # Build phase: every flash write lands here, into pages the
        # catalog does not reference yet.
        new_heap = HeapTable(
            device, table, table_def.device_codec(), pk_field=0
        )
        new_heap.load(collected())
        heaps_view = {**db.heaps, table: new_heap}

        new_skts = {}
        for root, skt in db.skts.items():
            if stale(_key_columns(tree, skt.tables)):
                new_skts[root] = SubtreeKeyTable.build(
                    device, tree, root, heaps_view
                )

        edge_cache: dict = {}
        new_climbing = {}
        for key, index in db.climbing.items():
            if stale(index_deps(index)):
                new_climbing[key] = ClimbingIndex.build(
                    device, tree, heaps_view, key[0], key[1], edge_cache
                )
        new_key_indexes = {}
        for name, index in db.key_indexes.items():
            if stale(index_deps(index)):
                new_key_indexes[name] = ClimbingIndex.build(
                    device, tree, heaps_view, name,
                    tree.table(name).pk.name, edge_cache,
                )
    except BaseException:
        # Abort: free exactly the pages this build orphaned.  free() is
        # host-side bookkeeping (no flash I/O), so the abort itself
        # cannot fault.  After a power cut the same cleanup happens via
        # the mount-time orphan sweep instead.
        for lpage in ftl.mapped_lpages() - before:
            ftl.free(lpage)
        raise

    # Commit phase: swap the catalog and free the old extents.  Pure
    # host-side dict/bookkeeping operations -- no flash I/O, so no
    # fault decision can interleave; the statement is atomic.
    _free_heap(db, db.heaps[table])
    db.heaps[table] = new_heap
    db.stats[table] = collector.finish(
        None if changed is None else db.stats[table]
    )
    rebuilt = [f"heap:{table}"]
    for root, skt in new_skts.items():
        _free_pages(db, db.skts[root].pages)
        db.skts[root] = skt
        rebuilt.append(f"SKT_{root}")
    for key, index in new_climbing.items():
        _free_index(db, db.climbing[key])
        db.climbing[key] = index
        rebuilt.append(f"cidx:{key[0]}.{key[1]}")
    for name, index in new_key_indexes.items():
        _free_index(db, db.key_indexes[name])
        db.key_indexes[name] = index
        rebuilt.append(f"kidx:{name}")
    return rebuilt


def _key_columns(tree, tables: list[str]) -> set[tuple[str, str]]:
    """``(table, column)`` of the PKs of ``tables`` and the FKs linking
    them to each other -- the key material a structure over them reads."""
    members = set(tables)
    keys = set()
    for name in tables:
        keys.add((name, tree.table(name).pk.name.lower()))
        keys.update(
            (name, fk.lower())
            for fk, child in tree.children_of(name)
            if child in members
        )
    return keys


def _free_pages(db: HiddenDatabase, pages: list[int]) -> None:
    for lpage in pages:
        db.device.ftl.free(lpage)


def _free_heap(db: HiddenDatabase, heap: HeapTable) -> None:
    _free_pages(db, heap.pages)
    _free_pages(db, heap._pk_pages)


def _free_index(db: HiddenDatabase, index: ClimbingIndex) -> None:
    for file in index._files:
        if file is not None:
            _free_pages(db, file.pages)
