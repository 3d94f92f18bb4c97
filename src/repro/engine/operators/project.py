"""Projection: assemble final result rows from subtree key tuples.

For each surviving key tuple the projection

* serves primary keys straight from the tuple,
* reads hidden attributes from the device heaps (cheap partial reads via
  a persistent per-table reader),
* fetches visible attributes from the PC in batches, with the visible
  predicates re-checked host-side -- which is also what eliminates Bloom
  false positives: an ID that fails the re-check simply comes back
  absent and its tuple is dropped,
* evaluates residual hidden predicates (e.g. <>) the indexes could not.

The assembled rows never leave the device over the untrusted link; the
session hands them to the secure rendering path.
"""

from __future__ import annotations

from repro.catalog.schema import ColumnDef
from repro.engine.operators.base import ExecContext, Operator, PlanExecutionError
from repro.sql.binder import Predicate
from repro.storage.heap import KeyNotFoundError


class ProjectOp(Operator):
    name = "project"

    def __init__(
        self,
        ctx: ExecContext,
        child: Operator,
        tables: list[str],
        projections: list[tuple[str, ColumnDef]],
        visible_recheck: list[Predicate] | None = None,
        residual_hidden: list[Predicate] | None = None,
    ):
        super().__init__(
            ctx,
            detail=", ".join(f"{t}.{c.name}" for t, c in projections),
            children=(child,),
        )
        self.child = child
        self.tables = [t.lower() for t in tables]
        self.projections = [(t.lower(), c) for t, c in projections]
        self.visible_recheck = visible_recheck or []
        self.residual_hidden = residual_hidden or []
        for table, _column in self.projections:
            if table not in self.tables:
                raise PlanExecutionError(
                    f"projection references {table!r} but the plan's "
                    f"tuples only cover {self.tables}"
                )
        for predicate in self.residual_hidden:
            if predicate.table not in self.tables:
                raise PlanExecutionError(
                    f"residual predicate on {predicate.table!r} not "
                    f"covered by plan tuples {self.tables}"
                )

    def _open(self):
        self.reserve(self.ctx.fetch_batch * len(self.tables) * 4)

    def _produce_batches(self, cap: int):
        """Assemble result rows in output windows of up to ``cap`` rows.

        Flash reads and visible fetches happen row by row, in the same
        order at any window size, and a window ends right after its
        ``cap``-th row.  The decode and compare primitives are counted
        locally and charged at the end of each window and of each fetch
        group -- before the child is pulled again, since its window
        marks and visible fetches read the clock -- so every mark sees
        the per-tuple total.  The per-item ``_produce`` is this code
        with a window of one row.
        """
        ctx = self.ctx
        db = ctx.db
        chip = ctx.device.chip
        position = {table: i for i, table in enumerate(self.tables)}

        # Persistent readers for tables we read hidden fields from.
        hidden_tables = {t for t, c in self.projections if c.hidden}
        hidden_tables |= {p.table for p in self.residual_hidden}
        readers = {
            t: db.heaps[t].reader(f"project:{t}") for t in hidden_tables
        }
        # Group visible needs per table.
        visible_cols: dict[str, list[str]] = {}
        for table, column in self.projections:
            if not column.hidden and not column.primary_key:
                visible_cols.setdefault(table, []).append(
                    column.name.lower()
                )
        recheck_by_table: dict[str, list[Predicate]] = {}
        for predicate in self.visible_recheck:
            recheck_by_table.setdefault(predicate.table, []).append(predicate)
        # Tables we must consult the host about (values or recheck-only).
        fetch_tables = sorted(set(visible_cols) | set(recheck_by_table))
        fetch_positions = [position[table] for table in fetch_tables]
        # Catalog lookups, once per query instead of once per row.  A
        # hidden field is keyed ``(table, field index)``; a visible one
        # is ``(table, index among the fetched columns)``.
        def hidden_key(table: str, column: str) -> tuple[str, int]:
            return table, db.tree.table(table).device_column_index(column)

        residual_plan = [
            (predicate, position[predicate.table],
             hidden_key(predicate.table, predicate.column))
            for predicate in self.residual_hidden
        ]
        columns = []
        for table, column in self.projections:
            if column.primary_key:
                columns.append((_KEY, position[table], None))
            elif column.hidden:
                columns.append(
                    (_HIDDEN, position[table], hidden_key(table, column.name))
                )
            else:
                col_pos = visible_cols[table].index(column.name.lower())
                columns.append((_VISIBLE, position[table], (table, col_pos)))
        hidden_keys = {key for _p, _pos, key in residual_plan} | {
            ref for kind, _pos, ref in columns if kind is _HIDDEN
        }

        decodes = compares = 0
        out: list[tuple] = []
        try:
            # Fetch grouping stays at ``fetch_batch`` regardless of the
            # window size: the groups decide the observable fetch_values
            # messages, which must not depend on host batching.
            for group in _groups(self.child.rows(), ctx.fetch_batch):
                # 1. Fetch visible values (and presence under recheck).
                fetched = {
                    table: ctx.link.fetch_values(
                        table,
                        sorted({row[pos] for row in group}),
                        visible_cols.get(table, []),
                        recheck_by_table.get(table, []),
                    )
                    for table, pos in zip(fetch_tables, fetch_positions)
                }
                checks = [
                    (pos, fetched[table])
                    for table, pos in zip(fetch_tables, fetch_positions)
                ]
                dense = self._dense_tables(group, readers)
                getters = {
                    key: self._hidden_field(readers, *key, key[0] in dense)
                    for key in hidden_keys
                }
                residuals = [
                    (predicate, pos, getters[key])
                    for predicate, pos, key in residual_plan
                ]
                plan = []
                for kind, pos, ref in columns:
                    if kind is _HIDDEN:
                        ref = getters[ref]
                    elif kind is _VISIBLE:
                        ref = (fetched[ref[0]], ref[1])
                    plan.append((kind, pos, ref))
                # 2. Assemble rows, dropping tuples that failed a recheck
                #    or a residual hidden predicate.
                for row in group:
                    dropped = False
                    for pos, present in checks:
                        if row[pos] not in present:
                            dropped = True
                            break
                    if dropped:
                        # Under a recheck this is (almost always) a Bloom
                        # false positive surviving post-filtering; count
                        # it for the cross-query metrics.
                        if self.visible_recheck:
                            ctx.bump("bloom_recheck_dropped")
                        continue
                    for predicate, pos, getter in residuals:
                        value = getter(row[pos])
                        decodes += 1
                        compares += 1
                        if not predicate.matches(value):
                            dropped = True
                            break
                    if dropped:
                        continue
                    values = []
                    for kind, pos, ref in plan:
                        key = row[pos]
                        if kind is _KEY:
                            values.append(key)
                        elif kind is _HIDDEN:
                            values.append(ref(key))
                            decodes += 1
                        else:
                            fetched_values, col_pos = ref
                            values.append(fetched_values[key][col_pos])
                    out.append(tuple(values))
                    if len(out) >= cap:
                        _charge(chip, decodes, compares)
                        decodes = compares = 0
                        yield out
                        out = []
                # The next group pulls child windows, whose marks must
                # see this group's charges.
                _charge(chip, decodes, compares)
                decodes = compares = 0
        finally:
            _charge(chip, decodes, compares)
            for reader in readers.values():
                reader.close()
        if out:
            yield out

    def _dense_tables(self, group, readers) -> set[str]:
        """Hidden-field fetch route per table for one fetch group.

        Dense row sets go through the buffer pool (one full-page read
        serves every field on the page), sparse ones stay on cheap
        partial reads.  Same density gate as SKT access; ``group`` is a
        ``fetch_batch`` group, so the choice is independent of the
        window size.
        """
        pool = self.ctx.device.page_cache
        pool_fits = pool.enabled and (
            pool.capacity_pages is None
            or pool.capacity_pages >= max(1, len(readers))
        )
        if not pool_fits:
            return set()
        return {
            table
            for table, reader in readers.items()
            if len(group) * reader.slots_per_page >= 2 * reader.count
        }

    def _hidden_field(
        self, readers, table: str, field_idx: int, cached: bool
    ):
        """A getter from primary key to the decoded hidden field.

        The getter reads flash but charges nothing: the caller counts one
        ``decode_field`` per call and charges it with its window.
        """
        heap = self.ctx.db.heaps[table]
        rowid_for_pk = heap.rowid_for_pk
        off, width = heap.codec.field_slice(field_idx)
        decode = heap.codec.types[field_idx].decode
        reader = readers[table]
        fetch = reader.field_cached if cached else reader.field

        def value(pk: int):
            try:
                rowid = rowid_for_pk(pk)
            except KeyNotFoundError:
                raise PlanExecutionError(
                    f"dangling key {pk} for table {table!r} during projection"
                ) from None
            return decode(fetch(rowid, off, width))

        return value


#: Output column kinds of the projection plan.
_KEY, _HIDDEN, _VISIBLE = "key", "hidden", "visible"


def _charge(chip, decodes: int, compares: int) -> None:
    """Charge one window's counted primitives (none charged at zero)."""
    if decodes:
        chip.charge("decode_field", decodes)
    if compares:
        chip.charge("compare", compares)


def _groups(rows, size: int):
    """Chunk ``rows`` into lists of ``size`` (the last may be shorter)."""
    group: list = []
    for row in rows:
        group.append(row)
        if len(group) >= size:
            yield group
            group = []
    if group:
        yield group
