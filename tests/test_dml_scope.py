"""Rebuild scope of DML: rewrite only what depends on what changed.

An UPDATE cannot assign a key, so it changes the heap and the climbing
indexes on the assigned hidden columns -- nothing else.  DELETE and
append change the row set and rebuild every structure over the table.
Structures left alone keep their objects and pages, and every query
still matches the brute-force reference afterwards (a stale index would
not).
"""

from __future__ import annotations

import datetime
import random

import pytest

from repro import artifacts
from repro.core.ghostdb import GhostDB
from repro.obs.bundle import POSTMORTEM, build_bundle
from repro.privacy.leakcheck import LeakChecker
from repro.reference import evaluate_reference, same_rows
from repro.sql import ast
from repro.sql.binder import Binder
from repro.sql.parser import parse_statement
from repro.workload.datagen import DatasetConfig, MedicalDataGenerator
from repro.workload.queries import DEMO_SCHEMA_DDL, QUERY_FAMILIES

SCALE = 200


@pytest.fixture(scope="module")
def scope_data() -> dict[str, list]:
    return MedicalDataGenerator(
        DatasetConfig(n_prescriptions=SCALE)
    ).generate()


@pytest.fixture
def session(scope_data) -> GhostDB:
    db = GhostDB()
    for ddl in DEMO_SCHEMA_DDL:
        db.execute(ddl)
    db.load(scope_data)
    return db


def structures(db: GhostDB) -> dict[str, object]:
    """Every device structure by its rebuild label."""
    hidden = db.hidden
    found: dict[str, object] = {
        f"heap:{name}": heap for name, heap in hidden.heaps.items()
    }
    found.update(
        (f"SKT_{root}", skt) for root, skt in hidden.skts.items()
    )
    found.update(
        (f"cidx:{t}.{c}", index) for (t, c), index in hidden.climbing.items()
    )
    found.update(
        (f"kidx:{name}", index) for name, index in hidden.key_indexes.items()
    )
    return found


def pages_of(structure) -> list[int]:
    if hasattr(structure, "_pk_pages"):
        return list(structure.pages) + list(structure._pk_pages)
    if hasattr(structure, "_files"):
        return [
            page
            for file in structure._files
            if file is not None
            for page in file.pages
        ]
    return list(structure.pages)


def update_scope(db: GhostDB, table: str, assigned: set[str]) -> set[str]:
    """Catalog-derived scope of a non-key UPDATE: the heap plus the
    climbing indexes on the assigned device columns."""
    device = {c.name.lower() for c in db.tree.table(table).device_columns()}
    changed = assigned & device
    if not changed:
        return set()
    return {f"heap:{table}"} | {
        f"cidx:{t}.{c}"
        for t, c in db.hidden.climbing
        if t == table and c in changed
    }


def row_set_scope(db: GhostDB, table: str) -> set[str]:
    """Catalog-derived scope of a row-set change: every structure with
    ``table`` among its tables."""
    hidden = db.hidden
    return (
        {f"heap:{table}"}
        | {f"SKT_{r}" for r, skt in hidden.skts.items() if table in skt.tables}
        | {
            f"cidx:{t}.{c}"
            for (t, c), index in hidden.climbing.items()
            if table in index.levels
        }
        | {
            f"kidx:{name}"
            for name, index in hidden.key_indexes.items()
            if table in index.levels
        }
    )


def assert_untouched_kept(before: dict, after: dict, rebuilt: set[str]):
    for label, structure in before.items():
        if label in rebuilt:
            assert after[label] is not structure, label
        else:
            assert after[label] is structure, label
            assert pages_of(after[label]) == pages_of(structure), label


UPDATES = [
    pytest.param(
        "UPDATE Prescription SET Quantity = 4242 WHERE Quantity = 7",
        "prescription",
        {"quantity"},
        {"heap:prescription", "cidx:prescription.quantity"},
        id="root-hidden",
    ),
    pytest.param(
        "UPDATE Visit SET Purpose = 'Sclerosis' WHERE VisID <= 20",
        "visit",
        {"purpose"},
        {"heap:visit", "cidx:visit.purpose"},
        id="inner-hidden",
    ),
    pytest.param(
        "UPDATE Patient SET BodyMassIndex = 40.5 WHERE PatID <= 5",
        "patient",
        {"bodymassindex"},
        {"heap:patient", "cidx:patient.bodymassindex"},
        id="leaf-hidden",
    ),
    pytest.param(
        "UPDATE Patient SET Name = 'Zed Quux', BodyMassIndex = 18.5, "
        "Age = 77 WHERE PatID = 3",
        "patient",
        {"name", "bodymassindex", "age"},
        {"heap:patient", "cidx:patient.name", "cidx:patient.bodymassindex"},
        id="multi-column",
    ),
    pytest.param(
        "UPDATE Prescription SET Frequency = 'hourly' WHERE PreID <= 30",
        "prescription",
        {"frequency"},
        set(),
        id="visible-only",
    ),
]


class TestUpdateScope:
    @pytest.mark.parametrize("sql,table,assigned,expected", UPDATES)
    def test_rebuilds_exactly_the_dependent_structures(
        self, session, sql, table, assigned, expected
    ):
        assert update_scope(session, table, assigned) == expected
        before = structures(session)
        mapped = session.device.ftl.mapped_lpages()
        result = session.execute(sql)
        assert result.changed > 0
        assert set(result.rebuilt) == expected
        assert len(result.rebuilt) == len(expected)
        if expected:
            assert result.rebuilt[0] == f"heap:{table}"
        assert_untouched_kept(before, structures(session), expected)
        assert (
            session.device.ftl.mapped_lpages()
            == session.hidden.referenced_pages()
        )
        if not expected:
            assert result.metrics.flash_page_writes == 0
            assert session.device.ftl.mapped_lpages() == mapped

    def test_unchanged_stats_carried_over(self, session):
        old = session.hidden.stats["prescription"]
        session.execute(
            "UPDATE Prescription SET Quantity = 4242 WHERE Quantity = 7"
        )
        new = session.hidden.stats["prescription"]
        assert list(new.columns) == list(old.columns)
        for name, column in old.columns.items():
            if name == "quantity":
                assert new.columns[name].frequencies[4242] > 0
            else:
                assert new.columns[name] is column

    def test_span_and_flight_event_carry_the_count(self, session):
        result = session.execute(
            "UPDATE Visit SET Purpose = 'Sclerosis' WHERE VisID <= 20"
        )
        (event,) = [
            e for e in session.obs.flight.events() if e.kind == "dml_end"
        ]
        assert dict(event.data)["structures_rebuilt"] == 2
        assert len(result.rebuilt) == 2
        spans = [
            s for s in session.obs.tracer.spans() if s.name == "executor.dml"
        ]
        assert spans[-1].attrs["structures_rebuilt"] == 2


class TestRowSetScope:
    def test_delete_rebuilds_everything_over_the_table(self, session):
        expected = row_set_scope(session, "prescription")
        assert len(expected) == 11
        result = session.execute(
            "DELETE FROM Prescription WHERE PreID IN (2, 4)"
        )
        assert set(result.rebuilt) == expected

    def test_append_rebuilds_everything_over_the_table(self, session):
        expected = row_set_scope(session, "visit")
        before = structures(session)
        visits = session.hidden.heaps["visit"]
        max_pk = visits.pk_of_rowid(visits.count - 1)
        report = session.append(
            "visit",
            [(max_pk + 1, datetime.date(2026, 1, 1), "Checkup", 1, 1)],
        )
        rebuilt = (
            {"heap:visit"}
            | set(report.rebuilt_skts)
            | set(report.rebuilt_indexes)
        )
        assert rebuilt == expected
        assert_untouched_kept(before, structures(session), expected)


# ----------------------------------------------------------------------
# Seeded DML mix against the reference evaluator
# ----------------------------------------------------------------------


def apply_to_reference(tree, rows_by_table, sql: str) -> None:
    statement = parse_statement(sql)
    binder = Binder(tree)
    if isinstance(statement, ast.Update):
        bound = binder.bind_update(statement)
    else:
        bound = binder.bind_delete(statement)
    tdef = bound.table_def
    idx = {c.name.lower(): i for i, c in enumerate(tdef.columns)}
    out = []
    for row in rows_by_table[bound.table]:
        if not all(p.matches(row[idx[p.column]]) for p in bound.predicates):
            out.append(row)
        elif isinstance(statement, ast.Update):
            new = list(row)
            for a in bound.assignments:
                new[idx[a.column.name.lower()]] = a.column.dtype.validate(
                    a.value
                )
            out.append(tuple(new))
    rows_by_table[bound.table] = out


def random_statement(rng: random.Random, ref: dict) -> str:
    pre = sorted(r[0] for r in ref["prescription"])
    vis = sorted(r[0] for r in ref["visit"])
    pat = sorted(r[0] for r in ref["patient"])
    purposes = ["Sclerosis", "Neuropathy", "Routine checkup"]
    return rng.choice([
        f"UPDATE Prescription SET Quantity = {rng.randint(1, 9)} "
        f"WHERE Quantity = {rng.randint(1, 9)}",
        f"UPDATE Prescription SET WhenWritten = DATE '2007-0"
        f"{rng.randint(1, 9)}-15' WHERE PreID <= {rng.choice(pre)}",
        f"UPDATE Prescription SET Frequency = 'x{rng.randint(1, 3)}' "
        f"WHERE PreID >= {rng.choice(pre)}",
        f"UPDATE Visit SET Purpose = '{rng.choice(purposes)}' "
        f"WHERE VisID <= {rng.choice(vis)}",
        f"UPDATE Visit SET Purpose = '{rng.choice(purposes)}', "
        f"Date = DATE '2006-0{rng.randint(1, 9)}-01' "
        f"WHERE VisID = {rng.choice(vis)}",
        f"UPDATE Patient SET BodyMassIndex = {rng.randint(150, 400) / 10}, "
        f"Age = {rng.randint(20, 90)} WHERE PatID <= {rng.choice(pat)}",
        f"DELETE FROM Prescription WHERE PreID = {rng.choice(pre)}",
    ])


def append_prescriptions(rng, db: GhostDB, ref: dict) -> None:
    max_pk = max(r[0] for r in ref["prescription"])
    vis = [r[0] for r in ref["visit"]]
    med = [r[0] for r in ref["medicine"]]
    rows = [
        (
            max_pk + i,
            rng.randint(1, 9),
            "daily",
            datetime.date(2007, rng.randint(1, 12), 1),
            rng.choice(med),
            rng.choice(vis),
        )
        for i in range(1, rng.randint(2, 6))
    ]
    db.append("prescription", rows)
    ref["prescription"] = ref["prescription"] + rows


class TestSeededMix:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_queries_match_reference_after_mix(
        self, session, scope_data, seed
    ):
        rng = random.Random(seed)
        ref = {name: list(rows) for name, rows in scope_data.items()}
        for _ in range(12):
            if rng.random() < 0.2:
                append_prescriptions(rng, session, ref)
                continue
            sql = random_statement(rng, ref)
            session.execute(sql)
            apply_to_reference(session.tree, ref, sql)
        for name, sql in QUERY_FAMILIES.items():
            expected = evaluate_reference(
                session.tree, ref, session.bind(sql)
            )
            assert same_rows(session.query(sql).rows, expected), (
                f"seed {seed}: {name} diverged from the reference"
            )
        assert (
            session.device.ftl.mapped_lpages()
            == session.hidden.referenced_pages()
        )

        # A postmortem bundle taken after the DML stays leak-free.
        bundle = build_bundle(session, reason="dump")
        for hidden in (scope_data, ref):
            _, summary = artifacts.checked_payload(
                POSTMORTEM,
                bundle,
                LeakChecker(session.schema, hidden),
                session.obs.redactor,
            )
            assert "CLEAN" in summary
