"""Correctness gate: reference answers, the writer model, leak checks.

Every SELECT answer is compared, as a multiset, with
:func:`repro.reference.evaluate_reference` over the benchmark's own
generated rows.  Answers are computed once per distinct SQL string,
before the timed phase starts.  Values are normalised the way the serve
wire renders them (non-JSON scalars such as dates become strings), so
console and wire answers compare alike.
"""

from __future__ import annotations

import functools
from collections import Counter

from repro.privacy.leakcheck import LeakChecker
from repro.reference import evaluate_reference

#: Failure kinds, in report order.
FAILURE_KINDS = ("fault", "statement", "internal", "wrong_rows", "refused")


def wire_value(value):
    """A value as the serve wire renders it."""
    if isinstance(value, (int, float, str, bool, type(None))):
        return value
    return str(value)


def row_multiset(rows) -> Counter:
    return Counter(tuple(wire_value(v) for v in row) for row in rows)


def reference_answers(db, data: dict, sqls) -> dict[str, Counter]:
    """``{sql: expected row multiset}`` for every distinct SELECT."""
    answers = {}
    for sql in sqls:
        if sql not in answers:
            bound = db.bind(sql)
            answers[sql] = row_multiset(evaluate_reference(db.tree, data, bound))
    return answers


def classify_exception(exc: BaseException) -> str:
    """Failure kind of an exception raised by a console statement."""
    from repro.faults import GhostDBFaultError

    if isinstance(exc, GhostDBFaultError):
        return "fault"
    return classify_kind(type(exc).__name__)


@functools.cache
def _statement_error_names() -> frozenset[str]:
    """Class names of the program's statement errors (and subclasses)."""
    from repro.catalog.schema import SchemaError
    from repro.core.session import SessionError
    from repro.engine.dml import DmlError
    from repro.engine.maintenance import MaintenanceError
    from repro.engine.plan import PlanError
    from repro.sql.errors import SqlError

    names: set[str] = set()
    stack = [SqlError, SessionError, DmlError, PlanError, SchemaError,
             MaintenanceError]
    while stack:
        cls = stack.pop()
        names.add(cls.__name__)
        stack.extend(cls.__subclasses__())
    return frozenset(names)


_REFUSED_KINDS = {"auth", "session", "shutdown", "AdmissionError"}


def classify_kind(kind: str) -> str:
    """Failure kind of a serve error reply's ``kind`` field.

    ``fault`` is a typed ``GhostDBFaultError``; ``statement`` a parse,
    bind, DML or session error; ``refused`` a refused admission or a
    statement without a session; anything else is a raw internal
    exception (for example ``FlashError``).
    """
    if kind == "fault":
        return "fault"
    if kind in _REFUSED_KINDS:
        return "refused"
    if kind in _statement_error_names():
        return "statement"
    return "internal"


class WriterModel:
    """The benchmark's model of the writer's ``WhenWritten`` effects.

    A single writer issues its UPDATEs serially, so their net effect is
    the generated column with each acknowledged UPDATE applied in order.
    """

    def __init__(self, prescriptions: list[tuple]):
        #: PreID -> (Quantity, WhenWritten), from the generated rows.
        self.rows = {row[0]: (row[1], row[3]) for row in prescriptions}
        self._original = list(prescriptions)

    def apply(self, write: tuple) -> tuple[int, int]:
        """Apply one UPDATE; returns the ``(matched, changed)`` counts it
        must have reported."""
        kind, key, new_date = write
        if kind == "pk":
            targets = [key] if key in self.rows else []
        else:
            targets = [pk for pk, (qty, _) in self.rows.items() if qty == key]
        changed = 0
        for pk in targets:
            quantity, old = self.rows[pk]
            if old != new_date:
                changed += 1
                self.rows[pk] = (quantity, new_date)
        return len(targets), changed

    def final_rows(self) -> list[tuple]:
        """Full prescription rows with the modelled dates."""
        return [
            row[:3] + (self.rows[row[0]][1],) + row[4:]
            for row in self._original
        ]

    def verify(self, db) -> str | None:
        """Compare the device's ``WhenWritten`` column with the model;
        returns a description of the first mismatch, or ``None``."""
        result = db.query(
            "SELECT Pre.PreID, Pre.WhenWritten FROM Prescription Pre"
        )
        got = dict(result.rows)
        want = {pk: date for pk, (_q, date) in self.rows.items()}
        if got == want:
            return None
        wrong = sorted(pk for pk in want if got.get(pk) != want[pk])
        return (
            f"WhenWritten differs from the writer model on {len(wrong)} "
            f"rows (first PreID {wrong[0] if wrong else '-'})"
        )


def leak_check(db, data: dict, extra_prescriptions=()) -> str | None:
    """Run ``LeakChecker`` over the device's spied USB log; returns the
    report summary when it is not clean.  ``extra_prescriptions`` adds
    rows whose hidden values the writer introduced."""
    rows = dict(data)
    if extra_prescriptions:
        rows["prescription"] = list(data["prescription"]) + list(
            extra_prescriptions
        )
    report = LeakChecker(db.schema, rows).check(db.usb_log)
    return None if report.ok else report.summary()
