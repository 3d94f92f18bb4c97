"""One pipeline for every gated artifact: scrub, serialize, write, load, compare.

Each JSON file this code base writes for people or CI -- ``BENCH_<date>``,
``LEAK_<date>``, ``SOAK_<seed>``, ``DUMP_<seed>`` and the shell's
``--leak-out`` scorecard -- is an observable execution artefact, so each
one leaves the host through the same vetted channel:

1. :func:`payload` registers the record's *structural* tokens with a
   default-deny :class:`~repro.obs.redact.Redactor` (every dict key, the
   kind's declared structural fields and signature-key values), scrubs
   every other string value to ``?``, and serializes canonical JSON;
2. :func:`checked_payload` additionally runs the adversarial
   :class:`~repro.privacy.leakcheck.LeakChecker` over those bytes;
3. :func:`write` puts the bytes on disk crash-safely (temp file, fsync,
   atomic rename) -- the same writer session persistence uses;
4. :func:`load` reads one back, refusing a foreign kind or layout
   version;
5. :func:`compare` diffs two artifacts against the kind's declarative
   :class:`Gates` table and renders the PASS/FAIL report.

Each kind declares itself once, as an :class:`ArtifactKind` next to the
code that builds its record.  The two gated kinds (bench and leakage)
share one command-line comparator::

    python -m repro.artifacts benchmarks/baseline.json BENCH_x.json
    python -m repro.artifacts benchmarks/leakage_baseline.json LEAK_x.json

The gate table is picked from the files' ``kind`` (see
:mod:`repro.artifacts.__main__`).
"""

from __future__ import annotations

import datetime
import json
import os
import tempfile
from dataclasses import dataclass, field

from repro.obs.redact import Redactor

#: Keys whose string values are shape-derived hex signatures (CRCs of
#: traffic *shape*, computed by the leakage meter, never data).
SIGNATURE_KEYS = frozenset(
    {"leak_request_signature", "request_signature", "signatures"}
)


@dataclass(frozen=True)
class Gates:
    """A declarative comparator table for one artifact kind.

    Rows live in the artifact's top-level ``rows`` dict (bench
    scenarios, leakage families).  A row present in only one of the
    baseline and the run fails: every gated row carries a baseline.
    """

    rows: str
    #: Per-row metrics that fail when they grow beyond the relative
    #: tolerance; shrinking beyond it is reported as an improvement.
    relative: tuple[str, ...]
    #: Per-row fields that must match the baseline exactly.
    exact: tuple[str, ...] = ()
    #: ``(metric, floor_field)``: every current row carrying
    #: ``floor_field`` must keep ``metric`` at or above it, baseline or not.
    floors: tuple[tuple[str, str], ...] = ()
    #: ``(dotted path, limit)``: the current value must stay below limit.
    ceilings: tuple[tuple[str, float], ...] = ()
    #: ``(dotted path, headroom)``: the current value may exceed the
    #: baseline's by at most ``headroom`` (absolute).
    growth: tuple[tuple[str, float], ...] = ()
    #: Dotted paths that must be equal for the numbers to be comparable.
    config: tuple[str, ...] = ("schema_version", "config.scale", "config.profile")
    #: Default relative tolerance of the ``relative`` metrics.
    tolerance: float = 0.0


@dataclass(frozen=True)
class ArtifactKind:
    """One artifact kind: identity, file name, redaction allow-list, gates."""

    kind: str
    #: Layout version; ``None`` for a kind that carries none.
    schema_version: int | None
    #: Default file name prefix: ``<prefix>_<date or seed>.json``.
    prefix: str = ""
    #: Dotted paths of structural string fields whose values pass the gate.
    structural: tuple[str, ...] = ("kind", "leak_check")
    #: Keys whose string values (or lists of strings) pass the gate.
    value_keys: frozenset[str] = frozenset()
    #: Fixed tokens the record's string values draw on.
    vocabulary: tuple[str, ...] = ()
    gates: Gates | None = None


class ArtifactLeakError(RuntimeError):
    """A serialized artifact failed the adversarial leak check."""


def _get(record: dict, path: str, default=None):
    value = record
    for part in path.split("."):
        if not isinstance(value, dict):
            return default
        value = value.get(part, default)
    return value


def default_artifact_name(spec: ArtifactKind, tag=None) -> str:
    """``<prefix>_<tag>.json``; ``tag`` defaults to today's date."""
    if tag is None:
        tag = datetime.date.today().strftime("%Y%m%d")
    return f"{spec.prefix}_{tag}.json"


# ----------------------------------------------------------------------
# Scrub, serialize, check, write, load
# ----------------------------------------------------------------------


def _allow_structure(spec: ArtifactKind, redactor: Redactor, record: dict) -> None:
    """Register the record's structural tokens with the gate.

    Dict keys are authored by this code base (scenario names, metric
    names, ledger columns) and are therefore safe vocabulary.  String
    values stay default-deny except the kind's declared structural
    fields, vocabulary and value keys; anything else that sneaks in
    scrubs to ``?`` and shows up in review instead of leaking.
    """
    redactor.allow(*spec.vocabulary)
    for path in spec.structural:
        value = _get(record, path)
        if isinstance(value, str):
            redactor.allow(value)

    def walk(value, parent_key: str = "") -> None:
        if isinstance(value, dict):
            for key, sub in value.items():
                redactor.allow(str(key))
                walk(sub, str(key))
        elif isinstance(value, (list, tuple)):
            for sub in value:
                walk(sub, parent_key)
        elif isinstance(value, str) and parent_key in spec.value_keys:
            redactor.allow(value)

    walk(record)


def payload(
    spec: ArtifactKind, record: dict, redactor: Redactor | None = None
) -> bytes:
    """Scrub ``record`` with the kind's allow-list; canonical JSON bytes.

    A fresh default-deny :class:`Redactor` is used unless one is given
    (sessions pass their own, which already knows the schema names).
    """
    redactor = redactor or Redactor()
    _allow_structure(spec, redactor, record)
    text = json.dumps(redactor.value(record), indent=2, sort_keys=True)
    return (text + "\n").encode("utf-8")


def checked_payload(
    spec: ArtifactKind, record: dict, checker, redactor: Redactor | None = None
) -> tuple[bytes, str]:
    """:func:`payload`, then verified CLEAN by ``checker`` (a
    :class:`~repro.privacy.leakcheck.LeakChecker` over the hidden data).

    Returns the bytes and the checker's summary line; raises
    :class:`ArtifactLeakError` instead of returning leaking bytes.
    """
    data = payload(spec, record, redactor)
    report = checker.check_bytes(data, kind=spec.kind)
    if not report.ok:
        raise ArtifactLeakError(
            f"{spec.kind} artifact failed leak check: {report.summary()}"
        )
    return data, report.summary()


def write(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` crash-safely.

    The bytes go to a temporary file in the target directory, are
    flushed and fsynced, then atomically renamed over ``path``: a crash
    mid-write leaves either the old file or the new one, never a torn
    mix, and no temporary file survives a failed write.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(prefix=".ghostdb-", dir=directory)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def load(path: str, *specs: ArtifactKind) -> dict:
    """Read one artifact back, refusing JSON of any kind or layout
    version other than ``specs``."""
    with open(path, "r", encoding="utf-8") as handle:
        artifact = json.load(handle)
    kind = artifact.get("kind") if isinstance(artifact, dict) else None
    spec = next((s for s in specs if s.kind == kind), None)
    if spec is None:
        names = " or ".join(s.kind for s in specs)
        raise ValueError(f"{path}: not a {names} artifact")
    version = artifact.get("schema_version")
    if version != spec.schema_version:
        raise ValueError(
            f"{path}: artifact schema_version {version!r}, "
            f"this tool speaks {spec.schema_version}"
        )
    return artifact


# ----------------------------------------------------------------------
# The comparator
# ----------------------------------------------------------------------

#: Report label per finding rule, in render order; the first group fails
#: the comparison, the last one is informational.
_FAILING = {
    "config": "CONFIG MISMATCH",
    "missing": "MISSING",
    "new": "NO BASELINE",
    "regression": "REGRESSION",
    "changed": "SIGNATURE CHANGED",
    "below-floor": "BELOW FLOOR",
    "over-ceiling": "OVER CEILING",
    "grew": "GREW",
}
_INFORMATIONAL = {"improved": "improved"}


@dataclass(frozen=True)
class Finding:
    """One gate outcome worth reporting."""

    rule: str
    #: Row name (or ``""`` for artifact-wide checks).
    row: str
    #: Metric, field or dotted path the rule looked at.
    metric: str
    text: str


@dataclass
class Comparison:
    """Outcome of diffing a run against its baseline."""

    spec: ArtifactKind
    tolerance: float
    rows_compared: int = 0
    findings: list[Finding] = field(default_factory=list)

    def of(self, rule: str) -> list[Finding]:
        return [f for f in self.findings if f.rule == rule]

    @property
    def ok(self) -> bool:
        return not any(f.rule in _FAILING for f in self.findings)

    def render(self) -> str:
        gates = self.spec.gates
        title = self.spec.kind.removeprefix("ghostdb-")
        lines = [
            f"{title} comparison: {'PASS' if self.ok else 'FAIL'} "
            f"({self.rows_compared} {gates.rows} x "
            f"{len(gates.relative)} gated metrics, "
            f"tolerance {self.tolerance:.0%})"
        ]
        for rule, label in {**_FAILING, **_INFORMATIONAL}.items():
            lines.extend(f"  {label} {f.text}" for f in self.of(rule))
        return "\n".join(lines)


def _change(baseline: float, current: float) -> str:
    if baseline == 0:
        return "+inf%" if current else "+0.0%"
    return f"{current / baseline - 1:+.1%}"


def compare(
    spec: ArtifactKind,
    baseline: dict,
    current: dict,
    tolerance: float | None = None,
) -> Comparison:
    """Diff ``current`` against ``baseline`` under ``spec.gates``."""
    gates = spec.gates
    tolerance = gates.tolerance if tolerance is None else tolerance
    report = Comparison(spec=spec, tolerance=tolerance)
    add = report.findings.append

    for path in gates.config:
        base, cur = _get(baseline, path), _get(current, path)
        if base != cur:
            add(Finding("config", "", path,
                        f"{path}: baseline {base!r} vs run {cur!r}"))

    base_rows = baseline.get(gates.rows, {})
    cur_rows = current.get(gates.rows, {})
    for name in sorted(set(base_rows) - set(cur_rows)):
        add(Finding("missing", name, "",
                    f"{name} (in baseline, not in this run)"))
    for name in sorted(set(base_rows) & set(cur_rows)):
        report.rows_compared += 1
        base_row, cur_row = base_rows[name], cur_rows[name]
        for metric in gates.relative:
            base = float(base_row.get(metric, 0))
            cur = float(cur_row.get(metric, 0))
            text = (f"{name}: {metric} {base:g} -> {cur:g} "
                    f"({_change(base, cur)})")
            if cur > base * (1 + tolerance):
                add(Finding("regression", name, metric, text))
            elif cur < base * (1 - tolerance):
                add(Finding("improved", name, metric, text))
        for key in gates.exact:
            base, cur = base_row.get(key, ""), cur_row.get(key, "")
            if base != cur:
                add(Finding("changed", name, key,
                            f"{name}: {key} {base or '(none)'} -> "
                            f"{cur or '(none)'}"))
    for name in sorted(cur_rows):
        row = cur_rows[name]
        for metric, floor_key in gates.floors:
            floor = row.get(floor_key)
            value = float(row.get(metric, 0.0))
            if floor is not None and value < float(floor):
                add(Finding("below-floor", name, metric,
                            f"{name}: {metric} {value:.4f} "
                            f"< {floor_key} {floor:g}"))
    for name in sorted(set(cur_rows) - set(base_rows)):
        add(Finding("new", name, "",
                    f"{name} (in this run, not in baseline -- commit a "
                    f"refreshed one)"))

    for path, limit in gates.ceilings:
        value = _get(current, path)
        if value is not None and float(value) >= limit:
            add(Finding("over-ceiling", "", path,
                        f"{path} {float(value):g} (must stay below {limit:g})"))
    for path, headroom in gates.growth:
        base = float(_get(baseline, path, 0.0))
        cur = float(_get(current, path, 0.0))
        if cur > base + headroom:
            add(Finding("grew", "", path,
                        f"{path} {base:.3f} -> {cur:.3f} "
                        f"(headroom +{headroom:g})"))
    return report
