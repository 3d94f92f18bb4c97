"""The shared gated-artifact pipeline (:mod:`repro.artifacts`).

Per-kind comparator rules are exercised in ``test_bench.py`` and
``test_leakage_meter.py``; this module covers what every kind shares:
the redaction allow-lists, the crash-safe writer, the loader and the
kind-dispatching command line.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import artifacts
from repro.artifacts.__main__ import main as artifacts_main
from repro.bench.artifact import BENCH
from repro.obs.bundle import POSTMORTEM
from repro.privacy.meter import LEAKAGE, SHELL_SCORECARD
from repro.soak import SOAK

#: Kinds whose signature-key values passed redaction before the shared
#: pipeline existed; the postmortem bundle and the soak report never
#: carry signatures, so theirs scrub.
SIGNATURES_PASS = {BENCH: True, LEAKAGE: True, SHELL_SCORECARD: True,
                   POSTMORTEM: False, SOAK: False}


def _record(spec, **fields) -> dict:
    return {"kind": spec.kind, "schema_version": spec.schema_version, **fields}


@pytest.mark.parametrize(
    "spec", list(SIGNATURES_PASS), ids=lambda spec: spec.kind
)
def test_redaction_per_kind(spec):
    record = _record(
        spec,
        stray="Dupont",
        nested={"note": ["Dupont"]},
        request_signature="0a1b2c3d",
        signatures=["deadbeef"],
    )
    scrubbed = json.loads(artifacts.payload(spec, record))
    # Keys are structural; a string value under a non-allowed key scrubs.
    assert scrubbed["kind"] == spec.kind
    assert scrubbed["stray"] == "?"
    assert scrubbed["nested"] == {"note": ["?"]}
    passes = SIGNATURES_PASS[spec]
    assert (scrubbed["request_signature"] == "0a1b2c3d") is passes
    assert (scrubbed["signatures"] == ["deadbeef"]) is passes


def test_structural_fields_and_vocabulary_pass():
    record = _record(
        SOAK,
        config={"fault_profile": "mixed"},
        invariants={"ram": "ok", "leak": "violated"},
        violations=[{"invariant": "ram", "detail": "Dupont"}],
    )
    scrubbed = json.loads(artifacts.payload(SOAK, record))
    assert scrubbed["config"]["fault_profile"] == "mixed"
    assert scrubbed["invariants"] == {"ram": "ok", "leak": "violated"}
    assert scrubbed["violations"] == [{"invariant": "ram", "detail": "?"}]


def test_payload_is_canonical_json():
    data = artifacts.payload(BENCH, _record(BENCH, b=1, a=2))
    assert data == (
        json.dumps(_record(BENCH, a=2, b=1), indent=2, sort_keys=True) + "\n"
    ).encode("utf-8")


class TestWrite:
    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "a" / "b" / "X.json"
        artifacts.write(str(path), b"new")
        assert path.read_bytes() == b"new"

    def test_interrupted_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "BENCH_x.json"
        artifacts.write(str(path), b"old bytes")

        def crash(src, dst):
            raise OSError("power lost before rename")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError, match="power lost"):
            artifacts.write(str(path), b"new bytes")
        assert path.read_bytes() == b"old bytes"
        assert os.listdir(tmp_path) == ["BENCH_x.json"]


class TestLoad:
    def test_refuses_foreign_kind_and_version(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text(json.dumps(_record(LEAKAGE)))
        with pytest.raises(ValueError, match="not a ghostdb-bench artifact"):
            artifacts.load(str(path), BENCH)
        path.write_text(json.dumps({"kind": "ghostdb-bench",
                                    "schema_version": -1}))
        with pytest.raises(ValueError, match="schema_version"):
            artifacts.load(str(path), BENCH)
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="not a"):
            artifacts.load(str(path), BENCH, LEAKAGE)

    def test_accepts_any_listed_kind(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text(json.dumps(_record(LEAKAGE)))
        assert artifacts.load(str(path), BENCH, LEAKAGE)["kind"] == LEAKAGE.kind


def test_default_artifact_name():
    assert artifacts.default_artifact_name(SOAK, 7) == "SOAK_7.json"
    name = artifacts.default_artifact_name(BENCH)
    assert name.startswith("BENCH_") and len(name) == len("BENCH_20260101.json")


class TestCommandLine:
    def _write(self, tmp_path, name, record) -> str:
        path = tmp_path / name
        path.write_text(json.dumps(record))
        return str(path)

    def test_picks_the_gate_table_from_the_kind(self, tmp_path, capsys):
        row = {"observable_bytes": 10, "messages": 2, "ids_observed": 0,
               "signatures": ["0a1b2c3d"]}
        base = _record(LEAKAGE, config={"scale": 1, "profile": "demo"},
                       families={"a/all": row})
        grown = json.loads(json.dumps(base))
        grown["families"]["a/all"]["messages"] = 3
        base_path = self._write(tmp_path, "base.json", base)
        assert artifacts_main([base_path, base_path]) == 0
        assert "leakage comparison: PASS" in capsys.readouterr().out
        cur_path = self._write(tmp_path, "cur.json", grown)
        assert artifacts_main([base_path, cur_path]) == 1
        out = capsys.readouterr().out
        assert "leakage comparison: FAIL" in out and "REGRESSION" in out
        # An explicit tolerance overrides the leakage table's default 0.
        assert artifacts_main([base_path, cur_path, "--tolerance", "1"]) == 0

    def test_refuses_mixed_or_ungated_kinds(self, tmp_path, capsys):
        bench = self._write(tmp_path, "b.json", _record(BENCH))
        leak = self._write(tmp_path, "l.json", _record(LEAKAGE))
        soak = self._write(tmp_path, "s.json", _record(SOAK))
        assert artifacts_main([bench, leak]) == 2
        assert artifacts_main([soak, soak]) == 2
        assert "not a ghostdb-bench or ghostdb-leakage" in capsys.readouterr().out
