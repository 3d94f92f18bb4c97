"""``python -m repro.artifacts BASELINE CURRENT``: gate a bench or
leakage artifact against its committed baseline.

The gate table follows the files' ``kind``.  Exit 0 on PASS, 1 on FAIL,
2 when a file is unreadable or not a gated kind.
"""

from __future__ import annotations

import argparse

from repro.artifacts import compare, load
from repro.bench.artifact import BENCH
from repro.privacy.meter import LEAKAGE

GATED_KINDS = (BENCH, LEAKAGE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.artifacts",
        description="diff a bench or leakage artifact against a committed "
        "baseline; the gate table follows the files' kind",
    )
    parser.add_argument("baseline", help="the committed baseline JSON")
    parser.add_argument("current", help="the fresh BENCH_*/LEAK_* run")
    parser.add_argument(
        "--tolerance", type=float, default=None,
        help="relative headroom before a gated metric fails "
        "(default: the kind's own, 0.02 bench / 0 leakage)",
    )
    args = parser.parse_args(argv)
    try:
        baseline = load(args.baseline, *GATED_KINDS)
        spec = next(s for s in GATED_KINDS if s.kind == baseline["kind"])
        current = load(args.current, spec)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}")
        return 2
    report = compare(spec, baseline, current, tolerance=args.tolerance)
    print(report.render())
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
