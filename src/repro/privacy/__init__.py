"""Privacy auditing: the spy's view, the leak checker, the leak meter.

Demo phase 1 ("Checking security") shows "what a pirate (e.g., Trojan
horse) would observe, snooping the data transferred between the
components of the architecture".  :class:`~repro.privacy.spy.SpyView`
renders that observation from the captured USB traffic;
:class:`~repro.privacy.leakcheck.LeakChecker` mechanically verifies the
paper's guarantee -- the only information revealed is the queries posed
and the visible data accessed.  :mod:`repro.privacy.meter` quantifies
what that accepted revelation is worth to the adversary: traffic-shape
scorecards plus a query-fingerprinting attack whose accuracy is the
leakage number.  Its ``LEAK_<date>.json`` scorecard is declared there as
:data:`~repro.privacy.meter.LEAKAGE` and written, loaded and gated
against its baseline by :mod:`repro.artifacts`.
"""

from repro.privacy.leakcheck import LeakChecker, LeakReport, LeakViolation
from repro.privacy.meter import (
    LEAKAGE,
    FingerprintClassifier,
    LeakMeterConfig,
    LeakMeterError,
    TrafficProfile,
    evaluate_fingerprinting,
    profile_records,
    render_profile,
    request_signature,
    run_leakage_meter,
)
from repro.privacy.spy import IdStats, SpyView, TrafficSummary, unpack_ids

__all__ = [
    "LEAKAGE",
    "FingerprintClassifier",
    "IdStats",
    "LeakChecker",
    "LeakMeterConfig",
    "LeakMeterError",
    "LeakReport",
    "LeakViolation",
    "SpyView",
    "TrafficProfile",
    "TrafficSummary",
    "evaluate_fingerprinting",
    "profile_records",
    "render_profile",
    "request_signature",
    "run_leakage_meter",
    "unpack_ids",
]
