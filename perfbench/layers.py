"""The traced run: wrappers around public functions, spans, self time.

:class:`LayerTracer` installs wrappers on the program's public functions
at the names their callers resolve (a module-level name is patched in
the importing module, a method on its class) and removes them again on
:meth:`LayerTracer.uninstall`.  Three wrapper kinds:

* **span**: records ``(id, name, start, end, parent, statement, thread)``
  and the span's self time -- its duration minus the part its child
  spans cover.  Generator functions get one span per ``next()``.
* **timed**: the same self-time accounting without a stored span record,
  for calls made once per flash page or per loaded row (FTL reads, the
  page cache, statistics collection), which would otherwise store
  millions of records per run.
* **count**: a call count only, for the per-tuple hot paths (chip
  charges, clock advances, metric increments, flight events).

State is per thread, so serve handler threads, the pump thread and the
client threads never share a stack or an accumulator.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
from collections import defaultdict, deque
from time import perf_counter


class _ThreadState:
    __slots__ = ("stack", "self_s", "counts", "spans", "stmt", "thread")

    def __init__(self, thread: str):
        self.thread = thread
        self.stack: list[list] = []
        self.stmt = None
        self.reset()

    def reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []


class LayerTracer:
    """Spans, self times and counts from wrappers around public API."""

    def __init__(self):
        self._tls = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._stmt_ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        #: Chosen plan's estimated and measured simulated seconds, by
        #: statement id.
        self.estimates: dict[int, float] = {}
        self.measured: dict[int, float] = {}
        #: Serve path: enqueue times of SQL calls not yet submitted, per
        #: session; queue waits of submitted ones not yet run; and the
        #: statement count of every ``Scheduler.run``.
        self._enqueued: dict[str, deque] = defaultdict(deque)
        self._submitted: deque = deque()
        self.queue_waits: list[float] = []
        self.round_sizes: list[int] = []

    # ------------------------------------------------------------------
    # Per-thread state
    # ------------------------------------------------------------------

    def state(self) -> _ThreadState:
        try:
            return self._tls.state
        except AttributeError:
            state = _ThreadState(threading.current_thread().name)
            self._tls.state = state
            with self._lock:
                self._states.append(state)
            return state

    def new_statement(self) -> int:
        return next(self._stmt_ids)

    def set_statement(self, stmt: int | None) -> None:
        self.state().stmt = stmt

    def reset(self) -> None:
        """Forget everything recorded so far (between warm-up and the
        measured phase, while no statement is in flight)."""
        with self._lock:
            for state in self._states:
                state.reset()
        self.estimates.clear()
        self.measured.clear()
        self.queue_waits.clear()
        self.round_sizes.clear()

    # ------------------------------------------------------------------
    # Frames
    # ------------------------------------------------------------------

    def _enter(self, state: _ThreadState) -> list:
        parent = state.stack[-1][1] if state.stack else None
        frame = [0.0, next(self._ids), parent, perf_counter()]
        state.stack.append(frame)
        return frame

    def _exit(self, state, frame, name: str, keep: bool) -> None:
        end = perf_counter()
        state.stack.pop()
        child, span_id, parent, start = frame
        duration = end - start
        state.self_s[name] += duration - child
        if state.stack:
            state.stack[-1][0] += duration
        if keep:
            state.spans.append(
                (span_id, name, start, end, parent, state.stmt, state.thread)
            )

    # ------------------------------------------------------------------
    # Wrapper factories
    # ------------------------------------------------------------------

    def spanned(self, name: str, func, keep: bool = True):
        if inspect.isgeneratorfunction(func):
            return self._spanned_generator(name, func, keep)
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            state = tracer.state()
            frame = tracer._enter(state)
            try:
                return func(*args, **kwargs)
            finally:
                tracer._exit(state, frame, name, keep)

        return wrapper

    def _spanned_generator(self, name: str, func, keep: bool):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            gen = func(*args, **kwargs)
            try:
                while True:
                    state = tracer.state()
                    frame = tracer._enter(state)
                    try:
                        item = next(gen)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        tracer._exit(state, frame, name, keep)
                    yield item
            finally:
                gen.close()

        return wrapper

    def counted(self, name: str, func):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            tracer.state().counts[name] += 1
            return func(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def span(self, owner, attr: str, name: str, keep: bool = True) -> None:
        self._patch(owner, attr, lambda f: self.spanned(name, f, keep))

    def count(self, owner, attr: str, name: str) -> None:
        self._patch(owner, attr, lambda f: self.counted(name, f))

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics read."""
        from repro.catalog.statistics import StatisticsCollector
        from repro.core import scheduler as scheduler_mod
        from repro.core import session as session_mod
        from repro.engine import dml as dml_mod
        from repro.engine.executor import Executor
        from repro.hardware.chip import SecureChip
        from repro.hardware.clock import SimClock
        from repro.hardware.ftl import FlashTranslationLayer
        from repro.hardware.pagecache import PageCache
        from repro.hardware.usb import UsbChannel
        from repro.index.climbing import ClimbingIndex
        from repro.index.skt import SubtreeKeyTable
        from repro.obs.flight import FlightRecorder
        from repro.obs.registry import BoundCounter, Counter
        from repro.obs.tracer import Tracer
        from repro.optimizer.optimizer import Optimizer
        from repro.serve import GhostDBServer
        from repro.sql.binder import Binder
        from repro.visible.link import DeviceLink
        from repro.visible.site import VisibleSite

        self.span(session_mod, "parse_statement", "sql.parse")
        for attr in ("bind", "bind_update", "bind_delete"):
            self.span(Binder, attr, "sql.bind")
        self._patch(Optimizer, "optimize", self._optimize_wrapper)
        self._patch(Optimizer, "rank", self._rank_wrapper)
        self.span(Executor, "execute_steps", "engine.execute")
        self.span(Executor, "execute_dml", "dml.execute")
        self.span(dml_mod, "rebuild_table", "dml.rebuild")
        self.span(SubtreeKeyTable, "build", "index.skt_build")
        self.span(ClimbingIndex, "build", "index.climbing_build")
        self.count(SubtreeKeyTable, "build", "dml.structures")
        self.count(ClimbingIndex, "build", "dml.structures")
        self.count(dml_mod, "rebuild_table", "dml.structures")
        for attr in ("add", "finish"):
            self.span(StatisticsCollector, attr, "catalog.stats", keep=False)
        self.span(FlashTranslationLayer, "read", "hw.ftl_read", keep=False)
        for attr in ("lookup", "admit"):
            self.span(PageCache, attr, "hw.pagecache", keep=False)
        self.count(SecureChip, "charge", "hw.chip_charges")
        self.count(SimClock, "advance", "hw.clock_advances")
        for attr in ("select_ids", "fetch_values"):
            self.span(VisibleSite, attr, "visible.site")
        for attr in ("announce", "select_ids", "select_id_batches",
                     "count_ids", "fetch_values"):
            self.span(DeviceLink, attr, "visible.link")
        self.span(UsbChannel, "transfer", "usb.transfer")
        self.span(session_mod, "profile_records", "privacy.meter")
        self.count(Counter, "inc", "obs.metric_incs")
        self.count(BoundCounter, "inc", "obs.metric_incs")
        self.count(FlightRecorder, "record", "obs.flight_events")
        self.count(Tracer, "span", "obs.spans")
        self.count(Tracer, "record", "obs.spans")
        self._patch(session_mod.SessionContext, "statement_steps",
                    self._statement_steps_wrapper)
        self._patch(GhostDBServer, "call", self._call_wrapper)
        self._patch(scheduler_mod.Scheduler, "submit", self._submit_wrapper)
        self._patch(scheduler_mod.Scheduler, "run", self._run_wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    # Wrappers that read arguments or results
    # ------------------------------------------------------------------

    def _optimize_wrapper(self, func):
        spanned = self.spanned("optimizer.optimize", func)
        tracer = self

        @functools.wraps(func)
        def optimize(*args, **kwargs):
            chosen = spanned(*args, **kwargs)
            stmt = tracer.state().stmt
            if stmt is not None:
                tracer.estimates[stmt] = chosen.estimate.seconds
            return chosen

        return optimize

    def _rank_wrapper(self, func):
        tracer = self

        @functools.wraps(func)
        def rank(*args, **kwargs):
            ranked = func(*args, **kwargs)
            tracer.state().counts["optimizer.plans_costed"] += len(ranked)
            return ranked

        return rank

    def _statement_steps_wrapper(self, func):
        """Tag every pump-side step of a scheduled statement with its
        statement id, and keep the measured simulated time."""
        tracer = self

        @functools.wraps(func)
        def statement_steps(session, sql):
            state = tracer.state()
            stmt = tracer.new_statement()
            previous, state.stmt = state.stmt, stmt
            try:
                gen = func(session, sql)
            finally:
                state.stmt = previous
            return tracer._tagged_steps(gen, stmt)

        return statement_steps

    def _tagged_steps(self, gen, stmt: int):
        try:
            while True:
                state = self.state()
                previous, state.stmt = state.stmt, stmt
                try:
                    next(gen)
                except StopIteration as stop:
                    result = stop.value
                    if hasattr(result, "rows"):
                        self.measured[stmt] = result.metrics.elapsed_seconds
                    return result
                finally:
                    state.stmt = previous
                yield
        finally:
            gen.close()

    def _call_wrapper(self, func):
        spanned = self.spanned("serve.call", func)
        tracer = self

        @functools.wraps(func)
        def call(server, op, payload):
            if op == "sql":
                tracer._enqueued[payload.get("session")].append(perf_counter())
            return spanned(server, op, payload)

        return call

    def _submit_wrapper(self, func):
        tracer = self

        @functools.wraps(func)
        def submit(scheduler, session, sql):
            pending = tracer._enqueued.get(session.name)
            if pending:
                tracer._submitted.append(pending.popleft())
            return func(scheduler, session, sql)

        return submit

    def _run_wrapper(self, func):
        spanned = self.spanned("sched.run", func)
        tracer = self

        @functools.wraps(func)
        def run(scheduler):
            start = perf_counter()
            tracer.round_sizes.append(scheduler.pending)
            while tracer._submitted:
                tracer.queue_waits.append(start - tracer._submitted.popleft())
            return spanned(scheduler)

        return run

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for state in self._states:
            for name, seconds in state.self_s.items():
                totals[name] += seconds
        return totals

    def counts(self) -> dict[str, int]:
        totals: dict[str, int] = defaultdict(int)
        for state in self._states:
            for name, count in state.counts.items():
                totals[name] += count
        return totals

    def span_count(self) -> int:
        return sum(len(state.spans) for state in self._states)

    def write_spans(self, path: str) -> None:
        """Write every recorded span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as out:
            for state in self._states:
                for span_id, name, start, end, parent, stmt, thread in state.spans:
                    out.write(json.dumps({
                        "id": span_id, "name": name, "start": start,
                        "end": end, "parent": parent, "stmt": stmt,
                        "thread": thread,
                    }) + "\n")
