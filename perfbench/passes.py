"""Closed-loop passes: build a device, run a workload pass, collect.

A *pass* sets up one device, runs every client's warm-up statements,
then the measured statements, and returns a :class:`PassResult` holding
host latencies and the program's own per-statement measurements
(``ExecutionMetrics``, ``OperatorStats``, ``QueryTicket``).  The console
pass calls ``GhostDB.query``/``execute`` directly; the serve pass
talks to an in-process ``start_server`` through ``ServeClient`` over
TCP, one thread per client, each sending its next statement only after
the previous reply arrived.  On a workload with a writer the pump takes
its commands through a :class:`Lockstep` gate, so that which reads run
beside which writes depends on the seed alone.
"""

from __future__ import annotations

import json
import math
import queue
import socket
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter

from check import classify_exception, classify_kind, row_multiset
from repro.core.ghostdb import GhostDB
from repro.workload import DEMO_SCHEMA_DDL, DatasetConfig, MedicalDataGenerator


#: Seconds a serve client or barrier may wait before the run fails.
STALL_SECONDS = 60


def build(workload):
    """DDL, data generation and load; returns ``(db, data, seconds)``."""
    from workloads import DATASET_SEED

    start = perf_counter()
    db = GhostDB()
    for ddl in DEMO_SCHEMA_DDL:
        db.execute(ddl)
    data = MedicalDataGenerator(
        DatasetConfig(n_prescriptions=workload.scale, seed=DATASET_SEED)
    ).generate()
    db.load(data)
    return db, data, perf_counter() - start


@dataclass
class StatementRecord:
    client: str
    family: str
    write: bool
    latency_s: float


@dataclass
class PassResult:
    """Everything one pass measured."""

    wall_s: float = 0.0
    records: list[StatementRecord] = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)
    #: Failure detail strings (first few), for the report.
    failure_notes: list[str] = field(default_factory=list)
    #: Program-side results of the measured statements (QueryResult or
    #: DmlResult), failures excluded.
    results: list = field(default_factory=list)
    #: Messages and bytes the spy captured during the measured phase.
    usb_messages: int = 0
    usb_bytes: int = 0
    #: Serve path: completed tickets of the measured phase.
    tickets: list = field(default_factory=list)
    #: FTL garbage-collection runs during the measured phase.
    gc_runs: int = 0
    #: Serve path, traced pass: bytes of every measured reply line.
    reply_bytes: int = 0
    #: Serve path: seconds from the common start to each client's last
    #: reply (shows whether the clients overlapped throughout).
    client_seconds: dict = field(default_factory=dict)
    wrong: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def fail(self, record: StatementRecord, kind: str, note: str) -> None:
        self.failures[kind] += 1
        if len(self.failure_notes) < 5:
            self.failure_notes.append(f"{record.client} {record.family}: {note}")

    def fingerprint(self, counts: dict | None = None) -> dict:
        """The simulated counts that must repeat exactly for a seed."""
        sims = [r.metrics.elapsed_seconds for r in self.results]
        out = {
            "sim_seconds": math.fsum(sims),
            "usb_bytes": self.usb_bytes,
            "flash_page_reads": sum(r.metrics.flash_page_reads for r in self.results),
            "failures": dict(sorted(self.failures.items())),
        }
        if counts is not None:
            out["chip_charges"] = counts.get("hw.chip_charges", 0)
            out["clock_advances"] = counts.get("hw.clock_advances", 0)
        return out


def _usb_mark(db) -> int:
    return len(db.device.usb.log)


def _usb_since(db, mark: int) -> tuple[int, int]:
    records = db.device.usb.log[mark:]
    return len(records), sum(record.size for record in records)


def run_console(db, plan, answers, tracer=None) -> PassResult:
    """One console client, closed loop.  The measured wall is the sum
    of statement latencies; answer checks happen between statements,
    outside every latency."""
    from repro.engine.executor import QueryResult

    out = PassResult()
    for statement in plan.warmup:
        db.query(statement.sql)
    if tracer is not None:
        tracer.reset()
    mark = _usb_mark(db)
    gc_mark = db.device.ftl.stats.gc_runs
    for statement in plan.measured:
        record = StatementRecord(plan.name, statement.family, False, 0.0)
        stmt = None
        if tracer is not None:
            stmt = tracer.new_statement()
            tracer.set_statement(stmt)
        start = perf_counter()
        try:
            result = db.query(statement.sql)
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            result = None
            failure = exc
        record.latency_s = perf_counter() - start
        out.records.append(record)
        if tracer is not None:
            tracer.set_statement(None)
        if result is None:
            out.fail(record, classify_exception(failure),
                     f"{type(failure).__name__}: {failure}")
            continue
        if tracer is not None:
            tracer.measured[stmt] = result.metrics.elapsed_seconds
        if row_multiset(result.rows) != answers[statement.sql]:
            out.fail(record, "wrong_rows", f"{result.row_count} rows")
            out.wrong.append(statement.family)
        # Keep the metrics, drop the rows (10k-row scans add up).
        out.results.append(QueryResult(
            rows=[], columns=result.columns, metrics=result.metrics, plan=None
        ))
    out.wall_s = math.fsum(r.latency_s for r in out.records)
    out.usb_messages, out.usb_bytes = _usb_since(db, mark)
    out.gc_runs = db.device.ftl.stats.gc_runs - gc_mark
    return out


class _Wake:
    """A ``noop`` command for the pump that nobody waits on."""

    op = "noop"
    payload: dict = {}

    def resolve(self, reply: dict) -> None:
        pass


class Lockstep:
    """Command queue for the serve pump that releases SQL in rounds.

    Once :meth:`begin` names the clients, an SQL command is held until
    every client still running has one pending; the round is then
    handed to the pump in client-name order.  The pump submits a round
    to one ``Scheduler.run``, which interleaves its statements at batch
    windows on the simulated clock.  So the reads that run beside each
    write, and the windows they share, are fixed by the seed instead of
    by which socket thread the host ran first.  Every other command
    (hello, bye, the pump's stop ``noop``), and everything before
    :meth:`begin`, passes straight through in arrival order.

    It offers the three calls ``GhostDBServer`` makes on its
    ``commands`` queue: ``put``, ``get`` and ``get_nowait``.
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._pending: list = []
        self._release: list = []
        self._live: set[str] | None = None

    def install(self, ghost) -> None:
        """Replace ``ghost.commands``.  The pump re-reads the attribute
        on every loop; a wake-up on the old queue moves it over if it is
        already blocked there."""
        old, ghost.commands = ghost.commands, self
        old.put(_Wake())

    def begin(self, clients) -> None:
        with self._cond:
            self._live = set(clients)
            self._cond.notify_all()

    def leave(self, client: str) -> None:
        """``client`` sends no more SQL; later rounds go without it."""
        with self._cond:
            if self._live is not None:
                self._live.discard(client)
            self._cond.notify_all()

    def put(self, command) -> None:
        with self._cond:
            self._pending.append(command)
            self._cond.notify_all()

    def get(self):
        with self._cond:
            while not self._fill():
                self._cond.wait()
            return self._release.pop(0)

    def get_nowait(self):
        """The rest of the current round, then ``queue.Empty``."""
        with self._cond:
            if not self._release:
                raise queue.Empty
            return self._release.pop(0)

    def _fill(self) -> bool:
        if self._release:
            return True
        if self._live is None:
            self._release, self._pending = self._pending, []
            return bool(self._release)
        admin = [c for c in self._pending if c.op != "sql"]
        sql = [c for c in self._pending if c.op == "sql"]
        if admin:
            self._release, self._pending = admin, sql
            return True
        waiting = {c.payload.get("session") for c in sql}
        if sql and self._live <= waiting:
            self._release = sorted(sql, key=lambda c: c.payload.get("session"))
            self._pending = []
            return True
        return False


def run_serve(db, plans, answers, tracer=None, writer_model=None) -> PassResult:
    """Closed-loop TCP clients on an in-process ``serve``, one thread
    each.  Every client says hello (a quarter-RAM lease), runs its
    warm-up, waits for the others, then sends its measured statements,
    in :class:`Lockstep` rounds when one client is a writer.  The
    measured wall runs from the common start to the last reply."""
    from repro.serve import ServeClient, shutdown_server, start_server

    out = PassResult()
    # A stalled server must fail the run, not hang it: every socket and
    # barrier wait gives up after this long.
    socket.setdefaulttimeout(STALL_SECONDS)
    tcp, ghost = start_server(db, port=0)
    gate = Lockstep() if writer_model is not None else None
    if gate is not None:
        gate.install(ghost)
    host, port = tcp.server_address
    ram = db.profile.ram_bytes // 4
    ready = threading.Barrier(len(plans) + 1, timeout=STALL_SECONDS)
    go = threading.Barrier(len(plans) + 1, timeout=STALL_SECONDS)
    replies: dict[str, list] = {}
    ends: dict[str, float] = {}
    errors: list[str] = []

    def client(plan) -> None:
        log: list = []
        replies[plan.name] = log
        conn = None
        try:
            conn = ServeClient(host, port)
            hello = conn.hello(name=plan.name, ram=ram)
            if not hello.get("ok"):
                raise RuntimeError(f"hello refused: {hello}")
            for statement in plan.warmup:
                conn.sql(statement.sql)
            ready.wait()
            go.wait()
            for statement in plan.measured:
                start = perf_counter()
                reply = conn.sql(statement.sql)
                latency = perf_counter() - start
                # Judge now, keep only the verdict: retained replies
                # would grow the heap and with it every GC pause.
                log.append((statement, latency, _judge(
                    statement, reply, answers, writer_model, tracer is not None
                )))
            ends[plan.name] = perf_counter()
            if gate is not None:
                gate.leave(plan.name)
            conn.bye()
            conn = None
        except Exception as exc:  # noqa: BLE001 - reported, run fails
            errors.append(f"{plan.name}: {type(exc).__name__}: {exc}")
            ready.abort()
            go.abort()
            if gate is not None:
                gate.leave(plan.name)
        finally:
            if conn is not None:
                conn.close()

    threads = [
        threading.Thread(target=client, args=(plan,), name=f"client-{plan.name}")
        for plan in plans
    ]
    for thread in threads:
        thread.start()
    try:
        try:
            ready.wait()
            ticket_mark = len(ghost.scheduler.tickets)
            usb_mark = _usb_mark(db)
            gc_mark = db.device.ftl.stats.gc_runs
            if tracer is not None:
                tracer.reset()
            if gate is not None:
                gate.begin(plan.name for plan in plans)
            go.wait()
        except threading.BrokenBarrierError:
            errors.append("clients did not reach the start together")
        start = perf_counter()
        for thread in threads:
            thread.join()
    finally:
        shutdown_server(tcp, ghost)
    if errors:
        raise RuntimeError("; ".join(errors))
    out.wall_s = max(ends.values()) - start
    out.client_seconds = {name: end - start for name, end in sorted(ends.items())}
    out.usb_messages, out.usb_bytes = _usb_since(db, usb_mark)
    out.gc_runs = db.device.ftl.stats.gc_runs - gc_mark
    out.tickets = [t for t in ghost.scheduler.tickets[ticket_mark:] if t.done]
    out.results = [t.result for t in out.tickets if t.error is None]

    for plan in plans:
        for statement, latency, (kind, note, size) in replies[plan.name]:
            record = StatementRecord(
                plan.name, statement.family, statement.write is not None, latency
            )
            out.records.append(record)
            out.reply_bytes += size
            if kind is not None:
                out.fail(record, kind, note)
                if kind == "wrong_rows":
                    out.wrong.append(statement.family)
    return out


def _judge(statement, reply, answers, writer_model, count_bytes: bool):
    """``(failure kind or None, note, reply bytes)`` of one wire reply.
    Reply bytes are counted only when asked (the traced pass), since
    re-encoding the reply costs client time."""
    size = len(json.dumps(reply)) + 1 if count_bytes else 0
    if not reply.get("ok"):
        note = f"{reply.get('kind')}: {reply.get('error')}"
        return classify_kind(reply.get("kind", "")), note, size
    if statement.write is not None:
        want = writer_model.apply(statement.write)
        got = (reply.get("matched"), reply.get("changed"))
        if got != want:
            return "wrong_rows", f"matched/changed {got} != {want}", size
    elif row_multiset(reply["rows"]) != answers[statement.sql]:
        return "wrong_rows", f"{reply.get('row_count')} rows", size
    return None, "", size


def client_mean_latencies(records) -> list[float]:
    by_client: dict[str, list[float]] = defaultdict(list)
    for record in records:
        by_client[record.client].append(record.latency_s)
    return [sum(v) / len(v) for _k, v in sorted(by_client.items())]
