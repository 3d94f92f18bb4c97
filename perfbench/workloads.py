"""Workload definitions: seeded statement streams for each benchmark mix.

Every stream is a pure function of ``(workload, seed)``.  Families cycle
in seeded-shuffled rounds and every parameter is dealt from a seeded
deck over its pool, so each value is used equally often: across seeds
the statement mix stays the same and only the order and the parameter
combinations change.  Pools are small, so a run has few distinct SQL
strings and the reference answers stay cheap to compute.

The dataset itself is the generator's default (seed 2007) for every run.
At 2 000 prescriptions the rare purposes the query families select on
cover a handful of visits (``Sclerosis`` is 2 % of 200), so a
seed-dependent dataset moves per-statement cost by 10-50 % between
seeds and would drown every bound the benchmark can set.
"""

from __future__ import annotations

import datetime
import random
from dataclasses import dataclass

from repro.workload import vocab
from repro.workload.queries import (
    QUERY_FAMILIES,
    demo_query,
    query_date_selectivity,
    query_purpose_only,
    query_type_selectivity,
)

#: ``DatasetConfig.seed`` of every workload's dataset.
DATASET_SEED = 2007

#: Visit-date cut-offs for the date-selectivity and demo queries: the
#: first of every quarter across the generator's date range.
DATE_CUTS = [
    datetime.date(year, month, 1)
    for year in (2005, 2006, 2007)
    for month in (1, 4, 7, 10)
    if datetime.date(year, month, 1) <= datetime.date(2007, 4, 1)
]
MED_TYPES = [name for name, _weight in vocab.MEDICINE_TYPES]
PURPOSES = [name for name, _weight in vocab.PURPOSES]
QUANTITIES = list(range(1, 11))

#: Range the writer draws new ``WhenWritten`` dates from.
WRITE_DATE_START = datetime.date(2007, 7, 1)
WRITE_DATE_DAYS = 365


class Decks:
    """Seeded card decks: each pool is shuffled and dealt in full
    before it is reshuffled, so every value appears equally often."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self._decks: dict[int, list] = {}

    def deal(self, pool: list):
        deck = self._decks.get(id(pool))
        if not deck:
            deck = list(pool)
            self.rng.shuffle(deck)
            self._decks[id(pool)] = deck
        return deck.pop()


def _fixed(family: str):
    sql = QUERY_FAMILIES[family]
    return lambda deal: sql


SCAN_LARGE_FAMILIES = [
    ("hidden-range", _fixed("hidden-range")),
    ("hidden-date-range", _fixed("hidden-date-range")),
    ("deep-hidden", _fixed("deep-hidden")),
    ("neq-residual", _fixed("neq-residual")),
    ("visible-only", _fixed("visible-only")),
    ("date-selectivity", lambda deal: query_date_selectivity(deal(DATE_CUTS))),
    ("type-selectivity", lambda deal: query_type_selectivity(deal(MED_TYPES))),
]

LOOKUP_FAMILIES = [
    (
        "demo",
        lambda deal: demo_query(deal(DATE_CUTS), deal(PURPOSES), deal(MED_TYPES)),
    ),
    ("purpose-only", lambda deal: query_purpose_only(deal(PURPOSES))),
    ("subtree-root-visit", _fixed("subtree-root-visit")),
    ("five-way-join", _fixed("five-way-join")),
    ("mixed-on-one-table", _fixed("mixed-on-one-table")),
    ("empty-result", _fixed("empty-result")),
    ("projection-of-pks", _fixed("projection-of-pks")),
]


@dataclass(frozen=True)
class Statement:
    """One statement a client sends: its family label and SQL text.

    ``write`` is set on UPDATEs and carries ``(kind, key, new_date)``,
    where ``kind`` is ``"pk"`` (``key`` is a PreID) or ``"quantity"``
    (``key`` is a Quantity value), for the writer-effect model.
    """

    family: str
    sql: str
    write: tuple | None = None


def read_stream(families, decks: Decks, count: int) -> list[Statement]:
    """``count`` reads cycling through ``families`` in shuffled rounds."""
    out: list[Statement] = []
    while len(out) < count:
        round_ = list(families)
        decks.rng.shuffle(round_)
        for family, make in round_:
            out.append(Statement(family, make(decks.deal)))
    return out[:count]


def write_statement(decks: Decks, index: int, n_prescriptions: int) -> Statement:
    """The writer's ``index``-th UPDATE: every fourth matches by value,
    the rest by primary key; the new ``WhenWritten`` date is seeded."""
    rng = decks.rng
    new_date = WRITE_DATE_START + datetime.timedelta(
        days=rng.randrange(WRITE_DATE_DAYS)
    )
    literal = f"DATE '{new_date.isoformat()}'"
    if index % 4 == 3:
        quantity = decks.deal(QUANTITIES)
        return Statement(
            "update-by-quantity",
            f"UPDATE Prescription SET WhenWritten = {literal} "
            f"WHERE Quantity = {quantity}",
            write=("quantity", quantity, new_date),
        )
    pre_id = rng.randint(1, n_prescriptions)
    return Statement(
        "update-by-pk",
        f"UPDATE Prescription SET WhenWritten = {literal} WHERE PreID = {pre_id}",
        write=("pk", pre_id, new_date),
    )


@dataclass(frozen=True)
class ClientPlan:
    """One closed-loop client: warm-up statements, then measured ones."""

    name: str
    warmup: list[Statement]
    measured: list[Statement]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Prescriptions in the generated dataset.
    scale: int
    #: ``True``: clients talk to an in-process ``serve`` over TCP;
    #: ``False``: one console session calls ``GhostDB.query`` directly.
    served: bool
    #: Measured statements per client per requested second; the
    #: statement count is fixed by ``--seconds`` alone, so two commits
    #: always do identical work however fast they run.
    reads_per_second: float
    writes_per_second: float = 0.0

    def clients(self, seed: int, seconds: int) -> list[ClientPlan]:
        """The seeded statement plan of every client."""
        if not self.served:
            return [self._reader("console", SCAN_LARGE_FAMILIES, seed, seconds)]
        if not self.writes_per_second:
            return [
                self._reader(f"reader-{i}", LOOKUP_FAMILIES, seed, seconds)
                for i in range(2)
            ]
        return [
            self._reader("reader-0", LOOKUP_FAMILIES, seed, seconds),
            self._writer("writer", seed, seconds),
        ]

    def _decks(self, client: str, seed: int) -> Decks:
        return Decks(random.Random(f"perfbench/{self.name}/{client}/{seed}"))

    def _reader(self, client, families, seed, seconds) -> ClientPlan:
        decks = self._decks(client, seed)
        warmup = read_stream(families, decks, len(families))
        count = max(1, round(self.reads_per_second * seconds))
        return ClientPlan(client, warmup, read_stream(families, decks, count))

    def _writer(self, client, seed, seconds) -> ClientPlan:
        """Alternate one UPDATE with one read from the lookup mix."""
        decks = self._decks(client, seed)
        warmup = read_stream(LOOKUP_FAMILIES, decks, len(LOOKUP_FAMILIES))
        writes = max(1, round(self.writes_per_second * seconds))
        reads = read_stream(LOOKUP_FAMILIES, decks, writes)
        measured: list[Statement] = []
        for index in range(writes):
            measured.append(write_statement(decks, index, self.scale))
            measured.append(reads[index])
        return ClientPlan(client, warmup, measured)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="scan-large",
            why=(
                "10 000 prescriptions on one console session: wide and deep "
                "reads whose data dwarfs the 8-page pool, so per-tuple "
                "work dominates"
            ),
            scale=10_000,
            served=False,
            reads_per_second=34.0,
        ),
        Workload(
            name="serve-lookup",
            why=(
                "two TCP clients on serve, 2 000 prescriptions, selective "
                "reads, so fixed per-statement cost dominates"
            ),
            scale=2_000,
            served=True,
            reads_per_second=80.0,
        ),
        Workload(
            name="serve-write-mix",
            why=(
                "serve with one reader and one writer whose point and "
                "value-matched UPDATEs run rebuild transactions"
            ),
            scale=2_000,
            served=True,
            reads_per_second=40.0,
            writes_per_second=6.0,
        ),
    )
}
