"""Load generator: one writer and one reader thread, one connection each.

The writer submits stream updates to the primary, either open-loop at a
fixed rate (each request timed from its due time) or closed-loop with a
fixed window of submitted-but-not-yet-visible updates.  The reader issues
open-loop read ticks at a fixed rate.  A read tick is a group-by over
random vertices (the query sample), then, where the plan says so,
``GET .../stats`` (the visibility probe; both mixed workloads and
replica-follow use it).  Otherwise the group-by's own ``view_version`` is
the probe.

Visibility is decided per shard.  A sharded tenant's ``view_version`` is
the sum of its shards' versions and a cross-shard update counts once per
endpoint shard, so update ``p`` is covered by a probe only when every
shard it touches has published at least as many updates as it had been
routed up to and including ``p`` (``shard_versions`` in the stats).
"""

from __future__ import annotations

import bisect
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from net import Connection, RequestFailed
from stream import SlidingWindowStream, WireUpdate

QUERY_SIZE = 32
CLOSED_LOOP_CHUNK = 8
#: Closed-loop window of submitted-but-not-visible updates: two full
#: micro-batches of the shipped batch size (64), so batches close on size,
#: and far below the shipped queue capacity (4096), so nothing is shed.
CLOSED_LOOP_WINDOW = 128
DRAIN_TIMEOUT_S = 60.0


class Coverage:
    """Which stream positions a probe's view covers."""

    def __init__(self, num_shards: int, shard_of: Optional[Callable[[int, int], int]]) -> None:
        self.num_shards = num_shards
        self._shard_of = shard_of
        self._counts = [0] * num_shards
        #: per shard: the global positions routed to it, in order
        self._positions: List[List[int]] = [[] for _ in range(num_shards)]
        #: position -> ((shard, shard-local count), ...)
        self._needs: Dict[int, Tuple[Tuple[int, int], ...]] = {}
        self.total = 0

    def add(self, position: int, update: WireUpdate) -> None:
        self.total = position
        if self.num_shards == 1:
            return
        _, u, v = update
        shards = sorted({self._shard_of(u, self.num_shards), self._shard_of(v, self.num_shards)})
        needs = []
        for shard in shards:
            self._counts[shard] += 1
            self._positions[shard].append(position)
            needs.append((shard, self._counts[shard]))
        self._needs[position] = tuple(needs)

    def state(self, stats: Dict[str, object]) -> object:
        """The coverage-relevant part of a stats document."""
        if self.num_shards == 1:
            return int(stats["view_version"])
        return tuple(int(v) for v in stats["shard_versions"])

    def covers(self, state: object, position: int) -> bool:
        if self.num_shards == 1:
            return state >= position
        return all(state[shard] >= count for shard, count in self._needs[position])

    def prefix(self, state: object) -> int:
        """Largest P such that every position <= P is covered."""
        if self.num_shards == 1:
            return int(state)
        prefix = self.total
        for shard, version in enumerate(state):
            positions = self._positions[shard]
            if version < len(positions):
                prefix = min(prefix, positions[version] - 1)
        return prefix


@dataclass
class Op:
    kind: str  # "write", "read" or "probe"
    due: float
    sent: float
    done: float
    ok: bool
    first: int = 0  # first stream position of a write
    last: int = 0  # last stream position of a write


@dataclass
class Plan:
    """Timing and shape of one measured run."""

    tenant_path: str
    start: float
    window_start: float
    window_end: float
    read_rate: float
    write_rate: Optional[float]  # None: closed loop
    stats_probe: bool
    seed: int


@dataclass
class Record:
    ops: List[Op] = field(default_factory=list)
    probes: List[Tuple[float, object]] = field(default_factory=list)
    #: (time, stats document) of the primary at the window boundaries
    primary_stats: List[Tuple[float, Dict[str, object]]] = field(default_factory=list)
    #: (time, /metrics text) of the primary at the window boundaries
    scrapes: List[Tuple[float, str]] = field(default_factory=list)
    last_position: int = 0
    drained: bool = False


def write_schedule(plan: Plan) -> List[float]:
    """Due times of the open-loop writes.

    Uniform random times, ``write_rate`` per second on average, with the
    exact count in the warm-up and in the measured window (a Poisson
    process conditioned on those counts).  Random arrival phases make the
    share of writes that wait behind a micro-batch the writer's busy share;
    strictly periodic writes meet every batch at one phase, and whether
    they wait flips with the host's speed.
    """
    rng = random.Random(plan.seed * 7919 + 2)
    due: List[float] = []
    for start, end in ((plan.start, plan.window_start), (plan.window_start, plan.window_end)):
        count = round(plan.write_rate * (end - start))
        due += sorted(rng.uniform(start, end) for _ in range(count))
    return due


class LoadGenerator:
    def __init__(
        self,
        plan: Plan,
        stream: SlidingWindowStream,
        coverage: Coverage,
        write_port: int,
        read_port: int,
        read_node: str,
    ) -> None:
        self.plan = plan
        self.stream = stream
        self.coverage = coverage
        self.write_port = write_port
        self.read_port = read_port
        self.read_node = read_node
        self.record = Record()
        self._visible = stream.position
        self._cond = threading.Condition()
        self._writer_done = threading.Event()
        #: transport failures, appended by both threads
        self.errors: List[str] = []

    # -- shared state ---------------------------------------------------
    def _note_probe(self, done: float, state: object) -> None:
        self.record.probes.append((done, state))
        if self.read_node == "primary":
            with self._cond:
                self._visible = self.coverage.prefix(state)
                self._cond.notify_all()

    # -- writer ---------------------------------------------------------
    def _boundary(self, conn: Connection) -> None:
        self.record.primary_stats.append(
            (time.perf_counter(), conn.ok("GET", self.plan.tenant_path + "/stats"))
        )
        self.record.scrapes.append((time.perf_counter(), conn.ok("GET", "/metrics")))

    def _submit(self, conn: Connection, updates: Sequence[WireUpdate], due: float) -> None:
        first = self.stream.position - len(updates) + 1
        for offset, update in enumerate(updates):
            self.coverage.add(first + offset, update)
        sent = time.perf_counter()
        ok = True
        try:
            status, document = conn.request(
                "POST", self.plan.tenant_path + "/updates", {"updates": [list(u) for u in updates]}
            )
            ok = status == 200 and document.get("accepted") == len(updates)
        except RequestFailed as exc:
            ok = False
            self.errors.append(str(exc))
        done = time.perf_counter()
        self.record.ops.append(Op("write", due, sent, done, ok, first, self.stream.position))
        self.record.last_position = self.stream.position

    def _window_full(self) -> bool:
        return self.stream.position + CLOSED_LOOP_CHUNK - self._visible > CLOSED_LOOP_WINDOW

    def _writer(self) -> None:
        plan = self.plan
        conn = Connection(self.write_port)
        boundaries = [plan.window_start, plan.window_end]
        schedule = iter(write_schedule(plan) if plan.write_rate is not None else ())
        try:
            while True:
                if plan.write_rate is None:
                    with self._cond:
                        while self._window_full():
                            remaining = boundaries[0] - time.perf_counter()
                            if remaining <= 0:
                                break
                            self._cond.wait(min(0.05, remaining))
                        full = self._window_full()
                    due = time.perf_counter()
                    count = CLOSED_LOOP_CHUNK
                else:
                    full = False
                    due = next(schedule, plan.window_end)
                    count = 1
                while boundaries and due >= boundaries[0]:
                    delay = boundaries.pop(0) - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    self._boundary(conn)
                if due >= plan.window_end:
                    break
                if full:
                    continue  # woke up for a boundary, not for room
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                self._submit(conn, self.stream.take(count), due)
        except RequestFailed as exc:
            self.errors.append(f"writer: {exc}")
        finally:
            conn.close()
            self._writer_done.set()

    # -- reader ---------------------------------------------------------
    def _reader(self) -> None:
        conn = Connection(self.read_port)
        try:
            self._read_ticks(conn)
        finally:
            conn.close()

    def _read_ticks(self, conn: Connection) -> None:
        plan = self.plan
        rng = random.Random(plan.seed * 7919 + 1)
        vertices = self.stream.num_vertices
        drain_deadline: Optional[float] = None
        index = 0
        while True:
            due = plan.start + index / plan.read_rate
            index += 1
            if self._writer_done.is_set():
                if drain_deadline is None:
                    drain_deadline = time.perf_counter() + DRAIN_TIMEOUT_S
                last = self.record.last_position
                if self.record.probes and self.coverage.prefix(self.record.probes[-1][1]) >= last:
                    self.record.drained = True
                    break
                if time.perf_counter() > drain_deadline:
                    break
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            query = rng.sample(range(vertices), QUERY_SIZE)
            sent = time.perf_counter()
            try:
                status, document = conn.request(
                    "POST", plan.tenant_path + "/group-by", {"vertices": query}
                )
                ok = status == 200
            except RequestFailed as exc:
                ok = False
                self.errors.append(str(exc))
            done = time.perf_counter()
            self.record.ops.append(Op("read", due, sent, done, ok))
            if not plan.stats_probe:
                if ok:
                    self._note_probe(done, int(document["view_version"]))
                continue
            try:
                status, stats = conn.request("GET", plan.tenant_path + "/stats")
                ok = status == 200
            except RequestFailed as exc:
                ok = False
                self.errors.append(str(exc))
            probe_done = time.perf_counter()
            self.record.ops.append(Op("probe", due, done, probe_done, ok))
            if ok:
                self._note_probe(probe_done, self.coverage.state(stats))

    def run(self, on_boundary: Callable[[float], None]) -> Record:
        threads = [
            threading.Thread(target=self._writer, name="perfbench-writer"),
            threading.Thread(target=self._reader, name="perfbench-reader"),
        ]
        for thread in threads:
            thread.start()
        for boundary in (self.plan.window_start, self.plan.window_end):
            delay = boundary - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            on_boundary(boundary)
        for thread in threads:
            thread.join()
        return self.record


def percentile(values: Sequence[float], q: float) -> float:
    """Percentile (``q`` in [0, 100]) of a non-empty sequence, interpolating
    linearly between the two nearest order statistics."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def visibility_ms(record: Record, coverage: Coverage, plan: Plan) -> List[float]:
    """Per-update visibility of the window's writes, in ms.

    From the update's due time (open loop) or send time (closed loop) to
    the receipt of the first probe response whose view covers it.
    """
    probes = record.probes
    times = [t for t, _ in probes]
    samples: List[float] = []
    for op in record.ops:
        if op.kind != "write" or not op.ok or not plan.window_start <= op.due < plan.window_end:
            continue
        origin = op.due if plan.write_rate is not None else op.sent
        start = bisect.bisect_left(times, op.sent)
        for position in range(op.first, op.last + 1):
            low, high = start, len(probes)
            while low < high:
                middle = (low + high) // 2
                if coverage.covers(probes[middle][1], position):
                    high = middle
                else:
                    low = middle + 1
            if low == len(probes):
                continue  # never seen: counted by the drain check
            samples.append((times[low] - origin) * 1000.0)
    return samples
