"""Stationary update stream: a sliding window over planted-partition edge draws.

The vertex universe is ``BLOCKS`` blocks of ``BLOCK_SIZE`` vertices.  Edge
draws follow a block model: with probability ``INTRA_SHARE`` a uniformly
random pair inside a random block, otherwise a uniformly random pair across
two blocks; a draw that hits a live edge is redrawn.  The initial window is
the ``WINDOW`` live edges left after sliding ``BURN_IN`` windows off the
record.  Every later step inserts a fresh draw and then deletes the oldest
live edge, so the stream alternates ``+``/``-`` and n, m, the degree
distribution and the cluster structure stay stationary: the cost of an
update does not depend on how far into the stream it sits.

The stream is unbounded and deterministic in its seed.  The generator keeps
a mirror of the live graph, so every update it emits is valid (an insert of
an absent edge, a delete of a present one) and stream position ``p`` maps
exactly onto ``view_version == p`` of a single-engine tenant.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Dict, List, Set, Tuple

Edge = Tuple[int, int]
#: ``(op, u, v)`` with ``op`` in ``{"+", "-"}`` — the v1 wire format.
WireUpdate = Tuple[str, int, int]

BLOCKS = 12
BLOCK_SIZE = 8
WINDOW = 240
INTRA_SHARE = 0.95
#: Windows slid off the record before the initial window is emitted.
BURN_IN = 4

#: Ceiling on the in-process update rate of the seed at the shipped
#: parameters on this graph (measured 75-105 upd/s on 2 CPUs), used to size
#: the stationarity check: a commit 100x faster than this, running for a
#: whole measured window plus warm-up, must not leave the checked prefix.
SEED_RATE_CEILING = 120.0

#: Allowed distance of the intra-block share from its mean over the walk,
#: and of the max degree from its initial value (as factors), checked at
#: every window-length step of the stationarity check.  The share is
#: measured against the walk's mean, not the initial window's value: the
#: initial window is one draw of the share, and an atypical one put 1 seed
#: in 200 outside the band over a 20 s run's walk although every step of
#: the stream is drawn the same way.
INTRA_SHARE_TOLERANCE = 0.12
MAX_DEGREE_RANGE = (0.5, 2.0)
#: Allowed difference between the intra-block share's means over the first
#: and the last quarter of the walk: the trend test.  Over a 36 s run's
#: walk each quarter averages ~470 windows, and the difference stayed
#: within 0.004 on 32 seeds (0.006 over 20 s walks).
INTRA_SHARE_TREND_TOLERANCE = 0.02


class SlidingWindowStream:
    """The generator and its mirror of the live graph."""

    num_vertices = BLOCKS * BLOCK_SIZE

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self._live: Deque[Edge] = deque()
        self._live_set: Set[Edge] = set()
        self.degree: List[int] = [0] * self.num_vertices
        self.intra_edges = 0
        #: updates emitted so far (the initial window counts as inserts)
        self.position = 0
        #: ``d_u + d_w`` after each emitted update, indexed by position - 1
        self.incident: List[int] = []
        self._pending_delete = False
        # burn in off the record: a window filled from an empty graph holds
        # more intra-community edges than the stationary state (fewer of its
        # intra draws hit live edges), so slide it BURN_IN windows first
        for _ in range(WINDOW):
            self._hold(self._draw())
        for _ in range(BURN_IN * WINDOW):
            self._hold(self._draw())
            self._live_set.discard(self._live.popleft())
        held = list(self._live)
        self._live.clear()
        self._live_set.clear()
        self.initial: List[WireUpdate] = [self._insert(edge) for edge in held]

    # -- generation -----------------------------------------------------
    def _draw(self) -> Edge:
        rng = self._rng
        while True:
            if rng.random() < INTRA_SHARE:
                base = rng.randrange(BLOCKS) * BLOCK_SIZE
                u = base + rng.randrange(BLOCK_SIZE)
                v = base + rng.randrange(BLOCK_SIZE)
                if u == v:
                    continue
            else:
                u = rng.randrange(self.num_vertices)
                v = rng.randrange(self.num_vertices)
                if u // BLOCK_SIZE == v // BLOCK_SIZE:
                    continue
            edge = (u, v) if u < v else (v, u)
            if edge not in self._live_set:
                return edge

    def _hold(self, edge: Edge) -> None:
        self._live.append(edge)
        self._live_set.add(edge)

    def _record(self, op: str, edge: Edge) -> WireUpdate:
        u, v = edge
        self.position += 1
        self.incident.append(self.degree[u] + self.degree[v])
        return (op, u, v)

    def _insert(self, edge: Edge) -> WireUpdate:
        u, v = edge
        self._hold(edge)
        self.degree[u] += 1
        self.degree[v] += 1
        if u // BLOCK_SIZE == v // BLOCK_SIZE:
            self.intra_edges += 1
        return self._record("+", edge)

    def _delete_oldest(self) -> WireUpdate:
        edge = self._live.popleft()
        u, v = edge
        self._live_set.discard(edge)
        self.degree[u] -= 1
        self.degree[v] -= 1
        if u // BLOCK_SIZE == v // BLOCK_SIZE:
            self.intra_edges -= 1
        return self._record("-", edge)

    def next_update(self) -> WireUpdate:
        """The next stream update: a fresh insert, then the oldest delete."""
        if self._pending_delete:
            self._pending_delete = False
            return self._delete_oldest()
        self._pending_delete = True
        return self._insert(self._draw())

    def take(self, count: int) -> List[WireUpdate]:
        return [self.next_update() for _ in range(count)]

    # -- mirror ---------------------------------------------------------
    @property
    def num_edges(self) -> int:
        return len(self._live)

    def edges(self) -> List[Edge]:
        return list(self._live)

    def intra_fraction(self) -> float:
        return self.intra_edges / len(self._live) if self._live else 0.0

    def max_degree(self) -> int:
        return max(self.degree)


def check_stationary(seed: int, updates: int) -> Dict[str, object]:
    """Walk ``updates`` stream updates and check that the graph stays put.

    At the initial window and every ``WINDOW``-update step after it, the
    edge count must equal the window, the intra-community edge share must
    stay within ``INTRA_SHARE_TOLERANCE`` of its mean over those steps and
    the max degree within ``MAX_DEGREE_RANGE`` times its initial value.
    The share's means over the first and the last quarter of the steps may
    differ by at most ``INTRA_SHARE_TREND_TOLERANCE``.
    """
    stream = SlidingWindowStream(seed)
    degree0 = stream.max_degree()
    low, high = MAX_DEGREE_RANGE
    shares = [stream.intra_fraction()]
    degrees = [degree0]
    violations = 0
    steps = max(1, updates // WINDOW)
    for _ in range(steps):
        stream.take(WINDOW)
        shares.append(stream.intra_fraction())
        degrees.append(stream.max_degree())
        if stream.num_edges != WINDOW:
            violations += 1
    mean_share = sum(shares) / len(shares)
    violations += sum(abs(share - mean_share) > INTRA_SHARE_TOLERANCE for share in shares)
    violations += sum(not low * degree0 <= degree <= high * degree0 for degree in degrees)
    quarter = max(1, len(shares) // 4)
    trend = sum(shares[-quarter:]) / quarter - sum(shares[:quarter]) / quarter
    violations += abs(trend) > INTRA_SHARE_TREND_TOLERANCE
    return {
        "ok": violations == 0,
        "updates": steps * WINDOW,
        "violations": violations,
        "edges": WINDOW,
        "intra_share_initial": round(shares[0], 4),
        "intra_share_mean": round(mean_share, 4),
        "intra_share_range": [round(min(shares), 4), round(max(shares), 4)],
        "intra_share_trend": round(trend, 4),
        "max_degree_initial": degree0,
        "max_degree_range": [min(degrees), max(degrees)],
    }


def stationary_check_length(seconds: float) -> int:
    """Updates a 100x-faster-than-seed commit could consume in one run."""
    return int(100 * SEED_RATE_CEILING * seconds)
