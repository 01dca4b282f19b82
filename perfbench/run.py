"""Update-visibility benchmark for ``repro serve`` at its shipped configuration.

Run from the root of a checkout::

    python3 perfbench/run.py --workload mixed-4shard --seed 1 --seconds 36 --trace 0

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` runs the same topology twice, untraced then through the
traced launcher (``perfbench/launch.py``), adds the in-process baseline,
and reports the per-layer metrics.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from drive import Coverage, LoadGenerator, Plan  # noqa: E402
from ledger import (  # noqa: E402
    end_to_end_metrics,
    per_layer_metrics,
    phase_summary,
    unregistered_tails,
)
from net import Connection, MetricsScrape, Server, request_once, wal_bytes_per_record  # noqa: E402
from stream import SlidingWindowStream, check_stationary, stationary_check_length  # noqa: E402

#: The configuration ``repro serve`` ships (Jaccard, epsilon, mu, rho);
#: batch size, flush interval and queue capacity are left at serve's
#: defaults by passing no flag for them.
SHIPPED = {"epsilon": 0.5, "mu": 3, "rho": 0.01, "similarity": "jaccard"}
TENANT = "bench"
#: Checkpoint cadence of the durable primaries: none during the initial
#: bulk load, exactly one in a 36 s ``replica-follow`` window (stream
#: positions ~250-490), several per run at the seed's write-saturate rate.
CHECKPOINT_EVERY = 256
LOAD_CHUNK = 64
WARMUP_S = 1.5
SETUP_REPEATS = 3
VISIBLE_TIMEOUT_S = 120.0
#: Seconds of stream updates the in-process baseline applies after loading
#: the initial window.
INPROCESS_S = 3.0
LOADGEN_SWITCH_INTERVAL_S = 0.0001


@dataclass(frozen=True)
class Workload:
    """One workload; why each exists is in README.md and BENCHMARK.json."""

    name: str
    shards: int
    durable: bool
    replica: bool
    write_rate: Optional[float]  # updates/s open loop; None: closed loop
    read_rate: float  # read ticks/s
    #: whether each read tick adds a ``GET .../stats`` visibility probe
    #: (needed for per-shard versions) or the group-by's own
    #: ``view_version`` is the probe (single engine only)
    stats_probe: bool


#: Open-loop writes arrive at random times (see ``drive.write_schedule``) at
#: rates that keep each server's writer busy well under half the time (the
#: seed applies ~40-100 upd/s on this graph on 2 CPUs, depending on the
#: host's speed), so the median ack and read fall in the fast mode of their
#: two-mode distribution (server idle vs. writer holding the interpreter).
#: On ``mixed-4shard`` the first read after any shard publishes also merges
#: the shard views, so the share of reads that wait grows with writes per
#: read: at 13 upd/s and 41.5 read ticks/s it neared half, and the median
#: ack and read flipped between the modes from run to run; at 8 upd/s and
#: 63.5 ticks/s one in ten to one in five waits.  On ``replica-follow`` the
#: primary and the standby both apply every update, and more reads on the
#: standby slow its replay.  Read rates of 41.5 and 63.5 ticks/s share no
#: short period with the 50 ms flush interval, so they sample every phase
#: of the batch cycle.
#: ``mixed-1shard`` is not registered in BENCHMARK.json (its primary serves
#: the reads and applies every update, and its median latencies flip
#: between the modes from run to run); it stays runnable as the 1-shard
#: side of a by-hand comparison with ``mixed-4shard``.
#: ``write-saturate`` is not registered either: its closed-loop metrics
#: follow the host's CPU speed, which drifts by a quarter from one run to
#: the next on a shared 2-CPU host.  It stays runnable by name as the
#: write-path capacity measurement.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("write-saturate", shards=1, durable=True, replica=False,
                 write_rate=None, read_rate=20.0, stats_probe=False),
        Workload("mixed-1shard", shards=1, durable=False, replica=False,
                 write_rate=8.0, read_rate=63.5, stats_probe=True),
        Workload("mixed-4shard", shards=4, durable=False, replica=False,
                 write_rate=8.0, read_rate=63.5, stats_probe=True),
        Workload("replica-follow", shards=1, durable=True, replica=True,
                 write_rate=6.5, read_rate=41.5, stats_probe=True),
    )
}


class Topology:
    """The server process(es) of one workload, booted and loaded."""

    def __init__(self, root: Path, work: Path, workload: Workload, tag: str, traced: bool) -> None:
        self.root = root
        self.workload = workload
        self.dir = work / tag
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.traced = traced
        self.servers: Dict[str, Server] = {}
        self.data_dir: Optional[Path] = None
        if workload.replica:
            self.tenant_path = "/v1/tenants/default"
        else:
            self.tenant_path = f"/v1/tenants/{TENANT}"

    def _spans(self, node: str) -> Optional[Path]:
        return self.dir / f"spans-{node}.json" if self.traced else None

    def boot(self) -> None:
        workload = self.workload
        args = []
        for key, value in SHIPPED.items():
            args += [f"--{key}", str(value)]
        if workload.replica:
            self.data_dir = self.dir / "primary-data"
            args += ["--data-dir", str(self.data_dir), "--checkpoint-every", str(CHECKPOINT_EVERY)]
        elif workload.durable:
            self.data_dir = self.dir / "data" / TENANT
            args += ["--data-root", str(self.dir / "data"), "--checkpoint-every", str(CHECKPOINT_EVERY)]
        primary = Server(self.root, self.dir, "primary", args, self._spans("primary"))
        self.servers["primary"] = primary
        primary.wait_healthy()
        if workload.replica:
            standby = Server(
                self.root,
                self.dir,
                "standby",
                ["--replica-of", primary.url, "--data-dir", str(self.dir / "standby-data")],
                self._spans("standby"),
            )
            self.servers["standby"] = standby
            standby.wait_healthy()
        else:
            request_once(primary.port, "POST", "/v1/tenants", {"tenant": TENANT, "shards": workload.shards})

    @property
    def read_node(self) -> str:
        return "standby" if self.workload.replica else "primary"

    def wait_covered(self, node: str, coverage: Coverage, position: int) -> object:
        """Poll ``node`` until its view covers every position <= ``position``."""
        conn = Connection(self.servers[node].port)
        deadline = time.monotonic() + VISIBLE_TIMEOUT_S
        try:
            while True:
                state = coverage.state(conn.ok("GET", self.tenant_path + "/stats"))
                if coverage.prefix(state) >= position:
                    return state
                if time.monotonic() > deadline:
                    raise RuntimeError(f"{node} stuck at {state}, waiting for {position}")
                time.sleep(0.01)
        finally:
            conn.close()

    def setup(self, stream: SlidingWindowStream, coverage: Coverage) -> float:
        """Boot, create the tenant, bulk-load the initial window, wait until
        it is visible on every node; returns the elapsed seconds."""
        start = time.perf_counter()
        self.boot()
        for position, update in enumerate(stream.initial, 1):
            coverage.add(position, update)
        conn = Connection(self.servers["primary"].port)
        try:
            for offset in range(0, len(stream.initial), LOAD_CHUNK):
                chunk = [list(u) for u in stream.initial[offset : offset + LOAD_CHUNK]]
                document = conn.ok("POST", self.tenant_path + "/updates", {"updates": chunk})
                if document.get("accepted") != len(chunk):
                    raise RuntimeError(f"bulk load shed updates: {document}")
        finally:
            conn.close()
        for node in self.servers:
            self.wait_covered(node, coverage, len(stream.initial))
        return time.perf_counter() - start

    def group_by_all(self, node: str, vertices: int) -> Tuple[int, List[frozenset]]:
        document = request_once(
            self.servers[node].port,
            "POST",
            self.tenant_path + "/group-by",
            {"vertices": list(range(vertices))},
        )
        groups = sorted(
            (frozenset(members) for members in document["groups"].values()), key=sorted
        )
        return int(document["view_version"]), groups

    def mark(self) -> None:
        """Ask every traced server to record a counter mark (SIGUSR1)."""
        if self.traced:
            for server in self.servers.values():
                os.kill(server.process.pid, signal.SIGUSR1)

    def stop(self) -> Dict[str, int]:
        return {name: server.stop() for name, server in self.servers.items()}


def sandwich_check(groups: List[frozenset], edges: List[Tuple[int, int]]) -> Dict[str, int]:
    """Clusters outside the static (1±rho)·epsilon sandwich.

    A rho-approximate-valid labelling makes every cluster of the static
    clustering at (1+rho)·epsilon a subset of a served cluster, and every
    served cluster a subset of a static cluster at (1-rho)·epsilon.
    """
    from repro.baselines.scan import static_scan
    from repro.graph.dynamic_graph import DynamicGraph

    graph = DynamicGraph()
    for u, v in edges:
        graph.insert_edge(u, v)
    eps, rho, mu = SHIPPED["epsilon"], SHIPPED["rho"], SHIPPED["mu"]
    strict = static_scan(graph, (1 + rho) * eps, mu, SHIPPED["similarity"]).clusters
    loose = static_scan(graph, (1 - rho) * eps, mu, SHIPPED["similarity"]).clusters
    below = sum(1 for c in strict if not any(set(c) <= g for g in groups))
    above = sum(1 for g in groups if not any(g <= set(c) for c in loose))
    return {"below": below, "above": above, "served_clusters": len(groups)}


def measure(
    topology: Topology,
    stream: SlidingWindowStream,
    coverage: Coverage,
    seed: int,
    seconds: float,
) -> Dict[str, object]:
    """Drive one booted topology through warm-up and the measured window,
    drain, run the output checks and collect the outside-in figures."""
    workload = topology.workload
    start = time.perf_counter() + 0.05
    plan = Plan(
        tenant_path=topology.tenant_path,
        start=start,
        window_start=start + WARMUP_S,
        window_end=start + WARMUP_S + seconds,
        read_rate=workload.read_rate,
        write_rate=workload.write_rate,
        stats_probe=workload.stats_probe,
        seed=seed,
    )
    read_port = topology.servers[topology.read_node].port
    generator = LoadGenerator(
        plan, stream, coverage, topology.servers["primary"].port, read_port, topology.read_node
    )
    record = generator.run(lambda _: topology.mark())
    last = record.last_position
    checks: Dict[str, object] = {"drained": record.drained, "errors": generator.errors[:5]}
    for node in topology.servers:
        topology.wait_covered(node, coverage, last)
    version, groups = topology.group_by_all("primary", stream.num_vertices)
    checks["final_position"] = last
    checks["final_view_version_matches"] = version == last or workload.shards > 1
    checks["sandwich"] = sandwich_check(groups, stream.edges())
    checks["sandwich_violations"] = checks["sandwich"]["below"] + checks["sandwich"]["above"]
    if workload.replica:
        standby_version, standby_groups = topology.group_by_all("standby", stream.num_vertices)
        checks["standby_equals_primary"] = standby_version == version and standby_groups == groups
    tenant = topology.tenant_path.rsplit("/", 1)[1]
    checks["updates_rejected"] = sum(
        int(
            MetricsScrape(request_once(server.port, "GET", "/metrics"), tenant).total(
                "repro_events_total", event="updates_rejected"
            )
        )
        for server in topology.servers.values()
    )
    rss_kb = {name: server.vm_hwm_kb() for name, server in topology.servers.items()}
    wal = wal_bytes_per_record(topology.data_dir) if topology.data_dir is not None else (0.0, 0)
    return {
        "plan": plan,
        "record": record,
        "coverage": coverage,
        "checks": checks,
        "rss_kb": rss_kb,
        "wal_bytes_per_record": wal[0],
        "incident": stream.incident,
        "workload": workload,
        "tenant": tenant,
    }


def shard_function(workload: Workload):
    if workload.shards == 1:
        return None
    from repro.service.sharding import shard_of

    return shard_of


def run_phase(
    root: Path,
    work: Path,
    workload: Workload,
    seed: int,
    seconds: Optional[float],
    traced: bool,
    tag: str,
) -> Tuple[float, Optional[Dict[str, object]], Topology]:
    """Set up one topology and, unless ``seconds`` is None, measure it."""
    stream = SlidingWindowStream(seed)
    coverage = Coverage(workload.shards, shard_function(workload))
    topology = Topology(root, work, workload, tag, traced)
    try:
        setup_s = topology.setup(stream, coverage)
        result = None if seconds is None else measure(topology, stream, coverage, seed, seconds)
    finally:
        topology.stop()
    return setup_s, result, topology


def inprocess_rate(seed: int, seconds: float) -> float:
    """Updates/s of the same stream applied straight to the backend."""
    from repro.core.api import make_clusterer
    from repro.core.config import StrCluParams
    from repro.core.dynelm import Update
    from repro.graph.similarity import SimilarityKind

    params = StrCluParams(
        epsilon=SHIPPED["epsilon"],
        mu=SHIPPED["mu"],
        rho=SHIPPED["rho"],
        similarity=SimilarityKind(SHIPPED["similarity"]),
    )
    backend = make_clusterer("dynstrclu", params)
    stream = SlidingWindowStream(seed)

    def apply(update) -> None:
        op, u, v = update
        backend.apply(Update.insert(u, v) if op == "+" else Update.delete(u, v))

    for update in stream.initial:
        apply(update)
    applied = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for update in stream.take(16):
            apply(update)
        applied += 16
    return applied / (time.perf_counter() - start)


def checks_pass(checks: Dict[str, object], workload: Workload, summary: Dict[str, object]) -> bool:
    ok = (
        checks["drained"]
        and checks["final_view_version_matches"]
        and checks["updates_rejected"] == 0
        and checks["sandwich_violations"] == 0
        and checks.get("standby_equals_primary", True)
    )
    if workload.write_rate is not None:
        ok = ok and summary["backlog_flat"]
    return bool(ok)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no repro sources under {root / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    # the writer and reader threads share this process's interpreter lock:
    # a short switch interval keeps one thread's work from adding up to 5 ms
    # (the default interval) to the other's measured round trips
    sys.setswitchinterval(LOADGEN_SWITCH_INTERVAL_S)
    workload = WORKLOADS[args.workload]
    work = root / ".perfbench" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    stationarity = check_stationary(args.seed, stationary_check_length(WARMUP_S + args.seconds))
    report: Dict[str, object] = {"workload": workload.name, "seed": args.seed, "stream": stationarity}
    if args.trace == 0:
        setups = [
            run_phase(root, work, workload, args.seed, None, False, f"setup-{i}")[0]
            for i in range(SETUP_REPEATS - 1)
        ]
        setup_s, result, _ = run_phase(root, work, workload, args.seed, args.seconds, False, "run")
        setups.append(setup_s)
        summary = phase_summary(result)
        phases = [(result, summary)]
        metrics = end_to_end_metrics(summary, statistics.median(setups))
        report["setup_runs_s"] = setups
    else:
        _, untraced, _ = run_phase(root, work, workload, args.seed, args.seconds, False, "untraced")
        _, traced, topology = run_phase(root, work, workload, args.seed, args.seconds, True, "traced")
        untraced_summary = phase_summary(untraced)
        traced_summary = phase_summary(traced)
        phases = [(untraced, untraced_summary), (traced, traced_summary)]
        spans = {
            node: json.loads((topology.dir / f"spans-{node}.json").read_text())
            for node in topology.servers
        }
        metrics, missing = per_layer_metrics(
            untraced, untraced_summary, traced_summary, spans, inprocess_rate(args.seed, INPROCESS_S)
        )
        report["missing"] = missing
        for name in missing:
            print(f"perfbench: per-layer metric {name} missing (wrapped target gone)")

    correct = stationarity["ok"]
    attempted = failed = 0
    for result, summary in phases:
        correct = correct and checks_pass(result["checks"], workload, summary)
        attempted += summary["attempted"]
        failed += summary["failed"]
    report["phases"] = [
        {
            "checks": result["checks"],
            "summary": {k: v for k, v in summary.items() if not k.startswith("_delta")},
        }
        for result, summary in phases
    ]
    report["metrics"] = metrics
    (work / "report.json").write_text(json.dumps(report, indent=2, default=str))

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    print(f"stream check: {json.dumps(stationarity)}")
    for result, summary in phases:
        print(f"checks: {json.dumps(result['checks'], default=str)}")
        print(
            f"backlog_flat {summary['backlog_flat']} op_failure_ratio "
            f"{summary['op_failure_ratio']:.6f} ratio (attempted {summary['attempted']})"
        )
    printed = dict(metrics)
    if args.trace == 0:
        tails = unregistered_tails(summary)
        printed.update((name, dict(entry, note="not registered")) for name, entry in tails.items())
    for name, entry in printed.items():
        label = name
        if workload.replica and name.startswith("visibility_"):
            label = "standby_" + name
        notes = [f"n={entry['samples']}"] if "samples" in entry else []
        notes += [entry["note"]] if "note" in entry else []
        suffix = f" ({', '.join(notes)})" if notes else ""
        print(f"{label} {entry['value']} {entry['unit']}{suffix}")
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
