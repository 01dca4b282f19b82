"""Turn one run's raw record into end-to-end and per-layer metrics.

End-to-end figures come from the client's own timings of an untraced run.
Per-layer figures come from outside-in collectors of the untraced run
(``/metrics`` deltas over the measured window, WAL bytes on disk) and from
the spans and counter marks the traced launcher writes at shutdown.
"""

from __future__ import annotations

import bisect
import statistics
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from drive import percentile, visibility_ms
from net import MetricsScrape, histogram_delta_quantile

Metric = Dict[str, object]

#: Per-layer metric -> (unit, span names it is computed from).  A metric
#: whose span is missing from the traced launcher is reported as missing.
PER_LAYER: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "server.ack_overhead_us": ("us", ("engine.submit_many",)),
    "server.decode_us_per_update": ("us", ("server.decode",)),
    "engine.admission_us_per_update": ("us", ("engine.submit_many",)),
    "engine.queue_wait_p50_ms": ("ms", ()),
    "engine.queue_wait_p99_ms": ("ms", ()),
    "engine.batch_updates_mean": ("upd", ()),
    "engine.writer_busy_frac": ("ratio", ()),
    "persistence.wal_append_us_per_update": ("us", ()),
    "persistence.wal_bytes_per_update": ("B", ()),
    "persistence.checkpoint_ms_mean": ("ms", ("persistence.checkpoint",)),
    "persistence.checkpoints": ("count", ("persistence.checkpoint",)),
    "core.apply_us_per_update": ("us", ()),
    "core.label_invocations_per_update": ("count", ("counters",)),
    "core.samples_per_label": ("count", ("counters",)),
    "core.neighbour_probes_per_update": ("count", ("counters",)),
    "core.label_self_us_per_update": ("us", ("core.label", "counters")),
    "core.flip_set_mean": ("count", ()),
    "core.inprocess_upd_per_s": ("upd/s", ()),
    "dt.heap_ops_per_update": ("count", ("counters",)),
    "dt.signals_per_update": ("count", ("counters",)),
    "dt.self_us_per_update": (
        "us",
        ("dt.increment", "dt.process_ready", "dt.track", "dt.untrack", "counters"),
    ),
    "dt.relabels_per_incident_edge": ("ratio", ("counters",)),
    "connectivity.cc_ops_per_update": ("count", ("counters",)),
    "connectivity.self_us_per_update": ("us", ("cc.insert", "cc.delete", "counters")),
    "views.publish_us_per_batch": ("us", ()),
    "views.incremental_ratio": ("ratio", ()),
    "views.read_us": ("us", ("views.group_by",)),
    "sharding.route_us_per_update": ("us", ("sharding.route",)),
    "sharding.cross_shard_frac": ("ratio", ()),
    "sharding.merge_ms_mean": ("ms", ("sharding.merge",)),
    "sharding.merges_per_read": ("ratio", ("sharding.merge", "server.group_by", "server.stats")),
    "sharding.merge_share_of_read": (
        "ratio",
        ("sharding.merge", "server.group_by", "server.stats"),
    ),
    "replication.ship_us_per_record": ("us", ("replication.read_wal_range",)),
    "replication.empty_fetch_ratio": ("ratio", ("replication.read_wal_range",)),
    "replication.replay_us_per_update": ("us", ("replication.apply_chunk",)),
    "loadgen.max_lag_ms": ("ms", ()),
    "loadgen.probe_gap_p99_ms": ("ms", ()),
    "trace.overhead_frac": ("ratio", ()),
    "ledger.residual_frac": (
        "ratio",
        ("server.decode", "engine.submit_many", "replication.read_wal_range", "replication.apply_chunk"),
    ),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


class ScrapeDelta:
    """Window deltas between two ``/metrics`` scrapes of one tenant.

    Engine-level series are summed over the tenant's engines (one, or
    every shard); the sharded router row carries no batches of its own.
    """

    def __init__(self, before: str, after: str, tenant: str) -> None:
        self.before = MetricsScrape(before, tenant)
        self.after = MetricsScrape(after, tenant)

    @staticmethod
    def _engines(scrape: MetricsScrape, name: str, extra: Callable[[Dict[str, str]], bool]) -> float:
        return sum(
            value
            for sample, labels, value in scrape.samples
            if sample == name and labels.get("shard") != "router" and extra(labels)
        )

    def total(self, name: str, **match: str) -> float:
        def extra(labels: Dict[str, str]) -> bool:
            return all(labels.get(k) == v for k, v in match.items())

        return self._engines(self.after, name, extra) - self._engines(self.before, name, extra)

    def event(self, event: str, router: bool = False) -> float:
        if router:
            return self.after.total("repro_events_total", event=event) - self.before.total(
                "repro_events_total", event=event
            )
        return self.total("repro_events_total", event=event)

    def stage_quantile(self, stage: str, q: float) -> float:
        name = "repro_ingest_stage_seconds"
        return histogram_delta_quantile(
            self.before.buckets(name, stage=stage), self.after.buckets(name, stage=stage), q
        )


def phase_summary(result: Dict[str, object]) -> Dict[str, object]:
    """Client-side and outside-in figures of one measured phase."""
    plan = result["plan"]
    record = result["record"]
    coverage = result["coverage"]
    in_window = [op for op in record.ops if plan.window_start <= op.due < plan.window_end]
    writes = [op for op in in_window if op.kind == "write"]
    reads = [op for op in in_window if op.kind == "read"]
    # the op whose response carries the probe's view: stats, or the group-by
    probes = [op for op in in_window if op.kind == ("probe" if plan.stats_probe else "read")]
    open_loop = plan.write_rate is not None
    ack_ms = [(op.done - (op.due if open_loop else op.sent)) * 1000 for op in writes if op.ok]
    query_ms = [(op.done - op.due) * 1000 for op in reads if op.ok]
    visibility = visibility_ms(record, coverage, plan)
    failed = sum(1 for op in in_window if not op.ok)

    (t0, stats0), (t1, stats1) = record.primary_stats[:2]
    prefix0 = coverage.prefix(coverage.state(stats0))
    prefix1 = coverage.prefix(coverage.state(stats1))
    window_probes = [p for p in record.probes if plan.window_start <= p[0] < plan.window_end]
    if open_loop:
        # one update per request, so the visible prefix at the window
        # boundaries (the primary's stats) resolves the rate to an update
        ingest = (prefix1 - prefix0) / (t1 - t0)
    else:
        # least-squares slope of the visible prefix over the window's probes:
        # views advance a whole micro-batch at a time, so two points would
        # resolve the rate only to a batch per window
        xs = [when for when, _ in window_probes]
        ys = [coverage.prefix(state) for _, state in window_probes]
        x_mean, y_mean = statistics.fmean(xs), statistics.fmean(ys)
        ingest = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys)) / sum(
            (x - x_mean) ** 2 for x in xs
        )

    # backlog: submitted minus visible at each in-window probe
    sent_times = [op.sent for op in record.ops if op.kind == "write"]
    sent_last = [op.last for op in record.ops if op.kind == "write"]
    lags: List[Tuple[float, int]] = []
    for when, state in window_probes:
        index = bisect.bisect_right(sent_times, when) - 1
        submitted = sent_last[index] if index >= 0 else 0
        lags.append((when, submitted - coverage.prefix(state)))
    third = (plan.window_end - plan.window_start) / 3
    early = [lag for when, lag in lags if when < plan.window_start + third]
    late = [lag for when, lag in lags if when >= plan.window_end - third]
    backlog_early = statistics.median(early) if early else 0.0
    backlog_late = statistics.median(late) if late else 0.0
    if open_loop:
        slack = max(3.0, 0.5 * plan.write_rate)
        backlog_flat = backlog_late <= backlog_early + slack and ingest >= 0.95 * plan.write_rate
    else:
        backlog_flat = True

    probe_times = [p[0] for p in window_probes]
    gaps = [(b - a) * 1000 for a, b in zip(probe_times, probe_times[1:])]
    # closed-loop writes are sent when there is room: they have no due time
    lag_ms = [(op.sent - op.due) * 1000 for op in (writes + reads if open_loop else reads)]

    delta = ScrapeDelta(record.scrapes[0][1], record.scrapes[1][1], result["tenant"])
    flips0 = stats0["metrics"]["view_capture"]["flip_set_size"]
    flips1 = stats1["metrics"]["view_capture"]["flip_set_size"]
    return {
        "attempted": len(in_window),
        "failed": failed,
        "op_failure_ratio": _ratio(failed, len(in_window)),
        "ingest_upd_per_s": ingest,
        "offered_upd_per_s": plan.write_rate,
        "backlog_flat": bool(backlog_flat),
        "backlog_early": backlog_early,
        "backlog_late": backlog_late,
        "window_s": t1 - t0,
        "window_updates": prefix1 - prefix0,
        "window_positions": (prefix0, prefix1),
        "peak_rss_mb": sum(result["rss_kb"].values()) / 1024.0,
        "wal_bytes_per_record": result["wal_bytes_per_record"],
        "flip_set_mean": _ratio(flips1["total"] - flips0["total"], flips1["count"] - flips0["count"]),
        "probe_gap_mean_ms": _mean(gaps),
        "probe_gap_p99_ms": percentile(gaps, 99) if gaps else 0.0,
        "probe_rtt_mean_ms": _mean([(op.done - op.sent) * 1000 for op in probes if op.ok]),
        "max_lag_ms": max(lag_ms) if lag_ms else 0.0,
        "mean_write_lag_ms": _mean([(op.sent - op.due) * 1000 for op in writes]) if open_loop else 0.0,
        "write_requests": len(writes),
        "_ack_ms": ack_ms,
        "_query_ms": query_ms,
        "_visibility_ms": visibility,
        "_delta": delta,
    }


def _latency(samples: List[float], q: float) -> Metric:
    return {"value": percentile(samples, q) if samples else 0.0, "unit": "ms", "samples": len(samples)}


#: Tail percentile of the latencies.  In a 36 s window the registered
#: workloads give 234-288 ack and visibility samples, so p95 would still
#: leave ten beyond it; but slow visibility samples come in runs of
#: consecutive updates held up by one stall, and the samples beyond p95
#: stem from two to four stalls.  p90 leaves 23 or more samples beyond it.
TAIL = 90


def end_to_end_metrics(summary: Dict[str, object], setup_s: float) -> Dict[str, Metric]:
    """The registered end-to-end metrics.

    ``visibility_*`` is measured on the node serving the reads: the
    primary, or the standby on replica-follow (``standby_visibility_*``).
    Ack and query latency are registered at their median only; their
    tails are in :func:`unregistered_tails`.
    """
    visibility = summary["_visibility_ms"]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ingest_upd_per_s": {"value": summary["ingest_upd_per_s"], "unit": "upd/s"},
        "visibility_p50_ms": _latency(visibility, 50),
        f"visibility_p{TAIL}_ms": _latency(visibility, TAIL),
        "ack_p50_ms": _latency(summary["_ack_ms"], 50),
        "query_p50_ms": _latency(summary["_query_ms"], 50),
        "peak_rss_mb": {"value": summary["peak_rss_mb"], "unit": "MB"},
    }


def unregistered_tails(summary: Dict[str, object]) -> Dict[str, Metric]:
    """Tail latencies printed on every run but not registered.

    An ack or query waits for a server thread that is applying a
    micro-batch or merging shard views, so both timings have a fast and a
    slow mode, and the slow mode's share (10-40% at the open-loop rates)
    moves with the host's speed: their p90 and p99 spread 0.3-0.7 of the
    median across seeds.  Visibility's p99 has two or three samples beyond
    it at the open-loop rates.
    """
    tails = {f"{name}_p{q}_ms": (name, q) for name in ("ack", "query") for q in (TAIL, 99)}
    tails["visibility_p99_ms"] = ("visibility", 99)
    return {
        metric: _latency(summary[f"_{name}_ms"], q) for metric, (name, q) in tails.items()
    }


class SpanWindow:
    """The traced launcher's spans of one server, cut to the measured window."""

    def __init__(self, document: Dict[str, object]) -> None:
        self.missing = {entry["span"] for entry in document["missing"]}
        marks = document["marks"]
        if len(marks) < 2:
            raise RuntimeError(f"traced server recorded {len(marks)} window marks, expected 2")
        start, end = marks[0]["t"], marks[1]["t"]
        counters0, counters1 = marks[0]["counters"], marks[1]["counters"]
        self.counters = {
            key: counters1.get(key, 0) - counters0.get(key, 0)
            for key in set(counters0) | set(counters1)
        }
        child: Dict[int, float] = defaultdict(float)
        for span_id, parent, _name, t0, t1, _count in document["spans"]:
            if parent:
                child[parent] += t1 - t0
        self.calls: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.size: Dict[str, int] = defaultdict(int)
        self.empty: Dict[str, int] = defaultdict(int)
        for span_id, _parent, name, t0, t1, count in document["spans"]:
            if not start <= t0 < end:
                continue
            self.calls[name] += 1
            self.total[name] += t1 - t0
            self.self_time[name] += t1 - t0 - child.get(span_id, 0.0)
            self.size[name] += count
            if count == 0:
                self.empty[name] += 1

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)


def per_layer_metrics(
    untraced: Dict[str, object],
    untraced_summary: Dict[str, object],
    traced_summary: Dict[str, object],
    span_documents: Dict[str, Dict[str, object]],
    inprocess_upd_per_s: float,
) -> Tuple[Dict[str, Metric], List[str]]:
    primary = SpanWindow(span_documents["primary"])
    standby = SpanWindow(span_documents["standby"]) if "standby" in span_documents else None
    missing_spans = set(primary.missing) | (standby.missing if standby else set())
    delta: ScrapeDelta = untraced_summary["_delta"]
    updates_applied = delta.total("repro_events_total", event="updates_applied")
    batches = delta.total("repro_events_total", event="batches")
    window_s = untraced_summary["window_s"]
    updates = primary.counter("update")
    labels = primary.counter("label_invocation")
    lo, hi = untraced_summary["window_positions"]
    incident = untraced["incident"][lo:hi]
    mean_incident = _mean(incident)
    us = 1e6

    def per_update(span_names: Sequence[str]) -> float:
        return _ratio(sum(primary.self_time[n] for n in span_names) * us, updates)

    reads = primary.calls["server.group_by"] + primary.calls["server.stats"]
    read_time = primary.total["server.group_by"] + primary.total["server.stats"]
    submit_per_request = _ratio(primary.total["engine.submit_many"], traced_summary["write_requests"])
    captures_incremental = delta.event("view_capture_incremental")
    captures_full = delta.event("view_capture_full")
    values: Dict[str, float] = {
        "server.ack_overhead_us": _mean(traced_summary["_ack_ms"]) * 1e3 - submit_per_request * us,
        "server.decode_us_per_update": _ratio(
            primary.total["server.decode"] * us, primary.size["server.decode"]
        ),
        "engine.admission_us_per_update": _ratio(
            primary.total["engine.submit_many"] * us, primary.size["engine.submit_many"]
        ),
        "engine.queue_wait_p50_ms": delta.stage_quantile("queue_wait", 0.50) * 1e3,
        "engine.queue_wait_p99_ms": delta.stage_quantile("queue_wait", 0.99) * 1e3,
        "engine.batch_updates_mean": _ratio(updates_applied, batches),
        "engine.writer_busy_frac": _ratio(
            delta.total("repro_ingest_latency_seconds_sum"), window_s
        ),
        "persistence.wal_append_us_per_update": _ratio(
            delta.total("repro_ingest_stage_seconds_sum", stage="wal_append") * us, updates_applied
        ),
        "persistence.wal_bytes_per_update": untraced_summary["wal_bytes_per_record"],
        "persistence.checkpoint_ms_mean": _ratio(
            primary.total["persistence.checkpoint"] * 1e3, primary.calls["persistence.checkpoint"]
        ),
        "persistence.checkpoints": float(primary.calls["persistence.checkpoint"]),
        "core.apply_us_per_update": _ratio(
            delta.total("repro_ingest_stage_seconds_sum", stage="backend_apply") * us, updates_applied
        ),
        "core.label_invocations_per_update": _ratio(labels, updates),
        "core.samples_per_label": _ratio(primary.counter("sample"), labels),
        "core.neighbour_probes_per_update": _ratio(primary.counter("neighbour_probe"), updates),
        "core.label_self_us_per_update": per_update(["core.label"]),
        "core.flip_set_mean": untraced_summary["flip_set_mean"],
        "core.inprocess_upd_per_s": inprocess_upd_per_s,
        "dt.heap_ops_per_update": _ratio(primary.counter("heap_op"), updates),
        "dt.signals_per_update": _ratio(primary.counter("dt_signal"), updates),
        "dt.self_us_per_update": per_update(["dt.increment", "dt.process_ready", "dt.track", "dt.untrack"]),
        "dt.relabels_per_incident_edge": _ratio(_ratio(labels, updates), mean_incident),
        "connectivity.cc_ops_per_update": _ratio(primary.counter("cc_op"), updates),
        "connectivity.self_us_per_update": per_update(["cc.insert", "cc.delete"]),
        "views.publish_us_per_batch": _ratio(
            delta.total("repro_view_capture_latency_seconds_sum") * us,
            delta.total("repro_view_capture_latency_seconds_count"),
        ),
        "views.incremental_ratio": _ratio(captures_incremental, captures_incremental + captures_full),
        "views.read_us": _ratio(primary.total["views.group_by"] * us, primary.calls["views.group_by"]),
        "sharding.route_us_per_update": _ratio(
            primary.total["sharding.route"] * us, primary.calls["sharding.route"]
        ),
        "sharding.cross_shard_frac": _ratio(
            delta.event("cross_shard_updates", router=True), untraced_summary["window_updates"]
        ),
        "sharding.merge_ms_mean": _ratio(
            primary.total["sharding.merge"] * 1e3, primary.calls["sharding.merge"]
        ),
        "sharding.merges_per_read": _ratio(primary.calls["sharding.merge"], reads),
        "sharding.merge_share_of_read": _ratio(primary.total["sharding.merge"], read_time),
        "replication.ship_us_per_record": _ratio(
            primary.total["replication.read_wal_range"] * us, primary.size["replication.read_wal_range"]
        ),
        "replication.empty_fetch_ratio": _ratio(
            primary.empty["replication.read_wal_range"], primary.calls["replication.read_wal_range"]
        ),
        "replication.replay_us_per_update": (
            _ratio(standby.total["replication.apply_chunk"] * us, standby.size["replication.apply_chunk"])
            if standby
            else 0.0
        ),
        "loadgen.max_lag_ms": untraced_summary["max_lag_ms"],
        "loadgen.probe_gap_p99_ms": untraced_summary["probe_gap_p99_ms"],
        "trace.overhead_frac": 1.0
        - _ratio(traced_summary["ingest_upd_per_s"], untraced_summary["ingest_upd_per_s"]),
        "ledger.residual_frac": residual_frac(untraced_summary, primary, standby, traced_summary),
    }
    if not primary.counters:
        missing_spans.add("counters")
    metrics: Dict[str, Metric] = {}
    missing: List[str] = []
    for name, (unit, needs) in PER_LAYER.items():
        if any(need in missing_spans for need in needs):
            metrics[name] = {"value": None, "unit": unit}
            missing.append(name)
        else:
            metrics[name] = {"value": values[name], "unit": unit}
    return metrics, missing


def ledger_parts(
    summary: Dict[str, object],
    primary: SpanWindow,
    standby: Optional[SpanWindow],
    traced_summary: Dict[str, object],
) -> Dict[str, float]:
    """Mean ms each named layer adds to an update's visibility latency."""
    delta: ScrapeDelta = summary["_delta"]
    parts = {
        "loadgen_lag": summary["mean_write_lag_ms"],
        "decode_and_admission": _ratio(
            (primary.total["server.decode"] + primary.total["engine.submit_many"]) * 1e3,
            traced_summary["write_requests"],
        ),
        "queue_wait": _ratio(
            delta.total("repro_ingest_stage_seconds_sum", stage="queue_wait") * 1e3,
            delta.total("repro_ingest_stage_seconds_count", stage="queue_wait"),
        ),
        "batch_apply_and_publish": _ratio(
            delta.total("repro_ingest_latency_seconds_sum") * 1e3,
            delta.total("repro_ingest_latency_seconds_count"),
        ),
        "probe_resolution": summary["probe_gap_mean_ms"] / 2 + summary["probe_rtt_mean_ms"],
    }
    if standby is not None:
        parts["wal_ship"] = _ratio(
            primary.total["replication.read_wal_range"] * 1e3,
            primary.calls["replication.read_wal_range"] - primary.empty["replication.read_wal_range"],
        )
        parts["standby_replay"] = _ratio(
            standby.total["replication.apply_chunk"] * 1e3, standby.calls["replication.apply_chunk"]
        )
    return parts


def residual_frac(
    summary: Dict[str, object],
    primary: SpanWindow,
    standby: Optional[SpanWindow],
    traced_summary: Dict[str, object],
) -> float:
    mean_visibility = _mean(summary["_visibility_ms"])
    covered = sum(ledger_parts(summary, primary, standby, traced_summary).values())
    return _ratio(mean_visibility - covered, mean_visibility)
