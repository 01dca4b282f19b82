"""Traced launcher: wrap each layer's entry points, then run ``repro serve``.

Usage (the benchmark starts servers this way for a traced run)::

    PYTHONPATH=src python3 perfbench/launch.py --spans OUT.json serve ...

Before handing off to the CLI it

* wraps the functions in :data:`TARGETS` so every call records a span
  ``(id, parent id, name, start, end, count)`` — the parent is the
  innermost open span on the same thread, ``count`` a per-call size (e.g.
  updates decoded) where one is defined;
* injects a fresh ``OpCounter`` into every clustering backend the service
  builds (through ``repro.core.api.make_clusterer`` and the durable
  engine's construction and recovery paths);
* on ``SIGUSR1`` records a mark: the time and the summed counters, so the
  benchmark can cut the counters to its measured window.

Spans stay in memory and are written to ``--spans`` as one JSON document
at shutdown.  A target that no longer exists is listed under ``missing``
instead of being skipped silently.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import itertools
import json
import signal
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: ``(span name, module, attribute path, per-call size)`` — the size
#: function sees ``(args, result)``.
TARGETS: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("server.decode", "repro.service.server", "decode_updates", lambda a, r: len(r)),
    ("server.group_by", "repro.service.server", "ClusteringServiceServer._group_by", None),
    ("server.stats", "repro.service.server", "ClusteringServiceServer._stats_v1", None),
    ("engine.submit_many", "repro.service.engine", "ClusteringEngine.submit_many", lambda a, r: r),
    ("engine.submit_many", "repro.service.sharding", "ShardedEngine.submit_many", lambda a, r: r),
    ("persistence.checkpoint", "repro.service.engine", "ClusteringEngine._checkpoint", None),
    ("core.label", "repro.core.labelling", "LabellingStrategy.label", None),
    ("dt.increment", "repro.dt.tracker", "UpdateTracker.increment", None),
    ("dt.process_ready", "repro.dt.tracker", "UpdateTracker.process_ready", None),
    ("dt.track", "repro.dt.tracker", "UpdateTracker.track", None),
    ("dt.untrack", "repro.dt.tracker", "UpdateTracker.untrack", None),
    ("cc.insert", "repro.connectivity.hdt", "HDTConnectivity.insert_edge", None),
    ("cc.delete", "repro.connectivity.hdt", "HDTConnectivity.delete_edge", None),
    ("views.group_by", "repro.service.views", "ClusteringView.group_by", None),
    ("views.group_by", "repro.service.sharding", "ShardedView.group_by", None),
    ("sharding.route", "repro.service.sharding", "ShardedEngine._route", None),
    ("sharding.merge", "repro.service.sharding", "merge_shard_views", None),
    (
        "replication.read_wal_range",
        "repro.service.server",
        "read_wal_range",
        lambda a, r: len(r.records),
    ),
    (
        "replication.apply_chunk",
        "repro.service.replication",
        "StandbyEngine.apply_chunk",
        lambda a, r: len(a[3]),
    ),
]

#: Backend constructors the service reaches: the registry factory (as
#: imported by the engine too) and the durable engine's fresh-start and
#: snapshot-restore paths.
COUNTED_FACTORIES = (
    ("repro.core.api", "make_clusterer"),
    ("repro.service.engine", "make_clusterer"),
    ("repro.service.engine", "DynStrClu"),
    ("repro.service.engine", "restore_dynstrclu"),
)

#: Hard cap on retained spans; later spans are counted as dropped.
MAX_SPANS = 2_000_000


class Recorder:
    """Spans, injected counters and window marks of one server process."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.spans: List[Tuple[int, int, str, float, float, int]] = []
        self.dropped = 0
        self.missing: List[Dict[str, str]] = []
        self.counters: List[object] = []
        self.marks: List[Dict[str, object]] = []

    def wrap(self, name: str, function: Callable, size: Optional[Callable]) -> Callable:
        clock = time.perf_counter
        local = self._local
        ids = self._ids
        spans = self.spans

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                count = 0
                if size is not None and result is not None:
                    try:
                        count = int(size(args, result))
                    except (TypeError, IndexError, AttributeError):
                        # an unexpected call shape must not break the server
                        count = 0
                if len(spans) < MAX_SPANS:
                    spans.append((span_id, parent, name, start, end, count))
                else:
                    self.dropped += 1

        return traced

    def install(self, name: str, module_name: str, path: str, size: Optional[Callable]) -> None:
        """Replace ``module_name.path`` by its traced wrapper, or note it missing."""
        try:
            owner = importlib.import_module(module_name)
            *outer, attribute = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        except (ImportError, AttributeError, KeyError):
            self.missing.append({"span": name, "target": f"{module_name}.{path}"})
            return
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(owner, attribute, type(raw)(self.wrap(name, raw.__func__, size)))
        else:
            setattr(owner, attribute, self.wrap(name, raw, size))

    def inject_counters(self) -> None:
        """Give every backend the service builds its own ``OpCounter``."""
        from repro.instrumentation import OpCounter

        def counted(factory: Callable) -> Callable:
            @functools.wraps(factory)
            def build(*args, **kwargs):
                if kwargs.get("counter") is None:
                    kwargs["counter"] = OpCounter()
                    self.counters.append(kwargs["counter"])
                return factory(*args, **kwargs)

            return build

        for module_name, attribute in COUNTED_FACTORIES:
            module = importlib.import_module(module_name)
            factory = getattr(module, attribute, None)
            if factory is None:
                self.missing.append({"span": "counters", "target": f"{module_name}.{attribute}"})
                continue
            setattr(module, attribute, counted(factory))

    def summed_counters(self) -> Dict[str, int]:
        total: Dict[str, int] = {}
        for counter in list(self.counters):
            for _ in range(5):
                try:
                    counts = dict(counter.counts)
                    break
                except RuntimeError:  # resized by a writer thread mid-copy
                    continue
            else:
                counts = {}
            for key, value in counts.items():
                total[key] = total.get(key, 0) + value
        return total

    def mark(self, signum: int, frame: object) -> None:
        self.marks.append({"t": time.perf_counter(), "counters": self.summed_counters()})

    def dump(self, path: Path) -> None:
        document = {
            "spans": self.spans,
            "dropped": self.dropped,
            "missing": self.missing,
            "marks": self.marks,
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(document))
        tmp.replace(path)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, type=Path)
    args, rest = parser.parse_known_args(argv)
    recorder = Recorder()
    for target in TARGETS:
        recorder.install(*target)
    recorder.inject_counters()
    signal.signal(signal.SIGUSR1, recorder.mark)
    from repro.cli import main as repro_main

    try:
        return repro_main(rest)
    finally:
        recorder.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
