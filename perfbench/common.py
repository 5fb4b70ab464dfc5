"""Shared pieces of the benchmark: spans, percentiles, serve nodes.

Everything here lives in the benchmark, not in ``src/``: spans are
recorded around calls *into* the program's layers, never inside them.
"""

from __future__ import annotations

import json
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np

#: Processes the measured run may use at once (load threads,
#: connections, shard workers, serve nodes).
NPROC = max(1, len(os.sched_getaffinity(0)))


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-quantile (0..1); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1,
                             max(0, int(round(q * len(ordered))) - 1))])


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def gold_scores(score_fn, X, Y, scheme):
    """``score_fn(X, Y, scheme)`` (a wordwise reference) over row
    blocks on ``NPROC`` threads; NumPy releases the GIL inside the
    large array operations, so the check finishes sooner.  Only ever
    called outside timed regions."""
    blocks = np.array_split(np.arange(len(X)), NPROC)
    with ThreadPoolExecutor(NPROC) as pool:
        parts = pool.map(lambda b: score_fn(X[b], Y[b], scheme),
                         [b for b in blocks if len(b)])
    return np.concatenate(list(parts)).astype(np.int64)


class Tracer:
    """In-memory spans, written at the end as Chrome trace-event JSON.

    A span has a name, start, end, the span that caused it (parent)
    and a request id.  ``Tracer(enabled=False)`` records nothing and
    its :meth:`span` costs one attribute check.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 1
        self._undo: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id - 1

    def add(self, name: str, start: float, end: float, *,
            parent: int | None = None, req=None, sid: int | None = None,
            **args) -> int:
        """Record a finished span (times from ``time.perf_counter``)."""
        sid = self._new_id() if sid is None else sid
        span = {"id": sid, "name": name, "start": start, "end": end,
                "parent": parent, "req": req,
                "tid": threading.get_ident(), "args": args}
        with self._lock:
            self.spans.append(span)
        return sid

    @contextmanager
    def span(self, name: str, req=None, **args):
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = self._new_id()
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            stack.pop()
            self.add(name, start, time.perf_counter(), parent=parent,
                     req=req, sid=sid, **args)

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` until :meth:`unwrap_all` restores it."""
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str) -> None:
        """Record a ``name`` span around every call of ``owner.attr``
        until :meth:`unwrap_all`."""
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        self.patch(owner, attr, wrapper)

    def unwrap_all(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def subtree_ms(self, root: int, name: str) -> float:
        """Milliseconds in ``name`` spans below span ``root``; a
        ``name`` span nested in another is not counted twice."""
        kids: dict = {}
        for s in self.spans:
            kids.setdefault(s["parent"], []).append(s)
        total, todo = 0.0, list(kids.get(root, []))
        while todo:
            s = todo.pop()
            if s["name"] == name:
                total += (s["end"] - s["start"]) * 1e3
            else:
                todo += kids.get(s["id"], [])
        return total

    def write_chrome(self, path: Path) -> None:
        """Chrome trace-event JSON (``chrome://tracing`` / Perfetto)."""
        if not self.spans:
            return
        t0 = min(s["start"] for s in self.spans)
        events = []
        for s in self.spans:
            args = {"span_id": s["id"], "parent": s["parent"],
                    "req": s["req"], **s["args"]}
            events.append({
                "name": s["name"], "cat": s["name"].split(".")[0],
                "ph": "X", "pid": os.getpid(), "tid": s["tid"],
                "ts": round((s["start"] - t0) * 1e6, 3),
                "dur": round((s["end"] - s["start"]) * 1e6, 3),
                "args": args})
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms"}))


_ANNOUNCE = re.compile(rb"serving on ([0-9.]+):(\d+)")


class ServeNode:
    """One ``python -m repro serve`` process with CLI defaults.

    The node runs in a process group of its own; :meth:`stop` sends
    SIGINT (the CLI's orderly shutdown, which prints the node's final
    stats) and kills the group only if the node does not exit in time.
    Its stderr is kept in ``log`` and copied to the run log on stop.
    """

    def __init__(self, log: Path) -> None:
        self.log = log
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        with open(log, "wb") as fh:
            self.proc = subprocess.Popen(
                cmd, stdout=subprocess.DEVNULL, stderr=fh,
                stdin=subprocess.DEVNULL, process_group=0)
        self.host: str | None = None
        self.port: int | None = None
        self.killed = False

    def wait_ready(self, timeout_s: float = 60.0) -> "ServeNode":
        deadline = time.monotonic() + timeout_s
        while True:
            hit = _ANNOUNCE.search(self.log.read_bytes())
            if hit:
                self.host, self.port = hit.group(1).decode(), \
                    int(hit.group(2))
                return self
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"serve node exited {self.proc.returncode} before "
                    f"serving:\n{self.log.read_text(errors='replace')}")
            if time.monotonic() > deadline:
                raise RuntimeError("serve node did not announce its port")
            time.sleep(0.005)

    def stop(self, timeout_s: float = 15.0) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.send_signal(signal.SIGINT)
                self.proc.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                self.killed = True
                try:
                    os.killpg(self.proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                self.proc.wait(timeout=timeout_s)
        try:
            sys.stderr.write(
                f"--- serve node pid {self.proc.pid} stderr "
                f"(exit {self.proc.returncode}) ---\n"
                + self.log.read_text(errors="replace"))
            sys.stderr.flush()
        except OSError:
            pass


class Nodes:
    """Every serve node the run started, so teardown can find them."""

    def __init__(self, run_dir: Path) -> None:
        self.run_dir = run_dir
        self.live: list[ServeNode] = []
        self.started = 0
        self.killed = 0

    def start(self, count: int = 1) -> list[ServeNode]:
        """Start ``count`` nodes concurrently; wait for all to serve."""
        nodes = []
        for _ in range(count):
            self.started += 1
            node = ServeNode(self.run_dir / f"node{self.started}.log")
            self.live.append(node)
            nodes.append(node)
        for node in nodes:
            node.wait_ready()
        return nodes

    def stop(self, nodes) -> None:
        for node in list(nodes):
            node.stop()
            self.killed += node.killed
            if node in self.live:
                self.live.remove(node)

    def stop_all(self) -> None:
        self.stop(self.live)
