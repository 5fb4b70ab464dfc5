"""TCP front end: newline-delimited JSON over a threading server.

The protocol is one JSON object per line, both directions.  Requests::

    {"op": "align", "id": 7, "query": "ACGT...", "subject": "TTGA...",
     "match": 2, "mismatch": 1, "gap": 1,
     "threshold": 20, "timeout_ms": 250}
    {"op": "align", "id": 8, "query": "MKWV...", "subject": "MKYV...",
     "alphabet": "protein", "matrix": "blosum62",
     "gap_open": 11, "gap_extend": 1}
    {"op": "stats"}
    {"op": "ping"}

``op`` defaults to ``"align"``; scoring fields default to the paper's
Table II scheme (or the server's configured default scheme).
``alphabet: "protein"`` selects substitution-matrix Gotoh scoring;
DNA requests with ``gap_open`` / ``gap_extend`` get affine gaps.
Responses echo ``id`` and carry ``ok``; an align
response adds ``score`` / ``passed`` / ``cached`` / ``wait_ms``, an
error response adds ``error`` (message) and ``kind`` (a stable string
from :func:`repro.serve.errors.error_kind`).  A malformed frame (bad
or too deeply nested JSON, a missing or non-string sequence, a
non-numeric field, an invalid scheme or letter) is answered with kind
``bad_request`` and the connection keeps serving.

Align requests may also carry ``req``, a client-generated request ID.
The server keeps a bounded :class:`IdempotencyIndex` of IDs it has
executed, shared across connections: a retry bearing a known ID (after
a truncated response frame, say) is answered from the remembered
response — flagged ``duplicate: true`` — instead of being scored a
second time.

Clients may *pipeline*: send many lines before reading any responses.
The handler keeps reading while a per-connection writer thread emits
responses in submission order as futures resolve — this is what lets a
single connection fill whole 64-lane batches instead of ping-ponging
one pair at a time.
"""

from __future__ import annotations

import json
import math
import socket
import socketserver
import threading
from collections import OrderedDict
from concurrent.futures import Future
from queue import Queue

from ..resilience.faults import should_inject
from ..swa.scoring import DEFAULT_SCHEME, ScoringScheme
from .errors import error_kind
from .service import AlignmentService, _as_codes

__all__ = ["AlignmentServer", "IdempotencyIndex", "DEFAULT_PORT"]

#: Default TCP port for ``python -m repro serve``.
DEFAULT_PORT = 7421

#: Upper bound on how long the writer waits for one future before
#: answering with a timeout error (keeps connections from wedging on a
#: lost request).
_RESULT_TIMEOUT_S = 60.0


_SCHEME_KEYS = ("match", "mismatch", "gap", "alphabet", "matrix",
                "gap_open", "gap_extend")
#: Align fields that must be JSON integers / finite numbers when set.
_INT_KEYS = ("match", "mismatch", "gap", "gap_open", "gap_extend",
             "priority")
_NUMBER_KEYS = ("threshold", "timeout_ms")


def _scheme_from(obj: dict, default=None):
    """Build a scoring scheme from a request's scoring fields.

    ``alphabet: "protein"`` (or any ``matrix`` key) selects a protein
    :class:`~repro.core.protein.ProteinScheme` — ``matrix`` names a
    shipped substitution matrix (default BLOSUM62), ``gap_open`` /
    ``gap_extend`` default to 11 / 1.  A DNA request carrying
    ``gap_open`` / ``gap_extend`` gets an affine
    :class:`~repro.swa.affine.AffineScheme`; plain ``match`` /
    ``mismatch`` / ``gap`` keep the paper's linear scheme.  Requests
    with no scoring fields use ``default`` (the server's configured
    default scheme).
    """
    if not any(k in obj for k in _SCHEME_KEYS):
        return default if default is not None else DEFAULT_SCHEME
    alphabet = str(obj.get("alphabet", "dna")).lower()
    if alphabet in ("protein", "protein-x") or "matrix" in obj:
        from ..core.matrices import matrix_by_name
        from ..core.protein import ProteinScheme

        return ProteinScheme(
            matrix=matrix_by_name(str(obj.get("matrix", "blosum62"))),
            gap_open=int(obj.get("gap_open", 11)),
            gap_extend=int(obj.get("gap_extend", 1)),
        )
    if alphabet != "dna":
        raise ValueError(
            f"unknown alphabet {obj.get('alphabet')!r}; expected "
            "'dna' or 'protein'"
        )
    if "gap_open" in obj or "gap_extend" in obj:
        from ..swa.affine import AffineScheme

        return AffineScheme(
            match_score=int(obj.get("match",
                                    DEFAULT_SCHEME.match_score)),
            mismatch_penalty=int(
                obj.get("mismatch", DEFAULT_SCHEME.mismatch_penalty)),
            gap_open=int(obj.get("gap_open",
                                 DEFAULT_SCHEME.gap_penalty)),
            gap_extend=int(obj.get("gap_extend", 1)),
        )
    return ScoringScheme(
        match_score=int(obj.get("match", DEFAULT_SCHEME.match_score)),
        mismatch_penalty=int(
            obj.get("mismatch", DEFAULT_SCHEME.mismatch_penalty)),
        gap_penalty=int(obj.get("gap", DEFAULT_SCHEME.gap_penalty)),
    )


def _parse_align(obj: dict, default=None):
    """``(query codes, subject codes, scheme)`` of an align request.

    Raises on the first malformed field: a missing or non-string
    sequence, a non-numeric scoring/control field, an invalid scheme,
    or a letter outside the scheme's alphabet.
    """
    for key in ("query", "subject"):
        if key not in obj:
            raise ValueError(f"missing field {key!r}")
        if not isinstance(obj[key], str) or not obj[key]:
            raise ValueError(f"{key!r} must be a non-empty string")
    for key in _INT_KEYS + _NUMBER_KEYS:
        if key not in obj:
            continue
        value = obj[key]
        kinds = int if key in _INT_KEYS else (int, float)
        if (isinstance(value, bool) or not isinstance(value, kinds)
                or not math.isfinite(value)):
            what = "an integer" if key in _INT_KEYS else "a number"
            raise ValueError(f"{key!r} must be {what}, got {value!r}")
    scheme = _scheme_from(obj, default)
    return (_as_codes(obj["query"], scheme),
            _as_codes(obj["subject"], scheme), scheme)


class IdempotencyIndex:
    """Server-level LRU of request ID -> outcome (retry dedup).

    A client that loses a response frame mid-line cannot tell whether
    the server executed its request; the safe recovery is to reconnect
    and *resend with the same client-generated ID* (the ``req`` wire
    field).  This index — shared by every connection of a server, so
    the retry may arrive on a fresh socket — remembers what each ID
    resolved to:

    * ``pending`` (a live future): the duplicate attaches to the same
      in-flight execution instead of submitting a second one;
    * ``done`` (the successful response payload): the duplicate gets
      the remembered response, flagged ``duplicate: true``.

    Only *successful* responses are remembered — a request that failed
    with a typed error (deadline, queue full) must be allowed to
    re-execute on retry.  Evicting the least-recently-used entry past
    ``capacity`` only loses dedup, never correctness: a re-executed
    request recomputes the identical score (the engines are
    deterministic and the result cache is content-keyed).
    """

    def __init__(self, capacity: int = 8192) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._data: OrderedDict[str, tuple[str, object]] = OrderedDict()
        self._lock = threading.Lock()
        self.duplicates = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def lookup(self, req: str):
        """``("pending", future)`` / ``("done", payload)`` or None."""
        with self._lock:
            hit = self._data.get(req)
            if hit is not None:
                self._data.move_to_end(req)
                self.duplicates += 1
            return hit

    def begin(self, req: str, future: Future) -> None:
        """Register an in-flight execution for ``req``."""
        if self.capacity == 0:
            return
        with self._lock:
            self._data[req] = ("pending", future)
            self._data.move_to_end(req)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)

    def complete(self, req: str, payload: dict) -> None:
        """Remember the successful response payload for ``req``."""
        if self.capacity == 0:
            return
        with self._lock:
            self._data[req] = ("done", dict(payload))
            self._data.move_to_end(req)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)

    def forget(self, req: str) -> None:
        """Drop ``req`` (its execution failed; a retry may re-run)."""
        with self._lock:
            self._data.pop(req, None)


class _Handler(socketserver.StreamRequestHandler):
    """One thread per connection; a second thread writes responses."""

    def handle(self) -> None:  # pragma: no cover - exercised via sockets
        service: AlignmentService = self.server.service
        out: Queue = Queue()
        writer = threading.Thread(target=self._write_loop, args=(out,),
                                  daemon=True)
        writer.start()
        try:
            for raw in self.rfile:
                line = raw.strip()
                if not line:
                    continue
                out.put(self._dispatch(service, line))
        finally:
            out.put(None)
            writer.join()

    def _dispatch(self, service: AlignmentService, line: bytes):
        """Parse one request line -> response dict or (id, req, future)."""
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ValueError("request must be a JSON object")
        except (ValueError, RecursionError) as exc:
            return {"ok": False, "error": f"bad JSON: {exc}",
                    "kind": "bad_request"}
        rid = obj.get("id")
        op = obj.get("op", "align")
        if op == "ping":
            return {"ok": True, "id": rid, "pong": True}
        if op == "stats":
            return {"ok": True, "id": rid,
                    "stats": service.stats.snapshot()}
        if op != "align":
            return {"ok": False, "id": rid,
                    "error": f"unknown op {op!r}", "kind": "bad_request"}
        try:
            query, subject, scheme = _parse_align(
                obj, getattr(self.server, "default_scheme", None))
        except Exception as exc:  # noqa: BLE001 - malformed request
            # KeyError (unknown matrix) wraps its message in quotes.
            msg = exc.args[0] if isinstance(exc, KeyError) else exc
            return {"ok": False, "id": rid, "error": str(msg),
                    "kind": "bad_request"}
        req = obj.get("req")
        req = None if req is None else str(req)
        idem: IdempotencyIndex | None = getattr(self.server,
                                                "idempotency", None)
        if req is not None and idem is not None:
            hit = idem.lookup(req)
            if hit is not None:
                kind, payload = hit
                if kind == "done":
                    # Retry of a request the server already executed:
                    # replay the remembered response, never re-score.
                    resp = dict(payload)
                    resp["id"] = rid
                    resp["duplicate"] = True
                    return resp
                # Still in flight: attach to the same execution (req
                # None: the original submission owns completion).
                return (rid, None, payload, True)
        try:
            future = service.submit(
                query, subject, scheme=scheme,
                threshold=obj.get("threshold"),
                timeout_ms=obj.get("timeout_ms"),
                priority=obj.get("priority", 0),
            )
        except Exception as exc:  # noqa: BLE001 - becomes a wire error
            return {"ok": False, "id": rid, "error": str(exc),
                    "kind": error_kind(exc)}
        if req is not None and idem is not None:
            idem.begin(req, future)
        return (rid, req, future, False)

    def _drop_connection(self) -> None:
        """Kill this connection (fault injection): shutting the socket
        down wakes the reader thread out of its blocking read too."""
        try:
            self.connection.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.connection.close()
        except OSError:
            pass

    def _write_loop(self, out: Queue) -> None:
        """Emit responses in submission order as futures resolve."""
        while True:
            item = out.get()
            if item is None:
                return
            if isinstance(item, tuple):
                rid, req, future, attached = item
                item = self._await(rid, future)
                idem: IdempotencyIndex | None = getattr(
                    self.server, "idempotency", None)
                if req is not None and idem is not None:
                    if item.get("ok"):
                        idem.complete(req, {k: v for k, v in item.items()
                                            if k != "id"})
                    else:
                        # Typed failure: forget the ID so a retry may
                        # re-execute instead of replaying the error.
                        idem.forget(req)
                if attached and item.get("ok"):
                    # A duplicate that attached to the in-flight
                    # execution is flagged like a replayed one.
                    item["duplicate"] = True
            data = json.dumps(item).encode() + b"\n"
            if should_inject("serve.sock.truncate"):
                # Half a frame, no terminator, then a dead socket —
                # the client must see a typed protocol error, never a
                # parsed half-response.
                try:
                    self.wfile.write(data[:max(1, len(data) // 2)])
                    self.wfile.flush()
                except OSError:
                    pass
                self._drop_connection()
                return
            if should_inject("serve.sock.drop"):
                self._drop_connection()
                return
            try:
                self.wfile.write(data)
                self.wfile.flush()
            except OSError:
                return  # client went away; drain silently

    @staticmethod
    def _await(rid, future: Future) -> dict:
        try:
            result = future.result(timeout=_RESULT_TIMEOUT_S)
        except Exception as exc:  # noqa: BLE001 - becomes a wire error
            return {"ok": False, "id": rid, "error": str(exc),
                    "kind": error_kind(exc)}
        return {"ok": True, "id": rid, "score": result.score,
                "passed": result.passed, "cached": result.cached,
                "wait_ms": round(result.wait_ms, 3)}


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class AlignmentServer:
    """Socket server wrapping an :class:`AlignmentService`.

    ``port=0`` binds an ephemeral port; read :attr:`address` for the
    actual one.  ``serve_forever`` blocks; ``start`` runs the accept
    loop on a background thread (what the tests use).
    ``default_scheme`` is applied to requests that carry no scoring
    fields of their own (the CLI's ``--alphabet protein`` path);
    ``None`` keeps the paper's Table II linear DNA scheme.
    ``idempotency_size`` bounds the server-wide retry-dedup index of
    client request IDs (the ``req`` wire field; 0 disables dedup).
    """

    def __init__(self, service: AlignmentService,
                 host: str = "127.0.0.1",
                 port: int = DEFAULT_PORT,
                 default_scheme=None,
                 idempotency_size: int = 8192) -> None:
        self.service = service
        self.default_scheme = default_scheme
        self.idempotency = IdempotencyIndex(idempotency_size)
        self._tcp = _TCPServer((host, port), _Handler)
        self._tcp.service = service
        self._tcp.default_scheme = default_scheme
        self._tcp.idempotency = self.idempotency
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        """Actual ``(host, port)`` bound."""
        return self._tcp.server_address[:2]

    def start(self) -> "AlignmentServer":
        """Serve on a background thread (service must be started)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._tcp.serve_forever,
                name="repro-serve-accept", daemon=True)
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Blocking accept loop (the CLI path)."""
        self._tcp.serve_forever()

    def shutdown(self) -> None:
        self._tcp.shutdown()
        self._tcp.server_close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def __enter__(self) -> "AlignmentServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()
