"""Socket round-trip tests for the TCP server and client."""

from __future__ import annotations

import json
import socket

import pytest

from repro.serve import AlignmentServer, AlignmentService
from repro.serve.client import ClientError, ServeClient
from repro.swa.scoring import DEFAULT_SCHEME, ScoringScheme
from repro.swa.sequential import sw_max_score
from repro.workloads.dna import random_strand
from repro.core.encoding import decode


def _serving():
    """A running service + server on an ephemeral localhost port."""
    service = AlignmentService(workers=2, max_wait_ms=1,
                               bin_granularity=8)
    try:
        service.start()
        server = AlignmentServer(service, host="127.0.0.1", port=0)
    except OSError as exc:  # pragma: no cover - sandboxed environments
        service.stop()
        pytest.skip(f"cannot bind localhost sockets here: {exc}")
    with server:
        host, port = server.address
        yield host, port, service
    service.stop()


served = pytest.fixture(name="served")(_serving)
#: One server for a whole parametrized battery (teardown costs ~0.5 s).
served_module = pytest.fixture(name="served_module", scope="module")(
    _serving)


class TestRoundTrip:
    def test_ping_and_stats(self, served):
        host, port, _ = served
        with ServeClient(host, port) as client:
            assert client.ping()
            snap = client.stats()
            assert "requests_submitted" in snap

    def test_align_matches_gold(self, served, rng):
        host, port, _ = served
        q = decode(random_strand(rng, 24))
        s = decode(random_strand(rng, 30))
        with ServeClient(host, port) as client:
            resp = client.align(q, s)
        assert resp["ok"]
        from repro.core.encoding import encode
        assert resp["score"] == sw_max_score(encode(q), encode(s),
                                             DEFAULT_SCHEME)

    def test_pipelined_batch_and_threshold(self, served, rng):
        host, port, service = served
        pairs = [(decode(random_strand(rng, 16)),
                  decode(random_strand(rng, 16))) for _ in range(20)]
        pairs.append(("ACGTACGT", "ACGTACGT"))
        with ServeClient(host, port) as client:
            responses = client.align_many(pairs, threshold=15)
        assert len(responses) == len(pairs)
        assert all(r["ok"] for r in responses)
        assert responses[-1]["score"] == 16
        assert responses[-1]["passed"] is True
        # Pipelining must have shared lanes: fewer batches than pairs.
        assert service.stats.batches < len(pairs)

    def test_custom_scheme_over_the_wire(self, served, rng):
        host, port, _ = served
        from repro.core.encoding import encode
        q = decode(random_strand(rng, 12))
        s = decode(random_strand(rng, 12))
        with ServeClient(host, port) as client:
            resp = client.align(q, s, match=3, mismatch=2, gap=2)
        assert resp["score"] == sw_max_score(
            encode(q), encode(s), ScoringScheme(3, 2, 2))

    def test_bad_requests_are_answered_not_dropped(self, served):
        host, port, _ = served
        with socket.create_connection((host, port), timeout=5) as sock:
            fh = sock.makefile("rwb")
            fh.write(b"this is not json\n")
            fh.write(json.dumps({"op": "nope"}).encode() + b"\n")
            fh.write(json.dumps({"op": "align", "query": "ACGT"})
                     .encode() + b"\n")
            fh.write(json.dumps({"query": "ACGT", "subject": "AXGT"})
                     .encode() + b"\n")
            fh.flush()
            responses = [json.loads(fh.readline()) for _ in range(4)]
        kinds = [r.get("kind") for r in responses]
        assert all(not r["ok"] for r in responses)
        assert kinds[0] == "bad_request"      # malformed JSON
        assert kinds[1] == "bad_request"      # unknown op
        assert kinds[2] == "bad_request"      # missing subject
        assert kinds[3] == "bad_request"      # invalid DNA base

    @pytest.mark.parametrize("frame, message", [
        (b"[" * 50000, "recursion"),
        ({"alphabet": "protein", "matrix": "nope"}, "'nope'"),
        ({"priority": "high"}, "'priority'"),
        ({"match": "2"}, "'match'"),
        ({"threshold": "10"}, "'threshold'"),
        ({"timeout_ms": "fast"}, "'timeout_ms'"),
        ({"threshold": True}, "'threshold'"),
        ({"query": ["A"]}, "'query'"),
        ({"query": 5}, "'query'"),
        ({"subject": ""}, "'subject'"),
        ({"subject": "AXGT"}, "invalid DNA base"),
        ({"alphabet": "protein", "subject": "MKW#"}, "'#'"),
        ({"gap_open": 1, "gap_extend": 2}, "gap_extend"),
        ({"alphabet": "protein", "gap_open": 1, "gap_extend": 2},
         "gap_extend"),
        ({"match": -1}, "match_score"),
    ], ids=["deep-nesting", "unknown-matrix", "priority-str",
            "match-str", "threshold-str", "timeout-str", "threshold-bool",
            "query-list", "query-int", "subject-empty", "dna-letter",
            "protein-letter", "dna-affine-scheme", "protein-scheme",
            "negative-match"])
    def test_malformed_frame_is_bad_request(self, served_module, frame,
                                            message):
        """A malformed frame gets a typed ``bad_request`` naming the
        defect, and the connection keeps serving."""
        host, port, _ = served_module
        if isinstance(frame, dict):
            frame = json.dumps({"op": "align", "id": 1, "query": "ACGT",
                                "subject": "ACGT", **frame}).encode()
        with socket.create_connection((host, port), timeout=10) as sock:
            fh = sock.makefile("rwb")
            fh.write(frame + b"\n")
            fh.write(json.dumps({"op": "ping", "id": 2}).encode() + b"\n")
            fh.flush()
            resp = json.loads(fh.readline())
            pong = json.loads(fh.readline())
        assert resp["ok"] is False
        assert resp["kind"] == "bad_request"
        assert message in resp["error"]
        assert "missing field" not in resp["error"]
        assert pong == {"ok": True, "id": 2, "pong": True}

    def test_error_mid_pipeline_preserves_neighbours(self, served, rng):
        host, port, _ = served
        good = decode(random_strand(rng, 10))
        with ServeClient(host, port) as client:
            responses = client.align_many(
                [(good, good), ("BADBASE!", good), (good, good)])
        assert responses[0]["ok"] and responses[2]["ok"]
        assert not responses[1]["ok"]
        assert responses[0]["score"] == responses[2]["score"]

    def test_client_error_raising_helper(self, served):
        host, port, _ = served
        with ServeClient(host, port) as client:
            with pytest.raises(ClientError) as err:
                client._check({"ok": False, "error": "x",
                               "kind": "queue_full"})
            assert err.value.kind == "queue_full"
