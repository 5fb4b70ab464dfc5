"""Length-binned lane packing: requests -> BPBC micro-batches.

The BPBC engines score one *batch* of equal-shape pairs per call, one
pair per lane bit.  This module turns a drained micro-batch of
heterogeneous requests into as few engine calls as possible:

1. **Binning** — requests are grouped by ``(ceil(m / g) * g,
   ceil(n / g) * g, scheme)`` where ``g`` is the bin granularity.
   Within a bin, character padding waste per sequence is < ``g``
   positions, so DP-cell waste stays bounded by the caller's choice of
   ``g``; across bins nothing is padded at all.  ``g = 1`` means exact
   shapes only (no character padding ever).
2. **Packing** — each bin becomes one :class:`PackedBatch` whose
   ``(P, m)`` / ``(P, n)`` code matrices convert to bit-transposed
   lanes via the existing
   :func:`repro.core.encoding.encode_batch_bit_transposed` (uniform
   bins) or sentinel-padded character planes (mixed-length bins).

Sentinel padding is what keeps mixed-length bins *exact*: queries are
padded with code 4 and subjects with code 5 — two symbols outside the
2-bit DNA code that match nothing, not even each other.  Every DP cell
touching a pad position can then only lose score (``w = -c2``), so the
maximum over the padded matrix equals the maximum over the real
``m x n`` prefix.  The price is one extra character bit-plane
(``eps = 3``), i.e. +2 bitwise operations per cell in the match-flag
loop — far cheaper than burning a whole engine call per odd length.

Schemes that carry their own alphabet (protein
:class:`~repro.core.protein.ProteinScheme`) pack with that alphabet's
sentinel codes instead (22 / 23 for the 22-letter protein alphabet)
and emit ``alphabet.pad_bits`` character planes; through the padded
weight table the pads score the matrix minimum against everything, so
the same only-lose-score argument keeps mixed protein bins exact.
Binning keys include the scheme, so batches never mix alphabets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.encoding import PAD_BITS, QUERY_PAD, SUBJECT_PAD, scheme_pads
from ..swa.scoring import ScoringScheme
from .queue import AlignmentRequest

__all__ = ["PackedBatch", "QUERY_PAD", "SUBJECT_PAD", "PAD_BITS",
           "scheme_pads", "bin_key", "bin_requests", "pack_requests"]


@dataclass
class PackedBatch:
    """One engine call's worth of work: aligned shapes, shared scheme.

    ``X`` / ``Y`` are wordwise ``(P, m)`` / ``(P, n)`` code matrices;
    rows shorter than the bin shape carry sentinel padding (`padded``
    is True iff any row does).  ``requests[p]`` owns lane ``p``.
    """

    requests: list[AlignmentRequest]
    X: np.ndarray
    Y: np.ndarray
    scheme: ScoringScheme
    padded: bool
    #: Shard fan-out cap set by the adaptive scheduler.  ``None`` =
    #: the pool's full shard width.
    shard_width_hint: int | None = None

    @property
    def pairs(self) -> int:
        return len(self.requests)

    @property
    def m(self) -> int:
        return int(self.X.shape[1])

    @property
    def n(self) -> int:
        return int(self.Y.shape[1])

    def lane_slots(self, word_bits: int) -> int:
        """Lane bits consumed: ``ceil(P / w) * w``."""
        return -(-self.pairs // word_bits) * word_bits

    def lane_occupancy(self, word_bits: int) -> float:
        """Useful fraction of consumed lane bits (1.0 = no waste)."""
        return self.pairs / self.lane_slots(word_bits)


def bin_key(request: AlignmentRequest,
            granularity: int) -> tuple[int, int, ScoringScheme]:
    """The length bin a request lands in: rounded-up shape + scheme."""
    g = granularity
    return (-(-request.m // g) * g, -(-request.n // g) * g,
            request.scheme)


def bin_requests(requests: list[AlignmentRequest], granularity: int = 1,
                 ) -> dict[tuple[int, int, ScoringScheme],
                           list[AlignmentRequest]]:
    """Group requests by length bin, preserving arrival order."""
    if granularity <= 0:
        raise ValueError(
            f"granularity must be positive, got {granularity}"
        )
    bins: dict[tuple[int, int, ScoringScheme],
               list[AlignmentRequest]] = {}
    for req in requests:
        bins.setdefault(bin_key(req, granularity), []).append(req)
    return bins


def pack_requests(requests: list[AlignmentRequest],
                  granularity: int = 1) -> list[PackedBatch]:
    """Bin and pack a drained micro-batch into engine-ready batches."""
    batches = []
    for (mb, nb, scheme), reqs in bin_requests(requests,
                                               granularity).items():
        P = len(reqs)
        qpad, spad, _ = scheme_pads(scheme)
        X = np.full((P, mb), qpad, dtype=np.uint8)
        Y = np.full((P, nb), spad, dtype=np.uint8)
        padded = False
        for p, req in enumerate(reqs):
            X[p, :req.m] = req.query
            Y[p, :req.n] = req.subject
            padded = padded or req.m != mb or req.n != nb
        batches.append(PackedBatch(requests=reqs, X=X, Y=Y,
                                   scheme=scheme, padded=padded))
    return batches
