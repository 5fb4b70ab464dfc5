"""The engine table: every named batch scorer, in one place.

An *engine* scores one rectangular, possibly sentinel-padded code
batch: a callable ``(X, Y, scheme, word_bits) -> (P,) scores`` over
wordwise ``(P, m)`` / ``(P, n)`` code matrices, returning exact
per-pair maximum scores.  Rows shorter than the batch shape carry the
scheme alphabet's trailing sentinel pads (DNA 4 / 5, see
:mod:`repro.serve.packer`), which only ever lose score.

The serve engine pool, the shard workers, the resilience fallback
chain and the CLI ``serve --engine`` choices all read :data:`ENGINES`:

* ``"bpbc"`` — the paper's bitwise wavefront
  (:func:`repro.filter.screening.bpbc_max_scores`, compiled cell);
* ``"numpy"`` — the wordwise baselines
  (:func:`repro.filter.screening.wordwise_max_scores`);
* ``"gpusim"`` — the five-step §V pipeline on the SIMT simulator,
  simulation-bound and therefore not shardable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core.encoding import scheme_pads
from .filter.screening import bpbc_max_scores, wordwise_max_scores

__all__ = ["Engine", "ENGINES", "resolve"]


@dataclass(frozen=True)
class Engine:
    """One table entry: the scorer and whether shard workers run it."""

    score: Callable[..., np.ndarray]
    shardable: bool


def _real_lengths(codes: np.ndarray, pad: int) -> np.ndarray:
    """Per-row length with the trailing ``pad`` codes stripped."""
    tail = np.argmax(codes[:, ::-1] != pad, axis=1)
    return codes.shape[1] - tail


def _score_gpusim(X: np.ndarray, Y: np.ndarray, scheme,
                  word_bits: int) -> np.ndarray:
    # The simulated kernels take no sentinel codes (the affine
    # pipeline's eps = 2 cannot represent them), so rows are grouped by
    # their real lengths and each group runs unpadded.
    from .kernels.pipeline import run_gpu_pipeline

    qpad, spad, _ = scheme_pads(scheme)
    xlens, ylens = _real_lengths(X, qpad), _real_lengths(Y, spad)
    out = np.zeros(X.shape[0], dtype=np.int64)
    shapes: dict[tuple[int, int], list[int]] = {}
    for p, shape in enumerate(zip(xlens.tolist(), ylens.tolist())):
        shapes.setdefault(shape, []).append(p)
    for (m, n), rows in shapes.items():
        idx = np.asarray(rows)
        scores, _ = run_gpu_pipeline(X[idx, :m], Y[idx, :n], scheme,
                                     word_bits)
        out[idx] = scores[:len(rows)]
    return out


#: The only engine table.  Keys are the names every layer accepts.
ENGINES: dict[str, Engine] = {
    "bpbc": Engine(bpbc_max_scores, shardable=True),
    "numpy": Engine(wordwise_max_scores, shardable=True),
    "gpusim": Engine(_score_gpusim, shardable=False),
}


def resolve(engine) -> Callable[..., np.ndarray]:
    """Engine name or scorer callable -> scorer callable."""
    if callable(engine):
        return engine
    try:
        return ENGINES[engine].score
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown engine {engine!r}; expected one of "
            f"{sorted(ENGINES)} or a callable"
        ) from None
