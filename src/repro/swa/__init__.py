"""Conventional Smith-Waterman substrate (scoring, DP, traceback)."""

from .affine import (AffineScheme, gotoh_batch_max_scores, gotoh_matrix,
                     gotoh_max_score)
from .numpy_batch import sw_batch_max_scores
from .parallel import sw_matrix_wavefront, wavefront_schedule
from .scoring import DEFAULT_SCHEME, ScoringScheme
from .sequential import sw_matrix, sw_max_score
from .traceback import (Alignment, align, fill_matrices, format_alignment,
                        traceback, weight_matrix)

__all__ = [
    "ScoringScheme", "DEFAULT_SCHEME",
    "sw_matrix", "sw_max_score",
    "sw_matrix_wavefront", "wavefront_schedule",
    "sw_batch_max_scores",
    "AffineScheme", "gotoh_matrix", "gotoh_max_score",
    "gotoh_batch_max_scores",
    "Alignment", "align", "traceback", "format_alignment",
    "weight_matrix", "fill_matrices",
]
