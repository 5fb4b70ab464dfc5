"""The five-step BPBC GPU pipeline (paper §V).

    Step 1  H2G   copy wordwise inputs host -> device
    Step 2  W2B   bit-transpose kernel
    Step 3  SWA   wavefront Smith-Waterman kernel
    Step 4  B2W   bit-untranspose kernel
    Step 5  G2H   copy wordwise maximum scores device -> host

:func:`run_gpu_pipeline` executes all five on the SIMT simulator and
returns the per-pair maximum scores together with a
:class:`PipelineReport` carrying each step's operation and byte
counts — the quantities the analytic model converts into the H2G /
W2B / SWA / B2W / G2H columns of Table IV.  Every scheme runs the same
five steps; only Steps 2 and 3 swap in alphabet-generic kernels for
protein and affine-gap schemes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.bitops import lane_count, word_dtype
from ..gpusim.device import DeviceSpec, GTX_TITAN_X
from ..gpusim.kernel import KernelStats, launch_kernel
from ..gpusim.memory import GlobalMemory
from ..swa.affine import AffineScheme
from .gotoh_kernel import gotoh_shared_words_needed, gotoh_wavefront_kernel
from .sw_kernel import shared_words_needed, sw_wavefront_kernel
from .transpose_kernel import b2w_kernel, w2b_kernel, w2b_planes_kernel

__all__ = ["PipelineReport", "run_gpu_pipeline"]


@dataclass
class PipelineReport:
    """Cost accounting for one pipeline run."""

    n_pairs: int
    m: int
    n: int
    s: int
    word_bits: int
    h2g_bytes: int = 0
    g2h_bytes: int = 0
    w2b: KernelStats | None = None
    swa: KernelStats | None = None
    b2w: KernelStats | None = None
    device: DeviceSpec = field(default_factory=lambda: GTX_TITAN_X)

    @property
    def cell_updates(self) -> int:
        """DP cells computed across all pairs (the CUPS numerator)."""
        return self.n_pairs * self.m * self.n


def run_gpu_pipeline(X: np.ndarray, Y: np.ndarray, scheme,
                     word_bits: int = 32, s: int | None = None,
                     device: DeviceSpec = GTX_TITAN_X,
                     ) -> tuple[np.ndarray, PipelineReport]:
    """Score ``P`` pairs on the simulated GPU; returns ``(scores, report)``.

    ``X`` is ``(P, m)`` and ``Y`` ``(P, n)`` wordwise code matrices —
    the format the paper assumes the host application uses.  ``P`` is
    padded internally to a whole number of lane groups; padded pairs
    are discarded from the returned scores.

    A linear DNA :class:`~repro.swa.scoring.ScoringScheme` runs the
    paper's pipeline: Step 2 bit-transposes into H/L planes and Step 3
    runs the linear wavefront kernel.  Protein schemes and affine-gap
    DNA schemes instead run
    :func:`~repro.kernels.transpose_kernel.w2b_planes_kernel` at the
    scheme's character width (``eps = 2`` for affine DNA, the
    alphabet's pad width for protein — sentinel pads must stay
    representable) and the Gotoh wavefront kernel, whose per-cell
    circuit is the exact :func:`repro.core.subst.gotoh_cell_b` the CPU
    engines evaluate.  A protein scheme with ``gap_open == gap_extend``
    degenerates to linear substitution-matrix SW, so the Gotoh kernel
    covers every non-2-bit-linear case.
    """
    X = np.asarray(X, dtype=np.uint8)
    Y = np.asarray(Y, dtype=np.uint8)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ValueError(
            f"expected (P, m) / (P, n) code matrices, got {X.shape} and "
            f"{Y.shape}"
        )
    P, m = X.shape
    n = Y.shape[1]
    if s is None:
        s = scheme.score_bits(m, n)
    gotoh = (callable(getattr(scheme, "weights_key", None))
             or isinstance(scheme, AffineScheme))
    w = word_bits
    dt = word_dtype(w)
    groups = lane_count(P, w)
    Ppad = groups * w

    gmem = GlobalMemory(capacity_bytes=device.global_mem_bytes,
                        segment_bytes=device.coalesce_segment_bytes)
    report = PipelineReport(n_pairs=P, m=m, n=n, s=s, word_bits=w,
                            device=device)

    # ---- Step 1: H2G ---------------------------------------------------
    Xpad = np.zeros((Ppad, m), dtype=dt)
    Xpad[:P] = X
    Ypad = np.zeros((Ppad, n), dtype=dt)
    Ypad[:P] = Y
    gmem.from_host("X", Xpad)
    gmem.from_host("Y", Ypad)
    # The paper ships wordwise characters; one word per character.
    report.h2g_bytes = Xpad.nbytes + Ypad.nbytes

    # ---- Step 2: W2B kernels -------------------------------------------
    if gotoh:
        alph = getattr(scheme, "alphabet", None)
        eps = alph.pad_bits if alph is not None else 2
        gmem.alloc("xp", (eps, m, groups), dt)
        gmem.alloc("yp", (eps, n, groups), dt)
        w2b = w2b_planes_kernel
        w2b_args = ((m, ("X", "xp", m, groups, w, eps)),
                    (n, ("Y", "yp", n, groups, w, eps)))
    else:
        for name, count in (("XH", m), ("XL", m), ("YH", n), ("YL", n)):
            gmem.alloc(name, (count, groups), dt)
        w2b = w2b_kernel
        w2b_args = ((m, ("X", "XH", "XL", m, groups, w)),
                    (n, ("Y", "YH", "YL", n, groups, w)))
    block = min(device.max_threads_per_block, 1024)
    stats_x, stats_y = (
        launch_kernel(w2b, -(-count * groups // block), block, gmem,
                      *args, device=device)
        for count, args in w2b_args
    )
    stats_x.blocks += stats_y.blocks
    stats_x.threads += stats_y.threads
    stats_x.instructions += stats_y.instructions
    stats_x.barriers += stats_y.barriers
    stats_x.sync_rounds += stats_y.sync_rounds
    stats_x.gmem.merge(stats_y.gmem)
    stats_x.smem.merge(stats_y.smem)
    report.w2b = stats_x

    # ---- Step 3: SWA wavefront kernel ----------------------------------
    if gotoh:
        swa = gotoh_wavefront_kernel
        swa_args = ("xp", "yp", "OUT", m, n, s, eps, scheme, w)
        shared = gotoh_shared_words_needed(m, s)
    else:
        # Plane-major layout (groups, positions) for the kernel's
        # per-group rows: transpose the W2B output views.
        for src, dst in (("XH", "xh"), ("XL", "xl"), ("YH", "yh"),
                         ("YL", "yl")):
            gmem.from_host(dst, np.ascontiguousarray(gmem.buffer(src).T))
        swa = sw_wavefront_kernel
        swa_args = ("xh", "xl", "yh", "yl", "OUT", m, n, s, scheme, w)
        shared = shared_words_needed(m, s)
    gmem.alloc("OUT", (groups, s), dt)
    report.swa = launch_kernel(swa, groups, m, gmem, *swa_args,
                               shared_words=shared, device=device)

    # ---- Step 4: B2W kernel ---------------------------------------------
    gmem.alloc("SCORES", (Ppad,), dt)
    out_t = np.ascontiguousarray(gmem.buffer("OUT").T)  # (s, groups)
    gmem.from_host("OUT_T", out_t)
    grid = -(-groups // block)
    report.b2w = launch_kernel(b2w_kernel, grid, min(block, groups), gmem,
                               "OUT_T", "SCORES", s, groups, w,
                               device=device)

    # ---- Step 5: G2H -----------------------------------------------------
    scores = gmem.buffer("SCORES").astype(np.int64)[:P]
    report.g2h_bytes = gmem.buffer("SCORES").nbytes
    return scores, report
