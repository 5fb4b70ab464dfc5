"""Optional C backend: netlist plans lowered to a native wavefront step.

The NumPy backend of :mod:`repro.jit.compiler` still pays one ufunc
dispatch (~1 µs) and three full passes over memory *per gate*.  A real
BPBC implementation evaluates the whole cell circuit in registers and
touches memory once per plane — exactly what a C compiler produces
from the straight-line gate body.  This module emits that C: one
``step`` function per ``(s, eps, scheme, word_bits)`` evaluating the
fused SW-cell + running-max circuit for every active row and lane of
one anti-diagonal, compiles it with the system C compiler
(``$REPRO_CC``, ``cc``, ``gcc`` or ``clang`` — whichever exists), and
loads it through :mod:`ctypes`.

No third-party dependency is involved and nothing here is required:
when no toolchain is present (or a compile fails)
:func:`repro.jit.cells.sw_wavefront_step` silently falls back to the
generated-NumPy backend, which is bit-identical.

Shared objects are cached under ``$REPRO_JIT_CACHE`` (default: a
per-uid, mode-0700 directory inside the system temp dir) keyed by a
SHA-256 of the source, so each circuit compiles once per machine.
Because the cache holds code that gets loaded into the process, the
directory is only trusted when it is a real directory *owned by the
current uid* with no group/other write permission — on a multi-user
machine an attacker who pre-created the predictable path could
otherwise plant a ``.so`` for us to ``dlopen``.  A directory failing
that check is never used; a fresh private per-process directory
(``tempfile.mkdtemp``) silently takes its place.

The kernel word ``W`` is the scalar ``uintN_t`` for 8/16/32-bit
words.  At 64 bits it is a GCC vector of :data:`VEC_WORDS` ``uint64_t``
lane words (256 bits), so on an AVX2 host every gate of the
straight-line body is one instruction over four lane words; 512-bit
vectors were measured slower on one-word serve batches.

:func:`compile_kernel` is the one compile, cache and load path for
native code, and each kernel states its own argument types there.
The step kernels go through :func:`compile_step`: ``num_ptr_args``
pointers followed by six longs (``t, lo, hi, m, n, L``).  The fixed
survivor DP fill of :mod:`repro.swa.traceback` loads through the same
path with its own signature (four pointers, four longs).

Step memory layout contract (all arrays C-contiguous, the word
dtype; ``L`` counts ``W`` elements, so every plane's last axis is
``L * vec_words(word_bits)`` lane words — callers zero-pad the lanes,
see :meth:`repro.jit.cells.CStep.run`):

* ``p1``/``p2``: ``(s, m + 1, L)`` row-padded state planes for
  diagonals ``t - 1`` / ``t - 2``; padded row 0 is a permanent zero.
* ``best``: ``(s, m, L)`` running per-row maxima.
* ``xp``/``yp``: ``(eps, m, L)`` / ``(eps, n, L)`` character planes.

The row loop runs **descending** so the in-place write of row ``r + 1``
into ``p2`` (which doubles as the diagonal input buffer) lands after
row ``r + 1`` itself has been read — that is what makes the zero-copy
double-buffering of the wavefront engine sound.
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import os
import shutil
import stat
import subprocess
import tempfile
import threading
from functools import lru_cache

from ..core.bitops import check_word_bits
from ..resilience.faults import should_inject
from .compiler import CellPlan, JitError, Ref

__all__ = ["cc_available", "compiler_path", "c_step_source",
           "c_gotoh_step_source", "compile_step", "compile_kernel",
           "STEP_SYMBOL", "GOTOH_STEP_SYMBOL", "VEC_WORDS", "vec_words"]

#: Exported symbol name of every generated step kernel.
STEP_SYMBOL = "repro_sw_step"

#: Exported symbol name of the affine (Gotoh) step kernels.
GOTOH_STEP_SYMBOL = "repro_gotoh_step"

#: ``uint64_t`` lane words per 64-bit kernel element ``W``.
VEC_WORDS = 4

_C_TYPES = {8: "uint8_t", 16: "uint16_t", 32: "uint32_t"}

_lock = threading.Lock()
_libs: dict[str, ctypes.CDLL] = {}


@lru_cache(maxsize=1)
def compiler_path() -> str | None:
    """Absolute path of the system C compiler, or ``None``."""
    override = os.environ.get("REPRO_CC")
    candidates = (override,) if override else ("cc", "gcc", "clang")
    for cand in candidates:
        if cand:
            found = shutil.which(cand)
            if found:
                return found
    return None


def cc_available() -> bool:
    """Whether the native backend can be used on this machine."""
    return compiler_path() is not None


#: Private per-process fallback cache dir (created lazily, guarded by
#: ``_lock``); used when the preferred path fails :func:`_dir_trusted`.
_fallback_dir: str | None = None


def _dir_trusted(path: str) -> bool:
    """Whether ``path`` is safe to load shared objects from.

    ``os.makedirs(..., exist_ok=True)`` happily accepts a pre-existing
    directory (or symlink to one) created by *another* user, and the
    ``.so`` names inside are predictable hashes — so before trusting
    the cache we require a real directory (no symlink), owned by the
    current uid, with no group/other write bits.
    """
    try:
        st = os.lstat(path)
    except OSError:
        return False
    if not stat.S_ISDIR(st.st_mode):
        return False
    if hasattr(os, "getuid") and st.st_uid != os.getuid():
        return False
    return not st.st_mode & (stat.S_IWGRP | stat.S_IWOTH)


def _cache_dir() -> str:
    global _fallback_dir
    path = os.environ.get("REPRO_JIT_CACHE")
    if not path:
        uid = os.getuid() if hasattr(os, "getuid") else 0
        path = os.path.join(tempfile.gettempdir(), f"repro-jit-{uid}")
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
    except OSError:
        path = None
    if path is not None and _dir_trusted(path):
        return path
    # Untrusted (foreign-owned, world/group-writable, symlinked) or
    # uncreatable: never load code from it.  Fall back to a private
    # per-process directory — caching degrades, security does not.
    # The directory is removed again at interpreter exit; nothing
    # re-reads it across processes, so leaving it would only litter
    # the temp dir with one orphan per process.
    if _fallback_dir is None:
        _fallback_dir = tempfile.mkdtemp(prefix="repro-jit-")
        atexit.register(_cleanup_fallback_dir)
    return _fallback_dir


def _cleanup_fallback_dir() -> None:
    """Remove the per-process fallback cache dir (atexit; the loaded
    ``.so`` stays mapped, so deleting the file is safe on POSIX)."""
    global _fallback_dir
    path, _fallback_dir = _fallback_dir, None
    if path is not None:
        shutil.rmtree(path, ignore_errors=True)


def vec_words(word_bits: int) -> int:
    """Lane words held by one kernel element ``W`` at ``word_bits``."""
    return VEC_WORDS if word_bits == 64 else 1


def _word_typedef(word_bits: int) -> str:
    # aligned(8): numpy buffers are only word-aligned, and a vector
    # type's natural 32-byte alignment would license aligned loads.
    if word_bits == 64:
        return (f"typedef uint64_t W __attribute__((vector_size("
                f"{8 * VEC_WORDS}), aligned(8)));")
    return f"typedef {_C_TYPES[word_bits]} W;"


def _check_layout(plan: CellPlan, expected: list[tuple[str, int]],
                  n_outputs: int, what: str) -> None:
    if list(plan.input_layout) != expected:
        raise JitError(f"plan input layout does not match the fused "
                       f"{what}/best netlist")
    if len(plan.outputs) != n_outputs:
        raise JitError(f"fused {what} plan must have {n_outputs} "
                       f"outputs, got {len(plan.outputs)}")


def _gate_body(plan: CellPlan, load: list[str],
               stores: list[str]) -> str:
    """Straight-line C for one lane element: a ``const W`` per used
    input (``load[k]`` reads flat input ``k``), one per gate, then
    ``stores[j] = <output j>``.  Constants are vector-safe literals —
    ``(W)0`` does not compile when ``W`` is a vector type."""
    used = {r[1] for op in plan.ops for r in op[1:]
            if r is not None and r[0] == "in"}
    used.update(r[1] for r in plan.outputs if r[0] == "in")

    def nm(r: Ref) -> str:
        if r[0] == "in":
            return f"i{r[1]}"
        if r[0] == "op":
            return f"t{r[1]}"
        return "(~(W){0})" if r[1] else "((W){0})"

    body = [f"const W i{k} = {load[k]};" for k in sorted(used)]
    for j, (kind, a, b) in enumerate(plan.ops):
        if kind == "NOT":
            expr = f"~{nm(a)}"
        else:
            sym = {"AND": "&", "OR": "|", "XOR": "^"}[kind]
            expr = f"{nm(a)} {sym} {nm(b)}"  # type: ignore[arg-type]
        body.append(f"const W t{j} = {expr};")
    body += [f"{dst} = {nm(r)};" for dst, r in zip(stores, plan.outputs)]
    return "\n                ".join(body)


def _planes(ptr: str, n: int, stride: str) -> list[str]:
    return [f"{ptr}[{k} * {stride} + l]" for k in range(n)]


def c_step_source(plan: CellPlan, s: int, eps: int, word_bits: int) -> str:
    """Emit the C source of the fused wavefront step for ``plan``.

    ``plan`` must come from a netlist with buses ``up``/``left``/
    ``diag``/``best`` (``s`` bits each) and ``x``/``y`` (``eps`` bits)
    and ``2 * s`` outputs: the fresh cell planes followed by the
    updated running-max planes (see
    :func:`repro.core.netlist.build_sw_cell_best_netlist`).
    """
    check_word_bits(word_bits)
    _check_layout(plan,
                  [(bus, h) for bus in ("up", "left", "diag")
                   for h in range(s)]
                  + [("x", b) for b in range(eps)]
                  + [("y", b) for b in range(eps)]
                  + [("best", h) for h in range(s)],
                  2 * s, "SW-cell")
    inner = _gate_body(
        plan,
        _planes("up", s, "ps") + _planes("left", s, "ps")
        + _planes("diag", s, "ps") + _planes("xr", eps, "cs")
        + _planes("yr", eps, "ds") + _planes("br", s, "bs"),
        _planes("dst", s, "ps") + _planes("br", s, "bs"))

    return f"""#include <stdint.h>

{_word_typedef(word_bits)}

void {STEP_SYMBOL}(W* restrict p1, W* restrict p2, W* restrict best,
                   const W* restrict xp, const W* restrict yp,
                   long t, long lo, long hi, long m, long n, long L)
{{
    const long ps = (m + 1) * L;   /* state plane stride     */
    const long bs = m * L;         /* best plane stride      */
    const long cs = m * L;         /* x character planes     */
    const long ds = n * L;         /* y character planes     */
    (void)n;
    for (long r = hi; r >= lo; --r) {{
        const W* up   = p1 + r * L;
        const W* left = p1 + (r + 1) * L;
        const W* diag = p2 + r * L;
        W* dst        = p2 + (r + 1) * L;
        const W* xr   = xp + r * L;
        const W* yr   = yp + (t - r) * L;
        W* br         = best + r * L;
        for (long l = 0; l < L; ++l) {{
                {inner}
        }}
    }}
}}
"""


def c_gotoh_step_source(plan: CellPlan, s: int, eps: int,
                        word_bits: int) -> str:
    """Emit the C source of the fused affine (Gotoh) wavefront step.

    ``plan`` must come from a netlist with buses ``h_left``/``e_left``/
    ``h_up``/``f_up``/``h_diag``/``best`` (``s`` bits each) and
    ``x``/``y`` (``eps`` bits) and ``4 * s`` outputs: H, E, F and the
    updated running max (see
    :func:`repro.core.netlist.build_gotoh_cell_best_netlist`).

    State layout mirrors the linear step with two extra in-place plane
    sets: ``h1``/``h2`` double-buffer H exactly like ``p1``/``p2``
    (``h2`` doubles as the diagonal input, hence the descending row
    loop), while ``e``/``f`` are single-buffered — E is read and
    rewritten at padded row ``r + 1`` (same diagonal column shift) and
    F read at ``r``, written at ``r + 1``, which descending order also
    keeps hazard-free.
    """
    check_word_bits(word_bits)
    _check_layout(plan,
                  [(bus, h) for bus in ("h_left", "e_left", "h_up",
                                        "f_up", "h_diag")
                   for h in range(s)]
                  + [("x", b) for b in range(eps)]
                  + [("y", b) for b in range(eps)]
                  + [("best", h) for h in range(s)],
                  4 * s, "Gotoh-cell")
    inner = _gate_body(
        plan,
        _planes("hl", s, "ps") + _planes("el", s, "ps")
        + _planes("hu", s, "ps") + _planes("fu", s, "ps")
        + _planes("hd", s, "ps") + _planes("xr", eps, "cs")
        + _planes("yr", eps, "ds") + _planes("br", s, "bs"),
        _planes("dh", s, "ps") + _planes("de", s, "ps")
        + _planes("df", s, "ps") + _planes("br", s, "bs"))

    return f"""#include <stdint.h>

{_word_typedef(word_bits)}

void {GOTOH_STEP_SYMBOL}(const W* restrict h1, W* restrict h2,
                         W* restrict e, W* restrict f, W* restrict best,
                         const W* restrict xp, const W* restrict yp,
                         long t, long lo, long hi, long m, long n, long L)
{{
    const long ps = (m + 1) * L;   /* state plane stride     */
    const long bs = m * L;         /* best plane stride      */
    const long cs = m * L;         /* x character planes     */
    const long ds = n * L;         /* y character planes     */
    (void)n;
    for (long r = hi; r >= lo; --r) {{
        const W* hl = h1 + (r + 1) * L;
        const W* el = e + (r + 1) * L;
        const W* hu = h1 + r * L;
        const W* fu = f + r * L;
        const W* hd = h2 + r * L;
        W* dh       = h2 + (r + 1) * L;
        W* de       = e + (r + 1) * L;
        W* df       = f + (r + 1) * L;
        const W* xr = xp + r * L;
        const W* yr = yp + (t - r) * L;
        W* br       = best + r * L;
        for (long l = 0; l < L; ++l) {{
                {inner}
        }}
    }}
}}
"""


def _build(source: str, cc: str, so_path: str) -> None:
    src_path = so_path[:-3] + ".c"
    with open(src_path, "w") as fh:
        fh.write(source)
    tmp = f"{so_path}.{os.getpid()}.tmp"
    base = [cc, "-O3", "-shared", "-fPIC", "-o", tmp, src_path]
    attempts = [base[:1] + ["-march=native"] + base[1:], base]
    last = None
    for argv in attempts:
        proc = subprocess.run(argv, capture_output=True, text=True)
        if proc.returncode == 0:
            os.replace(tmp, so_path)
            return
        last = proc
    tail = (last.stderr or "").strip()[-500:] if last is not None else ""
    raise JitError(f"C compilation failed ({cc}): {tail}")


def compile_step(source: str, symbol: str = STEP_SYMBOL,
                 num_ptr_args: int = 5):
    """Compile ``source`` and return the loaded step function.

    ``symbol`` names the exported kernel (:data:`STEP_SYMBOL` for the
    linear step, :data:`GOTOH_STEP_SYMBOL` with ``num_ptr_args=7`` for
    the affine one); every step kernel takes ``num_ptr_args`` pointers
    followed by six longs.  See :func:`compile_kernel`.
    """
    return compile_kernel(source, symbol, [ctypes.c_void_p] * num_ptr_args
                          + [ctypes.c_long] * 6)


def compile_kernel(source: str, symbol: str, argtypes):
    """Compile ``source`` and return its exported function ``symbol``
    with the given :mod:`ctypes` ``argtypes`` (and no return value).

    The one compile-and-load path for every native kernel.  Idempotent
    and cached: the same source returns the same :mod:`ctypes` function
    object for the life of the process, and the shared object persists
    on disk across processes.  Raises
    :class:`~repro.jit.compiler.JitError` when no compiler is available
    or the build fails.
    """
    cc = compiler_path()
    if cc is None:
        raise JitError(
            "no C compiler found (set $REPRO_CC or install cc/gcc/clang); "
            "use the NumPy jit backend instead"
        )
    digest = hashlib.sha256(source.encode()).hexdigest()[:24]
    with _lock:
        lib = _libs.get(digest)
        if lib is None:
            if should_inject("jit.cc.compile"):
                raise JitError(
                    "injected fault (site jit.cc.compile): C "
                    "compilation reported as failed"
                )
            so_path = os.path.join(_cache_dir(), f"step-{digest}.so")
            if not os.path.exists(so_path):
                _build(source, cc, so_path)
            if should_inject("jit.cc.load"):
                raise JitError(
                    f"injected fault (site jit.cc.load): refusing to "
                    f"load {so_path}"
                )
            try:
                lib = ctypes.CDLL(so_path)
            except OSError as exc:
                # A stale/corrupt cache entry: rebuild once.
                os.unlink(so_path)
                _build(source, cc, so_path)
                try:
                    lib = ctypes.CDLL(so_path)
                except OSError:
                    raise JitError(f"cannot load {so_path}: {exc}") from exc
            _libs[digest] = lib
    fn = getattr(lib, symbol)
    fn.argtypes = list(argtypes)
    fn.restype = None
    return fn
