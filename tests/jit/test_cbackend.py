"""Tests for repro.jit.cbackend: the optional native step backend."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.netlist import (build_gotoh_cell_best_netlist,
                                build_sw_cell_best_netlist,
                                build_sw_cell_netlist)
from repro.jit import JitError, cc_available, plan_netlist
from repro.jit.cbackend import (STEP_SYMBOL, VEC_WORDS, c_gotoh_step_source,
                                c_step_source, compile_step, vec_words)

needs_cc = pytest.mark.skipif(not cc_available(),
                              reason="no C compiler on this machine")


def _fused_plan(s=5, eps=2):
    return plan_netlist(build_sw_cell_best_netlist(s, 1, 2, 1, eps=eps))


class TestCStepSource:
    def test_emits_step_symbol(self):
        source = c_step_source(_fused_plan(), 5, 2, 64)
        assert STEP_SYMBOL in source
        assert "uint64_t" in source

    def test_word_width_selects_c_type(self):
        assert "uint32_t" in c_step_source(_fused_plan(), 5, 2, 32)

    def test_64_bit_word_is_a_vector(self):
        """64-bit steps compute on VEC_WORDS-word GCC vectors, only
        word-aligned (numpy buffers are not vector-aligned)."""
        assert VEC_WORDS == 4 and vec_words(64) == VEC_WORDS
        typedef = ("typedef uint64_t W __attribute__((vector_size(32), "
                   "aligned(8)));")
        assert typedef in c_step_source(_fused_plan(), 5, 2, 64)
        gotoh = plan_netlist(build_gotoh_cell_best_netlist(
            5, 3, 1, c1=2, c2=1, eps=2))
        assert typedef in c_gotoh_step_source(gotoh, 5, 2, 64)

    @pytest.mark.parametrize("w, ctype", [(8, "uint8_t"), (16, "uint16_t"),
                                          (32, "uint32_t")])
    def test_narrow_words_stay_scalar(self, w, ctype):
        assert vec_words(w) == 1
        source = c_step_source(_fused_plan(), 5, 2, w)
        assert f"typedef {ctype} W;" in source
        assert "vector_size" not in source

    def test_row_loop_descends(self):
        """The descending row loop is what makes the in-place p2
        write safe; pin it."""
        source = c_step_source(_fused_plan(), 5, 2, 64)
        assert "for (long r = hi; r >= lo; --r)" in source

    def test_rejects_plain_cell_plan(self):
        """A plan without the fused best bus has the wrong layout."""
        plan = plan_netlist(build_sw_cell_netlist(5, 1, 2, 1))
        with pytest.raises(JitError):
            c_step_source(plan, 5, 2, 64)

    def test_rejects_wrong_width(self):
        with pytest.raises(JitError):
            c_step_source(_fused_plan(s=5), 6, 2, 64)


class TestCompileStep:
    @needs_cc
    def test_compiles_and_caches(self):
        source = c_step_source(_fused_plan(), 5, 2, 64)
        fn1 = compile_step(source)
        fn2 = compile_step(source)
        assert callable(fn1)
        # Same .so handle for the same source digest.
        assert fn1.argtypes == fn2.argtypes

    @needs_cc
    def test_kernel_computes_one_diagonal(self):
        """Drive the raw kernel for a 1x1 DP: the single cell's score
        must equal max(0, diag + w(x, y)) for the (2, 1, 1) scheme.

        At 64 bits the kernel element is a vector of VEC_WORDS lane
        words and ``L`` counts vectors, so every plane holds
        ``VEC_WORDS`` words and the call passes ``L = 1``."""
        s, eps, w = 4, 2, 64
        source = c_step_source(_fused_plan(s=s, eps=eps), s, eps, w)
        fn = compile_step(source)
        m = n = 1
        lanes = VEC_WORDS
        p1 = np.zeros((s, m + 1, lanes), np.uint64)
        p2 = np.zeros((s, m + 1, lanes), np.uint64)
        best = np.zeros((s, m, lanes), np.uint64)
        # x == y on every lane bit -> every lane scores the match: 2.
        xp = np.zeros((eps, m, lanes), np.uint64)
        yp = np.zeros((eps, n, lanes), np.uint64)
        xp[0] = yp[0] = ~np.uint64(0)
        fn(p1.ctypes.data, p2.ctypes.data, best.ctypes.data,
           xp.ctypes.data, yp.ctypes.data, 0, 0, 0, m, n, 1)
        # Score 2 = bit 1 set on every lane of every word.
        for word in range(lanes):
            assert int(p2[1, 1, word]) == int(~np.uint64(0))
            assert int(p2[0, 1, word]) == 0
            assert int(best[1, 0, word]) == int(~np.uint64(0))

    @needs_cc
    def test_folded_constant_outputs_compile_as_vectors(self):
        """Outputs folded to ``0`` / ``~0`` need vector literals:
        ``(W)0`` does not compile when ``W`` is a vector."""
        s, eps = 4, 2
        plan = _fused_plan(s=s, eps=eps)
        outs = list(plan.outputs)
        outs[0], outs[s] = ("const", 0), ("const", 1)
        plan = dataclasses.replace(plan, outputs=tuple(outs))
        source = c_step_source(plan, s, eps, 64)
        assert "((W){0})" in source and "(~(W){0})" in source
        fn = compile_step(source)
        m = n = 1
        p1 = np.zeros((s, m + 1, VEC_WORDS), np.uint64)
        p2 = np.full((s, m + 1, VEC_WORDS), 7, np.uint64)
        best = np.zeros((s, m, VEC_WORDS), np.uint64)
        xp = np.zeros((eps, m, VEC_WORDS), np.uint64)
        yp = np.zeros((eps, n, VEC_WORDS), np.uint64)
        fn(p1.ctypes.data, p2.ctypes.data, best.ctypes.data,
           xp.ctypes.data, yp.ctypes.data, 0, 0, 0, m, n, 1)
        assert not p2[0, 1].any()
        assert (best[0, 0] == ~np.uint64(0)).all()

    def test_missing_compiler_raises(self, monkeypatch):
        from repro.jit import cbackend

        monkeypatch.setattr(cbackend, "compiler_path", lambda: None)
        with pytest.raises(JitError):
            compile_step("int x;")


class TestCacheDirTrust:
    """The .so cache must never load code from a directory another
    local user could write to (predictable path + predictable
    filenames = planted-library code execution)."""

    def _cache_dir(self, monkeypatch, path):
        from repro.jit import cbackend

        monkeypatch.setenv("REPRO_JIT_CACHE", str(path))
        monkeypatch.setattr(cbackend, "_fallback_dir", None)
        return cbackend._cache_dir()

    def test_private_dir_accepted(self, tmp_path, monkeypatch):
        want = tmp_path / "cache"
        got = self._cache_dir(monkeypatch, want)
        assert got == str(want)
        assert (want.stat().st_mode & 0o077) == 0  # created 0700

    def test_group_or_world_writable_dir_refused(self, tmp_path,
                                                 monkeypatch):
        import os

        if not hasattr(os, "getuid"):
            pytest.skip("no POSIX permissions on this platform")
        for mode in (0o770, 0o707, 0o777):
            loose = tmp_path / f"loose-{mode:o}"
            loose.mkdir(mode=0o700)
            os.chmod(loose, mode)
            got = self._cache_dir(monkeypatch, loose)
            assert got != str(loose)
            assert os.path.isdir(got)
            # And the fallback itself must pass the trust check.
            from repro.jit.cbackend import _dir_trusted

            assert _dir_trusted(got)

    def test_symlinked_dir_refused(self, tmp_path, monkeypatch):
        real = tmp_path / "real"
        real.mkdir(mode=0o700)
        link = tmp_path / "link"
        link.symlink_to(real)
        got = self._cache_dir(monkeypatch, link)
        assert got != str(link)

    def test_fallback_is_stable_within_process(self, tmp_path,
                                               monkeypatch):
        import os

        if not hasattr(os, "getuid"):
            pytest.skip("no POSIX permissions on this platform")
        loose = tmp_path / "loose"
        loose.mkdir(mode=0o700)
        os.chmod(loose, 0o777)
        first = self._cache_dir(monkeypatch, loose)
        from repro.jit import cbackend

        monkeypatch.setenv("REPRO_JIT_CACHE", str(loose))
        assert cbackend._cache_dir() == first

    def test_fallback_dir_removed_at_interpreter_exit(self, tmp_path):
        """The per-process mkdtemp fallback dir must not outlive the
        process: a child interpreter forces the fallback path (the
        preferred cache path is a plain *file*, so it is untrusted),
        prints the fallback dir, and exits cleanly — after which the
        dir must be gone (atexit cleanup), not temp-dir litter."""
        import os
        import subprocess
        import sys

        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        child = (
            "import os, sys\n"
            "from repro.jit import cbackend\n"
            "d = cbackend._cache_dir()\n"
            "assert os.path.isdir(d), d\n"
            f"assert d != {str(blocker)!r}\n"
            "print(d)\n"
        )
        env = dict(os.environ,
                   REPRO_JIT_CACHE=str(blocker),
                   PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", child],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        fallback = proc.stdout.strip()
        assert fallback
        assert not os.path.exists(fallback)
