"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings as hypothesis_settings

from repro.core.bitops import WORD_DTYPES

# Wall-clock deadlines are meaningless on shared/loaded CI machines and
# were observed to flake; correctness examples still run in full.
hypothesis_settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
hypothesis_settings.load_profile("repro")


_SHM_DIR = Path("/dev/shm")


def _shm_segments() -> set[str]:
    """Names of the ``multiprocessing.shared_memory`` segments present."""
    if not _SHM_DIR.is_dir():
        return set()
    return {p.name for p in _SHM_DIR.glob("psm_*")}


@pytest.fixture(scope="session", autouse=True)
def no_leaked_shm_segments():
    """Fail the run if it leaves a shared-memory segment behind.

    Every ``multiprocessing.shared_memory`` segment the code under
    test creates must be unlinked by the time the tests finish; one
    that survives outlives the interpreter too and accumulates in
    ``/dev/shm`` run after run.
    """
    before = _shm_segments()
    yield
    leaked = _shm_segments() - before
    assert not leaked, (
        f"test run leaked shared-memory segments: {sorted(leaked)}")


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG; reseed per test for reproducibility."""
    return np.random.default_rng(0xBADC0DE)


def random_words(rng: np.random.Generator, word_bits: int, shape,
                 max_value: int | None = None) -> np.ndarray:
    """Random words of the given width (full range by default)."""
    high = (1 << word_bits) if max_value is None else max_value
    vals = rng.integers(0, high, size=shape, dtype=np.uint64)
    return vals.astype(WORD_DTYPES[word_bits])


ALL_WIDTHS = (8, 16, 32, 64)
MAIN_WIDTHS = (32, 64)  # the widths the paper evaluates
