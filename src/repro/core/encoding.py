"""DNA alphabet encoding and wordwise <-> bit-transpose conversions.

The paper encodes the four DNA bases in 2 bits — ``A=00, G=10, C=11,
T=01`` — and stores batches of strands in one of three layouts:

* **wordwise**: one character per array element (what "most
  applications" hand the library; our canonical exchange format is a
  NumPy ``uint8`` array of codes, or a Python string),
* **packed**: four 2-bit characters per byte (mentioned by the paper as
  saving space but not bandwidth),
* **bit-transpose**: the BPBC format — two lane-array planes ``(H, L)``
  per position, where bit ``k`` of word ``l`` in plane ``H``/``L`` is
  the high/low code bit of instance ``l * word_bits + k``.

Conversions to the bit-transpose format are provided both via direct
lane packing (:func:`encode_batch_bit_transposed`) and via the paper's
register-level 32x32 bit-matrix transpose
(:func:`encode_batch_via_bit_matrix`); the two agree bit-for-bit and
the latter is the one whose operation count appears in Table I.
"""

from __future__ import annotations

import numpy as np

from .bitops import (
    BitOpsError,
    OpCounter,
    lane_count,
    pack_lanes,
    unpack_lanes,
    word_dtype,
)
from .transpose import transpose_bits_reduced

__all__ = [
    "ALPHABET",
    "CODE_OF",
    "BASE_OF",
    "CHAR_BITS",
    "QUERY_PAD",
    "SUBJECT_PAD",
    "PAD_BITS",
    "scheme_pads",
    "encode",
    "decode",
    "encode_batch",
    "encode_batch_bit_transposed",
    "encode_batch_char_planes",
    "encode_batch_via_bit_matrix",
    "decode_batch_bit_transposed",
    "pack_2bit",
    "unpack_2bit",
]

#: DNA bases in code order: code 0=A, 1=T, 2=G, 3=C (A=00, T=01, G=10,
#: C=11 — the paper's §II encoding "A = 00, G = 10, C = 11, and T = 01").
ALPHABET: str = "ATGC"

#: Base character -> 2-bit code.
CODE_OF: dict[str, int] = {base: code for code, base in enumerate(ALPHABET)}

#: 2-bit code -> base character.
BASE_OF: dict[int, str] = {code: base for code, base in enumerate(ALPHABET)}

#: Bits per character (the paper's epsilon).
CHAR_BITS: int = 2

#: Sentinel code padding query tails in mixed-shape batches.  Outside
#: the 2-bit DNA alphabet, so it mismatches every real base *and* the
#: subject sentinel — a padded cell can only lose score, which is what
#: makes sentinel padding exact (see :mod:`repro.serve.packer`).
QUERY_PAD: int = 4

#: Sentinel code padding subject tails (mismatches everything too).
SUBJECT_PAD: int = 5

#: Character bit-planes needed once sentinel codes are in play.
PAD_BITS: int = 3


def scheme_pads(scheme) -> tuple[int, int, int]:
    """``(query_pad, subject_pad, char_bits)`` for a scoring scheme.

    Schemes with an attached alphabet (protein) pad with that
    alphabet's sentinel codes at its pad width; everything else uses
    the DNA constants (pads 4 / 5, ``eps = 3``).
    """
    alph = getattr(scheme, "alphabet", None)
    if alph is not None:
        return alph.query_pad, alph.subject_pad, alph.pad_bits
    return QUERY_PAD, SUBJECT_PAD, PAD_BITS


def encode(seq: str) -> np.ndarray:
    """Encode a DNA string into a ``uint8`` code array (wordwise format)."""
    try:
        return np.frombuffer(
            bytes(CODE_OF[ch] for ch in seq.upper()), dtype=np.uint8
        ).copy()
    except KeyError as exc:
        raise BitOpsError(
            f"invalid DNA base {exc.args[0]!r}; expected one of {ALPHABET}"
        ) from None


def decode(codes: np.ndarray) -> str:
    """Decode a code array back into a DNA string."""
    codes = np.asarray(codes)
    if codes.size and (codes.min() < 0 or codes.max() > 3):
        raise BitOpsError("codes must be in [0, 3]")
    letters = np.frombuffer(ALPHABET.encode("ascii"), dtype=np.uint8)
    return letters[codes.astype(np.intp)].tobytes().decode("ascii")


def encode_batch(seqs: list[str]) -> np.ndarray:
    """Encode equal-length DNA strings into a ``(P, n)`` code matrix."""
    if not seqs:
        raise BitOpsError("empty batch")
    n = len(seqs[0])
    if any(len(s) != n for s in seqs):
        raise BitOpsError("all sequences in a batch must share one length")
    return np.stack([encode(s) for s in seqs])


def encode_batch_bit_transposed(
    codes: np.ndarray, word_bits: int
) -> tuple[np.ndarray, np.ndarray]:
    """Convert a ``(P, n)`` code matrix into bit-transpose planes.

    Returns ``(H, L)``, each of shape ``(n, lanes)`` where ``lanes =
    ceil(P / word_bits)``: ``H[j]`` / ``L[j]`` carry the high / low
    code bit of position ``j`` of every instance (the paper's
    ``Y_j^H`` / ``Y_j^L`` words).  Instances beyond ``P`` are zero
    (code ``A``), which downstream engines must ignore.
    """
    codes = np.asarray(codes)
    if codes.ndim != 2:
        raise BitOpsError(f"expected (P, n) codes, got shape {codes.shape}")
    if codes.size and codes.max() > 3:
        raise BitOpsError("codes must be 2-bit values")
    hi = ((codes >> 1) & 1).T  # (n, P)
    lo = (codes & 1).T
    return (pack_lanes(hi, word_bits), pack_lanes(lo, word_bits))


def encode_batch_char_planes(
    codes: np.ndarray, word_bits: int, char_bits: int = PAD_BITS
) -> np.ndarray:
    """Bit-transpose a ``(P, n)`` code matrix into character planes.

    Returns ``(char_bits, n, lanes)``: plane ``b`` carries bit ``b`` of
    every code.  This is the ``eps``-bit generalisation of
    :func:`encode_batch_bit_transposed` that sentinel-padded batches
    need (codes 4/5 exceed the 2-bit DNA alphabet, so three planes).
    """
    codes = np.asarray(codes)
    if codes.ndim != 2:
        raise BitOpsError(f"expected (P, n) codes, got shape {codes.shape}")
    if codes.size and codes.max() >= (1 << char_bits):
        raise BitOpsError(
            f"codes must fit in {char_bits} bits, got max {codes.max()}"
        )
    return np.stack([
        pack_lanes(((codes >> b) & 1).T, word_bits)
        for b in range(char_bits)
    ])


def decode_batch_bit_transposed(
    H: np.ndarray, L: np.ndarray, word_bits: int, count: int | None = None
) -> np.ndarray:
    """Inverse of :func:`encode_batch_bit_transposed`: recover ``(P, n)``."""
    H = np.asarray(H)
    L = np.asarray(L)
    if H.shape != L.shape or H.ndim != 2:
        raise BitOpsError(
            f"H/L plane shape mismatch: {H.shape} vs {L.shape}"
        )
    hi = unpack_lanes(H, word_bits, count=count)  # (n, P)
    lo = unpack_lanes(L, word_bits, count=count)
    return ((hi << 1) | lo).T.astype(np.uint8)


def encode_batch_via_bit_matrix(
    codes: np.ndarray, word_bits: int, counter: OpCounter | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Bit-transpose conversion through ``w x w`` bit-matrix transposes.

    This is the paper's Step 2 (W2B): characters of ``w`` instances at
    ``w`` consecutive positions form a ``w x w`` matrix of 2-bit values
    which is transposed with the reduced (``s = 2``) schedule of Table
    I — 127 operations per 32x32 block.  Output is identical to
    :func:`encode_batch_bit_transposed`.

    ``codes`` is ``(P, n)``; both axes are padded with zeros (base A)
    up to multiples of ``word_bits`` internally.
    """
    codes = np.asarray(codes)
    if codes.ndim != 2:
        raise BitOpsError(f"expected (P, n) codes, got shape {codes.shape}")
    P, n = codes.shape
    w = word_bits
    dt = word_dtype(w)
    L_words = lane_count(P, w)
    # Pad the instance axis to a whole number of lane words (base A).
    padded = np.zeros((L_words * w, n), dtype=dt)
    padded[:P] = codes
    # For every position j and lane group l, the w instance codes form a
    # w-word array holding 2-bit values — exactly the reduced (s = 2)
    # transpose input of Table I (127 operations per 32x32 block).  The
    # transpose turns word h into bit-plane h: word 0 = low code bits of
    # all w instances, word 1 = high bits.
    vals = padded.reshape(L_words, w, n).transpose(0, 2, 1)
    transposed = transpose_bits_reduced(
        np.ascontiguousarray(vals), w, CHAR_BITS, counter=counter
    )
    Hout = transposed[..., 1].transpose(1, 0)  # (n, L_words)
    Lout = transposed[..., 0].transpose(1, 0)
    return np.ascontiguousarray(Hout), np.ascontiguousarray(Lout)


def pack_2bit(codes: np.ndarray) -> np.ndarray:
    """Pack a ``(..., n)`` code array into the byte-packed format.

    Four 2-bit characters per byte, little-endian within the byte
    (character ``4k + t`` occupies bits ``2t .. 2t+1`` of byte ``k``).
    The paper mentions this format as saving memory but not bandwidth.
    """
    codes = np.asarray(codes)
    if codes.size and codes.max() > 3:
        raise BitOpsError("codes must be 2-bit values")
    n = codes.shape[-1]
    nbytes = -(-n // 4)
    padded = np.zeros(codes.shape[:-1] + (nbytes * 4,), dtype=np.uint8)
    padded[..., :n] = codes
    padded = padded.reshape(codes.shape[:-1] + (nbytes, 4))
    shifts = np.arange(4, dtype=np.uint8) * 2
    return (padded << shifts).sum(axis=-1).astype(np.uint8)


def unpack_2bit(packed: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`pack_2bit`, recovering ``n`` characters."""
    packed = np.asarray(packed, dtype=np.uint8)
    shifts = np.arange(4, dtype=np.uint8) * 2
    codes = (packed[..., :, None] >> shifts) & np.uint8(3)
    codes = codes.reshape(packed.shape[:-1] + (packed.shape[-1] * 4,))
    if n > codes.shape[-1]:
        raise BitOpsError(
            f"cannot unpack {n} characters from {packed.shape[-1]} bytes"
        )
    return codes[..., :n]
