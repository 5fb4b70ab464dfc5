"""General ``eps``-bit alphabets for the BPBC engines.

The paper develops BPBC for DNA (``eps = 2`` bits per character) but
every circuit is parametric in the character width: ``matching_B``
compares ``eps`` bit planes and everything else operates on scores.
This module provides the alphabet abstraction — encode/decode, plane
conversion — for any alphabet up to 64 symbols, with ready-made
instances:

* :data:`DNA` — the paper's A/G/C/T code (2 bits),
* :data:`RNA` — A/G/C/U (2 bits),
* :data:`PROTEIN` — the 20 amino acids (5 bits),
* :data:`MURPHY10` — Murphy's reduced 10-letter amino alphabet
  (4 bits), a common trick to cut circuit width for protein search.

Costs scale as the circuits predict: the SW cell gains exactly
``2 * eps`` operations per extra character bit (the match-flag loop),
so protein search costs ``+6`` ops per cell over DNA — measured in the
tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bitops import BitOpsError, pack_lanes, unpack_lanes

__all__ = ["Alphabet", "DNA", "RNA", "PROTEIN", "PROTEIN_X", "MURPHY10"]


@dataclass(frozen=True)
class Alphabet:
    """A fixed-size alphabet with a dense binary code.

    ``letters[i]`` is the character with code ``i``; ``aliases`` maps
    additional accepted characters onto canonical ones (e.g. lowercase,
    or merged groups in reduced alphabets).
    """

    name: str
    letters: str
    aliases: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.letters:
            raise BitOpsError("alphabet needs at least one letter")
        if len(set(self.letters)) != len(self.letters):
            raise BitOpsError(f"duplicate letters in {self.letters!r}")
        if len(self.letters) > 64:
            raise BitOpsError("alphabets above 64 symbols unsupported")
        for src, dst in self.aliases.items():
            if dst not in self.letters:
                raise BitOpsError(
                    f"alias target {dst!r} not in alphabet"
                )

    @property
    def size(self) -> int:
        """Number of distinct symbols."""
        return len(self.letters)

    @property
    def bits(self) -> int:
        """Bits per character (the paper's epsilon)."""
        return max(1, (self.size - 1).bit_length())

    @property
    def query_pad(self) -> int:
        """Sentinel code padding *query* sequences: the first code past
        the alphabet, so it never equals any real character — and never
        equals :attr:`subject_pad`, so pad-vs-pad never matches either.
        (For DNA these are the classic 4/5 of
        :mod:`repro.core.encoding`.)"""
        return self.size

    @property
    def subject_pad(self) -> int:
        """Sentinel code padding *subject* sequences (see
        :attr:`query_pad`)."""
        return self.size + 1

    @property
    def pad_bits(self) -> int:
        """Bits per character once the sentinel pads are representable
        (``>= bits``; 3 for DNA, still 5 for the 22-letter protein
        alphabet)."""
        return max(self.bits, self.subject_pad.bit_length())

    def code(self, ch: str) -> int:
        """Code of one character (resolving aliases, case-folding)."""
        ch = self.aliases.get(ch, self.aliases.get(ch.upper(),
                                                   ch.upper()))
        idx = self.letters.find(ch)
        if idx < 0:
            raise BitOpsError(
                f"character {ch!r} not in alphabet {self.name}"
            )
        return idx

    def encode(self, seq: str) -> np.ndarray:
        """Encode a string into a ``uint8`` code array."""
        return np.array([self.code(c) for c in seq], dtype=np.uint8)

    def decode(self, codes) -> str:
        """Decode a code array back into a string."""
        codes = np.asarray(codes)
        bad = (codes < 0) | (codes >= self.size)
        if bad.any():
            raise BitOpsError(
                f"code {int(codes[bad][0])} out of range for alphabet "
                f"{self.name}"
            )
        letters = np.frombuffer(self.letters.encode("utf-32-le"), np.uint32)
        return letters[codes.astype(np.intp)].tobytes().decode("utf-32-le")

    def encode_batch(self, seqs: list[str]) -> np.ndarray:
        """Encode equal-length strings into a ``(P, n)`` code matrix."""
        if not seqs:
            raise BitOpsError("empty batch")
        n = len(seqs[0])
        if any(len(s) != n for s in seqs):
            raise BitOpsError("batch sequences must share one length")
        return np.stack([self.encode(s) for s in seqs])

    def batch_planes(self, codes: np.ndarray,
                     word_bits: int) -> np.ndarray:
        """Bit-transpose a ``(P, n)`` code matrix into character
        planes of shape ``(bits, n, lanes)`` (plane ``b`` = bit ``b``,
        LSB first)."""
        codes = np.asarray(codes)
        if codes.ndim != 2:
            raise BitOpsError(
                f"expected (P, n) codes, got shape {codes.shape}"
            )
        if codes.size and codes.max() >= self.size:
            raise BitOpsError(
                f"codes exceed alphabet {self.name} (size {self.size})"
            )
        eps = self.bits
        planes = []
        for b in range(eps):
            bits = ((codes >> b) & 1).T  # (n, P)
            planes.append(pack_lanes(bits, word_bits))
        return np.stack(planes)

    def batch_from_planes(self, planes: np.ndarray, word_bits: int,
                          count: int | None = None) -> np.ndarray:
        """Inverse of :meth:`batch_planes`: recover ``(P, n)`` codes."""
        planes = np.asarray(planes)
        if planes.ndim != 3 or planes.shape[0] != self.bits:
            raise BitOpsError(
                f"expected ({self.bits}, n, lanes) planes, got "
                f"{planes.shape}"
            )
        acc = None
        for b in range(self.bits):
            bits = unpack_lanes(planes[b], word_bits,
                                count=count).astype(np.uint8)
            acc = bits << b if acc is None else acc | (bits << b)
        return acc.T.copy()


#: The paper's DNA alphabet and code (A=00, T=01, G=10, C=11).
DNA = Alphabet(name="DNA", letters="ATGC")

#: RNA: uracil replaces thymine, same 2-bit code; ``T`` aliases ``U``.
RNA = Alphabet(name="RNA", letters="AUGC", aliases={"T": "U"})

#: The 20 standard amino acids (5-bit codes, alphabetical one-letter).
PROTEIN = Alphabet(name="protein", letters="ACDEFGHIKLMNPQRSTVWY")

#: The protein *engine* alphabet: 20 residues plus the unknown-residue
#: wildcard ``X`` and the stop ``*`` — the 22 symbols every shipped
#: substitution matrix scores (5-bit codes; sentinel pads 22/23 still
#: fit the same 5 planes).  Selenocysteine ``U`` and pyrrolysine ``O``
#: alias their conventional stand-ins C and K.
PROTEIN_X = Alphabet(name="protein-x", letters="ACDEFGHIKLMNPQRSTVWYX*",
                     aliases={"U": "C", "O": "K"})

#: Murphy's reduced 10-letter amino alphabet: hydrophobic and charged
#: groups merged, 4-bit codes.  Group representatives: L (LVIM),
#: C, A, G, S (ST), P, F (FYW), E (EDNQ), K (KR), H.
MURPHY10 = Alphabet(
    name="murphy10",
    letters="LCAGSPFEKH",
    aliases={"V": "L", "I": "L", "M": "L", "T": "S", "Y": "F",
             "W": "F", "D": "E", "N": "E", "Q": "E", "R": "K"},
)
