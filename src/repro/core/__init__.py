"""The BPBC technique: bit-level primitives, transpose, circuits, engines."""

from .affine_bpbc import bpbc_gotoh_wavefront
from .alphabet import DNA, MURPHY10, PROTEIN, RNA, Alphabet
from .approx_matching import bpbc_count_mismatches, bpbc_k_mismatch
from .bitops import OpCounter
from .bitsliced import BitSlicedUInt
from .netlist import Netlist, build_sw_cell_netlist
from .circuits import add_b, greater_than, matching_b, max_b, ssub_b, sw_cell
from .encoding import decode, encode, encode_batch_bit_transposed
from .string_matching import bpbc_string_matching, match_offsets
from .sw_bpbc import (bpbc_sw_sequential, bpbc_sw_wavefront,
                      bpbc_sw_wavefront_planes)
from .transpose import (count_reduced_ops, table1_row, transpose_bits,
                        transpose_bits_reduced, untranspose_bits,
                        untranspose_bits_reduced)

__all__ = [
    "OpCounter", "BitSlicedUInt",
    "greater_than", "max_b", "add_b", "ssub_b", "matching_b", "sw_cell",
    "encode", "decode", "encode_batch_bit_transposed",
    "bpbc_string_matching", "match_offsets",
    "bpbc_sw_sequential", "bpbc_sw_wavefront",
    "bpbc_sw_wavefront_planes", "bpbc_gotoh_wavefront",
    "Alphabet", "DNA", "RNA", "PROTEIN", "MURPHY10",
    "bpbc_k_mismatch", "bpbc_count_mismatches",
    "Netlist", "build_sw_cell_netlist",
    "transpose_bits", "untranspose_bits", "transpose_bits_reduced",
    "untranspose_bits_reduced", "count_reduced_ops", "table1_row",
]
