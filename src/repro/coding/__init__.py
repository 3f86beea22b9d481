"""Error-correction-code substrate.

This package implements, from scratch, every code used or implied by the
paper plus the generic machinery needed to analyse them:

* :mod:`repro.coding.matrices` — GF(2) products and systematic forms.
* :mod:`repro.coding.base` — the :class:`LinearBlockCode` abstraction with
  encoding, syndrome decoding, and weight helpers.
* :mod:`repro.coding.hamming` — Hamming(2^m-1, 2^m-1-m) codes and their
  shortened variants, including the paper's H(7,4) and H(71,64).
* :mod:`repro.coding.extended_hamming` — SECDED (extended Hamming) codes.
* :mod:`repro.coding.parity`, :mod:`repro.coding.repetition` — simple
  detection-only and majority-vote codes used as baselines.
* :mod:`repro.coding.bch` — double-error-correcting BCH codes over GF(2^m)
  (an "other coding techniques can be used" extension mentioned in the
  paper).
* :mod:`repro.coding.crc` — cyclic redundancy checks for detection-only
  schemes.
* :mod:`repro.coding.uncoded` — the pass-through "w/o ECC" scheme.
* :mod:`repro.coding.packed` — the packed ``uint64`` bitplane substrate the
  batch coding/channel/simulation fast paths run on.
* :mod:`repro.coding.theory` — analytic post-decoding BER over a binary
  symmetric channel (paper Eq. 2 and generalisations).
* :mod:`repro.coding.montecarlo` — Monte-Carlo BER estimation.
* :mod:`repro.coding.registry` — name-based construction ("H(7,4)",
  "H(71,64)", "uncoded", ...).
"""

from .base import (
    LinearBlockCode,
    PackedBatchDecodeResult,
    decode_blocks_packed,
    encode_blocks_packed,
)
from .packed import pack_bits, popcount_rows, prefix_mask, unpack_bits, words_per_block
from .galois import GaloisField, get_field
from .uncoded import UncodedScheme
from .hamming import HammingCode, ShortenedHammingCode, hamming_parameters_for_message_length
from .extended_hamming import ExtendedHammingCode
from .parity import SingleParityCheckCode
from .repetition import RepetitionCode
from .bch import BCHCode
from .crc import CyclicRedundancyCheck
from .interleaving import BlockInterleaver
from .registry import available_codes, get_code, register_code
from .theory import (
    code_rate,
    coded_ber_bounded_distance,
    hamming_output_ber,
    raw_ber_for_target_output_ber,
)
from .montecarlo import MonteCarloBERResult, estimate_ber_monte_carlo

__all__ = [
    "LinearBlockCode",
    "PackedBatchDecodeResult",
    "decode_blocks_packed",
    "encode_blocks_packed",
    "pack_bits",
    "unpack_bits",
    "popcount_rows",
    "prefix_mask",
    "words_per_block",
    "GaloisField",
    "get_field",
    "UncodedScheme",
    "HammingCode",
    "ShortenedHammingCode",
    "hamming_parameters_for_message_length",
    "ExtendedHammingCode",
    "SingleParityCheckCode",
    "RepetitionCode",
    "BCHCode",
    "CyclicRedundancyCheck",
    "BlockInterleaver",
    "available_codes",
    "get_code",
    "register_code",
    "code_rate",
    "coded_ber_bounded_distance",
    "hamming_output_ber",
    "raw_ber_for_target_output_ber",
    "MonteCarloBERResult",
    "estimate_ber_monte_carlo",
]
