"""Packet-outcome sampling for the network simulator.

A transfer is carried as fixed-size packets, each protected by an optional
CRC and encoded with the link configuration's ECC.  What the engine needs
per (re)transmission attempt is only the *outcome*: how many packets failed
and were caught by the CRC (candidates for ARQ retransmission), how many
slipped through with residual errors, and how many payload bits those
residual errors corrupted.  Two interchangeable samplers produce that
outcome:

* :class:`ProbabilisticOutcomeSampler` — the fast default.  Per-block
  decode failures are i.i.d. Bernoulli in the decoder's analytic
  frame-error probability (:func:`repro.coding.theory.block_error_probability`,
  exact for the paper's Hamming codes), sampled as one attempt-level gate
  draw plus a conditional failed-block pattern for the rare attempts the
  gate flags; CRC escapes use the standard ``2^-width`` random-error
  approximation, and residual bit counts are drawn with the
  dominant-error-event conditional mean (a weight-``2t+1`` codeword error
  per failed block).  No codeword ever materialises, which is what keeps
  the engine in the 10^6 packets/s range.

  The sampler's stream contract is what makes the epoch-batched engine
  possible: every attempt consumes exactly *one* double from the primary
  stream — compared against the attempt-level failure probability
  ``1 - (1 - p_block)^(packets x blocks)``, so "any block failed" is
  decided without materialising per-block uniforms — while the
  data-dependent draws of the rare failing attempts (the conditional
  failed-block pattern, CRC escapes, residual-bit binomials) come from a
  separate *resolution* stream.  Because ``Generator.random`` fills
  sequentially from the bit stream, one vectorized primary draw for many
  attempts is bit-identical to per-attempt draws — so the batched engine
  draws whole epochs at once (one uniform per queued attempt against its
  :meth:`~ProbabilisticOutcomeSampler.attempt_failure_probability`, and
  :meth:`~ProbabilisticOutcomeSampler.resolve_failed_attempt` for the
  attempts it flags) and stays byte-identical to the reference engine's
  per-event draws.  The per-block joint distribution is unchanged: the
  conditional pattern (first failed block truncated-geometric, the rest
  i.i.d. Bernoulli) is exactly i.i.d. per-block failures conditioned on at
  least one.
* :class:`BitExactOutcomeSampler` — the cross-validation twin.  A real
  fault-injection model
  (:class:`~repro.simulation.faults.IndependentErrorModel` /
  :class:`~repro.simulation.faults.BurstErrorModel`) corrupts every
  attempt's frames, and the real decoders correct them on the packed
  ``uint64`` substrate.  The outcomes are computed on the all-zero
  codeword.  The decoders are linear and syndrome-driven,
  ``decode(c ⊕ e) == c ⊕ decode(e)``, so a packet's residual frame is the
  decoded error mask whatever its payload.  The CRC has zero
  initialisation and no final XOR, so it is linear too: a received packet
  ``p ⊕ r`` passes exactly when the CRC of the residual payload equals the
  residual CRC bits.  Residual payload errors are popcounts against
  per-block payload-column masks, and only the rare packets whose
  protected bits were actually disturbed re-run the CRC, on their
  residual bits.  The payload draw it replaces is still skipped on the
  generator, so the random stream is the encode round trip's.  Still
  slower than the probabilistic mode, but no longer by orders of
  magnitude — it is the ground truth the probabilistic mode is tested
  against (``tests/netsim/test_engine.py``).

Both samplers draw from engine-owned generators (a primary stream plus, for
the probabilistic sampler, the derived resolution stream), so a simulation's
outcome depends only on its seed and event order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# ``encode_blocks_packed`` is not called here; it stays bound because
# perfbench's traced run patches both dispatchers by name in this module.
from ..coding.base import decode_blocks_packed, encode_blocks_packed  # noqa: F401
from ..coding.crc import CyclicRedundancyCheck
from ..coding.montecarlo import skip_fair_bits
from ..coding.packed import bit_weights, range_mask, unpack_bits
from ..coding.theory import block_error_probability
from ..exceptions import ConfigurationError

if hasattr(np, "bitwise_count"):
    _bitwise_count = np.bitwise_count
else:  # pragma: no cover - NumPy < 2.0 fallback
    from ..coding.packed import popcount_rows

    def _bitwise_count(words):
        return popcount_rows(words.reshape(-1, words.shape[-1])).reshape(words.shape[:-1] + (1,))


def _mask_popcounts(residual_frames: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Per-packet popcounts of ``(P, bpp, W)`` residual words under ``(bpp, W)`` masks."""
    return _bitwise_count(residual_frames & masks[np.newaxis, :, :]).sum(
        axis=(1, 2), dtype=np.int64
    )


#: Word value of each in-word bit position, derived from the substrate's own
#: packing (endian-agnostic by construction).
_BIT_WEIGHTS = bit_weights()


def _packed_mask_from_positions(positions: np.ndarray, num_blocks: int, n: int) -> np.ndarray:
    """Packed ``(num_blocks, W)`` XOR mask with ones at flat bit ``positions``.

    Positions index the attempt's bits in row-major transmission order; the
    in-word placement comes from :func:`repro.coding.packed.bit_weights`,
    so it matches :func:`~repro.coding.packed.pack_bits` on any host.
    """
    num_words = -(-n // 64)
    mask = np.zeros(num_blocks * num_words, dtype=np.uint64)
    block, offset = np.divmod(positions, n)
    word, bit = np.divmod(offset, 64)
    np.bitwise_or.at(mask, block * num_words + word, _BIT_WEIGHTS[bit])
    return mask.reshape(num_blocks, num_words)

__all__ = [
    "TransmissionOutcome",
    "ProbabilisticOutcomeSampler",
    "BitExactOutcomeSampler",
    "bit_exact_error_sources",
    "packets_for_payload",
]


@dataclass(frozen=True, slots=True)
class TransmissionOutcome:
    """What happened to the packets of one (re)transmission attempt.

    ``slots=True``: the engine materialises one of these per transmission
    attempt, so the instance dict would be pure allocation overhead.
    """

    packets: int
    failed_detected: int
    delivered_with_errors: int
    residual_bit_errors: int

    @property
    def delivered(self) -> int:
        """Packets handed to the destination (clean or with escaped errors)."""
        return self.packets - self.failed_detected


def _frame_geometry(code, packet_bits: int, crc_width: int) -> int:
    """ECC blocks needed to carry one packet plus its CRC (zero padded)."""
    if packet_bits < 1:
        raise ConfigurationError("packet size must be at least one bit")
    return -(-(packet_bits + crc_width) // code.k)


class ProbabilisticOutcomeSampler:
    """Sample packet outcomes from analytic per-block failure probabilities.

    Parameters
    ----------
    code:
        The configured coding scheme (``n``, ``k``, ``correctable_errors``).
    raw_ber:
        Raw channel bit error probability at the link's operating point (or
        the fault model's long-run average when a burst model is active).
    packet_bits:
        Payload bits per packet.
    crc_width:
        CRC bits appended per packet; ``0`` disables detection entirely
        (every failed packet is delivered carrying residual errors).
    rng:
        The engine's generator; all draws consume this single stream.

    Residual *bit* counts are thinned to the payload fraction of the frame
    (errors landing in the CRC slot or zero padding do not corrupt
    payload), matching the bit-exact sampler's payload-column comparison.
    The packet-level ``delivered_with_errors`` flag stays frame-wide: any
    failed block marks the packet, payload-touching or not.
    """

    __slots__ = (
        "code", "raw_ber", "packet_bits", "crc_width", "blocks_per_packet",
        "_rng", "undetected_probability", "_payload_fraction",
        "_failure_params", "_disturb_cache", "_attempt_failure_cache",
        "block_failure_probability", "_residual_rate",
    )

    def __init__(
        self,
        code,
        raw_ber: float,
        *,
        packet_bits: int,
        crc_width: int = 0,
        rng: np.random.Generator,
    ):
        if not 0.0 <= raw_ber <= 1.0:
            raise ConfigurationError("raw BER must lie in [0, 1]")
        self.code = code
        self.raw_ber = float(raw_ber)
        self.packet_bits = int(packet_bits)
        self.crc_width = int(crc_width)
        self.blocks_per_packet = _frame_geometry(code, packet_bits, self.crc_width)
        self._rng = rng

        #: Probability a failed packet passes the CRC anyway (random-error
        #: approximation: a uniformly random remainder matches with 2^-w).
        self.undetected_probability = 2.0 ** (-self.crc_width) if self.crc_width else 1.0
        #: Fraction of the packet's frame occupied by payload.  Residual
        #: errors land uniformly over the frame's message bits; those in the
        #: CRC slot or the zero padding do not corrupt payload, so the
        #: sampled counts are thinned by this fraction — mirroring the
        #: bit-exact sampler, which only compares the payload columns.
        self._payload_fraction = self.packet_bits / (self.blocks_per_packet * int(code.k))
        #: (block failure probability, residual rate) per raw BER.  With a
        #: time-varying channel the engine passes the drifted raw BER per
        #: attempt; the drift model quantises its multipliers, so this cache
        #: stays small.
        self._failure_params: dict[float, tuple[float, float]] = {}
        self._disturb_cache: dict[float, float] = {}
        #: (num_packets, raw BER) -> attempt-level failure probability.
        self._attempt_failure_cache: dict[tuple, float] = {}
        self.block_failure_probability, self._residual_rate = self._params_for(self.raw_ber)

    def _params_for(self, raw_ber: float) -> tuple[float, float]:
        """Block failure probability and residual-bit rate at one raw BER."""
        cached = self._failure_params.get(raw_ber)
        if cached is not None:
            return cached
        if not 0.0 <= raw_ber <= 1.0:
            raise ConfigurationError("raw BER must lie in [0, 1]")
        t = int(getattr(self.code, "correctable_errors", 0))
        n, k = int(self.code.n), int(self.code.k)
        failure = block_error_probability(raw_ber, n, t)
        # Conditional mean residual message-bit errors per *failed* block.
        # For t >= 1 the dominant failure event (t+1 channel errors) leaves a
        # weight-(2t+1) codeword error, of which k/n lands in message bits;
        # for t = 0 it is the mean raw error count conditioned on >= 1.
        if t >= 1:
            mean = (2 * t + 1) * k / n
        elif failure > 0.0:
            mean = n * raw_ber / failure * (k / n)
        else:
            mean = 1.0
        mean = min(float(k), max(1.0, mean))
        # Per-bit rate of the 1 + Binomial(k-1, r) residual draw whose mean
        # matches the conditional expectation above.
        residual_rate = (mean - 1.0) / (k - 1) if k > 1 else 0.0
        self._failure_params[raw_ber] = (failure, residual_rate)
        return failure, residual_rate

    def attempt_failure_probability(
        self, num_packets: int, raw_ber: float | None = None
    ) -> float:
        """Probability at least one block of the attempt fails to decode.

        ``1 - (1 - p_block)^(packets x blocks_per_packet)`` — the threshold
        the attempt's single primary uniform is compared against.  Cached
        per ``(num_packets, raw BER)``; the drift model quantises its
        multipliers and attempt sizes repeat (full transfers plus ARQ
        remainders), so the cache stays small.
        """
        key = (num_packets, raw_ber)
        cached = self._attempt_failure_cache.get(key)
        if cached is None:
            p = (
                self.block_failure_probability
                if raw_ber is None
                else self._params_for(float(raw_ber))[0]
            )
            blocks = num_packets * self.blocks_per_packet
            if p <= 0.0:
                cached = 0.0
            elif p >= 1.0:
                cached = 1.0
            else:
                cached = -math.expm1(blocks * math.log1p(-p))
            self._attempt_failure_cache[key] = cached
        return cached

    def block_disturb_probability(self, raw_ber: float | None = None) -> float:
        """Probability one block suffers at least one raw channel flip.

        This is the receiver-visible event rate of the decoder's correction
        telemetry — the signal the adaptive controller's failure monitor
        feeds on.  Much larger than the block *failure* probability at the
        design points the links operate at, which is what makes drift
        observable within a simulation's packet budget.
        """
        p = self.raw_ber if raw_ber is None else float(raw_ber)
        cached = self._disturb_cache.get(p)
        if cached is None:
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError("raw BER must lie in [0, 1]")
            cached = float(-np.expm1(int(self.code.n) * np.log1p(-p))) if p < 1.0 else 1.0
            self._disturb_cache[p] = cached
        return cached

    @property
    def coded_bits_per_packet(self) -> int:
        """Wire bits occupied by one packet (blocks x n)."""
        return self.blocks_per_packet * int(self.code.n)

    def resolve_failed_attempt(
        self,
        num_packets: int,
        *,
        raw_ber: float | None = None,
        resolve_rng: np.random.Generator,
    ) -> TransmissionOutcome:
        """Outcome of an attempt *known* to have at least one failed block.

        Samples the failed-block pattern conditioned on the attempt-level
        failure event the primary uniform decided: the first failed block
        index is truncated-geometric (one inverse-CDF uniform), the blocks
        after it fail i.i.d. (one binomial for the count, a uniform subset
        for the positions) — together exactly the joint law of i.i.d.
        per-block Bernoulli failures given at least one.  Every draw comes
        from ``resolve_rng``.
        """
        failure_probability, residual_rate = (
            (self.block_failure_probability, self._residual_rate)
            if raw_ber is None
            else self._params_for(float(raw_ber))
        )
        rng = resolve_rng
        blocks_per_packet = self.blocks_per_packet
        total_blocks = num_packets * blocks_per_packet
        # First failed block (flat, row-major transmission order): smallest
        # j with CDF(j) = (1 - q^(j+1)) / (1 - q^N) >= v.
        v = rng.random()
        if failure_probability >= 1.0:
            first = 0
        else:
            attempt_probability = self.attempt_failure_probability(num_packets, raw_ber)
            first = (
                math.ceil(
                    math.log1p(-v * attempt_probability)
                    / math.log1p(-failure_probability)
                )
                - 1
            )
            if first < 0:
                first = 0
            elif first >= total_blocks:
                first = total_blocks - 1
        remaining_blocks = total_blocks - first - 1
        extra = int(rng.binomial(remaining_blocks, failure_probability)) if remaining_blocks else 0
        if extra:
            offsets = rng.choice(remaining_blocks, size=extra, replace=False)
            flat = np.concatenate(([first], first + 1 + offsets))
        else:
            flat = np.array([first])
        failed_per_packet = np.bincount(flat // blocks_per_packet, minlength=num_packets)
        failed_indices = np.nonzero(failed_per_packet)[0]

        if self.crc_width:
            escaped = rng.random(failed_indices.size) < self.undetected_probability
        else:
            escaped = np.ones(failed_indices.size, dtype=bool)
        delivered_failed = failed_indices[escaped]
        failed_detected = int(failed_indices.size - delivered_failed.size)

        residual = 0
        if delivered_failed.size:
            blocks_in_error = int(failed_per_packet[delivered_failed].sum())
            residual = blocks_in_error
            if residual_rate > 0.0 and self.code.k > 1:
                residual += int(
                    rng.binomial(self.code.k - 1, residual_rate, size=blocks_in_error).sum()
                )
            if self._payload_fraction < 1.0 and residual:
                residual = int(rng.binomial(residual, self._payload_fraction))
        return TransmissionOutcome(
            packets=num_packets,
            failed_detected=failed_detected,
            delivered_with_errors=int(delivered_failed.size),
            residual_bit_errors=int(residual),
        )


def bit_exact_error_sources(error_model):
    """The ``(sparse_error_positions, error_mask_packed)`` methods of a fault model.

    Bit-exact sampling draws its error patterns from one of the two (the
    sparse draw is preferred); a model with neither is a
    :class:`~repro.exceptions.ConfigurationError`.  Either may be ``None``.
    """
    sparse_positions = getattr(error_model, "sparse_error_positions", None)
    mask_source = getattr(error_model, "error_mask_packed", None)
    if sparse_positions is None and mask_source is None:
        raise ConfigurationError(
            f"bit-exact sampling needs a fault model with sparse_error_positions or "
            f"error_mask_packed; {type(error_model).__name__} has neither"
        )
    return sparse_positions, mask_source


class BitExactOutcomeSampler:
    """Decode real error patterns on the packed substrate.

    The fault model corrupts the whole attempt's block matrix in row-major
    (transmission) order, so burst models span adjacent blocks exactly like
    on the serialised wire.  Outcomes are computed on the all-zero codeword:
    every registry decoder is linear and syndrome-driven, so the corrected
    words of ``codeword ⊕ error`` are ``codeword ⊕ decode(error)`` and the
    residual frame of any packet is ``decode(error)`` itself; the CRC (zero
    initialisation, no final XOR) is linear too, so a received packet
    passes its check exactly when the residual payload's CRC equals the
    residual CRC bits.  The payload, its CRC, the frame and the encode
    therefore never materialise.  Residual payload errors are popcounts of
    the residual frames against per-block payload-column masks, and the CRC
    re-check runs on the residual bits of the packets whose protected
    columns were actually disturbed (clean packets trivially pass).

    Outcomes and the generator state after each attempt equal the encode
    round trip's on random payloads (``tests/netsim/test_bitexact_round_trip.py``
    pins the two against the round-trip sampler kept in the test oracle):
    the error mask is drawn first, a clean attempt draws nothing more, and a
    corrupted one skips the bits of the payload draw it no longer makes
    (:func:`~repro.coding.montecarlo.skip_fair_bits`), so a shared
    generator that also feeds the fault model stays on the same stream.

    The fault model must offer ``sparse_error_positions(num_bits)`` (exact
    binomial thinning, preferred) or ``error_mask_packed(num_blocks, n=n)``;
    it is looked up once, here.
    """

    __slots__ = (
        "code", "error_model", "packet_bits", "crc", "crc_width",
        "blocks_per_packet", "_rng", "_payload_masks", "_protected_masks",
        "_sparse_positions", "_mask_source",
    )

    def __init__(
        self,
        code,
        error_model,
        *,
        packet_bits: int,
        crc: CyclicRedundancyCheck | None = None,
        rng: np.random.Generator,
    ):
        self.code = code
        self.error_model = error_model
        self._sparse_positions, self._mask_source = bit_exact_error_sources(error_model)
        self.packet_bits = int(packet_bits)
        self.crc = crc
        self.crc_width = crc.width if crc is not None else 0
        self.blocks_per_packet = _frame_geometry(code, packet_bits, self.crc_width)
        self._rng = rng
        n, k = int(code.n), int(code.k)
        # Per-block masks over the systematic message prefix: which codeword
        # bits of frame block j carry payload (respectively payload+CRC)
        # columns.  Errors beyond them land in zero padding and corrupt
        # nothing.
        def _prefix_masks(limit: int) -> np.ndarray:
            return np.stack(
                [
                    range_mask(n, 0, min(k, max(0, limit - block * k)))
                    for block in range(self.blocks_per_packet)
                ]
            )

        self._payload_masks = _prefix_masks(self.packet_bits)
        self._protected_masks = _prefix_masks(self.packet_bits + self.crc_width)

    @property
    def coded_bits_per_packet(self) -> int:
        """Wire bits occupied by one packet (blocks x n)."""
        return self.blocks_per_packet * int(self.code.n)

    def sample(self, num_packets: int) -> TransmissionOutcome:
        """Transmit ``num_packets`` random packets end to end.

        The error mask of the whole attempt is drawn *first*: when it comes
        back all-zero — the overwhelmingly common case at the raw BERs the
        link designs operate at — every packet is delivered clean.  Only
        attempts that actually suffered bit flips decode their error mask
        and re-check the CRC of the disturbed packets.
        """
        if num_packets < 1:
            raise ConfigurationError("an attempt must carry at least one packet")
        n, k = int(self.code.n), int(self.code.k)
        blocks_per_packet = self.blocks_per_packet
        total_blocks = num_packets * blocks_per_packet
        if self._sparse_positions is not None:
            positions = self._sparse_positions(total_blocks * n)
            if positions.size == 0:
                return TransmissionOutcome(num_packets, 0, 0, 0)
            error_mask = _packed_mask_from_positions(positions, total_blocks, n)
        else:
            error_mask = self._mask_source(total_blocks, n=n)
            if not error_mask.any():
                return TransmissionOutcome(num_packets, 0, 0, 0)
        # The random payloads this attempt's outcome no longer depends on.
        skip_fair_bits(self._rng, num_packets * self.packet_bits)
        decoded = decode_blocks_packed(self.code, error_mask)
        residual_frames = decoded.corrected_words.reshape(num_packets, blocks_per_packet, -1)

        if self.crc is not None:
            protected_errors = _mask_popcounts(residual_frames, self._protected_masks)
            ok = protected_errors == 0
            suspects = np.nonzero(~ok)[0]
            payload_errors = np.zeros(num_packets, dtype=np.int64)
            if suspects.size:
                # Re-run the CRC on the residual bits of the disturbed
                # packets only; an error pattern whose payload CRC equals
                # its CRC-slot errors escapes detection here exactly as it
                # would in hardware.
                payload_errors[suspects] = _mask_popcounts(
                    residual_frames[suspects], self._payload_masks
                )
                words = residual_frames[suspects].reshape(suspects.size * blocks_per_packet, -1)
                residual_bits = unpack_bits(words, n)[:, :k].reshape(suspects.size, -1)
                ok[suspects] = self.crc.verify_batch(
                    residual_bits[:, : self.packet_bits + self.crc_width]
                )
        else:
            ok = np.ones(num_packets, dtype=bool)
            payload_errors = _mask_popcounts(residual_frames, self._payload_masks)
        failed_detected = int(np.count_nonzero(~ok))
        delivered_with_errors = int(np.count_nonzero(ok & (payload_errors > 0)))
        residual = int(payload_errors[ok].sum())
        return TransmissionOutcome(
            packets=num_packets,
            failed_detected=failed_detected,
            delivered_with_errors=delivered_with_errors,
            residual_bit_errors=residual,
        )


def packets_for_payload(payload_bits: int, packet_bits: int) -> int:
    """Packets needed to carry a payload (last one zero padded)."""
    if payload_bits < 1:
        raise ConfigurationError("payload must contain at least one bit")
    if packet_bits < 1:
        raise ConfigurationError("packet size must be at least one bit")
    return math.ceil(payload_bits / packet_bits)
