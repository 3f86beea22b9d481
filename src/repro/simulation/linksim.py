"""Bit-level simulation of one optical link at a solved operating point.

The analytic chain (code → raw BER → SNR → laser power) predicts that a link
designed by :class:`~repro.link.design.OpticalLinkDesigner` meets its target
post-decoding BER.  This simulator closes the loop empirically: it takes a
design point, rebuilds the physical OOK/AWGN channel at the corresponding
received power and crosstalk, pushes random payloads through
encode → transmit → decode, and measures the residual bit error rate.  The
validation example and the integration tests check the measured raw BER
against Eq. 3 and the corrected BER against Eq. 2.

The simulation is batched end to end and rides the packed ``uint64``
substrate: messages are drawn as a ``(B, k)`` matrix, packed, encoded
through the packed table fold, pushed through the channel with one
``(B, n)`` Gaussian noise draw thresholded straight into packed words
(:meth:`OOKAWGNChannel.transmit_batch_packed`), decoded packed, and both
raw and residual bit errors are counted with popcounts.  There is no
per-block Python loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..channel.awgn import OOKAWGNChannel
from ..coding.montecarlo import DEFAULT_BATCH_SIZE, resolve_rng
from ..coding.packed import pack_bits, popcount_rows, prefix_mask
from ..config import DEFAULT_CONFIG, PaperConfig
from ..exceptions import ConfigurationError
from ..link.design import LinkDesignPoint

__all__ = ["LinkSimulationResult", "OpticalLinkSimulator"]


@dataclass(frozen=True)
class LinkSimulationResult:
    """Measured error statistics of a simulated link."""

    code_name: str
    target_ber: float
    analytic_raw_ber: float
    measured_raw_ber: float
    measured_post_decoding_ber: float
    residual_bit_errors: int
    blocks_simulated: int


class OpticalLinkSimulator:
    """Monte-Carlo simulation of a coded optical link."""

    def __init__(
        self,
        code,
        design_point: LinkDesignPoint,
        *,
        config: PaperConfig = DEFAULT_CONFIG,
        rng: np.random.Generator | None = None,
    ):
        if design_point.signal_power_w <= 0:
            raise ConfigurationError("the design point must carry a positive signal power")
        self._code = code
        self._point = design_point
        self._rng = resolve_rng(rng)
        self._channel = OOKAWGNChannel(
            design_point.signal_power_w,
            crosstalk_power_w=design_point.crosstalk_power_w,
            extinction_ratio_db=config.extinction_ratio_db,
            responsivity_a_per_w=config.photodetector_responsivity_a_per_w,
            dark_current_a=config.dark_current_a,
            rng=self._rng,
        )

    @property
    def channel(self) -> OOKAWGNChannel:
        """The physical channel model built from the design point."""
        return self._channel

    @property
    def analytic_raw_ber(self) -> float:
        """Raw BER the analytic model expects at this operating point."""
        return self._channel.analytic_ber

    def run(
        self, num_blocks: int = 2000, *, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> LinkSimulationResult:
        """Simulate ``num_blocks`` codewords and collect the error statistics.

        Blocks are simulated ``batch_size`` at a time through the batched
        encode → transmit → decode chain.
        """
        if num_blocks < 1:
            raise ConfigurationError("at least one block must be simulated")
        if batch_size < 1:
            raise ConfigurationError("batch size must be at least 1")
        k = self._code.k
        n = self._code.n
        raw_errors = 0
        residual_errors = 0
        raw_bits = 0
        message_mask = prefix_mask(n, k)
        for start in range(0, num_blocks, batch_size):
            count = min(batch_size, num_blocks - start)
            messages = self._rng.integers(0, 2, size=(count, k), dtype=np.uint8)
            codeword_words = self._code.encode_batch_packed(pack_bits(messages))
            received_words = self._channel.transmit_batch_packed(codeword_words, n=n)
            raw_errors += int(popcount_rows(received_words ^ codeword_words).sum())
            raw_bits += count * n
            decoded = self._code.decode_batch_packed(received_words)
            residual_errors += int(
                popcount_rows((decoded.corrected_words ^ codeword_words) & message_mask).sum()
            )
        payload_bits = num_blocks * k
        return LinkSimulationResult(
            code_name=getattr(self._code, "name", type(self._code).__name__),
            target_ber=self._point.target_ber,
            analytic_raw_ber=self.analytic_raw_ber,
            measured_raw_ber=raw_errors / raw_bits,
            measured_post_decoding_ber=residual_errors / payload_bits,
            residual_bit_errors=residual_errors,
            blocks_simulated=num_blocks,
        )
