"""Interconnect-level power report and burst-error study.

Two ways downstream users typically extend the paper's analysis:

1. scale the per-wavelength numbers up to a whole interconnect and ask what
   the ECC-assisted configuration saves for *their* geometry (number of
   ONIs, waveguides, wavelengths);
2. check how the single-error-correcting Hamming codes behave when channel
   errors arrive in bursts (e.g. supply droop on the laser driver) and how
   much an interleaver recovers.

Run with::

    python examples/interconnect_power_report.py
"""

from __future__ import annotations

import numpy as np

from repro import DEFAULT_CONFIG, PaperConfig, UncodedScheme
from repro.coding import (
    BlockInterleaver,
    HammingCode,
    ShortenedHammingCode,
    pack_bits,
    unpack_bits,
)
from repro.power import channel_power_breakdown
from repro.power.interconnect import interconnect_power_saving_w, interconnect_power_summary
from repro.simulation import BurstErrorModel


def power_report(config: PaperConfig) -> None:
    """Print the interconnect-level power of each scheme for a geometry."""
    uncoded = UncodedScheme(config.ip_bus_width_bits)
    h71 = ShortenedHammingCode(config.ip_bus_width_bits)
    h74 = HammingCode(3)
    print(
        f"geometry: {config.num_onis} ONIs x {config.num_waveguides_per_channel} waveguides x "
        f"{config.num_wavelengths} wavelengths"
    )
    summaries = {
        code.name: interconnect_power_summary(
            channel_power_breakdown(code, 1e-11, config=config), config=config
        )
        for code in (uncoded, h71, h74)
    }
    for name, summary in summaries.items():
        print(f"  {name:<12} total interconnect power: {summary.total_power_w:7.2f} W")
    saving = interconnect_power_saving_w(summaries[uncoded.name], summaries[h71.name])
    print(f"  saving with {h71.name} vs uncoded: {saving:.2f} W\n")


def decode_messages(code, stream: np.ndarray) -> np.ndarray:
    """Decode a flat stream of ``n``-bit codewords into its ``(blocks, k)`` messages."""
    result = code.decode_batch_packed(pack_bits(stream.reshape(-1, code.n)))
    return unpack_bits(result.corrected_words, code.n)[:, : code.k]


def burst_error_study() -> None:
    """Show how interleaving restores Hamming protection under burst errors."""
    rng = np.random.default_rng(7)
    code = HammingCode(3)
    depth = 16  # one 64-bit IP word = 16 H(7,4) codewords
    interleaver = BlockInterleaver(depth=depth, width=code.n)
    bursts = BurstErrorModel(
        good_error_probability=1e-5,
        bad_error_probability=0.4,
        good_to_bad_probability=2e-3,
        bad_to_good_probability=0.25,
        rng=rng,
    )
    words = 400
    residual_plain = 0
    residual_interleaved = 0
    payload_bits = 0
    for _ in range(words):
        message = rng.integers(0, 2, size=(depth, code.k), dtype=np.uint8)
        payload_bits += message.size
        # One IP word is a batch of sixteen packed H(7,4) codewords; the
        # channel sees them serialised as one flat bit stream.
        encoded = unpack_bits(code.encode_batch_packed(pack_bits(message)), code.n).reshape(-1)
        # Without interleaving: the burst concentrates in few codewords.
        corrupted = bursts.error_pattern(encoded.size) ^ encoded
        residual_plain += int(np.count_nonzero(decode_messages(code, corrupted) != message))
        # With interleaving: the same channel behaviour is spread out.
        transmitted = interleaver.interleave(encoded)
        corrupted_interleaved = bursts.error_pattern(transmitted.size) ^ transmitted
        received = interleaver.deinterleave(corrupted_interleaved)
        residual_interleaved += int(np.count_nonzero(decode_messages(code, received) != message))
    print("burst-error study (Gilbert-Elliott channel, H(7,4)):")
    print(f"  residual BER without interleaving: {residual_plain / payload_bits:.2e}")
    print(f"  residual BER with a depth-{depth} interleaver: {residual_interleaved / payload_bits:.2e}")
    print("  (interleaving spreads each burst over many codewords, restoring the\n"
          "   single-error-per-block assumption behind Eq. 2)\n")


def main() -> None:
    """Run the power report for two geometries, then the burst study."""
    power_report(DEFAULT_CONFIG)
    # A larger many-core instance: 16 ONIs and 8 waveguides per channel.
    power_report(
        DEFAULT_CONFIG.with_overrides(num_onis=16, num_waveguides_per_channel=8)
    )
    burst_error_study()


if __name__ == "__main__":
    main()
