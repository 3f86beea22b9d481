"""Benchmark ``headline``: the paper's summary claims (Section V-C).

Paper artefacts: the ~50% laser power reduction, the 92% laser share, the
251 mW -> 136 mW per-waveguide drop, the ~22 W interconnect saving, and the
"BER 1e-12 only reachable with ECC" feasibility cliff.
"""

from __future__ import annotations

import pytest

from repro.experiments.headline import run_headline


def test_bench_headline_claims(benchmark):
    """Time the headline recomputation and validate every claim's shape."""
    result = benchmark(run_headline)

    assert result.laser_share_uncoded == pytest.approx(0.92, abs=0.02)
    assert result.power_reduction["H(71,64)"] == pytest.approx(0.45, abs=0.10)
    assert result.power_reduction["H(7,4)"] == pytest.approx(0.49, abs=0.10)
    assert result.per_waveguide_power_mw["w/o ECC"] == pytest.approx(251.0, rel=0.10)
    assert result.per_waveguide_power_mw["H(71,64)"] == pytest.approx(136.0, rel=0.10)
    assert result.total_saving_w == pytest.approx(22.0, rel=0.25)
    assert result.ber_1e12_feasible == {"w/o ECC": False, "H(71,64)": True, "H(7,4)": True}


def test_bench_interconnect_aggregation(benchmark):
    """Micro-benchmark of the whole-network power aggregation."""
    from repro.coding.hamming import ShortenedHammingCode
    from repro.power import channel_power_breakdown, interconnect_power_summary

    def total_power_w():
        breakdown = channel_power_breakdown(ShortenedHammingCode(64), 1e-11)
        return interconnect_power_summary(breakdown).total_power_w

    total = benchmark(total_power_w)
    assert 15.0 < total < 35.0
