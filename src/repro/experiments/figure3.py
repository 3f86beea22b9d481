"""Experiment ``figure3``: micro-ring transmission in ON and OFF states.

Figure 3 of the paper plots the optical intensity at the output of a
modulator ring as a function of wavelength for both modulation states; the
gap between the two curves at the signal wavelength is the extinction ratio
(6.9 dB).  This experiment samples the Lorentzian ring model over a
wavelength window around the resonance and reports the achieved extinction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import DEFAULT_CONFIG, PaperConfig
from ..photonics.microring import MicroringResonator, MicroringState
from ..units import linear_to_db
from .gridlib import single_merge_sweep as merge_sweep, single_sweep_shards
from .paperdata import Comparison, PAPER_EXTINCTION_RATIO_DB

__all__ = ["Figure3Result", "run_figure3", "sweep_shards", "run_sweep_shard", "merge_sweep"]


@dataclass
class Figure3Result:
    """Sampled ON/OFF transmission spectra of the modulator ring."""

    wavelengths_m: np.ndarray
    on_transmission_db: np.ndarray
    off_transmission_db: np.ndarray
    comparison: Comparison

    def render_text(self) -> str:
        """Short text summary (the full spectra are available as arrays)."""
        return "\n".join(
            [
                "Figure 3 - micro-ring transmission in ON/OFF states",
                f"samples: {self.wavelengths_m.size}",
                f"minimum ON-state transmission: {self.on_transmission_db.min():.2f} dB",
                f"minimum OFF-state transmission: {self.off_transmission_db.min():.2f} dB",
                self.comparison.render(),
            ]
        )


def run_figure3(config: PaperConfig = DEFAULT_CONFIG) -> Figure3Result:
    """Sample the ring spectra and verify the extinction ratio."""
    ring = MicroringResonator(
        resonance_wavelength_m=config.center_wavelength_m,
        quality_factor=config.ring_quality_factor,
        extinction_ratio_db=config.extinction_ratio_db,
        through_loss_db=config.ring_through_loss_db,
        drop_loss_db=config.ring_drop_loss_db,
        drive_power_w=config.modulator_power_w,
    )
    span = 6.0 * ring.fwhm_m
    wavelengths = np.linspace(
        config.center_wavelength_m - span, config.center_wavelength_m + span, 401
    )
    on = ring.spectrum(wavelengths, MicroringState.ON)
    off = ring.spectrum(wavelengths, MicroringState.OFF)
    comparison = Comparison(
        quantity="modulator extinction ratio",
        measured=ring.modulation_extinction_db(),
        reference=PAPER_EXTINCTION_RATIO_DB,
        unit="dB",
    )
    return Figure3Result(
        wavelengths_m=wavelengths,
        on_transmission_db=np.asarray(linear_to_db(on)),
        off_transmission_db=np.asarray(linear_to_db(off)),
        comparison=comparison,
    )
# ------------------------------------------------------------------ grid API
sweep_shards = single_sweep_shards("figure3")


def run_sweep_shard(params, config):
    """Worker: sample the ring spectra; returns the rendered payload."""
    result = run_figure3(config)
    rows = [
        {"wavelength_nm": wl * 1e9, "on_db": on, "off_db": off}
        for wl, on, off in zip(
            result.wavelengths_m, result.on_transmission_db, result.off_transmission_db
        )
    ]
    return {"text": result.render_text(), "rows": rows}
