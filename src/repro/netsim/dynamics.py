"""Time-varying channel conditions for the network simulator.

The paper's headline scenario is a manager that *reconfigures* the link at
run time because the channel's raw bit error rate is not a constant: silicon
heats up and cools down with workload phases, lasers and photodetectors age,
and slow environmental processes wander.  This module models those effects
as a multiplicative drift on the raw channel BER — ``raw(t) = raw_design *
m(t)`` with ``m(t) >= 1`` relative to the nominal (cool, young) operating
point — one deterministic process per channel:

* :class:`ThermalSinusoidDrift` — a log-space sinusoid: workload-induced
  heating cycles between the nominal point and a peak multiplier.
* :class:`AgingRampDrift` — a monotone log-space ramp towards the
  end-of-life multiplier; a simulation usually covers early life, which is
  exactly why a static worst-case design wastes energy.
* :class:`RandomWalkDrift` — a Markov-modulated reflected random walk in
  log space, for environmental wander without a deterministic shape.

Determinism: stochastic processes draw from a per-channel generator spawned
from one :class:`numpy.random.SeedSequence` at construction, and sample
their trajectory on a fixed step grid, so the multiplier at a given
``(channel, time)`` is a pure function of the seed — independent of query
order, event interleaving or sweep sharding.  Multipliers are quantised on
a log2 grid (:class:`ChannelDriftModel`), which keeps the per-sampler
failure-probability caches in the engine small and makes reported values
reproducible across platforms.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional

import numpy as np

from ..exceptions import ConfigurationError

__all__ = [
    "DriftProcess",
    "ThermalSinusoidDrift",
    "AgingRampDrift",
    "RandomWalkDrift",
    "ChannelDriftModel",
    "make_drift_model",
    "DRIFT_PROFILES",
]

#: Standard deviation of a :class:`RandomWalkDrift` step, in octaves.
WALK_LOG2_SIGMA = 0.25

#: Steps per octave of the multiplier grid :class:`ChannelDriftModel` reports on.
QUANTIZATION_STEPS_PER_OCTAVE = 16


class DriftProcess:
    """Deterministic raw-BER multiplier trajectory of one channel."""

    #: Largest multiplier the process can ever report; the static worst-case
    #: design and the adaptive controller's top margin level provision for it.
    worst_case_multiplier: float = 1.0

    def multiplier_at(self, time_s: float) -> float:
        """Raw-BER multiplier at simulation time ``time_s`` (>= 1)."""
        raise NotImplementedError


class ThermalSinusoidDrift(DriftProcess):
    """Workload-heating cycle: a log-space sinusoid between 1 and a peak.

    ``m(t) = peak ** ((1 - cos(2 pi t / T + phase)) / 2)`` starts at the
    nominal point for ``phase = 0``, peaks mid-period and returns — the
    canonical diurnal/phase-change thermal shape.
    """

    def __init__(self, *, period_s: float, peak_multiplier: float, phase_rad: float = 0.0):
        # Chained comparisons reject NaN and inf too: either would make the
        # multiplier NaN or constant, silently switching the drift off.
        if not 0.0 < period_s < math.inf:
            raise ConfigurationError("thermal period must be positive and finite")
        if not 1.0 <= peak_multiplier < math.inf:
            raise ConfigurationError("peak multiplier must be finite and at least 1")
        if not -math.inf < phase_rad < math.inf:
            raise ConfigurationError("thermal phase must be finite")
        self.period_s = float(period_s)
        self.worst_case_multiplier = float(peak_multiplier)
        self.phase_rad = float(phase_rad)
        self._log_peak = math.log(self.worst_case_multiplier)

    def multiplier_at(self, time_s: float) -> float:
        level = (1.0 - math.cos(2.0 * math.pi * time_s / self.period_s + self.phase_rad)) / 2.0
        return math.exp(self._log_peak * level)


class AgingRampDrift(DriftProcess):
    """Device aging: a monotone log-space ramp to the end-of-life multiplier.

    ``m(t) = ramp ** min(1, t / ramp_time)``; a simulation horizon much
    shorter than ``ramp_time_s`` sees a channel still close to nominal —
    the regime where a worst-case static margin is pure waste.
    """

    def __init__(self, *, ramp_multiplier: float, ramp_time_s: float):
        if not 1.0 <= ramp_multiplier < math.inf:
            raise ConfigurationError("ramp multiplier must be finite and at least 1")
        if not 0.0 < ramp_time_s < math.inf:
            raise ConfigurationError("ramp time must be positive and finite")
        self.worst_case_multiplier = float(ramp_multiplier)
        self.ramp_time_s = float(ramp_time_s)
        self._log_ramp = math.log(self.worst_case_multiplier)

    def multiplier_at(self, time_s: float) -> float:
        fraction = min(1.0, max(0.0, time_s / self.ramp_time_s))
        return math.exp(self._log_ramp * fraction)


class RandomWalkDrift(DriftProcess):
    """Markov-modulated wander: a reflected random walk in log2 space.

    The walk advances on a fixed ``step_s`` grid with normal increments of
    standard deviation :data:`WALK_LOG2_SIGMA` and is folded back into
    ``[0, log2(max_multiplier)]`` (triangle reflection), so the multiplier
    wanders between nominal and the worst case without ever leaving the
    provisioned range.  Steps are drawn lazily in fixed-size chunks from the
    process's own generator, so the trajectory depends only on the seed —
    not on when or in what order the engine asks.
    """

    _CHUNK = 256

    def __init__(
        self,
        *,
        step_s: float,
        max_multiplier: float,
        seed: int | np.random.SeedSequence | None = None,
    ):
        if not 0.0 < step_s < math.inf:
            raise ConfigurationError("random-walk step must be positive and finite")
        if not 1.0 <= max_multiplier < math.inf:
            raise ConfigurationError("max multiplier must be finite and at least 1")
        self.step_s = float(step_s)
        self.worst_case_multiplier = float(max_multiplier)
        self._rng = np.random.default_rng(seed)
        self._cumsum: np.ndarray = np.zeros(1, dtype=float)

    def _ensure_steps(self, index: int) -> None:
        while self._cumsum.size <= index:
            increments = self._rng.normal(0.0, WALK_LOG2_SIGMA, size=self._CHUNK)
            extension = self._cumsum[-1] + np.cumsum(increments)
            self._cumsum = np.concatenate([self._cumsum, extension])

    def multiplier_at(self, time_s: float) -> float:
        if not 0.0 <= time_s < math.inf:
            raise ConfigurationError("simulation time must be finite and non-negative")
        index = int(time_s / self.step_s)
        self._ensure_steps(index)
        span = math.log2(self.worst_case_multiplier)
        if span == 0.0:
            return 1.0
        # Triangle-fold the unconstrained walk into [0, span].
        folded = abs(math.fmod(self._cumsum[index], 2.0 * span))
        level = span - abs(folded - span)
        return 2.0 ** level


class ChannelDriftModel:
    """Per-channel drift processes behind one quantised query interface.

    Parameters
    ----------
    factory:
        ``factory(channel, seed_sequence)`` building the channel's process;
        the ``seed_sequence`` is the channel's own spawned child (ignored by
        deterministic processes).
    num_channels:
        Number of reader channels of the ring (``config.num_onis``).
    seed:
        Integer or :class:`~numpy.random.SeedSequence` the per-channel
        children are spawned from.

    The reported multiplier is snapped to ``2**(round(log2(m) * q) / q)``
    with ``q =`` :data:`QUANTIZATION_STEPS_PER_OCTAVE`.  Quantisation bounds
    the engine's per-sampler failure-probability caches (at most
    ``q * log2(worst_case) + 1`` distinct raw BERs per configuration)
    without visibly distorting the trajectory; ``m = 1`` is always reported
    exactly.
    """

    def __init__(
        self,
        factory: Callable[[int, np.random.SeedSequence], DriftProcess],
        num_channels: int,
        *,
        seed: int | np.random.SeedSequence | None = None,
    ):
        if num_channels < 1:
            raise ConfigurationError("a drift model needs at least one channel")
        sequence = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        children = sequence.spawn(num_channels)
        self._processes: List[DriftProcess] = [
            factory(channel, children[channel]) for channel in range(num_channels)
        ]
        self.num_channels = int(num_channels)
        self._worst_case = max(
            process.worst_case_multiplier for process in self._processes
        )
        # Immutable after construction, and called once per attempt by the
        # engine: one closure per channel, built once.
        self._lookups = [
            self._quantized_lookup(process.multiplier_at) for process in self._processes
        ]

    @property
    def worst_case_multiplier(self) -> float:
        """Largest multiplier any channel can reach (static design margin)."""
        return self._worst_case

    def process(self, channel: int) -> DriftProcess:
        """The drift process of one channel."""
        if not 0 <= channel < self.num_channels:
            raise ConfigurationError(
                f"channel {channel} outside the drift model's [0, {self.num_channels})"
            )
        return self._processes[channel]

    def multiplier_lookup(self, channel: int) -> Callable[[float], float]:
        """The quantised multiplier of one channel as a ``time_s -> m`` callable.

        The engine binds one lookup per channel at run start instead of
        resolving ``multiplier(channel, t)`` per attempt.
        """
        self.process(channel)
        return self._lookups[channel]

    def multiplier(self, channel: int, time_s: float) -> float:
        """Quantised raw-BER multiplier of ``channel`` at ``time_s``."""
        self.process(channel)
        return self._lookups[channel](time_s)

    def _quantized_lookup(
        self, multiplier_at: Callable[[float], float]
    ) -> Callable[[float], float]:
        steps = QUANTIZATION_STEPS_PER_OCTAVE
        worst_case = self._worst_case
        inf = math.inf
        log2 = math.log2

        def quantized(time_s: float) -> float:
            if not 0.0 <= time_s < inf:
                raise ConfigurationError("simulation time must be finite and non-negative")
            raw = multiplier_at(time_s)
            if raw <= 1.0:
                return 1.0
            return min(2.0 ** (round(log2(raw) * steps) / steps), worst_case)

        return quantized


#: Built-in drift profiles selectable by name in the ``adaptive`` experiment.
DRIFT_PROFILES = ("none", "thermal", "aging", "random-walk")


def make_drift_model(
    profile: str,
    num_channels: int,
    *,
    seed: int | np.random.SeedSequence | None = None,
    worst_case_multiplier: float = 16.0,
    timescale_s: float = 5e-6,
) -> Optional[ChannelDriftModel]:
    """Build a named drift profile (``None`` for the static ``"none"``).

    ``timescale_s`` anchors each profile's dynamics to the simulation
    horizon: the thermal period equals the timescale (per-channel phases are
    spread uniformly from the seed), the aging ramp stretches over four
    timescales (the run covers early life) and the random walk steps every
    ``timescale / 200``.
    """
    if profile not in DRIFT_PROFILES:
        raise ConfigurationError(
            f"unknown drift profile {profile!r}; available: {DRIFT_PROFILES}"
        )
    if profile == "none":
        return None
    if not 0.0 < timescale_s < math.inf:
        raise ConfigurationError("drift timescale must be positive and finite")
    if profile == "thermal":
        period = float(timescale_s)

        def factory(channel: int, sequence: np.random.SeedSequence) -> DriftProcess:
            phase = float(np.random.default_rng(sequence).uniform(0.0, 2.0 * math.pi))
            return ThermalSinusoidDrift(
                period_s=period,
                peak_multiplier=worst_case_multiplier,
                phase_rad=phase,
            )

    elif profile == "aging":
        ramp_time = float(4.0 * timescale_s)

        def factory(channel: int, sequence: np.random.SeedSequence) -> DriftProcess:
            return AgingRampDrift(
                ramp_multiplier=worst_case_multiplier, ramp_time_s=ramp_time
            )

    else:  # random-walk
        step = float(timescale_s / 200.0)

        def factory(channel: int, sequence: np.random.SeedSequence) -> DriftProcess:
            return RandomWalkDrift(
                step_s=step,
                max_multiplier=worst_case_multiplier,
                seed=sequence,
            )

    return ChannelDriftModel(factory, num_channels, seed=seed)
