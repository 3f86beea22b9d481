"""Hard-fault processes for the network simulator.

:mod:`repro.netsim.dynamics` models *soft* degradation — a raw-BER
multiplier that drifts but never takes the channel away.  Real
silicon-photonic rings also suffer *hard* faults, and this module models the
four the literature reports most often, one deterministic timeline per
destination channel:

* **lane hard-fail** — a microring (or its driver) dies permanently at a
  random instant; the channel never recovers.
* **stuck-ring wavelength loss** — individual wavelengths drop out one at a
  time as rings detune beyond the trimming range; the surviving wavelengths
  keep working.
* **laser aging power droop** — the laser's output power sags with age,
  which at a fixed operating point is a growing raw-BER penalty (a stepwise
  log2-quantised ramp, so the engine's sampler caches stay bounded).
* **transient link blackout** — the channel goes completely dark for a
  bounded interval (e.g. a thermal trip or a re-lock cycle) and then
  returns.

Determinism: every channel's timeline is *compiled once at construction*
from the channel's own ``SeedSequence`` child, exactly like
:class:`~repro.netsim.dynamics.ChannelDriftModel` spawns its processes.
Queries (:meth:`HardFaultModel.health`) are pure bisections into the
compiled timeline — independent of query order, event interleaving or sweep
sharding — and the full transition list is available up front so the engine
can schedule one ``LINK_FAULT`` event per transition and account
availability without polling.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..exceptions import ConfigurationError

__all__ = [
    "ChannelHealth",
    "FaultTransition",
    "ChannelFaultTimeline",
    "HardFaultModel",
    "make_fault_model",
    "FAULT_SCENARIOS",
]

#: Quantisation of the droop penalty: 16 steps per octave, matching the
#: drift model's grid so per-sampler failure-probability caches stay small.
_QUANTIZATION_STEPS_PER_OCTAVE = 16


@dataclass(frozen=True, slots=True)
class ChannelHealth:
    """Hard-fault condition of one channel at one instant."""

    #: Wavelengths still usable on the channel (``num_wavelengths`` when
    #: nothing is stuck; 0 only together with ``failed``).
    wavelengths_available: int
    #: Multiplicative raw-BER penalty from laser power droop (>= 1).
    ber_penalty_multiplier: float = 1.0
    #: The channel is inside a transient blackout window (fully dark, but
    #: will recover).
    blacked_out: bool = False
    #: The lane hard-failed; it never carries traffic again.
    failed: bool = False

    @property
    def down(self) -> bool:
        """Whether the channel can carry any traffic right now."""
        return self.failed or self.blacked_out or self.wavelengths_available == 0


@dataclass(frozen=True, slots=True)
class FaultTransition:
    """One health change of one channel (the engine's ``LINK_FAULT`` payload)."""

    time_s: float
    channel: int
    kind: str
    description: str


class ChannelFaultTimeline:
    """The compiled, queryable hard-fault history of one channel.

    Built from primitive fault instants (fail time, per-wavelength loss
    times, droop steps, blackout windows); :meth:`health_at` bisects the
    compiled step function.  Channels are healthy at ``t = 0`` — hard
    faults develop, they are not manufacturing defects.
    """

    def __init__(
        self,
        num_wavelengths: int,
        *,
        fail_time_s: float | None = None,
        wavelength_loss_times_s: Sequence[float] = (),
        droop_steps: Sequence[tuple[float, float]] = (),
        blackout_windows_s: Sequence[tuple[float, float]] = (),
    ):
        if num_wavelengths < 1:
            raise ConfigurationError("a channel needs at least one wavelength")
        self.num_wavelengths = int(num_wavelengths)
        events: List[tuple[float, str, dict]] = []
        if fail_time_s is not None:
            if fail_time_s < 0.0:
                raise ConfigurationError("fault times cannot be negative")
            events.append((float(fail_time_s), "lane-fail", {}))
        for loss_time in sorted(wavelength_loss_times_s):
            if loss_time < 0.0:
                raise ConfigurationError("fault times cannot be negative")
            events.append((float(loss_time), "stuck-ring", {}))
        for step_time, penalty in droop_steps:
            if step_time < 0.0 or penalty < 1.0:
                raise ConfigurationError("droop steps need time >= 0 and penalty >= 1")
            events.append((float(step_time), "laser-droop", {"penalty": float(penalty)}))
        for start, end in _merge_windows(blackout_windows_s):
            events.append((start, "blackout-start", {}))
            events.append((end, "blackout-end", {}))
        # Stable sort keeps same-instant events in primitive order, which is
        # itself deterministic (construction order above).
        events.sort(key=lambda item: item[0])

        self._times: List[float] = []
        self._healths: List[ChannelHealth] = []
        self._transitions: List[FaultTransition] = []
        wavelengths = self.num_wavelengths
        penalty = 1.0
        blacked_out = False
        failed = False
        for time_s, kind, info in events:
            if failed:
                break  # nothing after a hard fail changes anything
            if kind == "lane-fail":
                failed = True
                description = "lane hard-failed (permanent)"
            elif kind == "stuck-ring":
                wavelengths = max(0, wavelengths - 1)
                description = (
                    f"stuck ring: {wavelengths}/{self.num_wavelengths} wavelengths left"
                )
            elif kind == "laser-droop":
                penalty = max(penalty, info["penalty"])
                description = f"laser droop: raw-BER penalty x{penalty:.3f}"
            elif kind == "blackout-start":
                blacked_out = True
                description = "transient blackout begins"
            else:  # blackout-end
                blacked_out = False
                description = "transient blackout ends"
            health = ChannelHealth(
                wavelengths_available=0 if failed else wavelengths,
                ber_penalty_multiplier=penalty,
                blacked_out=blacked_out,
                failed=failed,
            )
            if self._times and self._times[-1] == time_s:
                # Coalesce same-instant events into one step.
                self._healths[-1] = health
            else:
                self._times.append(time_s)
                self._healths.append(health)
            self._transitions.append(
                FaultTransition(time_s=time_s, channel=-1, kind=kind, description=description)
            )
        self._nominal = ChannelHealth(wavelengths_available=self.num_wavelengths)

    def health_at(self, time_s: float) -> ChannelHealth:
        """Health of the channel at ``time_s`` (nominal before the first fault)."""
        if not time_s >= 0.0:
            raise ConfigurationError("simulation time must be a non-negative number")
        index = bisect.bisect_right(self._times, time_s)
        if index == 0:
            return self._nominal
        return self._healths[index - 1]

    def _step_lookup(self, values: Sequence) -> Callable[[float], object]:
        """A ``time_s -> values[step]`` lookup, validated like :meth:`health_at`.

        ``values[0]`` stands for the nominal health before the first fault,
        ``values[i]`` for the ``i``-th compiled step.
        """
        times = self._times
        values = list(values)
        bisect_right = bisect.bisect_right

        def lookup(time_s: float):
            if not time_s >= 0.0:
                raise ConfigurationError("simulation time must be a non-negative number")
            return values[bisect_right(times, time_s)]

        return lookup

    def transitions(self) -> List[FaultTransition]:
        """Every health change in time order (``channel`` filled by the model)."""
        return list(self._transitions)


def _merge_windows(windows: Sequence[tuple[float, float]]) -> List[tuple[float, float]]:
    """Sort and merge overlapping (start, end) intervals."""
    cleaned = []
    for start, end in windows:
        if start < 0.0 or end <= start:
            raise ConfigurationError("blackout windows need 0 <= start < end")
        cleaned.append((float(start), float(end)))
    cleaned.sort()
    merged: List[tuple[float, float]] = []
    for start, end in cleaned:
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


class HardFaultModel:
    """Per-channel hard-fault timelines behind one query interface.

    The engine asks two things: :meth:`health` of a channel at a time (per
    attempt) and the global :meth:`transitions` list (scheduled as
    ``LINK_FAULT`` events at run start, driving availability accounting and
    the degradation ladder's reactions).
    """

    def __init__(self, timelines: Sequence[ChannelFaultTimeline]):
        if not timelines:
            raise ConfigurationError("a fault model needs at least one channel")
        wavelengths = {timeline.num_wavelengths for timeline in timelines}
        if len(wavelengths) != 1:
            raise ConfigurationError("every channel must have the same wavelength count")
        self._timelines = list(timelines)
        self.num_channels = len(self._timelines)
        self.num_wavelengths = self._timelines[0].num_wavelengths

    def health(self, channel: int, time_s: float) -> ChannelHealth:
        """Hard-fault condition of ``channel`` at ``time_s``."""
        return self.timeline(channel).health_at(time_s)

    def timeline(self, channel: int) -> ChannelFaultTimeline:
        """The compiled timeline of one channel.

        The engines bind each channel's ``timeline(channel).health_at`` once
        per run instead of resolving ``health(channel, t)`` per attempt.
        """
        if not 0 <= channel < self.num_channels:
            raise ConfigurationError(
                f"channel {channel} outside the fault model's [0, {self.num_channels})"
            )
        return self._timelines[channel]

    def health_index_lookups(self) -> tuple[List[ChannelHealth], List[Callable]]:
        """Every distinct health of the model, and a per-channel index lookup.

        Returns ``(healths, lookups)`` with
        ``healths[lookups[channel](t)] == health(channel, t)``.  Equal
        healths share one index across channels, so the engine's per-run
        memos key on a small integer instead of hashing a
        :class:`ChannelHealth` (a Python-level ``__hash__``) per query.
        """
        healths: List[ChannelHealth] = []
        index_of: Dict[ChannelHealth, int] = {}
        lookups = []
        for timeline in self._timelines:
            indices = []
            for health in (timeline._nominal, *timeline._healths):
                index = index_of.get(health)
                if index is None:
                    index = index_of[health] = len(healths)
                    healths.append(health)
                indices.append(index)
            lookups.append(timeline._step_lookup(indices))
        return healths, lookups

    def transitions(self) -> List[FaultTransition]:
        """Every channel's health changes, ordered by (time, channel)."""
        merged: List[FaultTransition] = []
        for channel, timeline in enumerate(self._timelines):
            for transition in timeline.transitions():
                merged.append(
                    FaultTransition(
                        time_s=transition.time_s,
                        channel=channel,
                        kind=transition.kind,
                        description=transition.description,
                    )
                )
        merged.sort(key=lambda item: (item.time_s, item.channel))
        return merged

    @property
    def worst_case_penalty(self) -> float:
        """Largest droop raw-BER penalty any channel ever reaches."""
        worst = 1.0
        for timeline in self._timelines:
            for health in timeline._healths:
                worst = max(worst, health.ber_penalty_multiplier)
        return worst


#: Built-in hard-fault scenarios selectable by name in the ``availability``
#: experiment.  ``"mixed"`` draws one of the four primitives per channel.
FAULT_SCENARIOS = ("none", "lane-fail", "stuck-ring", "laser-droop", "blackout", "mixed")


def _quantized_droop_steps(
    peak_penalty: float, droop_time_s: float
) -> List[tuple[float, float]]:
    """Stepwise log2-quantised ramp from nominal to ``peak_penalty``.

    The continuous ramp ``log2 m(t) = (t / T) * log2(peak)`` is emitted as
    one step per 1/16-octave level, so the penalty takes finitely many
    distinct values (bounded sampler caches) and each step is a clean
    transition the engine can schedule.
    """
    if peak_penalty <= 1.0:
        return []
    span = math.log2(peak_penalty)
    steps = max(1, round(span * _QUANTIZATION_STEPS_PER_OCTAVE))
    rows = []
    for step in range(1, steps + 1):
        level = span * step / steps
        rows.append((droop_time_s * step / steps, 2.0 ** level))
    return rows


def make_fault_model(
    scenario: str,
    num_channels: int,
    num_wavelengths: int,
    *,
    seed: int | np.random.SeedSequence | None = None,
    horizon_s: float = 1e-5,
    options: Optional[Dict] = None,
) -> Optional[HardFaultModel]:
    """Build a named hard-fault scenario (``None`` for ``"none"``).

    ``horizon_s`` anchors the fault process to the simulation horizon: fault
    onsets are drawn uniformly inside it, the droop ramp stretches over it
    and blackout windows last a fraction of it.  ``options`` may override
    the per-scenario knobs:

    ``fault_fraction``
        Fraction of channels that develop the scenario's fault at all
        (default 0.5 — the sweep compares degraded and healthy channels in
        one run).
    ``max_wavelength_losses``
        Cap on stuck rings per channel (default: half the wavelengths).
    ``peak_droop_penalty``
        Raw-BER penalty at the end of the droop ramp (default 8).
    ``blackout_duration_fraction``
        Blackout window length as a fraction of the horizon (default 0.1).
    ``blackouts_per_channel``
        Number of blackout windows per affected channel (default 1).

    Draw order per channel is fixed (affected? onset; scenario extras), so a
    given ``(seed, channel)`` always yields the same timeline regardless of
    how many other channels exist or which scenario parameters other
    channels drew.
    """
    if scenario not in FAULT_SCENARIOS:
        raise ConfigurationError(
            f"unknown fault scenario {scenario!r}; available: {FAULT_SCENARIOS}"
        )
    if scenario == "none":
        return None
    if num_channels < 1 or num_wavelengths < 1:
        raise ConfigurationError("a fault model needs channels and wavelengths")
    if horizon_s <= 0.0:
        raise ConfigurationError("fault horizon must be positive")
    options = dict(options or {})
    fault_fraction = float(options.pop("fault_fraction", 0.5))
    if not 0.0 <= fault_fraction <= 1.0:
        raise ConfigurationError("fault fraction must lie in [0, 1]")
    max_losses = int(options.pop("max_wavelength_losses", max(1, num_wavelengths // 2)))
    if not 1 <= max_losses <= num_wavelengths:
        raise ConfigurationError("wavelength losses must lie in [1, num_wavelengths]")
    peak_droop = float(options.pop("peak_droop_penalty", 8.0))
    if peak_droop < 1.0:
        raise ConfigurationError("droop penalty must be at least 1")
    blackout_fraction = float(options.pop("blackout_duration_fraction", 0.1))
    if not 0.0 < blackout_fraction <= 1.0:
        raise ConfigurationError("blackout duration fraction must lie in (0, 1]")
    blackouts = int(options.pop("blackouts_per_channel", 1))
    if blackouts < 1:
        raise ConfigurationError("affected channels need at least one blackout window")
    if options:
        raise ConfigurationError(f"unknown fault options {sorted(options)} for {scenario!r}")

    sequence = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = sequence.spawn(num_channels)
    primitives = ("lane-fail", "stuck-ring", "laser-droop", "blackout")

    timelines = []
    for channel in range(num_channels):
        rng = np.random.default_rng(children[channel])
        affected = bool(rng.random() < fault_fraction)
        onset_s = float(rng.uniform(0.0, horizon_s))
        kind = scenario
        if scenario == "mixed":
            kind = primitives[int(rng.integers(0, len(primitives)))]
        if not affected:
            timelines.append(ChannelFaultTimeline(num_wavelengths))
            continue
        if kind == "lane-fail":
            timelines.append(ChannelFaultTimeline(num_wavelengths, fail_time_s=onset_s))
        elif kind == "stuck-ring":
            losses = int(rng.integers(1, max_losses + 1))
            times = np.sort(rng.uniform(onset_s, horizon_s, size=losses))
            timelines.append(
                ChannelFaultTimeline(
                    num_wavelengths, wavelength_loss_times_s=[float(t) for t in times]
                )
            )
        elif kind == "laser-droop":
            # The droop ramps from the onset to the end of the horizon.
            ramp_s = max(horizon_s - onset_s, horizon_s * 1e-3)
            steps = [
                (onset_s + step_time, penalty)
                for step_time, penalty in _quantized_droop_steps(peak_droop, ramp_s)
            ]
            timelines.append(ChannelFaultTimeline(num_wavelengths, droop_steps=steps))
        else:  # blackout
            duration_s = blackout_fraction * horizon_s
            windows = []
            for _ in range(blackouts):
                start = float(rng.uniform(0.0, max(horizon_s - duration_s, horizon_s * 1e-3)))
                windows.append((start, start + duration_s))
            timelines.append(
                ChannelFaultTimeline(num_wavelengths, blackout_windows_s=windows)
            )
    return HardFaultModel(timelines)
