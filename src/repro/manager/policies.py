"""Selection policies of the link energy/performance manager.

A policy looks at the candidate configurations (one per available coding
scheme, each already solved into a channel-power breakdown) and picks the
one best matching the request.  The paper motivates two application classes:
real-time traffic with deadlines (favour low communication time) and
throughput/multimedia traffic where energy matters more (favour low power or
low energy per bit, possibly degrading the BER); the policies below cover
both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence

from ..config import DEFAULT_CONFIG, PaperConfig
from ..exceptions import ConfigurationError, InfeasibleDesignError
from ..power.channel import ChannelPowerBreakdown
from ..power.energy import energy_metrics

__all__ = [
    "ConfigurationDecision",
    "SelectionPolicy",
    "MinimumPowerPolicy",
    "MinimumEnergyPolicy",
    "DeadlineConstrainedPolicy",
    "margin_levels",
    "FailureRateMonitor",
    "HysteresisSwitchingPolicy",
    "DegradationAction",
    "DegradationLadder",
]


@dataclass(frozen=True)
class ConfigurationDecision:
    """The configuration a policy selected, with its justification."""

    breakdown: ChannelPowerBreakdown
    policy_name: str
    reason: str

    @property
    def code_name(self) -> str:
        """Selected coding scheme."""
        return self.breakdown.code_name

    @property
    def channel_power_w(self) -> float:
        """Per-wavelength channel power of the selected configuration."""
        return self.breakdown.total_power_w

    @property
    def communication_time(self) -> float:
        """Communication-time overhead of the selected configuration."""
        return self.breakdown.communication_time


class SelectionPolicy(Protocol):
    """Protocol implemented by every selection policy."""

    name: str

    def select(
        self, candidates: Sequence[ChannelPowerBreakdown], *, config: PaperConfig
    ) -> ConfigurationDecision:
        """Pick one candidate; raise InfeasibleDesignError if none qualifies."""
        ...


def _feasible(candidates: Sequence[ChannelPowerBreakdown]) -> list[ChannelPowerBreakdown]:
    feasible = [c for c in candidates if c.feasible]
    if not feasible:
        raise InfeasibleDesignError("no candidate configuration is feasible for this request")
    return feasible


@dataclass
class MinimumPowerPolicy:
    """Pick the feasible configuration with the lowest channel power."""

    name: str = "min-power"

    def select(
        self,
        candidates: Sequence[ChannelPowerBreakdown],
        *,
        config: PaperConfig = DEFAULT_CONFIG,
    ) -> ConfigurationDecision:
        """Select the candidate minimising per-wavelength channel power."""
        best = min(_feasible(candidates), key=lambda c: c.total_power_w)
        return ConfigurationDecision(
            breakdown=best,
            policy_name=self.name,
            reason=f"lowest channel power ({best.total_power_mw:.2f} mW per wavelength)",
        )


@dataclass
class MinimumEnergyPolicy:
    """Pick the feasible configuration with the lowest energy per useful bit."""

    name: str = "min-energy"
    ip_referenced: bool = False

    def select(
        self,
        candidates: Sequence[ChannelPowerBreakdown],
        *,
        config: PaperConfig = DEFAULT_CONFIG,
    ) -> ConfigurationDecision:
        """Select the candidate minimising energy per bit."""

        def energy(c: ChannelPowerBreakdown) -> float:
            metrics = energy_metrics(c, config=config)
            return (
                metrics.energy_per_bit_ip_j
                if self.ip_referenced
                else metrics.energy_per_bit_modulation_j
            )

        best = min(_feasible(candidates), key=energy)
        picked_energy = energy(best) * 1e12
        return ConfigurationDecision(
            breakdown=best,
            policy_name=self.name,
            reason=f"lowest energy per bit ({picked_energy:.2f} pJ/bit)",
        )


@dataclass
class DeadlineConstrainedPolicy:
    """Lowest-power configuration whose communication time meets a deadline.

    The deadline is expressed as the maximum tolerable communication-time
    overhead (e.g. 1.2 means "at most 20% slower than an uncoded transfer"),
    which is how the paper frames real-time constraints.
    """

    max_communication_time: float
    name: str = "deadline"

    def select(
        self,
        candidates: Sequence[ChannelPowerBreakdown],
        *,
        config: PaperConfig = DEFAULT_CONFIG,
    ) -> ConfigurationDecision:
        """Select the lowest-power candidate within the deadline."""
        feasible = _feasible(candidates)
        within = [c for c in feasible if c.communication_time <= self.max_communication_time]
        if not within:
            raise InfeasibleDesignError(
                f"no configuration meets the communication-time bound {self.max_communication_time:.2f}"
            )
        best = min(within, key=lambda c: c.total_power_w)
        return ConfigurationDecision(
            breakdown=best,
            policy_name=self.name,
            reason=(
                f"lowest power among CT <= {self.max_communication_time:.2f} "
                f"({best.total_power_mw:.2f} mW, CT = {best.communication_time:.2f})"
            ),
        )


# ------------------------------------------------------------------ adaptation
def margin_levels(worst_case_multiplier: float, *, ratio: float = 2.0) -> list[float]:
    """Geometric ladder of drift margins from nominal to the worst case.

    The online controller switches the link between these margin levels: a
    configuration provisioned for margin ``m`` keeps the post-decoding BER at
    or below target while the channel's raw BER is degraded by up to ``m``.
    The ladder always starts at ``1.0`` (today's static design) and ends at
    exactly ``worst_case_multiplier`` (the static worst-case design).
    """
    if worst_case_multiplier < 1.0:
        raise ConfigurationError("worst-case multiplier must be at least 1")
    if ratio <= 1.0:
        raise ConfigurationError("margin ladder ratio must exceed 1")
    levels = [1.0]
    while levels[-1] * ratio < worst_case_multiplier:
        levels.append(levels[-1] * ratio)
    if levels[-1] < worst_case_multiplier:
        levels.append(float(worst_case_multiplier))
    return levels


@dataclass
class FailureRateMonitor:
    """Windowed packet-failure monitor estimating the channel's BER drift.

    The receiver-visible failure telemetry of every transmission attempt —
    ECC blocks the decoder had to correct plus CRC-detected packet failures —
    is accumulated against the number expected at the configuration's design
    raw BER; once a window's worth of blocks has been observed, the
    observed/expected ratio is emitted as the estimated raw-BER drift
    multiplier (disturb probabilities are linear in the raw BER at the
    operating points the links design for).  One monitor watches one channel.
    """

    window_blocks: int = 4096
    _blocks: int = 0
    _observed: float = 0.0
    _expected: float = 0.0

    def __post_init__(self) -> None:
        if self.window_blocks < 1:
            raise ConfigurationError("monitor window must cover at least one block")

    def observe(
        self, blocks: int, observed_events: float, expected_events: float
    ) -> float | None:
        """Feed one attempt's telemetry; returns the drift estimate at window end."""
        # Chained comparisons reject NaN and inf too: one NaN would poison
        # the window's ratio and silently freeze the controller's level.
        if not (
            0 <= blocks < math.inf
            and 0.0 <= observed_events < math.inf
            and 0.0 <= expected_events < math.inf
        ):
            raise ConfigurationError(
                "monitor observations must be finite and non-negative"
            )
        self._blocks += int(blocks)
        self._observed += float(observed_events)
        self._expected += float(expected_events)
        if self._blocks < self.window_blocks:
            return None
        # A window with no expected events carries no information: report the
        # neutral estimate 1.0 (never triggers an upgrade or a downgrade).
        # Otherwise the raw ratio is returned unclamped — estimates *below* 1
        # are exactly what lets the controller step back down to level 0 once
        # a drifted channel returns to nominal.
        estimate = self._observed / self._expected if self._expected > 0.0 else 1.0
        self._blocks = 0
        self._observed = 0.0
        self._expected = 0.0
        return estimate

    def reset(self) -> None:
        """Forget the partial window (start of a new simulation run)."""
        self._blocks = 0
        self._observed = 0.0
        self._expected = 0.0


@dataclass
class HysteresisSwitchingPolicy:
    """Hysteresis rule mapping drift estimates to margin-level moves.

    Upgrades are eager — one window estimating the drift above
    ``upgrade_headroom`` times the current margin steps the level up (the
    channel has outgrown the provisioned headroom and the link is about to
    miss its BER target).  Downgrades are conservative — the estimate must
    stay below ``downgrade_fraction`` of the *lower* level's margin for
    ``hold_windows`` consecutive windows before stepping down.  The deadband
    between ``downgrade_fraction * margins[level-1]`` and
    ``upgrade_headroom * margins[level]`` is what keeps the controller from
    oscillating on monitor noise: a nominal channel (estimate ~ 1) sits
    strictly below the level-0 upgrade threshold.
    """

    upgrade_headroom: float = 1.2
    downgrade_fraction: float = 0.6
    hold_windows: int = 2

    def __post_init__(self) -> None:
        if self.upgrade_headroom <= 1.0:
            raise ConfigurationError(
                "upgrade headroom must exceed 1 (a nominal channel must not trigger)"
            )
        if not 0.0 < self.downgrade_fraction <= 1.0:
            raise ConfigurationError("downgrade fraction must lie in (0, 1]")
        if self.hold_windows < 1:
            raise ConfigurationError("downgrades need at least one calm window")

    def qualifies_for_downgrade(
        self, estimated_multiplier: float, margins: Sequence[float], level: int
    ) -> bool:
        """Whether one window's estimate counts towards a downgrade streak."""
        return level > 0 and estimated_multiplier < (
            self.downgrade_fraction * margins[level - 1]
        )

    def decide(
        self,
        estimated_multiplier: float,
        margins: Sequence[float],
        level: int,
        calm_windows: int,
    ) -> int:
        """Level delta (-1, 0, +1) for one window's drift estimate.

        ``calm_windows`` counts how many consecutive windows (excluding this
        one) that already qualified for a downgrade.  A subclass may override
        this method or :meth:`_decide`;
        :class:`~repro.manager.runtime.AdaptiveEccController` calls
        ``_decide`` unless ``decide`` is overridden.
        """
        return self._decide(estimated_multiplier, margins, level, calm_windows)[0]

    def _decide(
        self,
        estimated_multiplier: float,
        margins: Sequence[float],
        level: int,
        calm_windows: int,
    ) -> tuple[int, bool]:
        """:meth:`decide`'s delta, and whether the window qualified for a downgrade.

        The controller keeps its calm-window streaks from the second value,
        so each window evaluates :meth:`qualifies_for_downgrade` at most once.
        """
        if not 0 <= level < len(margins):
            raise ConfigurationError("current level outside the margin ladder")
        if level + 1 < len(margins) and estimated_multiplier > (
            self.upgrade_headroom * margins[level]
        ):
            return 1, False
        qualifies = self.qualifies_for_downgrade(estimated_multiplier, margins, level)
        if qualifies and calm_windows + 1 >= self.hold_windows:
            return -1, True
        return 0, qualifies


# ------------------------------------------------------------------ degradation
@dataclass(frozen=True)
class DegradationAction:
    """What the degradation ladder decided for one transfer.

    ``rung`` names the most severe measure applied: ``"nominal"`` (healthy
    channel, no measure), ``"remap"`` (traffic remapped onto the surviving
    wavelengths), ``"margin"`` (ECC margin escalated to absorb a raw-BER
    penalty), ``"derate"`` (data rate lowered on top of the full margin),
    ``"blackout"`` (channel temporarily dark — the engine defers and
    retries) or ``"down"`` (channel declared down, the transfer is dropped).
    """

    serve: bool
    margin_multiplier: float = 1.0
    wavelengths: int = 0
    derate_factor: float = 1.0
    rung: str = "nominal"


@dataclass
class DegradationLadder:
    """Graceful-degradation policy mapping hard-fault health to an action.

    The ladder reacts to a channel's hard-fault condition
    (:class:`~repro.netsim.failures.ChannelHealth`) with the mildest measure
    that keeps the BER contract, escalating in order:

    1. **remap** — stuck rings took wavelengths away: serialise over the
       survivors (slower, but the BER contract holds untouched).
    2. **escalate ECC margin** — a laser-droop raw-BER penalty is absorbed
       by provisioning the smallest margin level covering it (the same
       ladder the adaptive controller switches on).
    3. **derate the data rate** — the penalty exceeds the top margin level:
       halve the rate (each halving buys a 2x raw-BER allowance from the
       energy-per-bit gain) until the remaining penalty fits under the top
       margin.
    4. **declare the channel down** — hard-failed, below the minimum viable
       wavelength count, or the derate cap is exhausted: refuse the
       transfer instead of burning energy on a dead lane.

    A transient blackout is *not* a rung: the ladder reports
    ``rung="blackout"`` with ``serve=True`` and the engine defers the
    attempt with backoff until the window passes (or the retry budget and
    timeout drop it).
    """

    margins: Sequence[float]
    num_wavelengths: int
    min_wavelengths: int = 1
    max_derate_factor: float = 8.0

    def __post_init__(self) -> None:
        margins = [float(margin) for margin in self.margins]
        if not margins or any(m < 1.0 for m in margins):
            raise ConfigurationError("the margin ladder needs levels >= 1")
        if sorted(margins) != margins or len(set(margins)) != len(margins):
            raise ConfigurationError("margin levels must be strictly increasing")
        if self.num_wavelengths < 1:
            raise ConfigurationError("the ladder needs at least one wavelength")
        if not 1 <= self.min_wavelengths <= self.num_wavelengths:
            raise ConfigurationError(
                "minimum viable wavelengths must lie in [1, num_wavelengths]"
            )
        if self.max_derate_factor < 1.0:
            raise ConfigurationError("the derate cap must be at least 1")
        self.margins = margins

    @property
    def top_margin(self) -> float:
        """Largest margin level the ladder can provision."""
        return self.margins[-1]

    def action_for(self, health) -> DegradationAction:
        """The mildest sufficient measure for one channel's health."""
        if health.failed or health.wavelengths_available < self.min_wavelengths:
            return DegradationAction(serve=False, rung="down")
        wavelengths = int(health.wavelengths_available)
        penalty = float(health.ber_penalty_multiplier)
        derate = 1.0
        while penalty / derate > self.top_margin * (1.0 + 1e-12):
            derate *= 2.0
            if derate > self.max_derate_factor:
                return DegradationAction(serve=False, rung="down")
        margin = next(
            (level for level in self.margins if level >= penalty / derate),
            self.top_margin,
        )
        if health.blacked_out:
            rung = "blackout"
        elif derate > 1.0:
            rung = "derate"
        elif margin > 1.0:
            rung = "margin"
        elif wavelengths < self.num_wavelengths:
            rung = "remap"
        else:
            rung = "nominal"
        return DegradationAction(
            serve=True,
            margin_multiplier=margin,
            wavelengths=wavelengths,
            derate_factor=derate,
            rung=rung,
        )

