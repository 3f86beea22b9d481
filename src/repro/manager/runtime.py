"""Run-time ECC/laser margin control for the network simulator.

The paper argues the ECC/laser configuration should be chosen at run time by
an Operating-System-level manager according to each application's
requirements.  :class:`AdaptiveEccController` is the per-channel half of
that loop: it picks the drift margin the
:class:`~repro.manager.manager.OpticalLinkManager` provisions each transfer
for, and moves channels along the margin ladder from failure telemetry.  The discrete-event engine in
:mod:`repro.netsim` serves the transfers and charges the switch penalties.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..exceptions import ConfigurationError
from .policies import FailureRateMonitor, HysteresisSwitchingPolicy

__all__ = ["AdaptiveEccController"]

#: Operating modes of the adaptive controller.
CONTROLLER_MODES = ("static", "adaptive", "oracle")


class AdaptiveEccController:
    """Online per-channel ECC/laser margin control for the network engine.

    The controller owns one margin level per channel on a shared ladder
    (:func:`~repro.manager.policies.margin_levels`) and answers two questions
    for the discrete-event engine:

    * **At arrival** — :meth:`margin_for`: which drift margin should the
      manager provision this transfer's configuration for?
    * **At departure** — :meth:`observe`: given the attempt's failure
      telemetry, should the channel switch levels?

    Three modes implement the experiment's three policies:

    ``"static"``
        Always the top of the ladder — the paper's static worst-case design.
        Never switches, never consumes telemetry.
    ``"adaptive"``
        A :class:`~repro.manager.policies.FailureRateMonitor` per channel
        feeds a :class:`~repro.manager.policies.HysteresisSwitchingPolicy`;
        level changes charge the reconfiguration latency (the channel is
        blocked while lasers re-lock and both interfaces switch coder mode)
        and energy.
    ``"oracle"``
        Clairvoyant lower bound: tracks the true drift multiplier handed in
        by the engine and always sits on the smallest sufficient level
        (switch penalties still apply).

    The controller is engine-agnostic state; the engine charges the declared
    penalties inside its event loop.
    """

    def __init__(
        self,
        *,
        margins: Sequence[float],
        mode: str = "adaptive",
        monitor: FailureRateMonitor | None = None,
        switching_policy: HysteresisSwitchingPolicy | None = None,
        switch_latency_s: float = 200e-9,
        switch_energy_j: float = 1e-9,
    ):
        if mode not in CONTROLLER_MODES:
            raise ConfigurationError(
                f"unknown controller mode {mode!r}; available: {CONTROLLER_MODES}"
            )
        margins = [float(margin) for margin in margins]
        if not margins or any(m < 1.0 for m in margins):
            raise ConfigurationError("the margin ladder needs levels >= 1")
        if sorted(margins) != margins or len(set(margins)) != len(margins):
            raise ConfigurationError("margin levels must be strictly increasing")
        if switch_latency_s < 0.0 or switch_energy_j < 0.0:
            raise ConfigurationError("switch penalties cannot be negative")
        self.margins = margins
        self.mode = mode
        self.switch_latency_s = float(switch_latency_s)
        self.switch_energy_j = float(switch_energy_j)
        self._monitor_template = monitor if monitor is not None else FailureRateMonitor()
        self._switching_policy = (
            switching_policy if switching_policy is not None else HysteresisSwitchingPolicy()
        )
        self._initial_level = len(margins) - 1 if mode == "static" else 0
        self._levels: Dict[int, int] = {}
        self._blocked_until: Dict[int, float] = {}
        self._calm: Dict[int, int] = {}
        self._monitors: Dict[int, FailureRateMonitor] = {}
        self.switch_count = 0
        self.reconfiguration_energy_j = 0.0

    # ------------------------------------------------------------------ state
    @property
    def wants_observations(self) -> bool:
        """Whether the engine should sample and feed failure telemetry."""
        return self.mode == "adaptive"

    def reset(self) -> None:
        """Forget all per-channel state (start of a new simulation run)."""
        self._levels.clear()
        self._blocked_until.clear()
        self._calm.clear()
        self._monitors.clear()
        self.switch_count = 0
        self.reconfiguration_energy_j = 0.0

    def level(self, channel: int) -> int:
        """Current ladder level of one channel."""
        return self._levels.get(channel, self._initial_level)

    def blocked_until(self, channel: int) -> float:
        """Simulation time until which the channel is reconfiguring."""
        return self._blocked_until.get(channel, 0.0)

    def _monitor_for(self, channel: int) -> FailureRateMonitor:
        if channel not in self._monitors:
            self._monitors[channel] = FailureRateMonitor(
                window_blocks=self._monitor_template.window_blocks
            )
        return self._monitors[channel]

    def _switch(self, channel: int, new_level: int, now_s: float) -> None:
        self._levels[channel] = new_level
        self._blocked_until[channel] = now_s + self.switch_latency_s
        self._calm[channel] = 0
        self.switch_count += 1
        self.reconfiguration_energy_j += self.switch_energy_j

    # ------------------------------------------------------------------ engine API
    def margin_for(self, channel: int, now_s: float, *, true_multiplier: float) -> float:
        """Margin to provision a new transfer on ``channel`` with.

        The oracle mode may switch here (it retargets the smallest level
        covering the true multiplier); the other modes only switch from
        :meth:`observe`.  Switches show in :attr:`switch_count`.
        """
        # ``level`` inline: the engine asks once per arrival.
        level = self._levels.get(channel, self._initial_level)
        if self.mode == "oracle":
            target = next(
                (
                    index
                    for index, margin in enumerate(self.margins)
                    if margin >= true_multiplier
                ),
                len(self.margins) - 1,
            )
            if target != level:
                self._switch(channel, target, now_s)
                return self.margins[target]
        return self.margins[level]

    def force_margin(self, channel: int, multiplier: float, now_s: float) -> None:
        """Escalate ``channel`` to at least the level covering ``multiplier``.

        Fault-driven escalation: when a hard-fault process announces a known
        raw-BER penalty (e.g. a laser-droop step), the channel jumps
        straight to the smallest sufficient level instead of waiting for the
        failure monitor to notice.  Never downgrades — recovery is the
        monitor's job — and charges the usual switch penalties.
        """
        if multiplier < 1.0:
            raise ConfigurationError("a forced margin multiplier must be at least 1")
        level = self.level(channel)
        target = next(
            (index for index, margin in enumerate(self.margins) if margin >= multiplier),
            len(self.margins) - 1,
        )
        if target > level:
            self._switch(channel, target, now_s)

    def observe(
        self,
        channel: int,
        now_s: float,
        *,
        blocks: int,
        observed_events: float,
        expected_events: float,
    ) -> None:
        """Feed one attempt's failure telemetry; may switch the channel's level."""
        if self.mode != "adaptive":
            return
        # ``_monitor_for`` and ``level`` inline: the engine feeds every
        # clean departure.
        monitor = self._monitors.get(channel)
        if monitor is None:
            monitor = self._monitor_for(channel)
        estimate = monitor.observe(blocks, observed_events, expected_events)
        if estimate is None:
            return
        level = self._levels.get(channel, self._initial_level)
        calm = self._calm.get(channel, 0)
        delta, qualifies = self._switching_policy.decide(estimate, self.margins, level, calm)
        if delta:
            self._switch(channel, level + (1 if delta > 0 else -1), now_s)
            return
        # Track consecutive calm windows for the hysteresis downgrade (the
        # qualification predicate lives on the policy, not here).
        self._calm[channel] = calm + 1 if qualifies else 0
