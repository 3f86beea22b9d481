"""The Optical Link Energy/Performance Manager.

The paper describes a shared manager that receives configuration requests
from source cores ("I need to talk to destination D with requirements R"),
selects the communication scheme (with or without ECC) and the laser output
power, and answers with the configuration both sides must apply.  This
module implements that request/response protocol on top of the link
designer, the power models and the selection policies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..coding.registry import paper_code_set
from ..coding.theory import output_ber, raw_ber_for_target_output_ber
from ..config import DEFAULT_CONFIG, PaperConfig
from ..exceptions import ConfigurationError
from ..interfaces.synthesis import SynthesisReport, synthesize_interfaces
from ..link.design import OpticalLinkDesigner
from ..obs import metrics as obs_metrics
from ..power.channel import ChannelPowerBreakdown, channel_power_breakdown
from .policies import ConfigurationDecision, MinimumPowerPolicy, SelectionPolicy

__all__ = [
    "CommunicationRequest",
    "LinkConfiguration",
    "OpticalLinkManager",
    "derated_target_ber",
]


def derated_target_ber(code, target_ber: float, margin_multiplier: float) -> float:
    """Post-decoding target to *design* for so drift cannot break the real one.

    A link provisioned against a raw-BER drift margin ``m`` must keep the
    post-decoding BER at or below ``target_ber`` while the channel is up to
    ``m`` times noisier than designed.  Equivalently, its design raw BER must
    be ``m`` times lower than the code would nominally tolerate — which maps
    back onto the existing (code, target) design chain as designing for the
    *derated* post-decoding target ``output_ber(code, raw_nominal / m)``.
    ``margin_multiplier = 1`` returns ``target_ber`` unchanged (bit-for-bit:
    no analytic round trip is taken), so unmargined requests reproduce the
    historical design points exactly.
    """
    if margin_multiplier < 1.0:
        raise ConfigurationError("drift margin multiplier must be at least 1")
    if margin_multiplier == 1.0:
        return float(target_ber)
    nominal_raw = raw_ber_for_target_output_ber(code, target_ber)
    return float(output_ber(code, nominal_raw / margin_multiplier))


@dataclass(frozen=True)
class CommunicationRequest:
    """A configuration request issued by a source core to the manager."""

    source: int
    destination: int
    target_ber: float
    payload_bits: int = 64
    policy: SelectionPolicy | None = None

    def __post_init__(self) -> None:
        if self.source == self.destination:
            raise ConfigurationError("source and destination must differ")
        if not 0.0 < self.target_ber < 0.5:
            raise ConfigurationError("target BER must lie in (0, 0.5)")
        if self.payload_bits <= 0:
            raise ConfigurationError("payload must contain at least one bit")


@dataclass(frozen=True)
class LinkConfiguration:
    """The manager's answer: what both interface sides must apply."""

    request: CommunicationRequest
    decision: ConfigurationDecision
    laser_output_power_w: float

    @property
    def code_name(self) -> str:
        """Coding scheme both sides must select."""
        return self.decision.code_name

    @property
    def design_target_ber(self) -> float:
        """Post-decoding target the operating point was actually solved for.

        Equals the request's target for an unmargined configuration and the
        derated (tighter) target when a drift margin was applied.
        """
        return self.decision.breakdown.target_ber

    @property
    def communication_time(self) -> float:
        """Communication-time overhead of the selected scheme."""
        return self.decision.communication_time

    @property
    def channel_power_w(self) -> float:
        """Per-wavelength channel power at this configuration."""
        return self.decision.channel_power_w


class OpticalLinkManager:
    """Centralised manager configuring the ECC mode and laser power per request.

    It chooses among the paper's code set (:func:`paper_code_set`) with
    :class:`MinimumPowerPolicy` unless a request carries its own policy.
    """

    def __init__(self, *, config: PaperConfig = DEFAULT_CONFIG):
        self._config = config
        self._codes = paper_code_set(config.ip_bus_width_bits)
        self._designer = OpticalLinkDesigner(config=config)
        self._synthesis: SynthesisReport = synthesize_interfaces(config=config)
        self._default_policy: SelectionPolicy = MinimumPowerPolicy()
        self._candidate_cache: Dict[tuple[float, float], list[ChannelPowerBreakdown]] = {}

    # ------------------------------------------------------------------ queries
    @property
    def config(self) -> PaperConfig:
        """Interconnect parameters the manager was built for."""
        return self._config

    @property
    def codes(self) -> list:
        """Coding schemes the manager can select between."""
        return list(self._codes)

    # ------------------------------------------------------------------ requests
    def candidates_for(
        self, target_ber: float, margin_multiplier: float = 1.0
    ) -> list[ChannelPowerBreakdown]:
        """Channel-power breakdowns of every scheme at one BER target (cached).

        With a ``margin_multiplier`` above 1, every candidate is solved at
        its code's *derated* target (:func:`derated_target_ber`), i.e. with
        enough raw-BER headroom to ride out that much channel drift.
        """
        key = (float(target_ber), float(margin_multiplier))
        registry = obs_metrics.ACTIVE
        if key not in self._candidate_cache:
            if registry is not None:
                registry.inc("manager.candidates.cache_misses")
            self._candidate_cache[key] = [
                channel_power_breakdown(
                    code,
                    derated_target_ber(code, key[0], key[1]),
                    config=self._config,
                    designer=self._designer,
                    synthesis=self._synthesis,
                )
                for code in self._codes
            ]
        elif registry is not None:
            registry.inc("manager.candidates.cache_hits")
        return self._candidate_cache[key]

    def configure(
        self, request: CommunicationRequest, *, margin_multiplier: float = 1.0
    ) -> LinkConfiguration:
        """Handle one configuration request and record the applied configuration.

        ``margin_multiplier`` provisions the selected operating point against
        raw-BER drift (see :func:`derated_target_ber`); the online adaptive
        controller passes the margin of the channel's current level, a static
        worst-case design passes the drift model's worst case, and the
        default of 1 reproduces the historical unmargined behaviour exactly.
        """
        self._validate_endpoints(request)
        registry = obs_metrics.ACTIVE
        if registry is not None:
            registry.inc("manager.configure.calls")
        candidates = self.candidates_for(request.target_ber, margin_multiplier)
        policy = request.policy if request.policy is not None else self._default_policy
        decision = policy.select(candidates, config=self._config)
        code = next(c for c in self._codes if c.name == decision.code_name)
        # The designer memoizes the solved operating point per (code,
        # target), so request-rate simulation does not re-run the
        # crosstalk/brentq chain per transfer.
        laser_output = self._designer.required_laser_output_power(
            code, decision.breakdown.target_ber
        )
        configuration = LinkConfiguration(
            request=request,
            decision=decision,
            laser_output_power_w=laser_output,
        )
        return configuration

    def configure_degraded(
        self,
        request: CommunicationRequest,
        health,
        ladder,
        *,
        base_margin_multiplier: float = 1.0,
    ):
        """Configure a request against a channel's hard-fault health.

        Runs the request through a
        :class:`~repro.manager.policies.DegradationLadder` first: the ladder
        inspects the destination's :class:`~repro.netsim.failures.ChannelHealth`
        and picks the mildest sufficient measure.  Returns
        ``(configuration, action)`` — ``configuration`` is ``None`` when the
        ladder declares the channel down (the caller drops or reroutes the
        transfer; no energy is spent).  ``base_margin_multiplier`` lets an
        online controller's drift margin combine with the fault-driven one:
        the larger of the two is provisioned.
        """
        action = ladder.action_for(health)
        registry = obs_metrics.ACTIVE
        if registry is not None:
            registry.inc("manager.configure_degraded.calls")
            registry.inc(f"manager.degradation.rung.{action.rung}")
        if not action.serve:
            return None, action
        margin = max(float(base_margin_multiplier), action.margin_multiplier)
        return self.configure(request, margin_multiplier=margin), action

    def _validate_endpoints(self, request: CommunicationRequest) -> None:
        upper = self._config.num_onis
        for endpoint in (request.source, request.destination):
            if not 0 <= endpoint < upper:
                raise ConfigurationError(
                    f"ONI index {endpoint} outside [0, {upper - 1}] for this interconnect"
                )
