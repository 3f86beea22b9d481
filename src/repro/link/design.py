"""Operating-point solver: (ECC, target BER) → laser powers.

This is the computational core of the paper's evaluation (Figures 5 and 6):

1. the target post-decoding BER and the selected code fix the raw channel
   BER the link may exhibit (inversion of Eq. 2),
2. the raw BER fixes the required SNR at the photodetector (inversion of
   Eq. 3),
3. the SNR, the worst-case crosstalk and the dark current fix the required
   received signal power (inversion of Eq. 4),
4. the MWSR power budget maps that back to the laser output power
   ``OP_laser``, and
5. the thermally-limited VCSEL model converts ``OP_laser`` into the
   electrical laser power ``P_laser`` — or declares the target unreachable
   when ``OP_laser`` exceeds the 700 uW rating (the paper's BER=1e-12
   "w/o ECC" case).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..channel.ber import required_raw_ber, required_snr
from ..config import DEFAULT_CONFIG, PaperConfig
from ..exceptions import ConfigurationError
from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from ..photonics.laser import VCSELModel
from ..photonics.photodetector import Photodetector
from .power_budget import LinkPowerBudget

__all__ = ["LinkDesignPoint", "OpticalLinkDesigner"]


@dataclass(frozen=True)
class LinkDesignPoint:
    """A fully solved optical-link operating point for one coding scheme."""

    code_name: str
    target_ber: float
    raw_channel_ber: float
    required_snr: float
    signal_power_w: float
    crosstalk_power_w: float
    laser_output_power_w: float
    laser_electrical_power_w: float
    feasible: bool
    communication_time: float
    code_rate: float

    @property
    def laser_power_mw(self) -> float:
        """Electrical laser power in milliwatts (P_laser as plotted in Fig. 5)."""
        return self.laser_electrical_power_w * 1e3

    @property
    def laser_output_power_uw(self) -> float:
        """Laser optical output power in microwatts (OP_laser of Fig. 4)."""
        return self.laser_output_power_w * 1e6


@dataclass
class OpticalLinkDesigner:
    """Solves link operating points for the paper's MWSR channel.

    Parameters
    ----------
    config:
        Evaluation parameters; defaults to the paper's Section V setup.  The
        laser (the PCM-VCSEL model) and the optical power budget (the
        worst-case MWSR budget) are built from it.
    persistent_cache:
        Optional durable tier behind the in-memory design-point cache: any
        object with ``load(key) -> LinkDesignPoint | None`` and
        ``store(key, point)`` where ``key`` is the memoization tuple
        ``(code name, n, k, target_ber)``.  Consulted only on in-memory
        misses and populated after each solve, so a process shared across
        requests (the simulation service) answers repeat queries without
        re-running the crosstalk/brentq chain even across restarts.  See
        :class:`repro.service.store.PersistentDesignCache`.
    """

    config: PaperConfig = field(default_factory=lambda: DEFAULT_CONFIG)
    persistent_cache: object | None = None
    laser: VCSELModel = field(init=False)
    budget: LinkPowerBudget = field(init=False)

    def __post_init__(self) -> None:
        self.laser = VCSELModel.from_config(self.config)
        self.budget = LinkPowerBudget(config=self.config)
        self._detector = Photodetector.from_config(self.config)
        # Solved operating points, keyed by code identity and target.  The
        # solve chain (crosstalk scan + a brentq inversion) costs 0.1-1 ms,
        # and request-rate consumers (the runtime manager, the network
        # simulator) ask for the same handful of (code, target) pairs
        # millions of times; LinkDesignPoint is frozen, so sharing the
        # instance is safe.
        self._point_cache: dict = {}

    # ------------------------------------------------------------------ solving
    def required_laser_output_power(self, code, target_ber: float) -> float:
        """OP_laser needed for ``code`` to meet ``target_ber`` (ignores rating).

        Because the worst-case crosstalk scales with the common per-channel
        laser power, Eq. 4 becomes

        ``SNR = R * OP_laser * G_sig * (1 - xt) / i_n``

        with ``G_sig`` the signal-path transmission and ``xt`` the crosstalk
        ratio, which is inverted directly.
        """
        return self.design_point(code, target_ber).laser_output_power_w

    def _solve_laser_output_power(self, snr: float) -> float:
        """OP_laser that delivers ``snr`` at the photodetector."""
        transmission = self.budget.signal_transmission
        crosstalk_ratio = self.budget.crosstalk_ratio
        effective = transmission * (1.0 - crosstalk_ratio)
        if effective <= 0:
            raise ConfigurationError("crosstalk exceeds the signal; link is unusable")
        required_received = self._detector.required_signal_power(snr)
        return required_received / effective

    def cached_point(self, code, target_ber: float) -> "LinkDesignPoint | None":
        """The already-solved point for ``(code, target_ber)``, or ``None``.

        Probes the in-memory tier only — never solves and never touches the
        persistent tier, so it is safe on a latency budget (the service's
        overload ladder uses it to decide whether a query is a cache hit it
        can still serve while shedding).
        """
        key = (getattr(code, "name", type(code).__name__), code.n, code.k, float(target_ber))
        return self._point_cache.get(key)

    def design_point(self, code, target_ber: float) -> LinkDesignPoint:
        """Solve the full operating point for one code and target BER (memoized).

        Infeasible points (laser rating exceeded) are returned with
        ``feasible=False`` and the electrical power the laser *would* need
        according to the droop model, so sweeps can still plot them.
        """
        key = (getattr(code, "name", type(code).__name__), code.n, code.k, float(target_ber))
        cached = self._point_cache.get(key)
        registry = obs_metrics.ACTIVE
        if cached is not None:
            if registry is not None:
                registry.inc("link.design_point.cache_hits")
            return cached
        if self.persistent_cache is not None:
            persisted = self.persistent_cache.load(key)
            if persisted is not None:
                if registry is not None:
                    registry.inc("link.design_point.persistent_hits")
                self._point_cache[key] = persisted
                return persisted
        if registry is not None:
            registry.inc("link.design_point.cache_misses")
        tracer = obs_tracing.ACTIVE
        if tracer is None:
            point = self._solve_design_point(code, target_ber)
        else:
            with tracer.span("link.design_point", code=key[0], target_ber=key[3]):
                point = self._solve_design_point(code, target_ber)
        self._point_cache[key] = point
        if self.persistent_cache is not None:
            self.persistent_cache.store(key, point)
        return point

    def _solve_design_point(self, code, target_ber: float) -> LinkDesignPoint:
        if not 0.0 < target_ber < 0.5:
            raise ConfigurationError("target BER must lie in (0, 0.5)")
        raw = required_raw_ber(code, target_ber)
        # Looked up as ``required_snr``, the layer boundary perfbench's traced
        # run wraps in ``repro.link.design``; its raw BER is a memo hit.
        snr = required_snr(code, target_ber)
        op_laser = self._solve_laser_output_power(snr)
        signal = self.budget.received_signal_power(op_laser)
        crosstalk = self.budget.received_crosstalk_power(op_laser)
        feasible = self.laser.can_deliver(op_laser)
        electrical = self.laser.electrical_power(
            op_laser, activity=self.config.chip_activity, enforce_limit=False
        )
        return LinkDesignPoint(
            code_name=getattr(code, "name", type(code).__name__),
            target_ber=float(target_ber),
            raw_channel_ber=float(raw),
            required_snr=float(snr),
            signal_power_w=float(signal),
            crosstalk_power_w=float(crosstalk),
            laser_output_power_w=float(op_laser),
            laser_electrical_power_w=float(electrical),
            feasible=bool(feasible),
            communication_time=float(code.communication_time_overhead),
            code_rate=float(code.code_rate),
        )

    def sweep_ber(self, code, target_bers: Sequence[float]) -> list[LinkDesignPoint]:
        """Solve operating points over a list of target BERs (Figure 5 axis)."""
        return [self.design_point(code, ber) for ber in target_bers]
