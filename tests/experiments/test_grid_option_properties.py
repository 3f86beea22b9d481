"""A sweep option the grid accepts when it is described, its worker accepts too.

For each network-simulator grid (``network``, ``adaptive``,
``availability``) options are drawn from the grid's ``_KNOBS`` table and its
list axes, mixed with hostile values: empty lists, NaN, +-inf, zero,
negative numbers, wrong types and unknown names.  Each drawn grid must
either be refused by ``describe_grid`` with a ``ConfigurationError`` (HTTP
400 on ``POST /jobs``), or run its first shard without raising, at the
smallest request count a grid accepts, with its described request count
within ``network.MAX_NUM_REQUESTS``.  A value that passes the description
but fails in the worker is a job that dies after the service answered 202;
an unbounded request count is a job that runs until the job timeout.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.config import DEFAULT_CONFIG
from repro.exceptions import ConfigurationError
from repro.experiments import adaptive, availability, network
from repro.experiments.orchestrator import describe_grid

#: Values no knob or axis accepts in general; each must be refused (or
#: harmless) wherever it lands.
HOSTILE = st.one_of(
    st.sampled_from(
        [[], None, math.nan, math.inf, -math.inf, 0, -1, -0.5, 1e300, 2**62, "nope", "", True, {}, [1, 2]]
    ),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
)


def _plausible(default):
    """A value of the default's type near it."""
    if isinstance(default, bool) or not isinstance(default, (int, float, str)):
        raise TypeError(f"no strategy for knob default {default!r}")
    if isinstance(default, str):
        return st.sampled_from([default, "bit-exact", "probabilistic"])
    if isinstance(default, int):
        return st.integers(max(0, default // 4), default * 2 + 2)
    return st.floats(default / 4, default * 2 + 1e-9, allow_nan=False)


def _names(known):
    """A list axis of known names (one or two)."""
    return st.lists(st.sampled_from(sorted(known)), min_size=1, max_size=2)


#: Hostile values of a list axis: empty, unknown names, bad loads, or not a list.
HOSTILE_AXIS = st.one_of(
    HOSTILE,
    st.lists(st.one_of(HOSTILE, st.sampled_from(["nope", "", "UNIFORM"])), max_size=2),
)

LOADS = st.lists(st.floats(0.05, 0.9), min_size=1, max_size=2)


@st.composite
def grid_options(draw, knobs: dict, axes: dict) -> dict:
    """Plausible overrides of some ``knobs`` and ``axes``, and hostile ones of a few.

    Most examples keep every value plausible but one, so each hostile value
    meets an otherwise valid grid; some carry an unknown option name.
    """
    options = {}
    for name, default in knobs.items():
        if draw(st.integers(0, 3)) == 0:
            options[name] = draw(_plausible(default), label=name)
    for name, strategy in axes.items():
        if draw(st.booleans()):
            options[name] = draw(strategy, label=name)
    names = sorted({**knobs, **axes})
    for name in draw(st.lists(st.sampled_from(names), max_size=2, unique=True), label="hostile"):
        options[name] = draw(HOSTILE_AXIS if name in axes else HOSTILE, label=name)
    if draw(st.integers(0, 9)) == 0:
        options["bogus_knob"] = 1
    return options


GRIDS = {
    "network": (
        network,
        {
            "patterns": _names(("uniform", "hotspot", "bursty")),
            "policies": _names(network._POLICY_FACTORIES),
            "loads": LOADS,
        },
    ),
    "adaptive": (
        adaptive,
        {
            "drifts": _names(adaptive.DRIFT_PROFILES),
            "policies": _names(adaptive._POLICY_MODES),
            "loads": LOADS,
        },
    ),
    "availability": (
        availability,
        {
            "scenarios": _names(availability.FAULT_SCENARIOS),
            "policies": _names(availability.DEFAULT_POLICIES),
            "loads": LOADS,
        },
    ),
}


def _check(experiment: str, options: dict) -> None:
    module, _ = GRIDS[experiment]
    try:
        grid = describe_grid(experiment, DEFAULT_CONFIG, options)
    except ConfigurationError:
        return
    if grid.shard_params:
        shard = grid.shard_params[0]
        # The shard runs at one request below, so its described count must
        # be bounded here: a huge one would run until the job timeout.
        assert shard["num_requests"] <= network.MAX_NUM_REQUESTS
        module.run_sweep_shard({**shard, "num_requests": 1}, DEFAULT_CONFIG)


@pytest.mark.parametrize("experiment", sorted(GRIDS))
def test_a_described_grid_runs_its_first_shard(experiment):
    module, axes = GRIDS[experiment]

    @settings(
        max_examples=200,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(options=grid_options(module._KNOBS, axes))
    @example(options={"num_requests": 2**62})
    def check(options):
        _check(experiment, options)

    check()
