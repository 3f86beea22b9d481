"""Determinism rules (``RPR1xx``).

Everything the reproduction guarantees — byte-identical ``--jobs N``
sweeps, engine parity, crash-retry byte-identity — assumes that *all*
randomness flows from explicitly-plumbed ``SeedSequence`` streams and that
no simulation-observable value depends on the wall clock or on hash/set
iteration order.  These rules make those assumptions machine-checked.
"""

from __future__ import annotations

import ast
from typing import List

from .astutil import enclosing_function
from .registry import rule

__all__ = [
    "check_global_random",
    "check_numpy_rng",
    "check_wall_clock",
    "check_unordered_iteration",
]

#: ``random``-module functions that mutate or read the hidden global
#: Mersenne-Twister state.  Any of them makes a run irreproducible unless
#: every import site coordinates seeding — which nothing here does.
_STDLIB_GLOBAL_FNS = frozenset(
    {
        "betavariate", "choice", "choices", "expovariate", "gammavariate",
        "gauss", "getrandbits", "getstate", "lognormvariate", "normalvariate",
        "paretovariate", "randbytes", "randint", "random", "randrange",
        "sample", "seed", "setstate", "shuffle", "triangular", "uniform",
        "vonmisesvariate", "weibullvariate",
    }
)

#: ``numpy.random`` attributes that are *not* the legacy global-state API.
_NUMPY_MODERN = frozenset(
    {
        "default_rng", "Generator", "SeedSequence", "BitGenerator",
        "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64",
    }
)

#: Canonical dotted call paths that read the wall clock.
_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time", "time.time_ns", "time.localtime", "time.gmtime",
        "time.ctime", "time.strftime",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    }
)


@rule(
    "RPR101",
    "global-stdlib-random",
    "no process-global `random` module state; use a seeded random.Random",
)
def check_global_random(ctx) -> List:
    findings = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ImportFrom) and node.module == "random":
            for alias in node.names:
                if alias.name in _STDLIB_GLOBAL_FNS:
                    findings.append(
                        ctx.finding(
                            node,
                            "RPR101",
                            f"`from random import {alias.name}` pulls in the "
                            "process-global RNG; plumb a seeded random.Random "
                            "(or numpy Generator) instead",
                        )
                    )
        if not isinstance(node, ast.Call):
            continue
        resolved = ctx.imports.resolve_call(node.func)
        if resolved is None:
            continue
        if resolved.startswith("random."):
            member = resolved[len("random."):]
            if member in _STDLIB_GLOBAL_FNS:
                findings.append(
                    ctx.finding(
                        node,
                        "RPR101",
                        f"random.{member}() uses the process-global RNG — "
                        "irreproducible across imports and workers; draw from "
                        "a seeded random.Random or numpy Generator",
                    )
                )
            elif member == "Random" and not node.args and not node.keywords:
                findings.append(
                    ctx.finding(
                        node,
                        "RPR101",
                        "random.Random() without a seed is OS-entropy seeded; "
                        "pass an explicit, plumbed seed",
                    )
                )
    return findings


@rule(
    "RPR102",
    "numpy-rng-discipline",
    "no legacy np.random.* global-state API; unseeded default_rng() only in "
    "whitelisted constructor defaults",
)
def check_numpy_rng(ctx) -> List:
    findings = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = ctx.imports.resolve_call(node.func)
        if resolved is None or not resolved.startswith("numpy.random."):
            continue
        member = resolved[len("numpy.random."):]
        if "." in member:
            # e.g. numpy.random.mtrand.* — treat the head as the member.
            member = member.split(".")[0]
        if member == "RandomState":
            findings.append(
                ctx.finding(
                    node,
                    "RPR102",
                    "np.random.RandomState is the legacy generator; use "
                    "np.random.default_rng(seed)",
                )
            )
        elif member not in _NUMPY_MODERN:
            findings.append(
                ctx.finding(
                    node,
                    "RPR102",
                    f"np.random.{member}() drives the legacy *global* NumPy "
                    "RNG; draw from a plumbed np.random.Generator instead",
                )
            )
        elif member == "default_rng" and not node.args and not node.keywords:
            function = enclosing_function(node)
            allowed = function is not None and (
                function.name in ctx.config.rng_factory_functions
            )
            if not allowed:
                findings.append(
                    ctx.finding(
                        node,
                        "RPR102",
                        "np.random.default_rng() with no seed mints an "
                        "OS-entropy generator; outside constructor-default "
                        "sites every stream must come from a plumbed "
                        "seed/SeedSequence",
                    )
                )
    return findings


@rule(
    "RPR103",
    "wall-clock-in-simulation",
    "no wall-clock reads on deterministic simulation paths",
    scope="deterministic_paths",
)
def check_wall_clock(ctx) -> List:
    findings = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = ctx.imports.resolve_call(node.func)
        if resolved in _WALL_CLOCK_CALLS:
            findings.append(
                ctx.finding(
                    node,
                    "RPR103",
                    f"{resolved}() reads the wall clock on a deterministic "
                    "simulation path; simulated time must come from the event "
                    "clock (use time.monotonic/perf_counter for diagnostics "
                    "only)",
                )
            )
    return findings


def _is_set_expression(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


@rule(
    "RPR104",
    "unordered-iteration",
    "no iteration over sets / dict.popitem on deterministic paths",
    scope="deterministic_paths",
)
def check_unordered_iteration(ctx) -> List:
    findings = []
    for node in ast.walk(ctx.tree):
        iters = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            iters.extend(generator.iter for generator in node.generators)
        for candidate in iters:
            if _is_set_expression(candidate):
                findings.append(
                    ctx.finding(
                        candidate,
                        "RPR104",
                        "iterating a set has no guaranteed order across "
                        "processes; wrap it in sorted(...) before it feeds "
                        "seeds, grids or any deterministic path",
                    )
                )
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "popitem"
        ):
            findings.append(
                ctx.finding(
                    node,
                    "RPR104",
                    "dict.popitem() order is an implementation detail; pop an "
                    "explicit (sorted) key on deterministic paths",
                )
            )
    return findings
