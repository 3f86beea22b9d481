"""Analytic post-decoding error rates of block codes over a BSC.

The paper's link-design procedure is entirely analytic: given a target
post-decoding BER it computes the raw channel error probability ``p`` the
code can tolerate (Eq. 2 for Hamming codes), converts ``p`` to the required
SNR (Eq. 3) and finally to a laser output power (Eq. 4).  This module holds
the first step of that chain:

* :func:`hamming_output_ber` — the paper's Eq. 2,
  ``BER = p - p (1 - p)^{n-1}``.
* :func:`coded_ber_bounded_distance` — the standard bounded-distance
  post-decoding bit-error-rate approximation for a t-error-correcting code,
  used for SECDED/BCH and as a cross-check of Eq. 2.
* :func:`raw_ber_for_target_output_ber` — numeric inversion: the largest raw
  channel BER a code tolerates while meeting a post-decoding target.
* :func:`block_error_probability` — probability a whole block leaves the
  decoder with residual errors (more than ``t`` channel errors), the
  frame-error rate the packet-level network simulator samples from.

All probabilities are per-bit unless stated otherwise.

The inversion is memoized in a bounded cache: it depends on the code only
through ``(n, t)``, and a full reproduction asks for a few dozen distinct
``(n, t, target)`` triples several hundred times.  Nothing here imports
SciPy, whose import alone cost more per cold process than a reproduction
spends solving.  The root search is :func:`_brentq`, an in-tree port of
SciPy's Brent solver (``scipy/optimize/Zeros/brentq.c``) that returns its
roots bit for bit, and the binomial tail is :func:`repro.special.bdtrc`.
The tests keep ``scipy.optimize.brentq``, ``scipy.stats.binom`` and
``scipy.special.bdtrc`` as oracles.

The Brent objective runs on Python floats, not NumPy scalars: one root
takes about 30 objective calls, and wrapping each argument in a 0-d array
cost about 20 us a call, many times the formula itself.  The float forms
are bit-identical to the NumPy forms they replace, a contract the tests
pin for every registry code: the float branch of
:func:`hamming_output_ber` (the t = 1 branch of :func:`output_ber`)
evaluates Eq. 2 with the same IEEE operations and the same libm ``pow`` as
NumPy's scalar path, and :func:`coded_ber_bounded_distance` multiplies the
same exact integer coefficients, term by term and summed left to right, as
its per-term loop (``sum()`` would not do: Python 3.12 compensates it).
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Protocol

import numpy as np

from ..exceptions import ConfigurationError
from ..special import bdtrc

__all__ = [
    "code_rate",
    "hamming_output_ber",
    "coded_ber_bounded_distance",
    "output_ber",
    "raw_ber_for_target_output_ber",
    "block_error_probability",
]


class _CodeLike(Protocol):
    """Minimal protocol required from code objects by the analytic helpers."""

    n: int
    k: int
    correctable_errors: int
    code_rate: float


def code_rate(n: int, k: int) -> float:
    """Code rate Rc = k / n with validation."""
    if not 0 < k <= n:
        raise ConfigurationError("code rate requires 0 < k <= n")
    return k / n


def hamming_output_ber(raw_ber: float | np.ndarray, block_length: int) -> float | np.ndarray:
    """Post-decoding BER of a Hamming code, paper Eq. 2.

    ``BER = p - p (1 - p)^{n-1}`` where ``p`` is the raw channel bit error
    probability and ``n`` the block length.  The expression is the
    probability that a given bit is in error *and* at least one other bit of
    its block is also in error (in which case single-error correction fails
    to repair it); it tends to ``(n-1) p^2`` for small ``p``.  A float skips
    the array wrapping (it is the objective of every Hamming root search)
    and returns the array form's bits.
    """
    if isinstance(raw_ber, float):
        if not 0.0 <= raw_ber <= 1.0:
            raise ConfigurationError("raw BER must lie in [0, 1]")
        if block_length < 2:
            raise ConfigurationError("block length must be at least 2")
        return raw_ber - raw_ber * (1.0 - raw_ber) ** (block_length - 1)
    p = np.asarray(raw_ber, dtype=float)
    if not ((p >= 0) & (p <= 1)).all():
        raise ConfigurationError("raw BER must lie in [0, 1]")
    if block_length < 2:
        raise ConfigurationError("block length must be at least 2")
    result = p - p * (1.0 - p) ** (block_length - 1)
    if np.isscalar(raw_ber):
        return float(result)
    return result


def coded_ber_bounded_distance(
    raw_ber: float, block_length: int, correctable_errors: int
) -> float:
    """Post-decoding bit error rate of a bounded-distance decoder.

    Standard approximation for a ``t``-error-correcting (n, k) block code on
    a BSC with crossover probability ``p``:

    ``P_bit ~= (1/n) * sum_{i=t+1}^{n} min(i + t, n) * C(n, i) p^i (1-p)^{n-i}``

    i.e. when ``i > t`` errors occur the decoder may add up to ``t`` extra
    erroneous bits while "correcting" towards the wrong codeword.  For
    ``t = 1`` (Hamming) this closely tracks the paper's Eq. 2; for ``t = 0``
    it degenerates to the raw BER.
    """
    if not 0.0 <= raw_ber <= 1.0:
        raise ConfigurationError("raw BER must lie in [0, 1]")
    if block_length < 1:
        raise ConfigurationError("block length must be positive")
    if correctable_errors < 0:
        raise ConfigurationError("correctable_errors must be non-negative")
    if correctable_errors == 0:
        return float(raw_ber)
    p = float(raw_ber)
    if p == 0.0:
        return 0.0
    n = block_length
    t = correctable_errors
    q = 1.0 - p
    total = 0.0
    for i, coefficient in enumerate(_bounded_distance_coefficients(n, t), start=t + 1):
        total += coefficient * p ** i * q ** (n - i)
    return total / n


@functools.lru_cache(maxsize=128)
def _bounded_distance_coefficients(n: int, t: int) -> "tuple[int, ...]":
    """Exact ``min(i + t, n) * C(n, i)`` for ``i = t + 1 .. n``."""
    return tuple(min(i + t, n) * math.comb(n, i) for i in range(t + 1, n + 1))


def output_ber(code: _CodeLike, raw_ber: float) -> float:
    """Post-decoding BER of ``code`` on a BSC with crossover ``raw_ber``.

    Dispatches to the paper's Hamming expression for single-error-correcting
    codes and to the bounded-distance approximation otherwise; uncoded
    schemes (t = 0) pass the raw BER through unchanged.
    """
    return _output_ber(code.n, int(getattr(code, "correctable_errors", 0)), raw_ber)


def _output_ber(n: int, t: int, raw_ber: float) -> float:
    """:func:`output_ber` of a code with block length ``n`` correcting ``t``."""
    if t == 0:
        return float(raw_ber)
    if t == 1:
        return hamming_output_ber(float(raw_ber), n)
    return coded_ber_bounded_distance(raw_ber, n, t)


def raw_ber_for_target_output_ber(code: _CodeLike, target_ber: float) -> float:
    """Largest raw channel BER for which ``code`` still meets ``target_ber``.

    This is the inversion of Eq. 2 required by the paper's Section IV-D:
    "Calculating the SNR from BER when considering Hamming codes requires to
    invert Equations 3 and 2."  For uncoded transmissions the answer is the
    target itself; for coded transmissions a bracketed root search is used on
    the monotonic (for small p) post-decoding BER expression.  Raises
    :class:`ConfigurationError` when the search cannot bracket the root or
    does not converge: targets so deep that the objective is lost in
    rounding, or so close to 0.5 that no raw BER reaches them.
    """
    if not 0.0 < target_ber < 0.5:
        raise ConfigurationError("target BER must lie in (0, 0.5)")
    t = int(getattr(code, "correctable_errors", 0))
    if t == 0:
        return float(target_ber)
    try:
        return _raw_ber(int(code.n), t, float(target_ber))
    except (ValueError, RuntimeError) as error:
        raise ConfigurationError(
            f"no raw BER meets target {target_ber!r} with an (n={code.n}, t={t}) code: {error}"
        ) from None


@functools.lru_cache(maxsize=1024)
def _raw_ber(n: int, t: int, target_ber: float) -> float:
    """Memoized root search of :func:`raw_ber_for_target_output_ber`."""

    def objective(p: float) -> float:
        return _output_ber(n, t, p) - target_ber

    # The post-decoding BER is monotonically increasing in p on (0, ~0.5/n);
    # bracket the root between the target itself (coded is never worse than
    # uncoded in this regime) and a generous upper limit.
    low = target_ber
    high = 0.4
    if objective(low) > 0:
        # Extremely high targets where coding gives no benefit.
        return target_ber
    # Shrink the upper bracket until the objective is positive there.
    while objective(high) < 0 and high < 0.499:
        high = min(0.499, high * 1.2)
    return _brentq(objective, low, high, xtol=1e-18, rtol=1e-12)


#: Iteration cap of :func:`_brentq` (SciPy's ``brentq`` default).
_BRENTQ_MAXITER = 100


def _brentq(
    f: Callable[[float], float],
    a: float,
    b: float,
    *,
    xtol: float,
    rtol: float,
) -> float:
    """Root of ``f`` in ``[a, b]`` by Brent's method.

    A line-for-line port of SciPy's ``brentq.c`` (same branches, same
    tolerance ``delta = (xtol + rtol*|x|)/2``), so it returns the roots
    ``scipy.optimize.brentq`` returns, bit for bit.  Raises ``ValueError``
    when ``f(a)`` and ``f(b)`` share a sign and ``RuntimeError`` when
    :data:`_BRENTQ_MAXITER` iterations do not converge, as SciPy does.
    """
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = float(f(xpre))
    fcur = float(f(xcur))
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENTQ_MAXITER):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre = scur
                scur = stry
            else:
                # bisect
                spre = scur = sbis
        else:
            # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
    raise RuntimeError(f"Failed to converge after {_BRENTQ_MAXITER} iterations, value is {xcur}")


def block_error_probability(
    raw_ber: float, block_length: int, correctable_errors: int
) -> float:
    """Probability a decoded block still carries errors (frame error rate).

    A ``t``-error-correcting bounded-distance decoder repairs every pattern
    of at most ``t`` channel errors, so a block fails exactly when more than
    ``t`` of its ``n`` bits flip:

    ``P_block = 1 - sum_{i=0}^{t} C(n, i) p^i (1-p)^{n-i}``

    For perfect codes (Hamming) this is exact: any heavier pattern is
    "corrected" towards a wrong codeword whose message part necessarily
    differs from the transmitted one.  For ``t = 0`` it degenerates to the
    probability of at least one raw error.  This is the per-block failure
    probability the probabilistic mode of :mod:`repro.netsim` samples packet
    outcomes from.

    Evaluated through the binomial survival function (``bdtrc``), which
    sums the upper tail itself rather than ``1 - head-sum`` at deep
    operating points (raw BERs of 1e-7 and below, where the tail drops
    under double-precision epsilon of 1), so they keep their relative
    accuracy instead of cancelling to zero.
    """
    if not 0.0 <= raw_ber <= 1.0:
        raise ConfigurationError("raw BER must lie in [0, 1]")
    if block_length < 1:
        raise ConfigurationError("block length must be positive")
    if correctable_errors < 0:
        raise ConfigurationError("correctable_errors must be non-negative")
    p = float(raw_ber)
    if p == 0.0:
        return 0.0
    n = block_length
    t = min(correctable_errors, n)
    return float(min(1.0, max(0.0, bdtrc(t, n, p))))

