"""The three special functions of the link's closed forms, on Python floats.

* :func:`erfc` evaluates paper Eq. 3, ``p = erfc(sqrt(SNR)) / 2``;
* :func:`erfcinv` inverts it (Eq. 1), ``SNR = erfcinv(2 p)^2``;
* :func:`bdtrc` is the binomial upper tail ``P[X > t]``, ``X ~ B(n, p)``:
  the probability that a ``t``-error-correcting block fails.

They replace ``scipy.special`` at run time: importing it cost about 280 ms
of every cold start, several times what a reproduction spends solving.

:func:`erfc` and :func:`_ndtri` are line-for-line ports of Cephes
``ndtr.c`` and ``ndtri.c`` as SciPy ships them: the same coefficient
tables, the same ``polevl``/``p1evl`` Horner order, the same branch
thresholds and the same libm ``exp``/``log``/``sqrt``.  The Horner chains
are unrolled, but every step is still one rounded multiply and one rounded
add, so both return SciPy's bits.  Domain checks that no caller here can
reach are left out.  :func:`erfcinv` is SciPy's own definition,
``-ndtri(y / 2) * sqrt(1/2)``.  For ``t = 0`` :func:`bdtrc` is Cephes's
closed form (with ports of its ``log1p``/``expm1``), again SciPy's bits;
for ``t >= 1`` it sums the exact binomial series, which lands within
2e-14 relative of exact rational arithmetic for block codes (SciPy's
``incbet`` path: 2e-13).  The tests keep ``scipy.special`` as the oracle.
"""

from __future__ import annotations

import math

__all__ = ["erfc", "erfcinv", "bdtrc"]

_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_SQRT1_2 = 0.70710678118654752440


def erfc(a: float) -> float:
    """Complementary error function (Cephes ``ndtr.c``); NaN propagates."""
    x = -a if a < 0.0 else a
    if x < 1.0:
        return 1.0 - _erf(a)
    z = -a * a
    if z < -_MAXLOG:
        return 2.0 if a < 0 else 0.0
    z = math.exp(z)
    if x < 8.0:
        p = ((((((((2.46196981473530512524e-10 * x + 5.64189564831068821977e-1) * x  # P
                   + 7.46321056442269912687e0) * x + 4.86371970985681366614e1) * x
                 + 1.96520832956077098242e2) * x + 5.26445194995477358631e2) * x
               + 9.34528527171957607540e2) * x + 1.02755188689515710272e3) * x
             + 5.57535335369399327526e2)
        q = (((((((x + 1.32281951154744992508e1) * x + 8.67072140885989742329e1) * x  # Q
                 + 3.54937778887819891062e2) * x + 9.75708501743205489753e2) * x
               + 1.82390916687909736289e3) * x + 2.24633760818710981792e3) * x
             + 1.65666309194161350182e3) * x + 5.57535340817727675546e2
    else:
        p = (((((5.64189583547755073984e-1 * x + 1.27536670759978104416e0) * x  # R
                + 5.01905042251180477414e0) * x + 6.16021097993053585195e0) * x
              + 7.40974269950448939160e0) * x + 2.97886665372100240670e0)
        q = (((((x + 2.26052863220117276590e0) * x + 9.39603524938001434673e0) * x  # S
               + 1.20489539808096656605e1) * x + 1.70814450747565897222e1) * x
             + 9.60896809063285878198e0) * x + 3.36907645100081516050e0
    y = (z * p) / q
    if a < 0:
        y = 2.0 - y
    if y != 0.0:
        return y
    return 2.0 if a < 0 else 0.0


def _erf(x: float) -> float:
    """Error function for ``|x| < 1`` (Cephes ``ndtr.c``)."""
    if x < 0.0:
        return -_erf(-x)
    z = x * x
    t = ((((9.60497373987051638749e0 * z + 9.00260197203842689217e1) * z  # T
           + 2.23200534594684319226e3) * z + 7.00332514112805075473e3) * z
         + 5.55923013010394962768e4)
    u = ((((z + 3.35617141647503099647e1) * z + 5.21357949780152679795e2) * z  # U
          + 4.59432382970980127987e3) * z + 2.26290000613890934246e4) * z + 4.92673942608635921086e4
    return x * t / u


def _ndtri(y0: float) -> float:
    """Inverse of the standard normal CDF on ``[0, 1)`` (Cephes ``ndtri.c``)."""
    if y0 == 0.0:
        return -math.inf
    negate = True
    y = y0
    if y > 1.0 - _EXP_M2:
        y = 1.0 - y
        negate = False
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        p = (((-5.99633501014107895267e1 * y2 + 9.80010754185999661536e1) * y2  # P0
              - 5.66762857469070293439e1) * y2 + 1.39312609387279679503e1) * y2 - 1.23916583867381258016e0
        q = (((((((y2 + 1.95448858338141759834e0) * y2 + 4.67627912898881538453e0) * y2  # Q0
                 + 8.63602421390890590575e1) * y2 - 2.25462687854119370527e2) * y2
               + 2.00260212380060660359e2) * y2 - 8.20372256168333339912e1) * y2
             + 1.59056225126211695515e1) * y2 - 1.18331621121330003142e0
        x = y + y * (y2 * p / q)
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:  # y > exp(-32)
        p = ((((((((4.05544892305962419923e0 * z + 3.15251094599893866154e1) * z  # P1
                   + 5.71628192246421288162e1) * z + 4.40805073893200834700e1) * z
                 + 1.46849561928858024014e1) * z + 2.18663306850790267539e0) * z
               - 1.40256079171354495875e-1) * z - 3.50424626827848203418e-2) * z
             - 8.57456785154685413611e-4)
        q = (((((((z + 1.57799883256466749731e1) * z + 4.53907635128879210584e1) * z  # Q1
                 + 4.13172038254672030440e1) * z + 1.50425385692907503408e1) * z
               + 2.50464946208309415979e0) * z - 1.42182922854787788574e-1) * z
             - 3.80806407691578277194e-2) * z - 9.33259480895457427372e-4
    else:
        p = ((((((((3.23774891776946035970e0 * z + 6.91522889068984211695e0) * z  # P2
                   + 3.93881025292474443415e0) * z + 1.33303460815807542389e0) * z
                 + 2.01485389549179081538e-1) * z + 1.23716634817820021358e-2) * z
               + 3.01581553508235416007e-4) * z + 2.65806974686737550832e-6) * z
             + 6.23974539184983293730e-9)
        q = (((((((z + 6.02427039364742014255e0) * z + 3.67983563856160859403e0) * z  # Q2
                 + 1.37702099489081330271e0) * z + 2.16236993594496635890e-1) * z
               + 1.34204006088543189037e-2) * z + 3.28014464682127739104e-4) * z
             + 2.89247864745380683936e-6) * z + 6.79019408009981274425e-9
    x = x0 - z * p / q
    return -x if negate else x


def erfcinv(y: float) -> float:
    """Inverse of :func:`erfc` on ``[0, 2]``, SciPy's ``erfcinv``."""
    if 0.0 < y < 2.0:
        return -_ndtri(0.5 * y) * _SQRT1_2
    if y == 0.0:
        return math.inf
    if y == 2.0:
        return -math.inf
    return math.nan


def _log1p(x: float) -> float:
    """``log(1 + x)`` (Cephes ``unity.c``) for ``-0.01 < x <= 0``.

    That is the only range :func:`bdtrc` calls it with, inside the
    ``[sqrt(1/2), sqrt(2)]`` window of ``1 + x`` where Cephes uses its fit.
    """
    z = x * x
    p = (((((4.5270000862445199635215e-5 * x + 4.9854102823193375972212e-1) * x  # LP
            + 6.5787325942061044846969e0) * x + 2.9911919328553073277375e1) * x
          + 6.0949667980987787057556e1) * x + 5.7112963590585538103336e1) * x + 2.0039553499201281259648e1
    q = (((((x + 1.5062909083469192043167e1) * x + 8.3047565967967209469434e1) * x  # LQ
           + 2.2176239823732856465394e2) * x + 3.0909872225312059774938e2) * x
         + 2.1642788614495947685003e2) * x + 6.0118660497603843919306e1
    return x + (-0.5 * z + x * (z * p / q))


def _expm1(x: float) -> float:
    """``exp(x) - 1`` for finite ``x`` (Cephes ``unity.c``)."""
    if x < -0.5 or x > 0.5:
        return math.exp(x) - 1.0
    xx = x * x
    r = x * ((1.2617719307481059087798e-4 * xx + 3.0299440770744196129956e-2) * xx  # EP
             + 9.9999999999999999991025e-1)
    q = ((3.0019850513866445504159e-6 * xx + 2.5244834034968410419224e-3) * xx  # EQ
         + 2.2726554820815502876593e-1) * xx + 2.0000000000000000000897e0
    r = r / (q - r)
    return r + r


def bdtrc(t: int, n: int, p: float) -> float:
    """``P[X > t]`` for ``X ~ Binomial(n, p)``, ``t >= 0``, ``0 <= p <= 1``: SciPy's ``bdtrc``.

    For ``t >= 1`` the series runs over whichever side is accurate: the
    upper tail from ``i = t + 1`` while its terms shrink from the first
    (``n p < t + 1``), else ``1 - `` the ``t + 1`` head terms, which then
    sum to at most about one half.  Both start from ``(1 - p)^k`` as
    ``exp(k log1p(-p))``, which does not underflow for block codes.
    """
    if t >= n:
        return 0.0
    if t == 0:  # Cephes's closed form, bit for bit
        if p < 0.01:
            return -_expm1(n * _log1p(-p))
        return 1.0 - (1.0 - p) ** n
    if p == 1.0:
        return 1.0
    ratio = p / (1.0 - p)  # term(i + 1) / term(i) = ratio * (n - i) / (i + 1)
    if n * p < t + 1:
        i = t + 1
        term = math.comb(n, i) * p**i * math.exp((n - i) * math.log1p(-p))
        terms = [term]
        floor = term * 1e-17  # the rest sums to at most (t + 1) of these
        while i < n and term > floor:
            term *= (n - i) / (i + 1) * ratio
            i += 1
            terms.append(term)
        return math.fsum(terms)
    term = math.exp(n * math.log1p(-p))
    head = [term]
    for i in range(t):
        term *= (n - i) / (i + 1) * ratio
        head.append(term)
    return 1.0 - math.fsum(head)
