"""The shipped exponential ziggurat tables are the installed NumPy's.

:mod:`repro.traffic.ziggurat` ships NumPy's ``ke_double``/``we_double`` as
literals, which NumPy does not expose.  This test reads them off the
installed NumPy again and compares bit for bit, so a NumPy that changed its
exponential sampler fails here instead of drifting the decoded traffic.

The reading: an ``SFC64`` state ``[word, 0, 0, 0]`` makes ``word`` its next
output and ``1`` the one after (whose ``next_double`` is 0.0).  With
``ri = 1`` in layer ``idx``, ``standard_exponential()`` returns
``1 * we[idx]``: on the fast path directly, and on the slow path because a
zero uniform accepts ``x`` in every layer but 0, whose ``ke`` is large.
The fast path is the only one that takes a single word (the ``SFC64``
counter ends at 1), and it is taken exactly for ``ri < ke[idx]``, so a
binary search over ``ri`` finds ``ke[idx]``.
"""

from __future__ import annotations

import numpy as np

from repro.traffic.ziggurat import EXPONENTIAL_KE, EXPONENTIAL_WE

LAYERS = 256
RI_BITS = 53


def derive_tables() -> tuple[list[int], list[float]]:
    """``(ke, we)`` of the installed NumPy's exponential ziggurat."""
    bit_generator = np.random.SFC64(0)
    standard_exponential = np.random.Generator(bit_generator).standard_exponential
    state = bit_generator.state

    def draw(ri: int, layer: int) -> tuple[float, bool]:
        """The draw for word ``(ri << 11) | (layer << 3)``; whether it took one word."""
        word = (ri << 11) | (layer << 3)
        state["state"]["state"] = np.array([word, 0, 0, 0], dtype=np.uint64)
        bit_generator.state = state
        value = standard_exponential()
        return value, int(bit_generator.state["state"]["state"][3]) == 1

    ke, we = [], []
    for layer in range(LAYERS):
        we.append(draw(1, layer)[0])
        low, high = 0, 1 << RI_BITS
        while low < high:
            middle = (low + high) // 2
            if draw(middle, layer)[1]:
                low = middle + 1
            else:
                high = middle
        ke.append(low)
    return ke, we


def test_shipped_tables_equal_the_installed_numpy_bit_for_bit():
    ke, we = derive_tables()
    assert list(EXPONENTIAL_KE) == ke
    assert np.array_equal(
        np.array(EXPONENTIAL_WE, dtype=np.float64).view(np.uint64),
        np.array(we, dtype=np.float64).view(np.uint64),
    )

