"""Name-based construction of the coding schemes used by the paper.

Experiments, examples and the runtime manager refer to codes by the names
the paper uses ("w/o ECC", "H(7,4)", "H(71,64)"), so a small registry maps
those names to constructors.  Additional schemes (SECDED, BCH, repetition,
H(63,57) from the Figure 6a label) are pre-registered for the extension
studies; users can register their own with :func:`register_code`.
"""

from __future__ import annotations

import functools
import re
from typing import Callable, Dict

from ..exceptions import ConfigurationError
from .bch import BCHCode
from .extended_hamming import ExtendedHammingCode
from .hamming import HammingCode, ShortenedHammingCode
from .parity import SingleParityCheckCode
from .repetition import RepetitionCode
from .uncoded import UncodedScheme

__all__ = [
    "available_codes",
    "get_code",
    "register_code",
    "paper_code_set",
    "paper_code_by_name",
]

_FACTORIES: Dict[str, Callable[[], object]] = {}

#: Methods every code must provide: the Monte-Carlo engine and the network
#: simulator call nothing else to encode and decode.
_PACKED_CONTRACT = ("encode_batch_packed", "decode_batch_packed")


def register_code(name: str, factory: Callable[[], object]) -> None:
    """Register a named code factory.

    The factory's product must implement the packed coding contract
    (``encode_batch_packed`` / ``decode_batch_packed``); :func:`get_code`
    rejects it otherwise.  Raises :class:`ConfigurationError` if the name
    already exists.
    """
    key = _normalise(name)
    if key in _FACTORIES:
        raise ConfigurationError(f"a code named {name!r} is already registered")
    _FACTORIES[key] = factory
    _cached_lookup.cache_clear()


def available_codes() -> list[str]:
    """Sorted list of registered code names (normalised form)."""
    return sorted(_FACTORIES)


@functools.lru_cache(maxsize=None)
def _cached_lookup(key: str):
    """Memoized code construction keyed by the normalised name.

    Code objects are immutable apart from lazily-built decoding tables, so
    sharing one instance across every lookup means repeated sweeps stop
    rebuilding generator matrices and syndrome tables.  The cache is cleared
    whenever :func:`register_code` changes the registry.  A registered
    factory whose product lacks the packed contract is rejected here, not
    deep inside a Monte-Carlo or network run.
    """
    if key not in _FACTORIES:
        return _construct_from_pattern(key)
    code = _FACTORIES[key]()
    missing = [name for name in _PACKED_CONTRACT if not callable(getattr(code, name, None))]
    if missing:
        raise ConfigurationError(
            f"code {key!r} lacks the packed coding contract: missing {', '.join(missing)}"
        )
    return code


def get_code(name: str):
    """Instantiate a code by name (memoized — repeated lookups share one instance).

    Besides explicitly registered names, the registry understands the
    generic patterns ``H(n,k)`` (Hamming or shortened Hamming),
    ``SECDED(k)``, ``BCH(m,t)`` and ``REP(r)``.
    """
    constructed = _cached_lookup(_normalise(name))
    if constructed is not None:
        return constructed
    raise ConfigurationError(
        f"unknown code {name!r}; available: {available_codes()} or patterns H(n,k), SECDED(k), BCH(m,t), REP(r)"
    )


def paper_code_set(block_length: int = 64) -> list:
    """The three transmission schemes evaluated in the paper.

    Returns ``[w/o ECC, H(71,64), H(7,4)]`` (order used by Figures 5/6),
    with the uncoded scheme sized to the IP bus width.
    """
    return [
        UncodedScheme(block_length),
        ShortenedHammingCode(block_length),
        HammingCode(3),
    ]


def paper_code_by_name(name: str, block_length: int = 64):
    """Resolve a code name against the paper set first, then the registry.

    The paper set sizes its uncoded scheme to the IP bus width, so names
    like ``"w/o ECC"`` must resolve through :func:`paper_code_set` (with the
    caller's ``block_length``) before falling back to :func:`get_code`.
    Shared by the experiment grid shards, which carry codes by name.
    """
    for code in paper_code_set(block_length):
        if code.name == name:
            return code
    return get_code(name)


def _normalise(name: str) -> str:
    return re.sub(r"\s+", "", name).lower()


def _construct_from_pattern(key: str):
    """Build a code from a generic textual pattern, or return None."""
    hamming_match = re.fullmatch(r"h\((\d+),(\d+)\)", key)
    if hamming_match:
        n, k = int(hamming_match.group(1)), int(hamming_match.group(2))
        m = n - k
        if (1 << m) - 1 == n:
            return HammingCode(m)
        if (1 << m) - 1 > n:
            code = ShortenedHammingCode(k)
            if code.n != n:
                raise ConfigurationError(
                    f"H({n},{k}) is not a (shortened) Hamming code; shortening {k} payload bits "
                    f"gives H({code.n},{k})"
                )
            return code
        raise ConfigurationError(f"H({n},{k}) is not a valid Hamming code")
    secded_match = re.fullmatch(r"secded\((\d+)\)", key)
    if secded_match:
        return ExtendedHammingCode(int(secded_match.group(1)))
    secded_nk = re.fullmatch(r"secded\((\d+),(\d+)\)", key)
    if secded_nk:
        return ExtendedHammingCode(int(secded_nk.group(2)))
    bch_match = re.fullmatch(r"bch\((\d+),(\d+)\)", key)
    if bch_match:
        return BCHCode(int(bch_match.group(1)), int(bch_match.group(2)))
    rep_match = re.fullmatch(r"rep\((\d+)\)", key)
    if rep_match:
        return RepetitionCode(int(rep_match.group(1)))
    spc_match = re.fullmatch(r"spc\((\d+)\)", key)
    if spc_match:
        return SingleParityCheckCode(int(spc_match.group(1)))
    return None


# --- default registrations -------------------------------------------------------
register_code("w/o ECC", lambda: UncodedScheme(64))
register_code("uncoded", lambda: UncodedScheme(64))
register_code("H(7,4)", lambda: HammingCode(3))
register_code("H(15,11)", lambda: HammingCode(4))
register_code("H(31,26)", lambda: HammingCode(5))
register_code("H(63,57)", lambda: HammingCode(6))
register_code("H(71,64)", lambda: ShortenedHammingCode(64))
register_code("H(127,120)", lambda: HammingCode(7))
register_code("SECDED(72,64)", lambda: ExtendedHammingCode(64))
register_code("SECDED(8,4)", lambda: ExtendedHammingCode(4))
register_code("BCH(63,t=2)", lambda: BCHCode(6, 2))
register_code("REP(3,1)", lambda: RepetitionCode(3))
