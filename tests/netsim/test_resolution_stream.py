"""The simulator's resolution stream is the same child on every NumPy.

``NetworkSimulator`` draws the data-dependent outcomes of failing attempts
from a second generator spawned off the primary seed.  ``Generator.spawn``
only exists from NumPy 1.25, so the engine spawns through the bit
generator's seed sequence instead; these tests pin the child's state to
``SeedSequence(entropy, spawn_key=parent_key + (0,))`` so any NumPy that
derives it differently fails here, not as a shifted netsim figure.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.netsim import NetworkSimulator


def _child_state(entropy, spawn_key) -> dict:
    sequence = np.random.SeedSequence(entropy, spawn_key=spawn_key)
    return np.random.PCG64(sequence).state


@pytest.mark.parametrize(
    "seed, entropy, child_key",
    [
        (20260, 20260, (0,)),
        (np.random.SeedSequence(7).spawn(3)[2], 7, (2, 0)),
    ],
    ids=["int-seed", "spawned-seed-sequence"],
)
def test_resolution_stream_is_the_first_spawned_child(seed, entropy, child_key):
    sim = NetworkSimulator(seed=seed)
    assert sim._resolve_rng.bit_generator.state == _child_state(entropy, child_key)
    assert sim._rng.bit_generator._seed_seq.n_children_spawned == 1
    # Spawning moves no word of the primary stream.
    fresh = np.random.PCG64(np.random.SeedSequence(entropy, spawn_key=child_key[:-1]))
    assert sim._rng.bit_generator.state == fresh.state


def test_a_legacy_seeded_generator_seeds_the_child_from_one_draw():
    legacy = np.random.MT19937()
    legacy._legacy_seeding(5)
    replay = np.random.MT19937()
    replay._legacy_seeding(5)
    replay_rng = np.random.Generator(replay)
    expected = np.random.default_rng(int(replay_rng.integers(0, np.iinfo(np.int64).max)))

    sim = NetworkSimulator(rng=np.random.Generator(legacy))

    assert sim._resolve_rng.bit_generator.state == expected.bit_generator.state
    # The primary stream continues right after that one draw.
    assert np.array_equal(sim._rng.integers(2**62, size=4), replay_rng.integers(2**62, size=4))
