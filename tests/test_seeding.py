"""The batched first draw, which must equal numpy's own
``default_rng(seed).random()`` and generator state bit for bit."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dialroute.seeding import pcg64_first_draws, subseed

SEEDS = st.integers(0, 2**64 - 1)


def as_int(words):
    high, low = words.tolist()
    return high << 64 | low


@settings(max_examples=300, deadline=None)
@given(SEEDS)
@example(0)
@example(1)
@example(2**32 - 1)  # the largest seed SeedSequence takes as one entropy word
@example(2**32)
@example(2**63 - 1)
@example(2**64 - 1)
def test_first_draw_and_state_match_numpy(seed):
    draws, states, incs = pcg64_first_draws([seed])
    rng = np.random.default_rng(seed)
    first = rng.random()
    assert draws[0].tobytes() == np.float64(first).tobytes()
    assert rng.bit_generator.state == {
        "bit_generator": "PCG64",
        "state": {"state": as_int(states[0]), "inc": as_int(incs[0])},
        "has_uint32": 0,
        "uinteger": 0,
    }


@settings(max_examples=50, deadline=None)
@given(st.lists(SEEDS | st.integers(0, 2**32 - 1), max_size=40))
def test_a_batch_gives_each_seed_its_own_draw(seeds):
    draws, states, incs = pcg64_first_draws(seeds)
    assert draws.shape == (len(seeds),) and states.shape == incs.shape == (len(seeds), 2)
    for i, seed in enumerate(seeds):
        alone = pcg64_first_draws([seed])
        assert draws[i] == alone[0][0]
        assert (states[i] == alone[1][0]).all() and (incs[i] == alone[2][0]).all()


def test_a_generator_set_to_the_state_draws_on_like_the_seeded_one():
    """What ``SyntheticExpert`` relies on: after the first ``random()``,
    integer draws (which use the 32-bit buffer) continue identically."""
    seeds = [0, 7, 2**40 + 3, subseed(0, "slm:hld0001:0")]
    _, states, incs = pcg64_first_draws(seeds)
    reused = np.random.default_rng(99)
    for seed, state, inc in zip(seeds, states, incs):
        seeded = np.random.default_rng(seed)
        seeded.random()
        reused.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": as_int(state), "inc": as_int(inc)},
            "has_uint32": 0,
            "uinteger": 0,
        }
        for bound in (1_000_000, 3, 2, 2**40):
            assert reused.integers(bound) == seeded.integers(bound)
        assert reused.random() == seeded.random()
