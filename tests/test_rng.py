"""Tests for the seeded trial streams, their key schedule and the bounded
draw taken straight from a bit generator."""

import numpy as np
import pytest

from cdt_ising.rng import TrialKeys, _below, stream

# seeds of 1, 1, 2, 2, 4, 5, 4, 5 and 9 uint32 words: the hash constant
# TrialKeys starts from counts max(pool size, words) of them
SEEDS = [0, 2**32 - 1, 2**32, 2**63 - 1, 2**100 + 3, 2**130 + 7, 2**128 - 1, 2**128, 2**256 + 1]
# trial indices of one, two and three words, on both sides of 2^32
TRIALS = [0, 1, 17, 2**32 - 1, 2**32, 2**32 + 5, 2**63 + 9, 2**64, 2**70 + 1]


@pytest.mark.parametrize("seed", SEEDS)
def test_trial_keys_equal_seed_sequence_keys(seed):
    keys = TrialKeys(seed)
    for i in TRIALS:
        want = np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(2, np.uint64)
        assert keys.key(i) == tuple(int(w) for w in want), i


@pytest.mark.parametrize("seed", SEEDS)
def test_rekeyed_generator_replays_the_stream(seed):
    keys = TrialKeys(seed)
    # out of order and repeated: each re-key starts its stream afresh
    for i in [*TRIALS, 3, *TRIALS[::-1]]:
        rng = keys.stream(i)
        assert rng is keys.generator
        assert np.array_equal(rng.random(37), stream(seed, i).random(37)), i


@pytest.mark.parametrize("skip", [0, 1, 3, 4, 5, 288, 1023])
def test_rekeyed_generator_passes_over_draws(skip):
    keys = TrialKeys(2**64 + 9)
    for i in (0, 6, 2**33):
        want = stream(2**64 + 9, i).random(skip + 9)[skip:]
        assert keys.stream(i, skip).random(9).tolist() == want.tolist(), i


def test_rekeyed_generator_is_left_where_the_stream_is():
    keys, ref = TrialKeys(5), stream(5, 2)
    rng = keys.stream(2)
    rng.random(3)  # into the middle of a four-word Philox block
    ref.random(3)
    assert rng.integers(2**40, size=5).tolist() == ref.integers(2**40, size=5).tolist()
    assert rng.random(7).tolist() == ref.random(7).tolist()


@pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
def test_trial_keys_reject_bad_seeds(seed):
    with pytest.raises(ValueError, match="seed"):
        TrialKeys(seed)


@pytest.mark.parametrize("args, what", [
    ((1.5,), "seed"), ((-1,), "seed"), (("3",), "seed"), ((None,), "seed"),
    ((1, 1.5), "stream key"), ((1, "2"), "stream key"), ((1, -1), "stream key"),
    ((1, 0, 2.0), "stream key"),
], ids=["float_seed", "negative_seed", "str_seed", "none_seed",
        "float_key", "str_key", "negative_key", "float_second_key"])
def test_stream_rejects_bad_seeds_and_keys(args, what):
    # int() read 1.5 and "2" as 1 and 2; a float or negative seed failed
    # inside numpy with a TypeError or its own message
    with pytest.raises(ValueError, match=what):
        stream(*args)


def test_stream_takes_numpy_integers():
    want = stream(2**63 + 1, 4, 2**40).random(5).tolist()
    assert stream(np.uint64(2**63 + 1), np.int32(4), np.int64(2**40)).random(5).tolist() == want


def test_trial_keys_take_numpy_integers():
    assert TrialKeys(np.uint64(2**63)).key(np.int64(4)) == TrialKeys(2**63).key(4)


@pytest.mark.parametrize("i", [-1, 2.0, "1"])
def test_trial_keys_reject_bad_trial_indices(i):
    with pytest.raises(ValueError, match="trial index"):
        TrialKeys(1).key(i)


# four 64-bit draws past 2^32; 3 * 2^30 and 2^31 + 1 reject a quarter and
# about half of their 32-bit words, and 3 * 2^61 a quarter of its 64-bit
# words, so both rejection loops run
BELOW_RANGES = [1, 2, 7, 3 * 2**30, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1, 2**40 + 3,
                3 * 2**61, 2**63 - 1]


def _plain(state):
    """A bit generator state with its arrays as lists, to compare with ==."""
    if isinstance(state, dict):
        return {k: _plain(v) for k, v in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


@pytest.mark.parametrize("make", [lambda: stream(11, 4), lambda: np.random.default_rng(11)],
                         ids=["philox_stream", "default_rng"])
def test_below_draws_what_integers_draws(make):
    rng, ref = make(), make()
    below = _below(rng)
    for k in range(3000):
        n = BELOW_RANGES[k % len(BELOW_RANGES)]
        assert below(n) == int(ref.integers(0, n)), (k, n)
        # the generator's own draws go on from where ``below`` left it
        if k % 7 == 0:
            assert rng.random() == ref.random(), k
        if k % 11 == 0:
            assert rng.integers(2**40) == ref.integers(2**40), k
    assert _plain(rng.bit_generator.state) == _plain(ref.bit_generator.state)


@pytest.mark.parametrize("n", [2**63 + 1, 2**64, 2**64 + 2])
def test_below_refuses_what_integers_refuses(n):
    rng, ref = stream(11, 4), stream(11, 4)
    with pytest.raises(ValueError):
        ref.integers(0, n)
    with pytest.raises(ValueError):
        _below(rng)(n)
    assert _plain(rng.bit_generator.state) == _plain(ref.bit_generator.state)
