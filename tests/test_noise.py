"""Statistics and determinism of the counter-based noise streams."""

import warnings

import numpy as np
import pytest

from sedes import NoiseModel


def test_determinism_bitwise():
    m = NoiseModel.scalar(seed=123)
    a = m.increments([5], 17, 0.01)
    b = m.increments([5], 17, 0.01)
    assert np.array_equal(a, b)
    # different key components change the draw
    assert not np.array_equal(a, m.increments([6], 17, 0.01))
    assert not np.array_equal(a, m.increments([5], 18, 0.01))


def test_batch_order_invariance():
    # the stream is a pure function of the key: batching and evaluation
    # order cannot change a single value
    m = NoiseModel.scalar(seed=9)
    batch = m.increments(np.arange(64), 3, 0.01)
    singles = np.array([m.increments([i], 3, 0.01)[0]
                        for i in reversed(range(64))])[::-1]
    assert np.array_equal(batch, singles)


def test_scalar_variance_band():
    m = NoiseModel.scalar(seed=2024)
    dt = 0.01
    draws = np.concatenate(
        [m.increments(np.arange(2000), s, dt).ravel() for s in range(500)])
    assert draws.size == 10 ** 6
    assert 0.0099 <= draws.var() <= 0.0101
    assert abs(draws.mean()) < 5e-4


def test_scaling_of_increments():
    m = NoiseModel.scalar(seed=31)
    d1 = np.concatenate([m.increments(np.arange(2000), s, 0.01).ravel()
                         for s in range(500)])
    m4 = NoiseModel.scalar(seed=77)
    d4 = np.concatenate([m4.increments(np.arange(2000), s, 0.04).ravel()
                         for s in range(500)])
    assert d4.std() / d1.std() == pytest.approx(2.0, rel=0.02)


def test_nonpositive_step_rejected():
    m = NoiseModel.scalar(seed=0)
    with pytest.raises(ValueError, match="nonpositive step"):
        m.increments([0], 0, 0.0)
    with pytest.raises(ValueError, match="nonpositive step"):
        m.increments([0], 0, -0.1)


@pytest.mark.parametrize("B", [1, 3, 200])
@pytest.mark.parametrize("K", [1, 7, 64])
def test_block_of_steps_is_the_one_step_draws(B, K):
    # a block of steps is drawn in one call; column k must be the one-step
    # draw at its step, bit for bit, wherever the block starts
    m = NoiseModel.scalar(seed=41)
    ids = np.arange(5, 5 + B)
    for start in (0, 37, 1001):
        block = m.increments(ids, np.arange(start, start + K), 1e-3)
        assert block.shape == (B, K)
        for k in range(K):
            assert np.array_equal(block[:, k],
                                  m.increments(ids, start + k, 1e-3)[:, 0])


def test_step_index_must_be_a_step_or_a_1d_array():
    m = NoiseModel.scalar(seed=0)
    assert m.increments([0, 1], 4, 0.01).shape == (2, 1)
    with pytest.raises(ValueError, match="1-D"):
        m.increments([0, 1], np.zeros((2, 2), dtype=int), 0.01)


def _splitmix64_words(seed, *keys):
    """keyed_words on Python ints: add the golden-ratio word, then the
    SplitMix64 finalizer, absorbing one key word at a time."""
    mask = 2 ** 64 - 1

    def mix(z):
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    gold = 0x9E3779B97F4A7C15
    h = mix((seed + gold) & mask)
    for k in keys:
        h = mix(h ^ ((k + gold) & mask))
    return h


@pytest.mark.parametrize("seed", [0, 2 ** 63, 2 ** 64 - 1])
def test_keyed_words_match_splitmix64_without_warnings(seed):
    # seeds at or above 2^64 - 0x9E3779B97F4A7C15 wrap in the first add
    from sedes.noise import keyed_words
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert int(keyed_words(seed)) == _splitmix64_words(seed)
        words = keyed_words(seed, np.arange(3, dtype=np.uint64), 7)
    assert [int(w) for w in words] == [_splitmix64_words(seed, k, 7)
                                       for k in range(3)]
