"""Statistics and determinism of the counter-based noise streams."""

import math
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
    from sedes.noise import _absorb, keyed_uniforms, keyed_words
    paths = np.array([0, 5, 2 ** 63, 2 ** 64 - 1], dtype=np.uint64)[:, None]
    steps = np.arange(3, dtype=np.int64)[None, :]
    keys = (paths.copy(), steps.copy())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert int(keyed_words(seed)) == _splitmix64_words(seed)
        words = keyed_words(seed, np.arange(3, dtype=np.uint64), 7)
        # the (B, K) key grid of a noise block, and the two words absorbed
        # on top of it that feed Box-Muller
        grid = keyed_words(seed, paths, steps, 0)
        box_muller = [_absorb(grid, w) for w in (0x5151, 0xA2A2)]
        # the sampler's uniforms: each word's top 53 bits times 2^-53
        uniforms = keyed_uniforms(seed, paths, steps, 0)
    assert [int(w) for w in words] == [_splitmix64_words(seed, k, 7)
                                       for k in range(3)]
    assert grid.shape == uniforms.shape == (4, 3)
    for b, p in enumerate(paths[:, 0].tolist()):
        for k in range(3):
            want = _splitmix64_words(seed, p, k, 0)
            assert int(grid[b, k]) == want
            assert uniforms[b, k] == (want >> 11) * 2.0 ** -53
            for w, extra in zip(box_muller, (0x5151, 0xA2A2)):
                assert int(w[b, k]) == _splitmix64_words(seed, p, k, 0, extra)
    # the hashing works on arrays of its own, never on the caller's keys
    assert np.array_equal(paths, keys[0]) and np.array_equal(steps, keys[1])


def _allocating_gaussians(seed, *keys):
    """keyed_gaussians with every operation allocating its result, as the
    package wrote it before it hashed and transformed in place: the bitwise
    reference for the in-place code, which must reproduce its every bit."""
    u64 = np.uint64

    def mix(z):
        z = (z ^ (z >> u64(30))) * u64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> u64(27))) * u64(0x94D049BB133111EB)
        return z ^ (z >> u64(31))

    def absorb(h, word):
        return mix(h ^ (np.asarray(word).astype(u64)
                        + u64(0x9E3779B97F4A7C15)))

    with np.errstate(over="ignore"):
        h = u64(_splitmix64_words(seed))
        for k in keys:
            h = absorb(h, k)
        w1, w2 = absorb(h, 0x5151), absorb(h, 0xA2A2)
    u1 = (w1.reshape(-1) >> u64(11)) * 2.0 ** -53 + 2.0 ** -53
    u2 = (w2.reshape(-1) >> u64(11)) * 2.0 ** -53
    n = u1.size
    pad = (-n) % 64
    if pad:
        u1 = np.concatenate([u1, np.full(pad, 0.5)])
        u2 = np.concatenate([u2, np.full(pad, 0.5)])
    z = np.sqrt(-2.0 * np.log(u1)) * np.cos((2.0 * math.pi) * u2)
    return z[:n].reshape(w1.shape)


@pytest.mark.parametrize("B, K", [(1, 1), (3, 7), (200, 64), (7, 65)])
@pytest.mark.parametrize("seed", [0, 41, 2 ** 64 - 1])
def test_in_place_gaussians_equal_the_allocating_reference(seed, B, K):
    # (7, 65) has 455 entries, so the buffers are padded to 512
    from sedes.noise import keyed_gaussians
    keys = (np.arange(5, 5 + B)[:, None], np.arange(K)[None, :], 0)
    got = keyed_gaussians(seed, *keys)
    want = _allocating_gaussians(seed, *keys)
    assert got.shape == want.shape == (B, K)
    assert got.tobytes() == want.tobytes()
    inc = NoiseModel.scalar(seed).increments(keys[0][:, 0], keys[1][0], 1e-3)
    assert inc.tobytes() == (math.sqrt(1e-3) * want).tobytes()


def test_sampler_gaussians_equal_the_allocating_reference():
    # the checkers' sampler draws the (2, 128, n_modes) mode coefficients
    # of x (stream 20) and y (stream 30) of a block in one call
    from sedes.lyapunov import SAMPLE_BLOCK
    from sedes.noise import keyed_gaussians
    keys = (np.array([[[20]], [[30]]]),
            np.arange(SAMPLE_BLOCK, 2 * SAMPLE_BLOCK)[:, None], np.arange(8))
    got = keyed_gaussians(7, *keys)
    assert got.shape == (2, 128, 8)
    assert got.tobytes() == _allocating_gaussians(7, *keys).tobytes()


def test_a_noise_block_peaks_at_six_block_sized_arrays():
    # the words are hashed in place and each word array is freed once its
    # uniforms exist; one allocation per operation peaked at 8 blocks
    import tracemalloc
    m = NoiseModel.scalar(seed=3)
    m.increments(np.arange(200), np.arange(64), 1e-3)
    tracemalloc.start()
    try:
        z = m.increments(np.arange(200), np.arange(64), 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert z.shape == (200, 64)
    assert peak <= 6 * z.nbytes
