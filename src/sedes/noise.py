"""Driving noise for the delay integrator: one real standard Brownian
motion B, the noise of every worked example.  An increment over a step of
length dt is sqrt(dt) times a standard normal, one per path and step.

Gaussians are generated counter-based: every draw is a pure function of
(seed, path_id, step_index), obtained by hashing the key words with the
SplitMix64 finalizer and feeding two 53-bit uniforms to Box-Muller.
No generator state exists, so ensembles produce identical numbers no
matter how paths are scheduled or batched.  Transcendental evaluations
are always performed on buffers padded to a multiple of 64 entries so
that numpy never routes a straggler through a scalar libm path; this
keeps the stream bitwise reproducible across batch shapes.

Integer operations on uint64 arrays, 0-d ones included, wrap modulo 2^64
silently; a numpy scalar add warns, so the seed's first add is done on
Python ints.  A block of draws is built in place (one scratch array per
hash, each word array freed once its uniforms exist, Box-Muller and the
sqrt(dt) scale on the padded buffers) by the operations of an allocating
evaluation, in the same order, so the bits are the same; it holds a few
arrays of its size at most.
"""

import math

import numpy as np

__all__ = ["NoiseModel"]

_U64 = np.uint64
_GOLD = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
_S30 = _U64(30)
_S27 = _U64(27)
_S31 = _U64(31)
_S11 = _U64(11)
_TWO53 = 2.0 ** -53


def _mix64(z):
    """SplitMix64 finalizer (bijective), run in place on the writable uint64
    array z with one scratch array; returns z."""
    tmp = np.empty_like(z)
    for shift, mult in ((_S30, _MIX1), (_S27, _MIX2)):
        np.bitwise_xor(z, np.right_shift(z, shift, out=tmp), out=z)
        np.multiply(z, mult, out=z)
    return np.bitwise_xor(z, np.right_shift(z, _S31, out=tmp), out=z)


def _absorb(h, word):
    """_mix64(h ^ (word + _GOLD)) on the one array this creates."""
    w = np.asarray(word).astype(np.uint64)     # a copy: word is not touched
    w += _GOLD
    return _mix64(np.asarray(h ^ w))    # h ^ w is a scalar when both are 0-d


def keyed_words(seed, *keys):
    """64-bit hash words from (seed, keys...); keys broadcast elementwise."""
    h = _mix64(np.asarray(_U64((int(seed) + int(_GOLD)) & 0xFFFFFFFFFFFFFFFF)))
    for k in keys:
        h = _absorb(h, k)
    return h


def _uniforms(words, pad=0):
    """Doubles in [0, 1) from the top 53 bits of uint64 words, in a flat
    buffer followed by pad entries of 0.5; words is shifted in place."""
    n = words.size
    u = np.empty(n + pad)
    u[n:] = 0.5
    np.multiply(np.right_shift(words, _S11, out=words).reshape(-1), _TWO53,
                out=u[:n])
    return u


def keyed_gaussians(seed, *keys):
    """Standard normals keyed by (seed, keys...); broadcast over the keys."""
    h = keyed_words(seed, *keys)
    w1 = _absorb(h, 0x5151)
    w2 = _absorb(h, 0xA2A2)
    del h
    shape, n = w1.shape, w1.size
    # Box-Muller on flat buffers padded to a multiple of 64 entries; the
    # padding keeps every element on numpy's vector code path so results
    # do not depend on the caller's batch shape.  Each word array is freed
    # once its uniforms exist, and the transform runs in place.
    pad = (-n) % 64
    u1 = _uniforms(w1, pad)
    del w1
    u1[:n] += _TWO53                            # (0, 1]; log-safe
    u2 = _uniforms(w2, pad)
    del w2
    np.log(u1, out=u1)
    np.multiply(u1, -2.0, out=u1)
    np.sqrt(u1, out=u1)
    np.multiply(u2, 2.0 * math.pi, out=u2)
    np.cos(u2, out=u2)
    np.multiply(u1, u2, out=u1)
    return u1[:n].reshape(shape)


def keyed_uniforms(seed, *keys):
    """Uniforms in [0, 1) keyed by (seed, keys...)."""
    words = keyed_words(seed, *keys)
    return _uniforms(words).reshape(words.shape)


class NoiseModel:
    """Scalar standard Brownian motion, keyed by seed."""

    def __init__(self, seed=0):
        self.seed = int(seed)

    @classmethod
    def scalar(cls, seed=0) -> "NoiseModel":
        return cls(seed=seed)

    def increments(self, path_ids, step_index, dt):
        """Increments B(t+dt) - B(t) over the steps starting at step_index.

        step_index is one step, giving shape (len(path_ids), 1), or a 1-D
        array of K steps, giving shape (len(path_ids), K) whose column k is
        the one-step draw at step_index[k], bit for bit.
        """
        if dt <= 0:
            raise ValueError("nonpositive step")
        paths = np.atleast_1d(np.asarray(path_ids))
        steps = np.atleast_1d(np.asarray(step_index, dtype=np.int64))
        if steps.ndim != 1:
            raise ValueError("step_index must be a step or a 1-D array")
        # the trailing key word 0 is part of the key of every stream the
        # package draws: dropping it would move every path, and with it
        # every ensemble and every reproducible artifact
        z = keyed_gaussians(self.seed, paths[:, None], steps[None, :], 0)
        z *= math.sqrt(dt)
        return z
