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
    """SplitMix64 finalizer, elementwise on uint64 arrays (bijective)."""
    with np.errstate(over="ignore"):
        z = (z ^ (z >> _S30)) * _MIX1
        z = (z ^ (z >> _S27)) * _MIX2
    return z ^ (z >> _S31)


def _absorb(h, word):
    with np.errstate(over="ignore"):
        return _mix64(h ^ (np.asarray(word).astype(np.uint64) + _GOLD))


def keyed_words(seed, *keys):
    """64-bit hash words from (seed, keys...); keys broadcast elementwise."""
    # the wrap-around add on Python ints: a numpy scalar add warns on
    # overflow, and every seed at or above 2^64 - _GOLD overflows
    h = _mix64(_U64((int(seed) + int(_GOLD)) & 0xFFFFFFFFFFFFFFFF))
    for k in keys:
        h = _absorb(h, k)
    return h


def _uniform_from_words(words):
    """Map uint64 words to doubles in [0, 1) using the top 53 bits."""
    return (words >> _S11) * _TWO53


def _padded_transform(u1, u2):
    # Box-Muller on flat buffers padded to a multiple of 64 entries; the
    # padding keeps every element on numpy's vector code path so results
    # do not depend on the caller's batch shape.
    n = u1.size
    pad = (-n) % 64
    if pad:
        u1 = np.concatenate([u1, np.full(pad, 0.5)])
        u2 = np.concatenate([u2, np.full(pad, 0.5)])
    z = np.sqrt(-2.0 * np.log(u1)) * np.cos((2.0 * math.pi) * u2)
    return z[:n] if pad else z


def keyed_gaussians(seed, *keys):
    """Standard normals keyed by (seed, keys...); broadcast over the keys."""
    h = keyed_words(seed, *keys)
    w1 = _absorb(h, 0x5151)
    w2 = _absorb(h, 0xA2A2)
    shape = w1.shape
    u1 = (_uniform_from_words(w1.reshape(-1)) + _TWO53)  # (0, 1]; log-safe
    u2 = _uniform_from_words(w2.reshape(-1))
    return _padded_transform(u1, u2).reshape(shape)


def keyed_uniforms(seed, *keys):
    """Uniforms in [0, 1) keyed by (seed, keys...)."""
    return _uniform_from_words(keyed_words(seed, *keys))


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
        return math.sqrt(dt) * z
