"""Deterministic random-stream derivation and shared sampling helpers.

Every replicate, chunk, and subcommand owns a generator derived from the
master seed and a fixed integer path, so output depends only on the seed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream", "nonzero_uniform", "exp_inverse"]


def stream(master_seed: int, *path: int) -> np.random.Generator:
    """Generator for the (master_seed, *path) coordinate.

    SeedSequence mixes the entropy words with a counter-based hash, so
    distinct paths give statistically independent streams and the same
    path always gives the same stream.
    """
    entropy = (int(master_seed),) + tuple(int(p) for p in path)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def nonzero_uniform(rng: np.random.Generator, size: int | tuple | None = None):
    """Uniforms on (0, 1): random() draws with every 0.0 redrawn.

    The one rule for the zero that random() can return (probability 2^-53
    per draw): inversions that take a log of u or divide by it redraw it,
    never substitute a value.  A scalar call returns a Python float.
    """
    if size is None:
        u = rng.random()
        while u == 0.0:
            u = rng.random()
        return u
    return _redraw_zeros(rng, rng.random(size))


def _redraw_zeros(rng: np.random.Generator, u: np.ndarray) -> np.ndarray:
    """u with every 0.0 redrawn in place, in one random(count) call per
    pass over the zeros left, each landing at its flat position."""
    bad = u == 0.0
    count = np.count_nonzero(bad)
    while count:
        u[bad] = rng.random(count)
        bad = u == 0.0
        count = np.count_nonzero(bad)
    return u


def _nonzero_list(rng: np.random.Generator, k: int) -> list:
    """nonzero_uniform(rng, k).tolist(), for loops that read Python floats.

    A list is tested for a zero with `in`, which costs less than numpy's
    mask at the sizes of one coalescent build; a zero goes through
    nonzero_uniform's rule, so the values are the same.
    """
    u = rng.random(k).tolist()
    if 0.0 in u:
        u = _redraw_zeros(rng, np.array(u)).tolist()
    return u


def exp_inverse(rng: np.random.Generator, size: int | tuple | None = None):
    """Standard exponential draws: rng.standard_exponential(size).

    One rule for scalar and array calls: numpy's ziggurat, which takes
    scalar libm calls on its rare slow paths and no SIMD loop, so its
    values do not depend on which loops numpy dispatches for the CPU, and
    n scalar draws equal one array draw of n, or chunks of it, on the
    same stream.  It can return 0.0, with probability 2^-53 per draw; no
    caller divides by or takes the log of the value, so none redraws it.
    A scalar call returns a Python float.
    """
    return rng.standard_exponential(size)
