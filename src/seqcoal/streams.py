"""Deterministic random-stream derivation, shared sampling helpers, and the
package's one whole-number rule.

Every replicate, chunk, and subcommand owns a generator derived from the
master seed and a fixed integer path, so output depends only on the seed.

Every integer argument of the package, and every integer flag of the CLI,
takes one rule (_whole): an int or a numpy integer passes, an integral real
number (a float, numpy float or Fraction) becomes a Python int, and anything
else (a string, None, a fraction, NaN, inf), or a value below its minimum,
raises ValueError.  This module imports nothing from the package, so every
other module takes the rule from here.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream", "nonzero_uniform", "exp_inverse"]


def _whole(name, v, low=None) -> int:
    """An integer argument as a Python int: an int passes on one type test,
    a numpy integer or an integral real number becomes an int, and anything
    else, or a value below low, raises ValueError naming the argument.

    A value is whole when it equals its int() conversion, so a string,
    None, a fraction, NaN and inf all fail."""
    if type(v) is not int:
        try:
            v = int(v) if int(v) == v else None
        except (TypeError, ValueError, OverflowError):
            v = None
    if type(v) is int and (low is None or v >= low):
        return v
    raise ValueError(f"{name} must be a whole number"
                     + ("" if low is None else f" >= {low}"))


def stream(master_seed: int, *path: int) -> np.random.Generator:
    """Generator for the (master_seed, *path) coordinate, each a whole
    number >= 0.

    SeedSequence mixes the entropy words with a counter-based hash, so
    distinct paths give statistically independent streams and the same
    path always gives the same stream.
    """
    entropy = (_whole("master_seed", master_seed, 0),) + tuple(
        _whole("path entry", p, 0) for p in path)
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
