"""Counter-based random streams, worker-count resolution, the exact
binomial interval that the Monte Carlo estimators report, and the two
argument checks every public routine uses: ``check_count`` for integers and
``check_positive`` for positive (or non-negative) finite reals.

Randomized routines draw in chunks of CHUNK samples, each from a Philox
generator keyed by (seed, chunk index) with its counter at 0, as in the
counter-based design of Salmon et al. (SC 2011): a sample's randomness is a
pure function of the seed and its global index.  ``chunk_rngs`` walks chunks
with one Philox, re-keyed in place for each.  ``chunk_sum``, the one walker
of both Monte Carlo estimators, splits the chunks over the workers that
MULTIPACK_THREADS sets (``resolve_workers``, the package's one worker
control); its counts are bit-identical for every worker count.
"""

from __future__ import annotations

import math
import numbers
import os
from collections.abc import Iterator

import numpy as np

# Samples per chunk.  Fixed constant: changing it changes the draws.
CHUNK = 4096


def check_seed(seed) -> int:
    """Validate and return a seed usable as a 64-bit Philox key word."""
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ValueError(f"seed must be an integer, got {type(seed).__name__}")
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    return seed


def check_count(name: str, value, minimum: int) -> int:
    """Validate and return an integer >= ``minimum``; floats, integral ones
    too, and booleans are refused."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def check_positive(name: str, value, zero: bool = False) -> float:
    """Validate and return a positive finite real, not a boolean, as a float;
    with ``zero``, 0 as well."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and (0 <= value if zero else 0 < value) and value < math.inf):
        raise ValueError(f"{name} must be {'non-negative' if zero else 'positive'} and finite, got {value!r}")
    return float(value)


def _clopper_pearson(hits: int, samples: int) -> tuple[float, float]:
    """Two-sided 95% Clopper-Pearson interval for a binomial proportion, with
    the closed form 1 - 0.025^(1/samples) as the ceiling when nothing hit."""
    from scipy.special import betaincinv

    alpha = 0.05
    if hits == 0:
        return 0.0, 1.0 - (alpha / 2.0) ** (1.0 / samples)
    lo = float(betaincinv(hits, samples - hits + 1, alpha / 2.0))
    hi = 1.0 if hits == samples else float(betaincinv(hits + 1, samples - hits, 1.0 - alpha / 2.0))
    return lo, hi


def chunk_rngs(seed, chunks) -> Iterator[np.random.Generator]:
    """Generators for the chunks of a keyed stream, in the order of
    ``chunks``.  One Philox serves them all: it starts keyed by the first
    (seed, chunk) and is re-keyed in place for each later chunk, with its
    counter at 0 and its buffer empty, the state a new Philox(key=(seed,
    chunk)) starts in, so every chunk's draws are those of its own
    generator.  The same Generator object is yielded each time: take a
    chunk's draws before asking for the next."""
    seed = check_seed(seed)
    bitgen = None
    for chunk in chunks:
        key = np.array([seed, chunk], dtype=np.uint64)
        if bitgen is None:
            bitgen = np.random.Philox(key=key)
            rng = np.random.Generator(bitgen)
        else:
            bitgen.state = {
                "bit_generator": "Philox",
                "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
                "buffer": np.zeros(4, dtype=np.uint64),
                "buffer_pos": 4,
                "has_uint32": 0,
                "uinteger": 0,
            }
        yield rng


def chunk_sum(seed, samples: int, count) -> int:
    """The sum of ``count(rng, m)`` over the chunks of ``samples`` samples,
    chunk k holding m = min(CHUNK, samples - k*CHUNK) samples of the stream
    keyed by (seed, k).  Each of resolve_workers() workers, at most one per
    chunk, walks a contiguous run with one chunk_rngs generator, on threads
    when there are several; a sum of integers is the same for any split."""
    nchunks = -(-samples // CHUNK)
    w = min(resolve_workers(), nchunks)

    def run(lo, hi):
        chunks = range(lo, hi)
        rngs = zip(chunks, chunk_rngs(seed, chunks))
        return sum(count(rng, min(CHUNK, samples - k * CHUNK)) for k, rng in rngs)

    if w == 1:
        return run(0, nchunks)
    from concurrent.futures import ThreadPoolExecutor

    edges = [nchunks * i // w for i in range(w + 1)]
    with ThreadPoolExecutor(max_workers=w) as pool:
        return sum(pool.map(run, edges[:-1], edges[1:]))


def resolve_workers() -> int:
    """The worker count MULTIPACK_THREADS sets: 1 when it is unset or blank,
    all cores when it is <= 0, else its value."""
    env = os.environ.get("MULTIPACK_THREADS", "").strip()
    if not env:
        return 1
    try:
        workers = int(env)
    except ValueError:
        raise ValueError(f"MULTIPACK_THREADS must be an integer, got {env!r}") from None
    return workers if workers > 0 else os.cpu_count() or 1
