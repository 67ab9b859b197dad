"""Small internal helpers."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

DRAW_CHUNK = 1 << 17  # uniforms held at once by uniform_chunks (1 MiB)

# leading keys of the seeded streams, one per drawing site, so no two
# streams of one run share a key
WALK, DEVIATION, ENTROPY, SHATTER_PROB, SHATTER_DIM, COVERING_SAMPLE, SHATTER_SAMPLE, PROBE = range(1, 9)


def generator(seed: int, *key: int) -> np.random.Generator:
    """The generator of stream ``key`` under ``seed``; the only place one is built.

    The key is the SeedSequence spawn key, so each (seed, key) pair names its
    own stream: no stream of one seed repeats under another, and (), (0,)
    and (0, 0) differ.  generator(seed) equals default_rng(seed).
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def map_indexed(fn, count: int, threads: int = 1) -> list:
    """[fn(0), ..., fn(count-1)], optionally computed on a thread pool.

    Results are collected by index, so the output does not depend on the
    thread count or scheduling order.
    """
    if threads <= 1 or count <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(count)))


def uniform_chunks(rng: np.random.Generator, n: int):
    """Yield (start, u) for start = 0, DRAW_CHUNK, ... < n, u holding the
    uniform draws start, start + 1, ... of rng, at most DRAW_CHUNK of them.

    The draws are rng.random(n)'s, without holding 8 bytes per draw: every
    u is a view of one buffer, which the next chunk overwrites.
    """
    buffer = np.empty(min(n, DRAW_CHUNK))
    for start in range(0, n, DRAW_CHUNK):
        yield start, rng.random(out=buffer[: min(DRAW_CHUNK, n - start)])


def fill_signs(rng: np.random.Generator, out: np.ndarray, p: float) -> None:
    """Fill the C-contiguous int8 array ``out`` with +1 where a uniform draw is
    < p and -1 elsewhere.

    The uniforms are drawn in C order (`uniform_chunks`), so ``out`` ends up
    equal to np.where(rng.random(out.shape) < p, 1, -1) and the generator in
    the same state.
    """
    flat = out.reshape(-1)
    hits = flat.view(np.bool_)
    for start, u in uniform_chunks(rng, flat.size):
        np.less(u, p, out=hits[start : start + len(u)])
    flat *= 2
    flat -= 1
