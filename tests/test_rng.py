import hashlib
import math
import os

import numpy as np
import pytest

from multipack import (
    BoundQuery,
    ExponentQuery,
    FiniteCode,
    PointList,
    avg_sq_radius_spherical,
    ball_log_volume_rate_finite,
    lambda_n_threshold,
    ld_capacity,
    mc_tail,
    mgf_log,
    sample_code,
    tile,
    verify_packing,
)
from multipack import construction, rng
from multipack.rng import (
    CHUNK,
    _clopper_pearson,
    check_count,
    check_positive,
    check_seed,
    chunk_rngs,
    chunk_sum,
    resolve_workers,
)
from oracles import clopper_pearson_beta_ppf, philox_chunk_rng


def test_check_seed_range():
    assert check_seed(0) == 0
    assert check_seed(2**64 - 1) == 2**64 - 1
    assert check_seed(np.int64(17)) == 17
    for bad in (-1, 2**64, 1.5, None):
        with pytest.raises(ValueError):
            check_seed(bad)


def _one(seed, chunk):
    """The generator of one chunk, as sample_code takes chunk 0."""
    return next(chunk_rngs(seed, (chunk,)))


def test_chunk_streams_are_stable_and_distinct():
    a = _one(5, 0).random(4)
    b = _one(5, 0).random(4)
    c = _one(5, 1).random(4)
    d = _one(6, 0).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def _draws(rng):
    """Normals, doubles and an odd count of float32s, so that a chunk ends
    with a buffered half word and a part-used Philox block."""
    return rng.standard_normal(5), rng.random(3), rng.random(3, dtype=np.float32)


@pytest.mark.parametrize("seed", [0, 5, 2**64 - 1])
def test_rekeyed_chunks_equal_a_new_philox_per_chunk(seed):
    chunks = [0, 1, 2, 9, 1, 2**64 - 1]
    for chunk, rng in zip(chunks, chunk_rngs(seed, chunks), strict=True):
        got, want = _draws(rng), _draws(philox_chunk_rng(seed, chunk))
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert all(np.array_equal(a, b) for a, b in zip(_draws(_one(seed, chunk)), want))


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("mc_samples", [1, 100, 2 * CHUNK + 5])
def test_cell_samples_equal_a_new_philox_per_chunk(seed, n, mc_samples, monkeypatch):
    # one chunk shorter than CHUNK, and two whole chunks and a partial one
    monkeypatch.setenv("MULTIPACK_THREADS", "1")

    def walk():
        ys = []

        def count(g, m):
            ys.append(construction._cell_samples(g, m, n, 2.4, 3.0))
            return m

        assert chunk_sum(seed, mc_samples, count) == mc_samples
        return ys

    got = walk()
    monkeypatch.setattr(rng, "chunk_rngs", lambda s, chunks: (philox_chunk_rng(s, c) for c in chunks))
    want = walk()
    assert [len(y) for y in got] == [len(y) for y in want] and sum(map(len, got)) == mc_samples
    assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


def _digest(draws):
    return int.from_bytes(hashlib.sha256(draws.tobytes()).digest()[:7], "little")


@pytest.mark.parametrize("samples", [1, CHUNK - 1, CHUNK, CHUNK + 1, 13 * CHUNK + 5])
@pytest.mark.parametrize("workers", [1, 2, 3, 7, 64])
def test_chunk_sum_matches_per_chunk_oracle(samples, workers, monkeypatch):
    # each chunk's draws are hashed, so a chunk walked with the wrong key or
    # size, twice or not at all fails; 64 workers exceed every chunk count
    monkeypatch.setenv("MULTIPACK_THREADS", str(workers))
    seed = 2**64 - 3
    want = {}
    for k in range((samples + CHUNK - 1) // CHUNK):
        m = min(CHUNK, samples - k * CHUNK)
        want[_digest(philox_chunk_rng(seed, k).random(m))] = k
    seen = []

    def count(g, m):
        d = _digest(g.random(m))
        seen.append(d)
        return d

    assert chunk_sum(seed, samples, count) == sum(want)
    assert sorted(want[d] for d in seen) == list(range(len(want)))


@pytest.mark.parametrize("workers", [1, 3])
def test_one_philox_per_worker(workers, monkeypatch):
    # 13 chunks in runs of 4, 4 and 5 on three workers: each run re-keys one
    # Philox in place rather than building one per chunk
    monkeypatch.setenv("MULTIPACK_THREADS", str(workers))
    built = []
    philox = np.random.Philox

    def counting(*args, **kwargs):
        built.append(1)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    mc_tail(2, 4, 1.0, 0.04, 13 * CHUNK, 0)
    assert len(built) == workers


def test_chunk_size_constant():
    # sampling code slices the index range into fixed blocks; changing this
    # silently changes every seeded result
    assert CHUNK == 4096


def test_resolve_workers(monkeypatch):
    # one worker unless MULTIPACK_THREADS says otherwise; zero or negative
    # means all cores
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    monkeypatch.delenv("MULTIPACK_THREADS", raising=False)
    assert resolve_workers() == 1
    for value, want in (("", 1), (" 3 ", 3), ("0", 5), ("-2", 5)):
        monkeypatch.setenv("MULTIPACK_THREADS", value)
        assert resolve_workers() == want, value


@pytest.mark.parametrize("value", ["1.5", "abc"])
def test_resolve_workers_rejects_malformed_cap(monkeypatch, value):
    monkeypatch.setenv("MULTIPACK_THREADS", value)
    with pytest.raises(ValueError, match=f"MULTIPACK_THREADS must be an integer, got '{value}'"):
        resolve_workers()


def test_worker_count_is_not_an_argument():
    # MULTIPACK_THREADS is the one worker control
    with pytest.raises(TypeError):
        mc_tail(2, 4, 1.0, 0.04, 5000, 0, workers=2)
    with pytest.raises(TypeError):
        chunk_sum(0, 5000, lambda g, m: m, workers=2)
    with pytest.raises(TypeError):
        resolve_workers(2)


def test_check_count():
    assert check_count("samples", 1000, 1000) == 1000
    assert check_count("samples", np.int64(5), 1) == 5
    for bad in (999, 1e4, 2500.5, float("inf"), None):
        with pytest.raises(ValueError, match="samples"):
            check_count("samples", bad, 1000)


def test_check_positive():
    assert check_positive("K", 2) == 2.0 and type(check_positive("K", 2)) is float
    assert check_positive("K", np.float32(0.5)) == 0.5
    for bad in (0, -1.0, math.nan, math.inf, "3", None):
        with pytest.raises(ValueError, match="^K must be positive and finite"):
            check_positive("K", bad)


def _code(**kw):
    args = dict(points=np.zeros((1, 2)), n=2, L=2, N=0.005, K=1.0, seed=0) | kw
    return FiniteCode(**args)


@pytest.mark.parametrize(
    "call, name",
    [
        pytest.param(lambda: sample_code(3.7, 2.5, 0.005, 1.0, -0.1, 0), "n", id="sample_code-n"),
        pytest.param(lambda: sample_code(3, 2, 0.005, 1.0, -0.1, 0, M=2.7), "M", id="sample_code-M"),
        pytest.param(lambda: sample_code(3, 2, 0.005, 1.0, math.nan, 0), "rate_margin", id="sample_code-rate_margin"),
        pytest.param(lambda: _code(L=2.5), "L", id="FiniteCode-L"),
        pytest.param(lambda: _code(n=1.0, points=np.zeros((1, 1))), "n", id="FiniteCode-n"),
        pytest.param(lambda: _code(N=math.inf), "N", id="FiniteCode-N"),
        pytest.param(lambda: _code(seed=1.5), "seed", id="FiniteCode-seed"),
        pytest.param(lambda: _code(seed=-1), "seed", id="FiniteCode-negative-seed"),
        pytest.param(lambda: _code(expurgated_count=-3), "expurgated_count", id="FiniteCode-expurgated_count"),
        pytest.param(lambda: _code(expurgated_count=2.0), "expurgated_count", id="FiniteCode-integral-expurgated_count"),
        pytest.param(lambda: verify_packing(tile(_code(K=math.inf)), 3.0), "K", id="verify_packing-K"),
        pytest.param(lambda: BoundQuery(N=math.inf, L=3), "N", id="BoundQuery-N"),
        pytest.param(lambda: ld_capacity(math.inf), "N", id="ld_capacity-N"),
        pytest.param(lambda: ExponentQuery(N=0.01, L=3, K=math.inf), "K", id="ExponentQuery-K"),
        pytest.param(lambda: ball_log_volume_rate_finite(math.inf, 3), "N", id="ball_log_volume_rate_finite-N"),
        pytest.param(lambda: avg_sq_radius_spherical(PointList(np.eye(2)), math.inf), "P", id="spherical-P"),
        pytest.param(lambda: mgf_log(3, 1.0, 1.0, quad_order=16.7), "quad_order", id="mgf_log-quad_order"),
        # integral floats are refused like any other float
        pytest.param(lambda: BoundQuery(N=0.01, L=3.0), "L", id="BoundQuery-integral-L"),
        pytest.param(lambda: lambda_n_threshold(ExponentQuery(N=0.005, L=3, K=1.0), 4.0), "n", id="lambda_n_threshold-integral-n"),
        pytest.param(lambda: mgf_log(3.0, 1.0, 1.0), "L", id="mgf_log-integral-L"),
        pytest.param(lambda: mc_tail(2, 4.0, 1.0, 0.04, 5000, 0), "n", id="mc_tail-integral-n"),
        # booleans are refused as integers and as reals
        pytest.param(lambda: sample_code(True, 2, 0.005, 1.0, -0.1, 0), "n", id="sample_code-bool-n"),
        pytest.param(lambda: mc_tail(2, True, 1.0, 0.1, 1000, 0), "n", id="mc_tail-bool-n"),
        pytest.param(lambda: _code(L=True), "L", id="FiniteCode-bool-L"),
        pytest.param(lambda: _code(seed=False), "seed", id="FiniteCode-bool-seed"),
        pytest.param(lambda: _code(N=True), "N", id="FiniteCode-bool-N"),
    ],
)
def test_degenerate_argument_is_named(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        call()


def test_clopper_pearson_interval():
    # no hits: closed form 1 - 0.025^(1/n); all hits: the mirror image
    assert _clopper_pearson(0, 100) == (0.0, 1.0 - 0.025 ** (1.0 / 100))
    lo, hi = _clopper_pearson(100, 100)
    assert hi == 1.0 and lo == pytest.approx(0.025 ** (1.0 / 100), rel=1e-12)
    for hits, samples in ((1, 10), (36, 100), (999, 1000)):
        lo, hi = _clopper_pearson(hits, samples)
        assert 0.0 < lo < hits / samples < hi <= 1.0
        mirror = _clopper_pearson(samples - hits, samples)
        assert (lo, hi) == pytest.approx((1.0 - mirror[1], 1.0 - mirror[0]), rel=1e-12)


@pytest.mark.parametrize("samples", [1000, 4096, 20000, 10**5, 10**6])
def test_clopper_pearson_equals_beta_ppf(samples):
    rng = np.random.default_rng(samples)
    hits = [*range(51), *rng.integers(51, samples - 1, size=50).tolist(), samples - 1, samples]
    for h in hits:
        assert _clopper_pearson(h, samples) == clopper_pearson_beta_ppf(h, samples), h
