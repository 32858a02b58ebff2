import numpy as np
import pytest

from multipack.rng import CHUNK, _clopper_pearson, check_count, check_seed, chunk_rng, resolve_workers


def test_check_seed_range():
    assert check_seed(0) == 0
    assert check_seed(2**64 - 1) == 2**64 - 1
    assert check_seed(np.int64(17)) == 17
    for bad in (-1, 2**64, 1.5, None):
        with pytest.raises(ValueError):
            check_seed(bad)


def test_chunk_streams_are_stable_and_distinct():
    a = chunk_rng(5, 0).random(4)
    b = chunk_rng(5, 0).random(4)
    c = chunk_rng(5, 1).random(4)
    d = chunk_rng(6, 0).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_chunk_size_constant():
    # sampling code slices the index range into fixed blocks; changing this
    # silently changes every seeded result
    assert CHUNK == 4096


def test_resolve_workers(monkeypatch):
    monkeypatch.delenv("MULTIPACK_THREADS", raising=False)
    assert resolve_workers(None) == 1
    assert resolve_workers(3) == 3
    monkeypatch.setenv("MULTIPACK_THREADS", "2")
    assert resolve_workers(None) == 2
    assert resolve_workers(8) == 2
    monkeypatch.setenv("MULTIPACK_THREADS", "0")
    assert resolve_workers(None) >= 1
    monkeypatch.delenv("MULTIPACK_THREADS")
    # zero or negative requests mean "use all cores"
    assert resolve_workers(0) >= 1


@pytest.mark.parametrize("value", ["1.5", "abc"])
def test_resolve_workers_rejects_malformed_cap(monkeypatch, value):
    monkeypatch.setenv("MULTIPACK_THREADS", value)
    with pytest.raises(ValueError, match=f"MULTIPACK_THREADS must be an integer, got '{value}'"):
        resolve_workers(None)


def test_check_count():
    assert check_count("samples", 1000, 1000) == 1000
    assert check_count("samples", np.int64(5), 1) == 5
    for bad in (999, 1e4, 2500.5, float("inf"), None):
        with pytest.raises(ValueError, match="samples"):
            check_count("samples", bad, 1000)


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
