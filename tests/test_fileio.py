import math

import numpy as np
import pytest

from multipack import Constellation, FiniteCode, ParseError, PointList, tile
from multipack import expurgate, fileio, find_bad_lists, sample_code
from oracles import repr_text

# the (n, L) shapes of the construct and verify benchmark mixes
BENCH_SHAPES = [(4, 2), (5, 2), (6, 2), (2, 4), (3, 3), (4, 3)]
# test_exact_text's values
EXACT_VALUES = np.array([[-0.0, 5e-324, 0.1], [1e16, -1e-300, 1.0]])


def sample_points():
    rng = np.random.default_rng(31)
    return PointList(rng.normal(size=(5, 3)) * 1.7)


def sample_fcode():
    rng = np.random.default_rng(32)
    pts = rng.uniform(-2, 2, size=(9, 2))
    return FiniteCode(points=pts, n=2, L=3, N=0.012, K=2.0, seed=123)


class TestPoints:
    def test_round_trip_exact(self, tmp_path):
        p = tmp_path / "pts.csv"
        pl = sample_points()
        fileio.write_points(p, pl)
        back = fileio.read_points(p)
        assert np.array_equal(back.points, pl.points)

    def test_rewrite_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        pl = sample_points()
        fileio.write_points(a, pl)
        fileio.write_points(b, fileio.read_points(a))
        assert a.read_bytes() == b.read_bytes()

    def test_exact_text(self, tmp_path):
        # shortest round-trip repr: signed zero, the smallest subnormal, an
        # inexact decimal, an exponent at 1e16 and a tiny negative
        p = tmp_path / "pts.csv"
        fileio.write_points(p, PointList(np.array([[-0.0, 5e-324, 0.1], [1e16, -1e-300, 1.0]])))
        assert p.read_text() == "# n=3\n-0.0,5e-324,0.1\n1e+16,-1e-300,1.0\n"

    def test_missing_header(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("1.0,2.0\n3.0,4.0\n")
        with pytest.raises(ParseError, match="n="):
            fileio.read_points(p)

    def test_ragged_row_reports_line(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("# n=2\n1.0,2.0\n3.0\n")
        with pytest.raises(ParseError, match=r"x\.csv:3"):
            fileio.read_points(p)

    def test_non_numeric_reports_line(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("# n=2\n1.0,2.0\n3.0,zap\n")
        with pytest.raises(ParseError, match=r"x\.csv:3"):
            fileio.read_points(p)

    def test_single_row_rejected(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("# n=2\n1.0,2.0\n")
        with pytest.raises(ParseError, match="at least 2"):
            fileio.read_points(p)


class TestCode:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "code.csv"
        code = sample_fcode()
        fileio.write_code(p, code)
        back = fileio.read_code(p)
        assert np.array_equal(back.points, code.points)
        assert (back.n, back.L, back.N, back.K, back.seed) == (2, 3, 0.012, 2.0, 123)
        assert back.expurgated_count == code.expurgated_count

    def test_seedless_code_round_trip(self, tmp_path):
        p = tmp_path / "code.csv"
        code = FiniteCode(points=np.zeros((2, 1)), n=1, L=2, N=0.01, K=1.0, seed=None)
        fileio.write_code(p, code)
        assert fileio.read_code(p).seed is None

    def test_missing_header_named(self, tmp_path):
        p = tmp_path / "c.csv"
        fileio.write_code(p, sample_fcode())
        lines = [l for l in p.read_text().splitlines() if not l.startswith("# N=")]
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="# N="):
            fileio.read_code(p)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_coordinates(self, tmp_path, bad):
        p = tmp_path / "c.csv"
        p.write_text(f"# n=2\n# L=2\n# N=0.01\n# K=1.0\n# expurgated=0\n0.1,0.2\n{bad},0.3\n")
        with pytest.raises(ValueError, match="finite"):
            fileio.read_code(p)

    def test_rejects_constellation_file(self, tmp_path):
        p = tmp_path / "cons.csv"
        fileio.write_constellation(p, Constellation(sample_fcode(), 0.4))
        with pytest.raises(ParseError, match="constellation file; use load"):
            fileio.read_code(p)


class TestConstellation:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "cons.csv"
        cons = Constellation(sample_fcode(), 0.4)
        fileio.write_constellation(p, cons)
        back = fileio.load(p)
        assert np.array_equal(back.base.points, cons.base.points)
        assert back.gap == cons.gap
        assert back.period == cons.period
        assert back.nld == pytest.approx(cons.nld, rel=1e-15)

    def test_round_trip_at_gap_zero(self, tmp_path):
        # the torus of period 2K reads back as written; a negative gap is
        # refused by the constellation's own check
        p = tmp_path / "cons.csv"
        cons = Constellation(sample_fcode(), 0.0)
        fileio.write_constellation(p, cons)
        text = p.read_text()
        assert f"# period={2 * cons.base.K!r}\n# gap=0.0\n" in text
        back = fileio.load(p)
        assert np.array_equal(back.base.points, cons.base.points)
        assert (back.gap, back.period) == (0.0, 2 * cons.base.K)
        p.write_text(text.replace("# gap=0.0", "# gap=-0.0001"))
        with pytest.raises(ValueError, match="^gap must be non-negative and finite"):
            fileio.load(p)

    def test_period_cross_check(self, tmp_path):
        p = tmp_path / "cons.csv"
        fileio.write_constellation(p, Constellation(sample_fcode(), 0.4))
        p.write_text(p.read_text().replace("# period=4.8", "# period=9.9"))
        with pytest.raises(ParseError, match="period"):
            fileio.load(p)

    @pytest.mark.parametrize("key", ["gap", "period"])
    def test_non_numeric_header_names_file(self, tmp_path, key):
        p = tmp_path / "cons.csv"
        fileio.write_constellation(p, Constellation(sample_fcode(), 0.4))
        p.write_text("".join(
            f"# {key}=wide\n" if line.startswith(f"# {key}=") else line
            for line in p.read_text().splitlines(keepends=True)
        ))
        with pytest.raises(ParseError, match=rf"cons\.csv: bad '# {key}=' header 'wide'"):
            fileio.load(p)

    def test_code_file_is_not_constellation(self, tmp_path):
        p = tmp_path / "c.csv"
        fileio.write_code(p, sample_fcode())
        back = fileio.load(p)
        assert type(back) is FiniteCode
        assert np.array_equal(back.points, sample_fcode().points)

    @pytest.mark.parametrize("drop", ["gap", "period"])
    def test_one_tiling_header_makes_a_constellation_file(self, tmp_path, drop):
        # a period header without a gap is refused, not read as a finite code;
        # a gap alone gives the period
        p = tmp_path / "cons.csv"
        cons = Constellation(sample_fcode(), 0.4)
        fileio.write_constellation(p, cons)
        p.write_text("".join(line for line in p.read_text().splitlines(keepends=True) if not line.startswith(f"# {drop}=")))
        if drop == "gap":
            with pytest.raises(ParseError, match=r"cons\.csv: missing '# gap=' header$"):
                fileio.load(p)
        else:
            assert fileio.load(p).period == cons.period
        with pytest.raises(ParseError, match="constellation file; use load"):
            fileio.read_code(p)


def code_headers(code):
    return {"n": code.n, "L": code.L, "N": repr(code.N), "K": repr(code.K), "seed": code.seed,
            "expurgated": code.expurgated_count}


def assert_writers_match_oracle(tmp_path, code):
    """write_code, write_constellation and, given two rows or more,
    write_points each give the bytes of repr_text on their headers and the
    points."""
    cons = tile(code)
    cases = [
        (fileio.write_code, code, code_headers(code)),
        (fileio.write_constellation, cons, {**code_headers(code), "period": repr(cons.period), "gap": repr(cons.gap)}),
    ]
    if code.M >= 2:
        cases.append((fileio.write_points, PointList(code.points), {"n": code.n}))
    for write, obj, headers in cases:
        p = tmp_path / f"{write.__name__}.csv"
        write(p, obj)
        assert p.read_bytes() == repr_text(headers, code.points).encode()


def code_of(points):
    """A code holding ``points`` as they are, with K their largest magnitude."""
    points = np.asarray(points, dtype=float)
    K = float(np.abs(points).max(initial=0.0)) or 1.0
    return FiniteCode(points=points, n=points.shape[1], L=2, N=0.01, K=K, seed=5)


def ulps_around(x, k=3):
    """x and its k neighbouring doubles on each side, with both signs."""
    near = [x]
    for toward in (0.0, np.inf):
        y = x
        for _ in range(k):
            y = np.nextafter(y, toward)
            near.append(y)
    return np.array(near + [-v for v in near])


class TestWriterOracle:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("shape", BENCH_SHAPES)
    def test_bench_codes(self, tmp_path, shape, seed):
        # the expurgated codes the construct benchmark writes, at the CLI
        # defaults of `multipack construct`
        code = sample_code(*shape, N=0.005, K=1.0, rate_margin=-0.1, seed=seed)
        assert_writers_match_oracle(tmp_path, expurgate(code, find_bad_lists(code)))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_uniform_codes(self, tmp_path, n):
        assert_writers_match_oracle(tmp_path, sample_code(n, 2, N=0.005, K=1.0, rate_margin=-0.1, seed=n, M=1500))

    @pytest.mark.parametrize("n", [1, 3])
    def test_random_bit_patterns(self, tmp_path, n):
        # sign and mantissa bits at random, eight draws at each of the 2047
        # finite exponents (exponent 0 holds the subnormals), and both zeros
        rng = np.random.default_rng(40 + n)
        exponent = np.repeat(np.arange(2047, dtype=np.uint64), 8)
        mantissa = rng.integers(0, 2**52, size=exponent.size, dtype=np.uint64)
        sign = rng.integers(0, 2, size=exponent.size, dtype=np.uint64)
        values = ((sign << np.uint64(63)) | (exponent << np.uint64(52)) | mantissa).view(np.float64)
        values = rng.permutation(np.concatenate([values, [0.0, -0.0]]))
        assert np.isfinite(values).all()
        assert_writers_match_oracle(tmp_path, code_of(values[: values.size // n * n].reshape(-1, n)))

    @pytest.mark.parametrize("edge", [1e-4, 9.999999999999999e-05, 1e15, 1e16])
    def test_notation_edges(self, tmp_path, edge):
        # where repr's notation switches, and the doubles beside it: alone
        # on a row, and in rows with an ordinary coordinate
        values = ulps_around(edge)
        assert_writers_match_oracle(tmp_path, code_of(values[:, None]))
        assert_writers_match_oracle(tmp_path, code_of(np.column_stack([values, np.full(values.size, 0.5)])))

    @pytest.mark.parametrize("rows", [0, 1, fileio.BLOCK_ROWS, fileio.BLOCK_ROWS + 1])
    def test_block_boundaries(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        points = rng.uniform(-1, 1, size=(rows, 3))
        points[1::97, 1] = 3e-5  # repr rows among orjson rows
        assert_writers_match_oracle(tmp_path, code_of(points))

    def test_exact_values(self, tmp_path):
        code = FiniteCode(points=EXACT_VALUES, n=3, L=2, N=0.01, K=1e16, seed=5)
        assert_writers_match_oracle(tmp_path, code)
        assert repr_text({"n": 3}, EXACT_VALUES) == "# n=3\n-0.0,5e-324,0.1\n1e+16,-1e-300,1.0\n"


class TestDegenerate:
    """Write -> read round trips with exact text at the edges of the formats."""

    def empty_code(self):
        return FiniteCode(points=np.zeros((0, 3)), n=3, L=2, N=0.01, K=1.0, seed=7, expurgated_count=5)

    def test_empty_code(self, tmp_path):
        # every point expurgated: a header-only file without a row
        p = tmp_path / "c.csv"
        fileio.write_code(p, self.empty_code())
        assert p.read_text() == "# n=3\n# L=2\n# N=0.01\n# K=1.0\n# seed=7\n# expurgated=5\n"
        for back in (fileio.read_code(p), fileio.load(p)):
            assert isinstance(back, FiniteCode)
            assert back.points.shape == (0, 3)
            assert (back.n, back.L, back.N, back.K, back.seed, back.expurgated_count) == (3, 2, 0.01, 1.0, 7, 5)

    def test_empty_constellation(self, tmp_path):
        p = tmp_path / "k.csv"
        fileio.write_constellation(p, Constellation(self.empty_code(), 0.4))
        assert p.read_text() == (
            "# n=3\n# L=2\n# N=0.01\n# K=1.0\n# seed=7\n# expurgated=5\n# period=2.8\n# gap=0.4\n"
        )
        back = fileio.load(p)
        assert isinstance(back, Constellation)
        assert back.base.points.shape == (0, 3)
        assert (back.gap, back.period, back.base.expurgated_count) == (0.4, 2.8, 5)

    def test_one_dimensional_code(self, tmp_path):
        p = tmp_path / "c.csv"
        code = FiniteCode(points=[[0.5], [-0.25], [1.0]], n=1, L=2, N=0.01, K=1.0, seed=None)
        fileio.write_code(p, code)
        assert p.read_text() == "# n=1\n# L=2\n# N=0.01\n# K=1.0\n# expurgated=0\n0.5\n-0.25\n1.0\n"
        back = fileio.read_code(p)
        assert np.array_equal(back.points, code.points)
        assert (back.n, back.seed) == (1, None)


class TestLoad:
    def test_sniffing(self, tmp_path):
        pp = tmp_path / "p.csv"
        pc = tmp_path / "c.csv"
        pk = tmp_path / "k.csv"
        fileio.write_points(pp, sample_points())
        fileio.write_code(pc, sample_fcode())
        fileio.write_constellation(pk, Constellation(sample_fcode(), 0.4))
        assert isinstance(fileio.load(pp), PointList)
        assert isinstance(fileio.load(pc), FiniteCode)
        assert isinstance(fileio.load(pk), Constellation)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            fileio.load(tmp_path / "nope.csv")
