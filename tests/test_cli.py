import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import multipack
from multipack import Constellation, FiniteCode, fileio, tile
from multipack.cli import main


def run(args, capsys):
    rc = main(args)
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestBounds:
    def test_curve_file(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        rc, _, _ = run(
            ["bounds", "--L", "3", "--N-min", "0.001", "--N-max", "0.01", "--steps", "7", "--out", str(out)],
            capsys,
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "N,lb_ppp,lb_blachman_few,ub_elias_bassalygo,ld_capacity"
        assert len(lines) == 8
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(0.001, rel=1e-12)
        # 12 significant digits survive a parse round trip at double precision
        assert float(first[1]) == pytest.approx(1.55755348007, rel=1e-11)
        assert float(first[3]) == pytest.approx(1.83220655223, rel=1e-11)

    def test_manifest_sidecar(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        args = ["bounds", "--L", "4", "--N-min", "0.01", "--N-max", "0.02", "--steps", "3", "--out", str(out)]
        assert run(args, capsys)[0] == 0
        man = json.loads((tmp_path / "b.csv.manifest.json").read_text())
        assert man["command"].startswith("multipack bounds")
        assert man["parameters"]["steps"] == 3
        assert man["seed"] is None
        assert man["version"]
        assert man["wall_time_s"] >= 0

    def test_multi_L_files(self, tmp_path, capsys):
        out = tmp_path / "curves.csv"
        args = ["bounds", "--multi-L", "3,5", "--N-min", "0.001", "--N-max", "0.01", "--steps", "4", "--out", str(out)]
        assert run(args, capsys)[0] == 0
        assert (tmp_path / "curves_L3.csv").exists()
        assert (tmp_path / "curves_L5.csv").exists()
        assert not out.exists()

    def test_L_and_multi_L_are_exclusive(self, tmp_path, capsys):
        args = ["bounds", "--L", "4", "--multi-L", "3,5", "--N-min", "0.001", "--N-max", "0.01", "--out",
                str(tmp_path / "b.csv")]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_bad_grid(self, tmp_path, capsys):
        rc, _, err = run(
            ["bounds", "--L", "3", "--N-min", "0.01", "--N-max", "0.001", "--out", str(tmp_path / "b.csv")],
            capsys,
        )
        assert rc == 2
        assert "N-max" in err

    @pytest.mark.parametrize("entry, shown", [("x", "'x'"), ("1", "1"), ("2.0", "'2.0'")])
    def test_bad_multi_L_entry_names_the_flag(self, tmp_path, capsys, entry, shown):
        args = ["bounds", "--multi-L", f"3,{entry}", "--N-min", "0.001", "--N-max", "0.01", "--out", str(tmp_path / "b.csv")]
        rc, _, err = run(args, capsys)
        assert rc == 2
        assert err.strip() == f"error: --multi-L must be an integer >= 2, got {shown}"
        assert not list(tmp_path.iterdir())

    def test_repeated_multi_L_entry_is_refused(self, tmp_path, capsys):
        args = ["bounds", "--multi-L", "3,3", "--N-min", "0.001", "--N-max", "0.01", "--out", str(tmp_path / "b.csv")]
        rc, text, err = run(args, capsys)
        assert rc == 2
        assert err.strip() == "error: --multi-L must not repeat an entry, got '3,3'"
        assert text == ""
        assert not list(tmp_path.iterdir())

    def test_single_L_names_the_flag(self, tmp_path, capsys):
        args = ["bounds", "--L", "1", "--N-min", "0.001", "--N-max", "0.01", "--out", str(tmp_path / "b.csv")]
        rc, _, err = run(args, capsys)
        assert rc == 2
        assert err.strip() == "error: --L must be an integer >= 2, got 1"
        assert not list(tmp_path.iterdir())


class TestConstructVerify:
    def test_pipeline(self, tmp_path, capsys):
        out = tmp_path / "code.csv"
        rc, text, _ = run(
            ["construct", "--n", "4", "--L", "2", "--N", "0.005", "--K", "1", "--seed", "3", "--out", str(out)],
            capsys,
        )
        assert rc == 0
        assert "achieved rate" in text
        rc, text, _ = run(["verify", str(out)], capsys)
        assert rc == 0
        assert "bad lists: 0\n" in text and text.rstrip().endswith("PASS")

    def test_deterministic_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["construct", "--n", "3", "--L", "2", "--N", "0.01", "--K", "1", "--seed", "11"]
        assert run(base + ["--out", str(a)], capsys)[0] == 0
        assert run(base + ["--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_manifest_records_seed(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        args = ["construct", "--n", "3", "--L", "2", "--N", "0.01", "--K", "1", "--seed", "21", "--out", str(out)]
        assert run(args, capsys)[0] == 0
        man = json.loads((tmp_path / "c.csv.manifest.json").read_text())
        assert man["seed"] == 21

    def test_verify_constellation(self, tmp_path, capsys):
        out = tmp_path / "code.csv"
        args = ["construct", "--n", "4", "--L", "2", "--N", "0.005", "--K", "1", "--seed", "3", "--out", str(out)]
        assert run(args, capsys)[0] == 0
        cons = tile(fileio.read_code(out))
        cpath = tmp_path / "cons.csv"
        fileio.write_constellation(cpath, cons)
        rc, text, _ = run(["verify", str(cpath)], capsys)
        assert rc == 0
        assert "cross-tile" in text and text.rstrip().endswith("PASS")

    def test_verify_failure_exit_code(self, tmp_path, capsys):
        pts = np.array([[0.0, 0.0], [0.05, 0.0], [2.0, 2.0]])
        bad = FiniteCode(points=pts, n=2, L=2, N=0.01, K=4.0, seed=None)
        cpath = tmp_path / "bad.csv"
        fileio.write_constellation(cpath, Constellation(bad, 0.5))
        rc, text, _ = run(["verify", str(cpath)], capsys)
        assert rc == 1
        assert "FAIL" in text and "base indices" in text
        rc, text, _ = run(["verify", str(cpath.with_name("nope.csv"))], capsys)
        assert rc == 2

    def test_verify_cross_tile_failure(self, tmp_path, capsys):
        # below the minimum gap {0.998, 0.999, -0.999 + period} is a bad
        # list spanning two tiles, reported with its radius 0.0836/9
        code = FiniteCode(points=[[0.998], [0.999], [-0.999]], n=1, L=3, N=0.01, K=1.0, seed=0)
        cpath = tmp_path / "cross.csv"
        fileio.write_constellation(cpath, Constellation(base=code, gap=0.101))
        rc, text, _ = run(["verify", str(cpath)], capsys)
        assert rc == 1
        assert "\nFAIL: base indices (0, 1, 2)\n" in text
        line = next(t for t in text.splitlines() if t.startswith("reported list avg_sq_radius: "))
        assert float(line.split(": ")[1]) == pytest.approx(0.083642 / 9, rel=1e-9)

    def test_verify_refuses_period_without_gap(self, tmp_path, capsys):
        # a period header makes a constellation file, which needs its gap:
        # the file is refused, not verified as a finite code
        p = tmp_path / "c.csv"
        fileio.write_code(p, FiniteCode([[0.5], [-0.5]], 1, 2, 0.01, 1.0, None))
        text = p.read_text().replace("# expurgated=0\n", "# expurgated=0\n# period=2.2\n")
        p.write_text(text)
        rc, out, err = run(["verify", str(p)], capsys)
        assert rc == 2 and out == ""
        assert err == f"error: {p}: missing '# gap=' header\n"

    def test_construct_names_infinite_noise(self, tmp_path, capsys):
        args = ["construct", "--n", "3", "--L", "2", "--N", "inf", "--K", "1", "--seed", "1"]
        rc, _, err = run(args + ["--out", str(tmp_path / "c.csv")], capsys)
        assert rc == 2
        assert err.startswith("error: N must be positive and finite")

    def test_finite_code_failure(self, tmp_path, capsys):
        pts = np.array([[0.0], [0.05]])
        bad = FiniteCode(points=pts, n=1, L=2, N=0.01, K=1.0, seed=None)
        p = tmp_path / "bad.csv"
        fileio.write_code(p, bad)
        rc, text, _ = run(["verify", str(p)], capsys)
        assert rc == 1
        assert "bad lists: 1\n" in text
        assert "smallest bad list: (0, 1) with avg_sq_radius 0.000625" in text
        assert text.rstrip().endswith("FAIL")


class TestTailRatefn:
    def test_tail_row(self, capsys):
        rc, text, _ = run(
            ["tail", "--L", "2", "--n", "1", "--K", "1", "--N", "0.04", "--samples", "50000", "--seed", "42"],
            capsys,
        )
        assert rc == 0
        lines = text.splitlines()
        assert lines[0] == "L,n,K,N,samples,hits,p_hat,exponent_hat,ci_low,ci_high,seed"
        p_hat = float(lines[1].split(",")[6])
        assert abs(p_hat - 0.36) < 0.02

    def test_ratefn(self, capsys):
        rc, text, _ = run(["ratefn", "--L", "2", "--K", "8", "--N", "0.01"], capsys)
        assert rc == 0
        vals = {}
        for line in text.splitlines():
            key, _, val = line.partition(":")
            vals[key.strip()] = val.strip()
        assert float(vals["rate"]) == pytest.approx(2.973137316, rel=1e-6)
        assert abs(float(vals["rate - exponent_E"])) < 0.05

    def test_budget_exit_code(self, capsys, tmp_path):
        # the threshold code at n = 40 would hold about 4e13 points
        out = tmp_path / "code.csv"
        argv = ["construct", "--n", "40", "--L", "2", "--N", "0.01", "--K", "1", "--seed", "1", "--out", str(out)]
        rc, _, err = run(argv, capsys)
        assert rc == 2
        assert err.startswith("budget error: M = ")
        assert not out.exists()

    def test_overflowing_code_size_exits_2(self, capsys, tmp_path):
        # n * lb_ppp = 2493 overflows lambda_n itself, not only M
        out = tmp_path / "code.csv"
        argv = ["construct", "--n", "1000", "--L", "2", "--N", "0.0001", "--K", "1", "--seed", "1", "--out", str(out)]
        rc, _, err = run(argv, capsys)
        assert rc == 2
        assert err == "budget error: code size overflows at n = 1000\n"
        assert not out.exists()

    @pytest.mark.parametrize("n,N,want", [(1000, 0.0001, 2.4923913250429135), (2000, 0.4, -1.6542869214178204)])
    def test_explicit_size_at_large_n(self, capsys, tmp_path, n, N, want):
        # lambda_n over- (n = 1000) or underflows (n = 2000) here, and the
        # printed (1/n) ln(lambda_n / 2) = lb_ppp + ln(prefactor / 2) / n
        # never forms it
        out = tmp_path / "code.csv"
        argv = ["construct", "--n", str(n), "--L", "2", "--N", str(N), "--K", "1", "--M", "50", "--seed", "1"]
        rc, text, err = run(argv + ["--out", str(out)], capsys)
        assert rc == 0 and err == ""
        assert f"(1/n) ln(lambda_n / 2): {want!r}\n" in text
        assert want == pytest.approx(0.5 * math.log(1 / (4 * math.pi * math.e * N)) - math.log(2) * (0.5 + 1 / n), abs=1e-14)
        assert fileio.read_code(out).n == n

    def test_explicit_size_over_the_budget_exits_2(self, capsys, tmp_path):
        # an explicit --M is refused like a computed one, before any point
        # is drawn
        out = tmp_path / "code.csv"
        argv = ["construct", "--n", "3", "--L", "2", "--N", "0.005", "--K", "1", "--seed", "1"]
        rc, _, err = run(argv + ["--M", "10000000000000", "--out", str(out)], capsys)
        assert rc == 2
        assert err.startswith("budget error: M = 10000000000000 points")
        assert not out.exists()

    def test_ratefn_beyond_five_points(self, capsys):
        # the 1-D quadrature serves every list size
        rc, text, err = run(["ratefn", "--L", "6", "--K", "1", "--N", "0.01"], capsys)
        assert rc == 0 and err == ""
        rate = float(text.splitlines()[0].removeprefix("rate: "))
        assert 0.0 < rate < math.inf


    def test_invalid_list_size_is_usage_error(self, capsys):
        rc, _, err = run(["ratefn", "--L", "1", "--K", "1", "--N", "0.01"], capsys)
        assert rc == 2
        assert err.startswith("error: L must be an integer >= 2")


class TestRadius:
    def test_modes(self, tmp_path, capsys):
        pts = fileio.PointList(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]))
        p = tmp_path / "pts.csv"
        fileio.write_points(p, pts)
        rc, text, _ = run(["radius", str(p)], capsys)
        assert rc == 0
        assert "max discrepancy" in text
        rc, text, _ = run(["radius", str(p), "--mode", "cheb"], capsys)
        assert rc == 0
        assert "radius_sq: 2.0" in text
        rc, text, _ = run(["radius", str(p), "--mode", "p", "--p", "1"], capsys)
        assert rc == 0
        assert "rad_p" in text

    def test_tolerance_is_not_an_option(self, tmp_path, capsys):
        # both solvers stop at geometry.TOL; there is no --tol
        p = tmp_path / "pts.csv"
        fileio.write_points(p, fileio.PointList(np.eye(2)))
        with pytest.raises(SystemExit) as exc:
            main(["radius", str(p), "--mode", "cheb", "--tol", "1e-9"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol 1e-9" in capsys.readouterr().err

    def test_parse_error_exit(self, tmp_path, capsys):
        p = tmp_path / "junk.csv"
        p.write_text("# n=2\n1,2\n3,oops\n")
        rc, _, err = run(["radius", str(p)], capsys)
        assert rc == 2
        assert "junk.csv:3" in err


# the scipy modules a fresh process holds after cli.main runs one command:
# (loaded, absent), where an absent name covers the module and its submodules
IMPORT_MAP = {
    "radius": ([], ["scipy"]),
    "bounds": ([], ["scipy"]),
    "ratefn": (["scipy.special"], ["scipy.spatial"]),
    "tail": (["scipy.special"], ["scipy.spatial"]),
    "construct": (["scipy.spatial"], []),
    "verify": (["scipy.spatial"], []),
}


class TestUsage:
    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "--n", "3"])
        assert exc.value.code == 2

    def test_entry_point_installed(self, tmp_path):
        out = str(tmp_path / "smoke.csv")
        proc = subprocess.run(
            [sys.executable, "-m", "multipack.cli", "bounds", "--L", "3", "--N-min", "0.01", "--N-max", "0.02", "--steps", "2", "--out", out],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0

    def test_closed_pipe_exits_141_quietly(self, tmp_path):
        # the reader of stdout is gone before the first write, as after
        # `multipack radius ... | grep -q`: the work is done, so the command
        # exits as SIGPIPE would, with nothing on stderr
        pts = tmp_path / "pts.csv"
        fileio.write_points(pts, fileio.PointList(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])))
        env = dict(os.environ, PYTHONPATH=str(Path(multipack.__file__).parents[1]))
        r, w = os.pipe()
        os.close(r)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "multipack.cli", "radius", str(pts), "--mode", "cheb"],
                stdout=w,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
                timeout=120,
            )
        finally:
            os.close(w)
        assert (proc.returncode, proc.stderr) == (141, "")

    def test_cold_import_loads_neither_stats_nor_optimize(self):
        # scipy.stats is never needed, rate_function's search is its own, and
        # every scipy import sits in the function that calls it
        script = (
            "import sys, multipack.cli\n"
            "assert 'scipy.stats' not in sys.modules and 'scipy.optimize' not in sys.modules\n"
            "assert not [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
            "from multipack import rate_function\n"
            "assert rate_function(3, 4.0, 0.01).rate > 0\n"
            "assert 'scipy.optimize' not in sys.modules\n"
        )
        _cold_run(script)

    @pytest.mark.parametrize("command", IMPORT_MAP)
    def test_import_map(self, tmp_path, command):
        pts = tmp_path / "pts.csv"
        fileio.write_points(pts, fileio.PointList(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])))
        code = tmp_path / "code.csv"
        construct = ["construct", "--n", "3", "--L", "2", "--N", "0.01", "--K", "1", "--seed", "1", "--out", str(code)]
        runs = {
            "radius": [["radius", str(pts), "--mode", m] for m in ("avg", "cheb", "p")],
            "bounds": [["bounds", "--N-min", "0.01", "--N-max", "0.02", "--steps", "2", "--out", str(tmp_path / "b.csv")]],
            "ratefn": [["ratefn", "--L", "3", "--K", "4", "--N", "0.01"]],
            "tail": [["tail", "--L", "2", "--n", "8", "--K", "1", "--N", "0.14", "--samples", "20000", "--seed", "1"]],
            "construct": [construct],
            "verify": [["verify", str(code)]],
        }[command]
        if command == "verify":
            assert main(construct) == 0
        script = (
            "import json, sys, multipack.cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert multipack.cli.main(argv) == 0, argv\n"
            "print(json.dumps(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))))\n"
        )
        modules = json.loads(_cold_run(script, json.dumps(runs)).stdout.splitlines()[-1])
        loaded, absent = IMPORT_MAP[command]
        for name in loaded:
            assert name in modules
        for name in absent:
            assert not [m for m in modules if m == name or m.startswith(name + ".")]


def _cold_run(script, *args):
    """Run ``script`` in a fresh Python that imports multipack from this
    checkout; the child's stderr goes into the assertion message."""
    env = dict(os.environ, PYTHONPATH=str(Path(multipack.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc
