import json
import math
import subprocess
import sys

import numpy as np
import pytest

from multipack import FiniteCode, fileio, tile
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
        assert text.rstrip().endswith("PASS")

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
        fileio.write_constellation(cpath, tile(bad, gap=0.5))
        rc, text, _ = run(["verify", str(cpath)], capsys)
        assert rc == 1
        assert "FAIL" in text and "base indices" in text
        rc, text, _ = run(["verify", str(cpath.with_name("nope.csv"))], capsys)
        assert rc == 2

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
        assert "FAIL" in text


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

    def test_budget_exit_code(self, capsys):
        rc, _, err = run(["ratefn", "--L", "6", "--K", "1", "--N", "0.01"], capsys)
        assert rc == 2
        assert "budget" in err


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

    def test_parse_error_exit(self, tmp_path, capsys):
        p = tmp_path / "junk.csv"
        p.write_text("# n=2\n1,2\n3,oops\n")
        rc, _, err = run(["radius", str(p)], capsys)
        assert rc == 2
        assert "junk.csv:3" in err


class TestUsage:
    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "--n", "3"])
        assert exc.value.code == 2

    def test_entry_point_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "multipack.cli", "bounds", "--L", "3", "--N-min", "0.01", "--N-max", "0.02", "--steps", "2", "--out", "/tmp/_cli_smoke.csv"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
