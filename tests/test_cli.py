import json

import numpy as np
import pytest

from bifreemax.cli import main
from bifreemax.serialize import dump_json, load_json, measure_to_obj
from bifreemax import DiscreteMeasure, bdf_from_law, sup_distance


@pytest.fixture()
def law_file(tmp_path):
    from bifreemax.serialize import bdf_to_obj
    F = bdf_from_law(DiscreteMeasure([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5]))
    path = tmp_path / "f.json"
    dump_json(bdf_to_obj(F), path)
    return path, F


class TestCheck:
    def test_member_exit_zero(self, capsys):
        assert main(["check", "copula", "lomax:p=0.5,theta=1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "member"

    def test_nonmember_exit_one(self, capsys):
        assert main(["check", "copula", "amh:theta=-0.2"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "nonmember"
        assert out["witness"] is not None

    def test_gaussian_maxid(self, capsys):
        assert main(["check", "maxid", "--gaussian", "0.5"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "not-maxid"

    def test_grid_maxid_yes(self, law_file, capsys):
        path, _ = law_file
        assert main(["check", "maxid", str(path)]) == 0

    def test_classical_maxid(self, law_file, capsys):
        path, _ = law_file
        assert main(["check", "classical-maxid", str(path), "--ns", "2,3"]) == 0

    def test_copula_axioms(self, capsys):
        assert main(["check", "copula-axioms", "logistic:m=2"]) == 0

    def test_malformed_spec_exit_four(self, capsys):
        assert main(["check", "copula", "nosuch:1"]) == 4
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    @pytest.mark.parametrize("check", [
        ["copula", "amh:theta=0.5"],
        ["copula", "amh:theta=0.5", "--mode", "smooth"],
        ["maxid", "dirac:0,0"],
        ["classical-maxid", "dirac:0,0"],
        ["copula-axioms", "logistic:m=2"],
    ])
    def test_negative_or_nan_tolerance_exit_four(self, check, tol, capsys):
        assert main(["--tol", tol, "check", *check]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: tol must be nonnegative\n"


class TestConvolve:
    def test_identity_element(self, law_file, tmp_path, capsys):
        path, F = law_file
        out = tmp_path / "h.json"
        code = main(["convolve", str(path), "dirac:-5,-5", "-o", str(out)])
        assert code == 0
        H = load_json(out)
        assert sup_distance(H, F, (np.linspace(-1, 2, 13),) * 2) < 1e-12

    def test_free_convolution(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        code = main(["convolve", "--free", "uniform:0,1", "uniform:0,1",
                     "-o", str(out)])
        assert code == 0
        h = load_json(out)
        assert h.eval(0.75) == pytest.approx(0.5, abs=1e-2)

    def test_free_convolution_refuses_a_surface_csv(self, tmp_path, capsys):
        csv = tmp_path / "h.csv"
        code = main(["convolve", "--free", "uniform:0,1", "uniform:0,1",
                     "--csv", str(csv)])
        assert code == 4
        assert "--csv writes a surface" in capsys.readouterr().err
        assert not csv.exists()

    def test_surface_csv(self, law_file, tmp_path, capsys):
        path, _ = law_file
        csv = tmp_path / "h.csv"
        main(["convolve", str(path), str(path), "--csv", str(csv)])
        assert csv.read_text().startswith("x,y,value\n")


class TestPowerTransform:
    def test_power_round_trip(self, law_file, tmp_path, capsys):
        path, F = law_file
        out = tmp_path / "p.json"
        assert main(["power", str(path), "2", "-o", str(out)]) == 0
        P = load_json(out)
        H = load_json(path)
        conv = __import__("bifreemax").bifree_maxconv(H, H)
        assert sup_distance(P, conv, (np.linspace(-1, 2, 13),) * 2) < 1e-12

    def test_transform_stdout(self, law_file, capsys):
        path, _ = law_file
        assert main(["transform", "tail", str(path)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "x,y,value"
        assert len(lines) > 1


class TestBuild:
    def test_from_measure(self, tmp_path, capsys):
        tau = tmp_path / "tau.json"
        dump_json(measure_to_obj(DiscreteMeasure([[1.0, 1.0]], [0.5])), tau)
        out = tmp_path / "F.json"
        code = main(["build", "from-measure", f"@{tau}", "--lower", "0,0",
                     "-o", str(out)])
        assert code == 0
        F = load_json(out)
        assert F.eval(0.5, 0.5) == pytest.approx(0.5)

    def test_coupled(self, tmp_path, capsys):
        out = tmp_path / "F.json"
        code = main(["--grid", "41", "build", "coupled", "amh:theta=0.5",
                     "uniform:0,1", "uniform:0,1", "-o", str(out)])
        assert code == 0
        F = load_json(out)
        assert 0.0 < F.eval(0.5, 0.5) < 1.0


class TestGaussian:
    def test_verdict_exit_codes(self, capsys):
        assert main(["gaussian", "verdict", "0"]) == 0
        capsys.readouterr()
        assert main(["gaussian", "verdict", "0.5"]) == 1

    def test_identity_rows(self, capsys):
        # values opening with a dash need the --opt=value form
        assert main(["gaussian", "identity", "0.5", "--xs=-2,0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert all(r["error"] < 1e-6 for r in out["rows"])

    def test_density_csv(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert main(["gaussian", "density", "0.3", "--resolution", "11",
                     "-o", str(out)]) == 0
        assert out.read_text().startswith("x,y,value\n")

    def test_cdf_json(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert main(["gaussian", "cdf", "0.3", "--resolution", "41",
                     "-o", str(out)]) == 0
        F = load_json(out)
        assert F.eval(2.0, 2.0) == pytest.approx(1.0, abs=1e-6)


class TestFormatsAndPipes:
    def test_csv_verdict_format(self, capsys):
        assert main(["--format", "csv", "check", "copula", "independence"]) == 0
        out = capsys.readouterr().out
        assert "status,member" in out

    def test_gaussian_cdf_feeds_transform(self, tmp_path, capsys):
        cdf = tmp_path / "c.json"
        main(["gaussian", "cdf", "0.4", "--resolution", "31", "-o", str(cdf)])
        surf = tmp_path / "t.csv"
        assert main(["transform", "tail", str(cdf), "-o", str(surf)]) == 0
        lines = surf.read_text().strip().split("\n")
        assert lines[0] == "x,y,value"
        vals = np.array([float(l.split(",")[2]) for l in lines[1:]])
        assert np.all(vals >= -1e-9)  # tail functional is nonnegative

    def test_doa_with_explicit_pickands(self, tmp_path, capsys):
        summ = tmp_path / "s.json"
        code = main(["experiment", "doa-copula", "amh:theta=1",
                     "--pickands", "one", "--n", "64", "--probe", "9",
                     "--summary", str(summ)])
        assert code == 0


class TestExperiments:
    def test_compound_poisson(self, tmp_path, capsys):
        csv = tmp_path / "ladder.csv"
        summ = tmp_path / "summary.json"
        code = main(["experiment", "compound-poisson", "--lam", "0.5",
                     "--nu", "dirac:1,1", "--p", "0,0", "--max-log2", "5",
                     "-o", str(csv), "--summary", str(summ)])
        assert code == 0
        s = json.loads(summ.read_text())
        assert s["eventually_decreasing"] is True
        assert s["final"] <= 1e-2
        assert csv.read_text().startswith("n,diagnostic,value\n")

    def test_doa_copula(self, tmp_path, capsys):
        summ = tmp_path / "summary.json"
        code = main(["experiment", "doa-copula", "gumbel-mixed:theta=1",
                     "--n", "1024", "--probe", "11", "--summary", str(summ)])
        assert code == 0
        s = json.loads(summ.read_text())
        assert s["final"] < 1e-2

    def test_max_stable(self, tmp_path, capsys):
        summ = tmp_path / "summary.json"
        code = main(["experiment", "max-stable", "logistic:m=2",
                     "--marginal", "pareto:alpha=1", "--ns", "2,5,10",
                     "--summary", str(summ)])
        assert code == 0
        s = json.loads(summ.read_text())
        assert s["max_distance"] <= 1e-12


class TestGolden:
    """Frozen representative artifacts; breakage flags a contract change."""

    def test_coupling_verdict_json(self, capsys):
        main(["check", "copula", "clayton:p=0.5"])
        expect = (
            '{\n'
            '  "check": "maxid-coupling",\n'
            '  "spec": "clayton:p=0.5",\n'
            '  "status": "member",\n'
            '  "mode": "grid",\n'
            '  "min_margin": 1.0060499948954795e-06,\n'
            '  "witness": null\n'
            '}\n'
        )
        assert capsys.readouterr().out == expect

    def test_compound_poisson_ladder_csv(self, tmp_path, capsys):
        csv = tmp_path / "ladder.csv"
        main(["experiment", "compound-poisson", "--lam", "0.5",
              "--nu", "dirac:1,1", "--p", "0,0", "--max-log2", "2",
              "-o", str(csv)])
        assert csv.read_text() == \
            "n,diagnostic,value\n2,sup_distance,0.0\n4,sup_distance,0.0\n"

    def test_convolve_output_satisfies_identity(self, tmp_path, capsys):
        # the written surface obeys H1*H2/H = F1*F2/F + G1*G2/G - 1 at
        # shared knots
        from bifreemax import product_ratio
        from bifreemax.serialize import bdf_to_obj
        F = bdf_from_law(DiscreteMeasure(
            [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], [0.3, 0.4, 0.3]))
        path = tmp_path / "f.json"
        dump_json(bdf_to_obj(F), path)
        out = tmp_path / "h.json"
        main(["convolve", str(path), str(path), "-o", str(out)])
        H = load_json(out)
        xs = H.xknots[H.marginal1.eval(H.xknots) > 0]
        ys = H.yknots[H.marginal2.eval(H.yknots) > 0]
        qh = product_ratio(H, xs[:, None], ys[None, :])
        qf = product_ratio(F, xs[:, None], ys[None, :])
        np.testing.assert_allclose(qh - 1.0, 2.0 * (qf - 1.0), atol=1e-12)


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, tmp_path, capsys):
        outs = []
        for tag in ("a", "b"):
            csv = tmp_path / f"{tag}.csv"
            summ = tmp_path / f"{tag}.json"
            main(["experiment", "compound-poisson", "--lam", "0.5",
                  "--nu", "dirac:1,1", "--p", "0,0", "--max-log2", "4",
                  "-o", str(csv), "--summary", str(summ)])
            outs.append(csv.read_bytes() + summ.read_bytes())
        assert outs[0] == outs[1]

    def test_verdict_stdout_stable(self, capsys):
        main(["check", "copula", "clayton:p=2"])
        first = capsys.readouterr().out
        main(["check", "copula", "clayton:p=2"])
        assert capsys.readouterr().out == first
