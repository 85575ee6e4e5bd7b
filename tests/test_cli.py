import csv
import io
import json

import pytest

from typent import cli
from typent.errors import ConvergenceError


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, *argv):
    code, out, err = _run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_typical_example(capsys):
    doc = _run_json(capsys, "typical", "--n", "2", "--m", "3")
    assert doc["spectrum"] == pytest.approx([0.8535534, 0.1464466], abs=1e-6)
    assert doc["xi"] == 4
    assert doc["purity_formula"] == pytest.approx(0.75)
    assert doc["trace_inverse_formula"] == pytest.approx(8.0)
    assert doc["oracle_residual"] <= 1e-9
    assert doc["config"]["n"] == 2
    assert doc["config"]["m"] == 3


def test_typical_degenerate_cases(capsys):
    doc = _run_json(capsys, "typical", "--n", "1", "--m", "5")
    assert doc["spectrum"] == [1.0]
    doc = _run_json(capsys, "typical", "--n", "1", "--m", "1")
    assert doc["spectrum"] == [1.0]
    assert doc["invariants_s"] == {"s_1": 1}
    assert doc["determinant"] == 1
    doc = _run_json(capsys, "typical", "--n", "2", "--m", "2")
    assert doc["spectrum"] == pytest.approx([1.0, 0.0], abs=1e-12)


def test_isopurity_example(capsys):
    doc = _run_json(capsys, "isopurity", "--n", "2", "--purity", "0.625")
    assert doc["spectrum"] == pytest.approx([0.75, 0.25], abs=1e-12)
    assert doc["eta"] == pytest.approx(8.0)
    assert doc["beta"] == pytest.approx(1.0)
    assert doc["feasible"] is True
    assert doc["beta_plus_asymptotic"] == 2.0


def test_isopurity_large_n_near_threshold(capsys):
    doc = _run_json(capsys, "isopurity", "--n", "64", "--beta", "2")
    assert doc["feasible"] is True
    assert 0.0 <= doc["min_eigenvalue"] < 1e-2


def test_isopurity_exit_codes(capsys):
    code, _, err = _run(capsys, "isopurity", "--n", "2", "--purity", "0.5")
    assert code == 3
    assert "infeasible" in err
    code, _, err = _run(capsys, "isopurity", "--n", "2", "--purity", "1.5")
    assert code == 2
    code, _, err = _run(capsys, "isopurity", "--n", "2")
    assert code == 2
    code, _, err = _run(
        capsys, "isopurity", "--n", "2", "--purity", "0.7", "--eta", "9.0"
    )
    assert code == 2
    # sizes below 2 are usage errors whichever target is given
    for n, purity in (("0", "0.5"), ("1", "1")):
        code, _, err = _run(capsys, "isopurity", "--n", n, "--purity", purity)
        assert code == 2
        assert "n must be >= 2" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_beta_is_usage_error(capsys, value):
    for argv in (
        ("density", "--kind", "semicircle", "--beta", value, "--points", "4"),
        ("isopurity", "--n", "4", "--beta", value),
        ("isopurity", "--n", "4", "--eta", value),
    ):
        code, out, err = _run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert value in err


@pytest.mark.parametrize(
    "argv",
    [
        ("density", "--kind", "semicircle", "--beta", "1e40"),
        ("converge", "--beta", "1e300", "--n", "4,8"),
    ],
)
def test_collapsed_semicircle_support_is_usage_error(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "rounds to the point 1" in err


@pytest.mark.parametrize("scan, bound", [("1,inf,3", "HI"), ("nan,5,3", "LO")])
def test_scan_bounds_must_be_finite(capsys, scan, bound):
    code, out, err = _run(capsys, "isopurity", "--n", "4", "--scan", scan)
    assert code == 2
    assert out == ""
    assert f"--scan {bound} must be finite" in err


def test_sample_report(capsys):
    doc = _run_json(
        capsys, "sample", "--n", "2", "--m", "2", "--samples", "4000",
        "--seed", "11", "--functional", "purity",
    )
    body = {k: v for k, v in doc.items() if k != "config"}
    assert list(body) == [
        "functional", "n", "m", "count", "seed", "mean", "std_error",
    ]
    assert body["mean"] == pytest.approx(0.8, abs=0.02)
    assert body["count"] == 4000


def test_sample_histogram_csv(capsys):
    code, out, err = _run(
        capsys, "sample", "--n", "2", "--m", "2", "--samples", "2000",
        "--seed", "3", "--histogram-bins", "24", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# ")
    reader = csv.reader(io.StringIO("\n".join(lines[1:])))
    rows = list(reader)
    assert rows[0] == ["bin_left", "bin_right", "density"]
    data = [[float(c) for c in r] for r in rows[1:]]
    assert len(data) == 24
    area = sum((right - left) * dens for left, right, dens in data)
    assert area == pytest.approx(1.0, rel=1e-9)


def test_sample_histogram_rejects_functional(capsys, tmp_path):
    """The histogram ignores --functional, so asking for both is a usage
    error, whether the functional comes from a flag or a config file."""
    argv = ("sample", "--n", "2", "--m", "2", "--samples", "100", "--histogram-bins", "12")
    code, out, err = _run(capsys, *argv, "--functional", "entropy")
    assert code == 2
    assert out == ""
    assert "--histogram-bins" in err and "--functional" in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("functional = purity\n")
    code, out, err = _run(capsys, *argv, "--config", str(cfg))
    assert code == 2
    assert "--functional" in err


def test_density_csv(capsys):
    code, out, err = _run(capsys, "density", "--kind", "semicircle", "--beta", "2",
                          "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    assert rows[0] == ["lambda", "density"]
    assert len(rows) == 513
    assert float(rows[1][1]) == 0.0
    assert float(rows[-1][1]) == 0.0


def test_density_mp_alias(capsys):
    doc = _run_json(capsys, "density", "--kind", "mp")
    assert doc["config"]["kind"] == "marchenko_pastur"
    code, _, err = _run(capsys, "density", "--kind", "mp", "--beta", "3")
    assert code == 2
    code, _, err = _run(capsys, "density", "--kind", "semicircle")
    assert code == 2


def test_converge_csv(capsys):
    code, out, err = _run(
        capsys, "converge", "--beta", "2", "--n", "8,16,32", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO("\n".join(out.strip().splitlines()[1:]))))
    assert rows[0] == ["n", "ks_distance"]
    ks = [float(r[1]) for r in rows[1:]]
    assert [int(r[0]) for r in rows[1:]] == [8, 16, 32]
    assert ks[0] > ks[1] > ks[2]
    code, _, err = _run(capsys, "converge", "--beta", "1", "--n", "8,16")
    assert code == 2


def test_table_csv(capsys):
    code, out, err = _run(capsys, "table", "--n", "2", "--m", "3", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO("\n".join(out.strip().splitlines()[1:]))))
    assert rows[0] == ["quantity", "n", "m", "value", "formula"]
    names = [r[0] for r in rows[1:]]
    assert "mean_purity" in names and "typical_s_1" in names
    by_name = {r[0]: r for r in rows[1:]}
    assert float(by_name["typical_s_1"][3]) == 1.0


@pytest.mark.parametrize("k_max", ["-1", "3", "5"])
def test_table_rejects_k_max_outside_0_to_n(capsys, k_max):
    code, out, err = _run(capsys, "table", "--n", "2", "--m", "3", "--k-max", k_max)
    assert code == 2 and out == ""
    assert f"k_max must be in 0..2, got {k_max}" in err


def test_table_k_max_sets_the_typical_rows(capsys):
    for k_max, expected in (("0", []), ("2", ["typical_s_1", "typical_s_2"])):
        doc = _run_json(capsys, "table", "--n", "2", "--m", "3", "--k-max", k_max)
        names = [row[0] for row in doc["rows"]]
        assert [q for q in names if q.startswith("typical_s_")] == expected


def test_json_csv_value_identity(capsys):
    doc = _run_json(capsys, "typical", "--n", "3", "--m", "5")
    code, out, err = _run(capsys, "typical", "--n", "3", "--m", "5",
                          "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO("\n".join(out.strip().splitlines()[1:]))))
    assert rows[0] == ["key", "value"]
    flat = {key: value for key, value in rows[1:]}
    for i, lam in enumerate(doc["spectrum"], start=1):
        assert float(flat[f"spectrum_{i}"]) == lam
    assert float(flat["purity_formula"]) == doc["purity_formula"]
    assert float(flat["determinant"]) == doc["determinant"]


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, err = _run(capsys, "typical", "--n", "2", "--m", "4",
                          "--output", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["xi"] == 6


def test_config_file_defaults_and_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults\nn = 2\nm = 2\nsamples = 500\nseed = 4\n")
    doc = _run_json(capsys, "sample", "--config", str(cfg))
    assert doc["count"] == 500
    assert doc["config"]["seed"] == 4
    doc = _run_json(capsys, "sample", "--config", str(cfg), "--samples", "200")
    assert doc["count"] == 200
    bad = tmp_path / "bad.cfg"
    bad.write_text("unknown_key = 3\n")
    code, _, err = _run(capsys, "sample", "--config", str(bad))
    assert code == 2
    code, _, err = _run(capsys, "sample", "--config", str(tmp_path / "nope.cfg"))
    assert code == 2


@pytest.mark.parametrize("fmt", ["xml", "JSON"])
def test_config_file_format_outside_choices_is_usage_error(tmp_path, capsys, fmt):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"format={fmt}\n")
    code, out, err = _run(capsys, "typical", "--n", "2", "--m", "3", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert repr(fmt) in err


def test_scan_mode_csv(capsys):
    code, out, err = _run(
        capsys, "isopurity", "--n", "4", "--scan", "20,400,10", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO("\n".join(out.strip().splitlines()[1:]))))
    assert rows[0] == ["n", "eta", "beta", "purity", "min_eigenvalue", "feasible"]
    assert len(rows) == 11
    feas = [r[5] for r in rows[1:]]
    assert set(feas) <= {"true", "false"}


@pytest.mark.parametrize("flag", [["--purity", "0.14"], ["--beta", "2"], ["--eta", "300"]])
def test_scan_mode_rejects_target_flags(capsys, flag):
    code, out, err = _run(capsys, "isopurity", "--n", "8", *flag, "--scan", "100,2000,3")
    assert code == 2
    assert out == ""
    assert flag[0] in err


def test_numeric_failure_exit_code(capsys, monkeypatch):
    def boom(args):
        raise ConvergenceError("did not settle")

    monkeypatch.setitem(cli._HANDLERS, "typical", boom)
    code, _, err = _run(capsys, "typical", "--n", "2", "--m", "3")
    assert code == 4
    assert "numeric failure" in err


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, _ = _run(capsys, "bogus")
    assert code == 2


def test_sample_has_no_chunk_size(tmp_path, capsys):
    doc = _run_json(capsys, "sample", "--n", "2", "--m", "2", "--samples", "10")
    assert list(doc["config"]) == [
        "command", "n", "m", "samples", "seed", "functional", "histogram_bins",
        "format", "output_path",
    ]
    code, _, _ = _run(capsys, "sample", "--n", "2", "--m", "2", "--samples", "10",
                      "--chunk-size", "7")
    assert code == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 2\nm = 2\nsamples = 10\nchunk_size = 7\n")
    code, _, err = _run(capsys, "sample", "--config", str(cfg))
    assert code == 2
    assert "chunk_size" in err


def test_thread_env_is_ignored(capsys, monkeypatch):
    """Samples run on the calling thread; TYPENT_THREADS no longer exists,
    so even a value the old cap rejected changes nothing."""
    argv = ("sample", "--n", "3", "--m", "5", "--samples", "1500", "--seed", "4")
    code, base, _ = _run(capsys, *argv)
    assert code == 0
    monkeypatch.setenv("TYPENT_THREADS", "abc")
    code, out, err = _run(capsys, *argv)
    assert code == 0
    assert err == ""
    assert out == base
