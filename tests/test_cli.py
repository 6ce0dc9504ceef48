import json

import numpy as np
import pytest

from semispec.cli import _PARAMS, main

FIG1 = "I + i*epsilon*(cos(theta) + I^2)"
FIG5 = "x^2 + xi^2 + i*epsilon*x^2"


def run(argv):
    return main(argv)


class TestQuantizeAndSpectrum:
    def test_quantize_writes_schema(self, tmp_path, capsys):
        code = run(["quantize", "--model", "circle", "--symbol", FIG1,
                    "--N", "5", "--epsilon", "0.1", "--out", str(tmp_path)])
        assert code == 0
        data = json.loads((tmp_path / "operator.json").read_text())
        assert data["basis"] == "fourier"
        assert data["N"] == 5
        assert len(data["rows"]) == 11
        assert len(data["rows"][0]) == 22
        assert (tmp_path / "operator.csv").exists()

    def test_spectrum_from_matrix_file(self, tmp_path):
        run(["quantize", "--model", "line", "--symbol", "x^2 + xi^2",
             "--N", "6", "--out", str(tmp_path)])
        code = run(["spectrum", "--matrix", str(tmp_path / "operator.json"),
                    "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "spectrum.csv").read_text().strip().split("\n")
        assert lines[0] == "re,im,residual"
        eigs = sorted(float(line.split(",")[0]) for line in lines[1:])
        expected = sorted((2 * k + 1) / 6 for k in range(7))
        assert np.allclose(eigs, expected, atol=1e-12)

    def test_spectrum_from_symbol(self, tmp_path):
        code = run(["spectrum", "--model", "circle", "--symbol", "I",
                    "--N", "4", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "spectrum.csv").exists()


class TestPredictAndCompare:
    def test_predict_writes_both_modes(self, tmp_path):
        code = run(["predict", "--model", "circle", "--symbol", FIG1,
                    "--N", "16", "--delta", "0.5", "--out", str(tmp_path)])
        assert code == 0
        for mode in ("averaged_first_order", "principal_exact"):
            csv = tmp_path / f"predictions_{mode}.csv"
            assert csv.read_text().startswith("k,re,im,rule,mode")
            assert (tmp_path / f"predictions_{mode}.json").exists()

    def test_compare_pipeline(self, tmp_path):
        code = run(["compare", "--model", "circle", "--symbol", "I",
                    "--N", "16", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["comparisons"]["principal_exact"]["summary"]["max_dist"] \
            <= 1e-10

    def test_compare_optimal_pairing(self, tmp_path):
        code = run(["compare", "--model", "circle", "--symbol", FIG1,
                    "--N", "12", "--delta", "0.5", "--pairing", "optimal",
                    "--out", str(tmp_path)])
        assert code == 0

    def test_explicit_rect_and_window(self, tmp_path):
        code = run(["compare", "--model", "circle", "--symbol", "I",
                    "--N", "16", "--rect=-0.4,0.4,-0.1,0.1",
                    "--window=-0.4,0.4", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["rect"] == [-0.4, 0.4, -0.1, 0.1]


class TestConfigFile:
    def test_config_file_roundtrip(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# figure-one setup\n"
            "model = circle\n"
            f"symbol = {FIG1}\n"
            "N = 12\n"
            "delta = 0.5\n"
            f"out = {tmp_path / 'out'}\n")
        assert run(["compare", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "report.json").exists()

    def test_cli_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = circle\nsymbol = I\nN = 12\n")
        out = tmp_path / "out"
        assert run(["compare", "--config", str(cfg), "--N", "16",
                    "--out", str(out)]) == 0
        assert "N = 16" in (out / "config.txt").read_text()

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("flavor = strange\n")
        assert run(["compare", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err


# A non-default value for every row of the CLI parameter table (the value
# of "out" is the run's output directory).
TABLE_VALUES = {
    "model": "circle", "symbol": FIG1, "N": "16", "hbar": "0.0625",
    "delta": "0.5", "epsilon": "0.05", "rect": "-0.4,0.4,-0.1,0.1",
    "window": "-0.4,0.4", "out": None, "pairing": "optimal",
    "maslov": "off", "floquet-offset": "0.25",
}
BASE = {"model": "circle", "symbol": "I", "N": "12"}


def compare_config_text(tmp_path, flags, lines):
    """config.txt bytes of a compare run from flags plus a config file."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{line}\n" for line in lines))
    out = tmp_path / "out"
    assert run(["compare", "--config", str(cfg), *flags]) == 0
    text = (out / "config.txt").read_bytes()
    (out / "config.txt").unlink()
    return text


class TestParameterTable:
    def test_values_cover_the_table(self):
        assert set(TABLE_VALUES) == set(_PARAMS)

    @pytest.mark.parametrize("key", list(TABLE_VALUES))
    def test_flag_and_config_line_agree(self, tmp_path, key):
        value = TABLE_VALUES[key] or str(tmp_path / "out")
        base = {**BASE, "out": str(tmp_path / "out")}
        flags = [f"--{k}={v}" for k, v in base.items() if k != key]
        from_flag = compare_config_text(tmp_path, flags + [f"--{key}={value}"],
                                        [])
        from_file = compare_config_text(tmp_path, flags, [f"{key} = {value}"])
        assert from_flag == from_file

    def test_config_keys_in_any_case(self, tmp_path):
        flags = [f"--out={tmp_path / 'out'}"]
        spelled = compare_config_text(
            tmp_path, flags, ["MODEL = circle", "Symbol = I", "n = 12",
                              "FLOQUET_OFFSET = 0.25"])
        plain = compare_config_text(
            tmp_path, flags, ["model = circle", "symbol = I", "N = 12",
                              "floquet-offset = 0.25"])
        assert spelled == plain

    @pytest.mark.parametrize("key,value", [
        ("N", "abc"), ("hbar", "x"), ("model", "torus")])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_malformed_value_is_2(self, tmp_path, capsys, key, value, source):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n" if source == "config" else "")
        flags = [f"--{k}={v}" for k, v in BASE.items() if k != key]
        if source == "flag":
            flags.append(f"--{key}={value}")
        code = run(["compare", "--config", str(cfg), *flags,
                    "--out", str(tmp_path / "out")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_reproduce_figures_malformed_N_is_2(self, tmp_path, capsys):
        code = run(["reproduce-figures", "--out", str(tmp_path),
                    "--N", "abc"])
        assert code == 2
        assert "config error" in capsys.readouterr().err


class TestExitCodes:
    def test_missing_symbol_is_2(self, capsys):
        assert run(["compare", "--model", "circle", "--N", "12"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_window_is_2(self, tmp_path, capsys):
        assert run(["compare", "--model", "circle", "--symbol", "I",
                    "--N", "12", "--window=-2,2",
                    "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("argv", [
        ["compare", "--model", "circle", "--symbol", "I", "--N", "12",
         "--rect=a,b,c,d", "--out", "{tmp}"],
        ["compare", "--model", "circle", "--symbol", "I", "--N", "12",
         "--window=a,b", "--out", "{tmp}"],
        ["spectrum", "--matrix", "{tmp}/not_json.txt", "--out", "{tmp}"],
        ["spectrum", "--matrix", "{tmp}/no_basis.json", "--out", "{tmp}"],
        ["spectrum", "--matrix", "{tmp}/bad_rows.json", "--out", "{tmp}"],
        ["spectrum", "--matrix", "{tmp}/missing.json", "--out", "{tmp}"],
        ["compare", "--config", "{tmp}/missing.cfg"],
        ["compare", "--model", "circle", "--symbol", "I", "--N", "12",
         "--hbar", "nan", "--out", "{tmp}"],
        ["compare", "--model", "circle", "--symbol", "I", "--N", "12",
         "--hbar", "inf", "--out", "{tmp}"],
    ], ids=["rect", "window", "matrix-not-json", "matrix-no-basis",
            "matrix-bad-rows", "matrix-missing", "config-missing",
            "hbar-nan", "hbar-inf"])
    def test_malformed_input_is_2(self, tmp_path, capsys, argv):
        (tmp_path / "not_json.txt").write_text("rows: 1 2 3\n")
        (tmp_path / "no_basis.json").write_text(
            '{"N": 0, "hbar": 1.0, "rows": [[1.0, 0.0]]}\n')
        (tmp_path / "bad_rows.json").write_text(
            '{"basis": "fock", "N": 0, "hbar": 1.0, "rows": [["a", 0]]}\n')
        code = run([a.format(tmp=tmp_path) for a in argv])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_numeric_failure_is_3(self, tmp_path, capsys):
        # f = I^2 is critical at the center of this window: the level-set
        # Newton hits |dp/dI| ~ 0 and the predict stage must report it
        code = run(["predict", "--model", "circle", "--symbol", "I^2",
                    "--N", "12", "--rect=-0.1,0.1,-0.1,0.1",
                    "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert "numeric failure" in err
        assert "stage=predict" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command", ["quantize", "spectrum", "pt-verify"])
    def test_numeric_failure_names_stage(self, tmp_path, capsys, command):
        # hbar = 1e300 overflows the Fock matrix entries
        code = run([command, "--model", "line",
                    "--symbol", "x^2 + xi^2 + i*epsilon*x^8", "--N", "5",
                    "--hbar", "1e300", "--epsilon", "0.1",
                    "--out", str(tmp_path)])
        assert code == 3
        assert "stage=quantize" in capsys.readouterr().err

    def test_pt_verify_cli(self, tmp_path, capsys):
        code = run(["pt-verify", "--model", "line",
                    "--symbol", "x^2 + xi^2 + i*epsilon*x^3",
                    "--N", "16", "--delta", "0.5", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "symbol_symmetric=True" in out
        assert (tmp_path / "pt_report.json").exists()


class TestReproduceFiguresCLI:
    def test_runs_at_reduced_N(self, tmp_path, capsys):
        code = run(["reproduce-figures", "--out", str(tmp_path), "--N", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert f"wrote 9 bundles under {tmp_path} (5 distinct spectra)" in out
        assert sorted(p.name for p in tmp_path.iterdir()) \
            == [f"figure{k:02d}" for k in range(1, 10)]
