import json

import numpy as np
import pytest

from semispec import experiments
from semispec.cli import _PARAMS, main

FIG1 = "I + i*epsilon*(cos(theta) + I^2)"
FIG5 = "x^2 + xi^2 + i*epsilon*x^2"
PREDICT_FIG = ["--model", "circle", "--symbol", "I + i*epsilon*cos(theta)",
               "--N", "12", "--delta", "0.5"]


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

    @pytest.mark.parametrize("argv,legacy", [
        (["--model", "circle", "--symbol", FIG1, "--epsilon", "0.1"],
         {"symbol_fingerprint": "0" * 64}),
        (["--model", "line", "--symbol", "x^2 + xi^2 + i*epsilon*x^3",
          "--delta", "0.5"], {"padding": 3}),
    ], ids=["symbol_fingerprint", "padding"])
    def test_spectrum_reads_legacy_keys(self, tmp_path, argv, legacy):
        # operator.json files from earlier versions carry keys that are no
        # longer written (the Fock "padding" was deg(symbol)); reading one
        # gives the same spectrum
        run(["quantize", *argv, "--N", "6", "--out", str(tmp_path)])
        data = json.loads((tmp_path / "operator.json").read_text())
        assert not legacy.keys() & data.keys()
        old = tmp_path / "old"
        old.mkdir()
        (old / "operator.json").write_text(json.dumps(
            {**data, **legacy}, sort_keys=True) + "\n")
        for out in (tmp_path, old):
            assert run(["spectrum", "--matrix", str(out / "operator.json"),
                        "--out", str(out)]) == 0
        assert (old / "spectrum.csv").read_bytes() \
            == (tmp_path / "spectrum.csv").read_bytes()

    @pytest.mark.parametrize("size", [1e-200, 1e160])
    def test_spectrum_far_from_unit_scale(self, tmp_path, size):
        # the Fock N=1 operator [[0, s], [s, 0]], eigenvalues -s and s: at
        # s = 1e-200 its Frobenius norm underflows, at 1e160 s*s overflows
        (tmp_path / "operator.json").write_text(json.dumps(
            {"basis": "fock", "N": 1, "hbar": 1.0,
             "rows": [[0.0, 0.0, size, 0.0], [size, 0.0, 0.0, 0.0]]}))
        assert run(["spectrum", "--matrix", str(tmp_path / "operator.json"),
                    "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "spectrum.csv").read_text().strip().split("\n")
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        lams = np.array([complex(re, im) for re, im, _ in rows]) / size
        assert np.abs(lams - [-1.0, 1.0]).max() <= 1e-15
        assert all(0.0 <= res <= 20 * np.finfo(float).eps
                   for _, _, res in rows)

    def test_spectrum_from_symbol(self, tmp_path):
        code = run(["spectrum", "--model", "circle", "--symbol", "I",
                    "--N", "4", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "spectrum.csv").exists()

    def test_spectrum_matrix_takes_out_from_config(self, tmp_path):
        run(["quantize", "--model", "circle", "--symbol", "I", "--N", "4",
             "--out", str(tmp_path)])
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"out = {tmp_path / 'out'}\n")
        assert run(["spectrum", "--matrix", str(tmp_path / "operator.json"),
                    "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "spectrum.csv").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_spectrum_matrix_rejects_unused_params(self, tmp_path, capsys,
                                                   source):
        # the matrix fixes the model, N and hbar: any run parameter but out
        # would be silently ignored
        run(["quantize", "--model", "circle", "--symbol", "I", "--N", "4",
             "--out", str(tmp_path)])
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = circle\nfloquet_offset = 0.5\n")
        params = (["--model", "circle", "--floquet-offset", "0.5"]
                  if source == "flag" else ["--config", str(cfg)])
        capsys.readouterr()
        assert run(["spectrum", "--matrix", str(tmp_path / "operator.json"),
                    *params, "--out", str(tmp_path / "s")]) == 2
        assert "not model, floquet-offset" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()


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
    "window": "-0.4,0.4", "out": None, "maslov": "off",
    "floquet-offset": "0.25",
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
        ["spectrum", "--matrix", "{tmp}/op.json", "--config",
         "{tmp}/missing.cfg", "--out", "{tmp}"],
        ["spectrum", "--matrix", "{tmp}/op.json", "--config",
         "{tmp}/unknown_key.cfg", "--out", "{tmp}"],
        ["spectrum", "--matrix", "{tmp}/op.json", "--N", "abc",
         "--out", "{tmp}"],
        ["spectrum", "--matrix", "{tmp}/op.json", "--model", "torus",
         "--window=2,1", "--N", "0"],
        ["spectrum", "--matrix", "{tmp}/hbar_nan.json", "--out", "{tmp}"],
        ["spectrum", "--matrix", "{tmp}/N_fraction.json", "--out", "{tmp}"],
        ["compare", "--config", "{tmp}/missing.cfg"],
        ["compare", "--model", "circle", "--symbol", "I", "--N", "12",
         "--hbar", "nan", "--out", "{tmp}"],
        ["compare", "--model", "circle", "--symbol", "I", "--N", "12",
         "--hbar", "inf", "--out", "{tmp}"],
        ["predict", *PREDICT_FIG, "--rect=-inf,inf,-1,1", "--out", "{tmp}"],
        ["predict", *PREDICT_FIG, "--floquet-offset=nan", "--out", "{tmp}"],
        ["predict", *PREDICT_FIG, "--floquet-offset=inf", "--out", "{tmp}"],
        ["predict", *PREDICT_FIG, "--floquet-offset", "1e20", "--out", "{tmp}"],
        ["predict", "--model", "circle", "--symbol",
         "(" * 600 + "I" + ")" * 600, "--out", "{tmp}"],
        ["predict", "--model", "circle", "--symbol", "I*" + "-" * 2000 + "I",
         "--out", "{tmp}"],
        ["predict", "--model", "circle", "--symbol", "I^10000000",
         "--out", "{tmp}"],
        ["predict", "--model", "circle", "--symbol",
         "I + i*epsilon*" + "*".join(["(I + cos(theta))^64"] * 4),
         "--out", "{tmp}"],
        ["predict", "--model", "circle", "--symbol", "1e400*I",
         "--N", "12", "--delta", "0.5", "--out", "{tmp}"],
        ["predict", "--model", "circle", "--symbol",
         "*".join(["(1 + epsilon + I + cos(theta))^32"] * 2), "--out", "{tmp}"],
        ["compare", "--model", "circle", "--symbol", "I", "--N", "12",
         "--rect", "1,2,3", "--out", "{tmp}"],
        ["compare", "--model", "circle", "--symbol", "I", "--N", "12",
         "--maslov", "maybe", "--out", "{tmp}"],
        ["compare", "--config", "{tmp}/no_equals.cfg", "--out", "{tmp}"],
        ["compare", "--model", "circle", "--symbol", "I", "--N", "12"],
        ["reproduce-figures", "--N", "10"],
        ["compare", "--model", "circle", "--symbol", "I", "--N", "0",
         "--out", "{tmp}"],
        ["compare", "--model", "circle", "--symbol", "I", "--N", "12",
         "--window=0.1,0.1", "--out", "{tmp}"],
        ["predict", "--model", "circle", "--symbol", "I $ 2", "--N", "12",
         "--out", "{tmp}"],
        ["predict", "--model", "circle", "--symbol",
         "I + i*epsilon*cos(0*theta)", "--N", "12", "--out", "{tmp}"],
        ["predict", "--model", "circle", "--symbol",
         "I + i*epsilon*cos(1.5*theta)", "--N", "12", "--out", "{tmp}"],
        ["predict", "--model", "circle", "--symbol", "I + cos(theta)",
         "--N", "12", "--out", "{tmp}"],
        ["predict", "--model", "line", "--symbol",
         "x^2 + xi^2 + i*epsilon*(i*x)", "--N", "12", "--out", "{tmp}"],
        ["spectrum", "--matrix", "{tmp}/torus.json", "--out", "{tmp}"],
        ["spectrum", "--matrix", "{tmp}/short_row.json", "--out", "{tmp}"],
        ["spectrum", "--matrix", "{tmp}/N_past_cap.json", "--out", "{tmp}"],
        ["quantize", "--model", "circle", "--symbol", "I", "--N", "100000",
         "--out", "{tmp}"],
        ["pt-verify", "--model", "line", "--symbol", FIG5, "--N", "100000",
         "--delta", "0.5", "--out", "{tmp}"],
        ["predict", "--model", "circle", "--symbol", FIG1, "--N", "100000000",
         "--delta", "0.5", "--out", "{tmp}"],
        ["predict", "--model", "circle", "--symbol", FIG1, "--N", "12",
         "--delta", "0.5", "--rect=-1e300,1e300,-1,1", "--out", "{tmp}"],
        ["compare", "--model", "circle", "--symbol", FIG1, "--N", "66",
         "--epsilon", "0.1", "--hbar", "1e-12", "--rect=-0.5,0.5,-0.1,0.1",
         "--out", "{tmp}"],
        ["predict", "--model", "circle", "--symbol", "1e-300*I", "--N", "12",
         "--delta", "0.5", "--out", "{tmp}"],
        ["spectrum", "--matrix", "{tmp}/entry_nan.json", "--out", "{tmp}"],
    ], ids=["rect", "window", "matrix-not-json", "matrix-no-basis",
            "matrix-bad-rows", "matrix-missing", "matrix-config-missing",
            "matrix-config-unknown-key", "matrix-N-abc",
            "matrix-unused-params", "matrix-hbar-nan", "matrix-N-fraction",
            "config-missing",
            "hbar-nan", "hbar-inf", "rect-inf", "floquet-offset-nan",
            "floquet-offset-inf", "floquet-offset-too-large",
            "symbol-nested", "symbol-minus-chain", "symbol-power",
            "symbol-product", "symbol-inf-literal", "symbol-pairs",
            "rect-three", "maslov-maybe", "config-no-equals",
            "compare-no-out", "reproduce-figures-no-out", "N-zero",
            "window-empty", "symbol-token", "symbol-cos-zero",
            "symbol-cos-fraction", "symbol-f-theta", "symbol-complex-q",
            "matrix-basis-torus", "matrix-row-length", "matrix-N-past-cap",
            "quantize-N-past-cap", "pt-verify-N-past-cap", "predict-N-huge",
            "predict-rect-wide", "compare-hbar-tiny-rect", "symbol-flat-f",
            "matrix-entry-nan"])
    def test_malformed_input_is_2(self, tmp_path, capsys, argv):
        (tmp_path / "not_json.txt").write_text("rows: 1 2 3\n")
        (tmp_path / "no_basis.json").write_text(
            '{"N": 0, "hbar": 1.0, "rows": [[1.0, 0.0]]}\n')
        (tmp_path / "bad_rows.json").write_text(
            '{"basis": "fock", "N": 0, "hbar": 1.0, "rows": [["a", 0]]}\n')
        (tmp_path / "op.json").write_text(
            '{"basis": "fock", "N": 0, "hbar": 1.0, "rows": [[1.0, 0.0]]}\n')
        (tmp_path / "unknown_key.cfg").write_text("flavor = strange\n")
        (tmp_path / "hbar_nan.json").write_text(
            '{"basis": "fock", "N": 0, "hbar": NaN, "rows": [[1.0, 0.0]]}\n')
        (tmp_path / "N_fraction.json").write_text(
            '{"basis": "fock", "N": 1.7, "hbar": 1.0, '
            '"rows": [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]}\n')
        (tmp_path / "no_equals.cfg").write_text("model circle\n")
        (tmp_path / "torus.json").write_text(
            '{"basis": "torus", "N": 0, "hbar": 1.0, "rows": [[1.0, 0.0]]}\n')
        (tmp_path / "short_row.json").write_text(
            '{"basis": "fock", "N": 1, "hbar": 1.0, '
            '"rows": [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0]]}\n')
        (tmp_path / "entry_nan.json").write_text(
            '{"basis": "fock", "N": 1, "hbar": 1.0, '
            '"rows": [[NaN, 0, 1, 0], [1, 0, 0, 0]]}\n')
        (tmp_path / "N_past_cap.json").write_text(
            '{"basis": "fock", "N": 100000, "hbar": 1.0, '
            '"rows": [[1.0, 0.0]]}\n')
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

    def test_degenerate_action_map_is_3(self, tmp_path, capsys):
        # N = 1 with delta = 0.5 gives eps = 1, where the principal action
        # map of FIG1 is not invertible
        with pytest.warns(UserWarning, match="perturbative regime"):
            code = run(["predict", "--model", "circle", "--symbol", FIG1,
                        "--N", "1", "--delta", "0.5", "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert "stage=predict" in err
        assert "degenerate" in err

    def test_fourier_index_beyond_int64(self, tmp_path, capsys):
        # cos(1e20*theta) couples no two indices of [-12, 12]: the matrix
        # is built without it, and the predict stage rejects the symbol
        argv = ["--model", "circle", "--symbol",
                "I + i*epsilon*cos(1e20*theta)", "--N", "12",
                "--delta", "0.5"]
        assert run(["quantize", *argv, "--out", str(tmp_path / "q")]) == 0
        assert (tmp_path / "q" / "operator.json").exists()
        capsys.readouterr()
        assert run(["compare", *argv, "--out", str(tmp_path / "c")]) == 3
        assert "stage=predict" in capsys.readouterr().err

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

    @pytest.mark.parametrize("under", [False, True],
                             ids=["out-is-file", "out-under-file"])
    @pytest.mark.parametrize("argv", [
        ["quantize", "--model", "circle", "--symbol", "I", "--N", "12"],
        ["spectrum", "--model", "circle", "--symbol", "I", "--N", "12"],
        ["predict", *PREDICT_FIG],
        ["compare", "--model", "circle", "--symbol", "I", "--N", "12"],
        ["reproduce-figures", "--N", "10"],
        ["pt-verify", "--model", "line", "--symbol", FIG5, "--N", "12",
         "--delta", "0.5"],
    ], ids=lambda argv: argv[0])
    def test_unwritable_out_is_2(self, tmp_path, capsys, argv, under):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        out = blocker / "sub" if under else blocker
        assert run([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "cannot write under" in err
        assert blocker.read_text() == "not a directory\n"

    @pytest.mark.parametrize("argv", [
        ["compare", "--model", "circle", "--symbol", "I", "--N", "12"],
        ["reproduce-figures", "--N", "10"],
    ], ids=lambda argv: argv[0])
    def test_unwritable_out_is_2_before_quantize(self, tmp_path, monkeypatch,
                                                 argv):
        def refuse(cfg):
            raise AssertionError("quantized before --out was checked")

        monkeypatch.setattr(experiments, "build_operator", refuse)
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        assert run([*argv, "--out", str(blocker)]) == 2

    def test_pt_verify_cli(self, tmp_path, capsys):
        code = run(["pt-verify", "--model", "line",
                    "--symbol", "x^2 + xi^2 + i*epsilon*x^3",
                    "--N", "16", "--delta", "0.5", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "symbol_symmetric=True" in out
        assert (tmp_path / "pt_report.json").exists()

    def test_pt_verify_without_out_writes_here(self, tmp_path, monkeypatch,
                                               capsys):
        # like predict, pt-verify writes under the current directory
        monkeypatch.chdir(tmp_path)
        argv = ["--model", "line", "--symbol", "x^2 + xi^2 + i*epsilon*x^3",
                "--N", "12", "--delta", "0.5"]
        assert run(["pt-verify", *argv]) == 0
        assert "wrote pt_report.json" in capsys.readouterr().out
        here = json.loads((tmp_path / "pt_report.json").read_text())
        assert run(["pt-verify", *argv, "--out", str(tmp_path / "o")]) == 0
        there = json.loads((tmp_path / "o" / "pt_report.json").read_text())
        # out is not part of the config text, so the hash is the same
        assert here == there


class TestReproduceFiguresCLI:
    def test_runs_at_reduced_N(self, tmp_path, capsys):
        code = run(["reproduce-figures", "--out", str(tmp_path), "--N", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert f"wrote 9 bundles under {tmp_path} (5 distinct spectra)" in out
        assert sorted(p.name for p in tmp_path.iterdir()) \
            == [f"figure{k:02d}" for k in range(1, 10)]


# one FIG1 eigenvalue in the window and in this rect, but no prediction
NO_PREDICTION_RECT = "--rect=-0.7925,-0.7905,0.062203,0.062207"


def scan_argv(*argv, symbol=FIG1, epsilon="0.1"):
    return ["scan", "--model", "circle", "--symbol", symbol,
            "--epsilon", epsilon, *argv]


@pytest.mark.filterwarnings("error")
class TestScan:
    def test_fig1_order(self, capsys):
        assert run(scan_argv()) == 0
        out = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in out[:4]] \
            == ["N=", "N=", "N=", "N="]
        dists = [float(line.split("max_dist=")[1].split()[0])
                 for line in out[:4]]
        assert dists == pytest.approx(
            [5.698509e-06, 6.727736e-07, 6.360403e-08, 1.150178e-09],
            rel=1e-4)
        assert out[1].startswith("N=  33  hbar=0.030303  ")
        order = float(out[4].removeprefix("fitted log-log order: "))
        assert order == pytest.approx(8.16, abs=0.01)

    def test_bad_Ns_is_config_error(self, capsys):
        for ns in ("4", "24,x"):
            code = run(scan_argv("--Ns", ns))
            err = capsys.readouterr().err
            assert code == 2
            assert err.startswith("config error: ")
            assert "Traceback" not in err

    def test_zero_epsilon_order_is_undefined(self, capsys):
        code = run(scan_argv("--Ns", "8,12", epsilon="0"))
        out, err = capsys.readouterr()
        assert code == 0
        assert err == ""
        assert "max_dist=0.000000e+00" in out
        assert "fitted log-log order: undefined" in out
        assert "nan" not in out

    def test_repeated_N_order_is_undefined(self, capsys):
        # two points at the same N determine no slope (numpy's polyfit
        # would warn that the fit is poorly conditioned)
        code = run(scan_argv("--Ns", "8,8"))
        out, err = capsys.readouterr()
        assert code == 0
        assert err == ""
        assert out.count("N=   8") == 2
        assert "fitted log-log order: undefined" in out

    def test_fixed_hbar_order_is_undefined(self, capsys):
        # the fit is against hbar, so distinct N at one hbar fit nothing
        code = run(scan_argv("--Ns", "8,12", "--hbar", "0.1"))
        out, err = capsys.readouterr()
        assert code == 0
        assert err == ""
        assert out.count("hbar=0.100000") == 2
        assert "fitted log-log order: undefined" in out

    def test_numeric_failure_is_3(self, capsys):
        # f = I^3 - I folds at I = 1/sqrt(3): the action inversion misses
        # and the scan must report the failing stage
        code = run(scan_argv("--Ns", "8,12",
                             symbol="I^3 - I + i*epsilon*cos(theta)",
                             epsilon="0.05"))
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("numeric failure: stage=predict")
        assert "Traceback" not in err

    def test_no_prediction_in_rect_is_2(self, capsys):
        code = run(scan_argv("--Ns", "24", NO_PREDICTION_RECT))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: N=24: no principal_exact "
                              "prediction in the rect")

    @pytest.mark.parametrize("key,value", [("N", "24"), ("out", "{tmp}")])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_N_and_out_refused(self, tmp_path, capsys, key, value, source):
        value = value.format(tmp=tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n" if source == "config" else "")
        argv = scan_argv("--config", str(cfg))
        if source == "flag":
            argv += [f"--{key}", value]
        assert run(argv) == 2
        assert capsys.readouterr().err \
            == f"config error: scan takes no {key}\n"

    def test_takes_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"model = circle\nsymbol = {FIG1}\ndelta = 0.5\n")
        assert run(["scan", "--config", str(cfg), "--Ns", "12,16"]) == 0
        out = capsys.readouterr().out
        assert out.count("N=") == 2
        assert "fitted log-log order: " in out
        assert list(tmp_path.iterdir()) == [cfg]


def test_compare_prints_pair_count(tmp_path, capsys):
    # a rect with one eigenvalue and no prediction has max_dist 0 over
    # zero pairs, which the pair count tells apart from agreement
    assert run(["compare", "--model", "circle", "--symbol", FIG1,
                "--epsilon", "0.1", "--N", "24", NO_PREDICTION_RECT,
                "--out", str(tmp_path)]) == 0
    assert "count_in_window=1 pairs=0 max_dist=0.000000e+00" \
        in capsys.readouterr().out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["comparisons"]["principal_exact"]["pairs"] == []


@pytest.mark.parametrize("params", [
    ["--model", "circle", "--symbol", FIG1, "--N", "12", "--delta", "0.5"],
    ["--model", "line", "--symbol", FIG5, "--N", "12", "--delta", "0.5"],
], ids=["circle", "line"])
class TestEntryPointsAgree:
    """The subcommands share one pipeline, so the files they have in common
    with a compare bundle hold the same bytes."""

    def test_spectrum_matches_compare(self, tmp_path, params):
        assert run(["compare", *params, "--out", str(tmp_path / "c")]) == 0
        assert run(["spectrum", *params, "--out", str(tmp_path / "s")]) == 0
        assert (tmp_path / "s" / "spectrum.csv").read_bytes() \
            == (tmp_path / "c" / "spectrum.csv").read_bytes()

    def test_predict_matches_compare(self, tmp_path, params):
        assert run(["compare", *params, "--out", str(tmp_path / "c")]) == 0
        assert run(["predict", *params, "--out", str(tmp_path / "p")]) == 0
        for mode in ("averaged_first_order", "principal_exact"):
            name = f"predictions_{mode}.csv"
            assert (tmp_path / "p" / name).read_bytes() \
                == (tmp_path / "c" / name).read_bytes()
