import json

import numpy as np
import pytest

import semispec.experiments
from semispec import (ConfigError, ExperimentConfig, PipelineError,
                      pt_verify, reproduce_figures, run_experiment)
from semispec.experiments import (FIGURE_SYMBOLS, build_action_map,
                                  build_predictions, build_symbol,
                                  default_rect)

FIG1 = "I + i*epsilon*(cos(theta) + I^2)"
FIG5 = "x^2 + xi^2 + i*epsilon*x^2"


class TestConfig:
    def test_hbar_defaults_to_one_over_N(self):
        cfg = ExperimentConfig(model="circle", symbol=FIG1, N=40)
        assert cfg.hbar_value() == 1.0 / 40

    def test_epsilon_policy_resolution(self):
        cfg = ExperimentConfig(model="circle", symbol=FIG1, N=66, delta=0.5)
        assert cfg.epsilon_value() == pytest.approx((1 / 66) ** 0.5)
        cfg2 = ExperimentConfig(model="circle", symbol=FIG1, N=66, epsilon=0.07)
        assert cfg2.epsilon_value() == 0.07
        cfg3 = ExperimentConfig(model="circle", symbol=FIG1, N=66)
        assert cfg3.epsilon_value() == 0.0

    @pytest.mark.parametrize("N", [8.5, "8", float("inf")])
    def test_non_integral_N_rejected(self, N):
        # 8.5 used to fail with a TypeError inside the quantize stage, and
        # "8" with one in __post_init__
        with pytest.raises(ConfigError, match="N must be an integer"):
            ExperimentConfig(model="circle", symbol=FIG1, N=N)

    def test_integral_float_N_is_the_int(self):
        cfg = ExperimentConfig(model="circle", symbol=FIG1, N=16.0)
        assert type(cfg.N) is int
        assert cfg.config_hash() == ExperimentConfig(
            model="circle", symbol=FIG1, N=16).config_hash()

    def test_epsilon_and_delta_conflict(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(model="circle", symbol=FIG1, epsilon=0.1, delta=0.5)

    @pytest.mark.parametrize("offset", (1e20, 1e300))
    def test_floquet_offset_too_large_rejected(self, offset):
        with pytest.raises(ConfigError, match="too large"):
            ExperimentConfig(model="circle", symbol=FIG1, N=66,
                             floquet_offset=offset)

    def test_trusted_window(self):
        circle = ExperimentConfig(model="circle", symbol=FIG1, N=50)
        assert circle.trusted_window() == (-0.8, 0.8)
        line = ExperimentConfig(model="line", symbol=FIG5, N=50)
        lo, hi = line.trusted_window()
        assert lo == 0.0
        assert hi == pytest.approx(0.8 * (101 / 50))

    def test_window_outside_trusted_rejected(self):
        cfg = ExperimentConfig(model="circle", symbol=FIG1, N=50,
                               window=(-0.9, 0.5))
        with pytest.raises(ConfigError):
            cfg.window_value()

    @pytest.mark.parametrize("window", [(0, 1, 2), (0,), 5, (None, 1),
                                        ("a", 1), 1j])
    def test_window_not_two_numbers_rejected(self, window):
        with pytest.raises(ConfigError, match="window must be two numbers"):
            ExperimentConfig(model="circle", symbol=FIG1, window=window)

    def test_window_stored_as_floats(self):
        cfg = ExperimentConfig(model="circle", symbol=FIG1,
                               window=[-1, np.float64(0.5)])
        assert cfg.window == (-1.0, 0.5)
        assert all(type(v) is float for v in cfg.window)

    @pytest.mark.parametrize("maslov", ["off", "on", 0, 1, None])
    def test_maslov_not_bool_rejected(self, maslov):
        with pytest.raises(ConfigError, match="maslov must be True or False"):
            ExperimentConfig(model="circle", symbol=FIG1, maslov=maslov)

    def test_symbol_not_text_rejected(self):
        with pytest.raises(ConfigError, match="symbol must be text"):
            ExperimentConfig(model="circle", symbol=5)

    @pytest.mark.parametrize("value", ["x", True, 1j, [0.1]])
    @pytest.mark.parametrize("field", ["hbar", "epsilon", "delta"])
    def test_number_field_not_real_rejected(self, field, value):
        # "x" raised a bare ValueError when resolved, and True was 1.0
        with pytest.raises(ConfigError,
                           match=f"{field} must be a real number"):
            ExperimentConfig(model="circle", symbol=FIG1, **{field: value})

    @pytest.mark.parametrize("field,value", [
        ("hbar", 0.05), ("epsilon", 0), ("delta", np.float64(0.5))])
    def test_number_field_admits_real_numbers(self, field, value):
        cfg = ExperimentConfig(model="circle", symbol=FIG1, **{field: value})
        assert getattr(cfg, field) is value

    def test_rect_not_rectangle_rejected(self):
        # a tuple was accepted, and canonical_text then raised AttributeError
        with pytest.raises(ConfigError, match="rect must be a Rectangle"):
            ExperimentConfig(model="circle", symbol=FIG1,
                             rect=(-0.5, 0.5, -0.1, 0.1))

    @pytest.mark.parametrize("maslov", [True, False])
    def test_maslov_bool_recorded(self, maslov):
        cfg = ExperimentConfig(model="circle", symbol=FIG1, maslov=maslov)
        assert f"maslov = {'on' if maslov else 'off'}" in cfg.canonical_text()

    def test_config_hash_stable(self):
        a = ExperimentConfig(model="circle", symbol=FIG1, N=16)
        b = ExperimentConfig(model="circle", symbol=FIG1, N=16)
        assert a.config_hash() == b.config_hash()
        c = ExperimentConfig(model="circle", symbol=FIG1, N=17)
        assert a.config_hash() != c.config_hash()

    def test_integer_floquet_offset_hashes_as_float(self):
        a = ExperimentConfig(model="circle", symbol=FIG1, N=16,
                             floquet_offset=1)
        b = ExperimentConfig(model="circle", symbol=FIG1, N=16,
                             floquet_offset=1.0)
        assert a.canonical_text() == b.canonical_text()
        assert a.config_hash() == b.config_hash()

    def test_default_rect_covers_predictions(self):
        cfg = ExperimentConfig(model="line", symbol=FIG5, N=16, delta=0.5)
        am = build_action_map(cfg)
        rect = default_rect(cfg, am)
        lo, hi = cfg.window_value()
        assert (rect.re_min, rect.re_max) == (lo, hi)
        assert rect.im_min < 0 < rect.im_max


class TestEpsilonValue:
    def test_fixed(self):
        cfg = ExperimentConfig(model="circle", symbol=FIG1, hbar=0.01,
                               epsilon=0.07)
        assert cfg.epsilon_value() == 0.07

    def test_hbar_power(self):
        cfg = ExperimentConfig(model="circle", symbol=FIG1, N=66, delta=0.5)
        assert cfg.epsilon_value() == pytest.approx((1.0 / 66) ** 0.5)

    def test_large_epsilon_warns(self):
        cfg = ExperimentConfig(model="circle", symbol=FIG1, hbar=0.01,
                               epsilon=0.6)
        with pytest.warns(UserWarning):
            cfg.epsilon_value()

    @pytest.mark.parametrize("kwargs", [
        {"epsilon": -0.1}, {"epsilon": float("inf")},
        {"epsilon": float("nan")}, {"hbar": 1e300, "delta": 2.0}],
        ids=["negative", "inf", "nan", "overflow"])
    def test_invalid_epsilon_is_config_error(self, kwargs):
        cfg = ExperimentConfig(model="circle", symbol=FIG1, **kwargs)
        with pytest.raises(ConfigError, match="resolved epsilon"):
            cfg.epsilon_value()


class TestSymbolAcrossConfigs:
    @pytest.mark.parametrize("name", ["figure01", "figure07"])
    def test_symbol_takes_the_config_epsilon(self, name):
        # the symbol holds f and q only: one parsed for delta = 0.5 and
        # used for delta = 0.3 predicts at the second config's eps
        model, symbol, _ = FIGURE_SYMBOLS[name]
        cfg_a = ExperimentConfig(model=model, symbol=symbol, N=16, delta=0.5)
        cfg_b = ExperimentConfig(model=model, symbol=symbol, N=16, delta=0.3)
        sym_a = build_symbol(cfg_a)

        def fields(rect, preds):
            return rect, {mode: (p.rule, p.ks.tolist(), p.values.tolist(),
                                 p.hbar, p.eps)
                          for mode, p in preds.items()}

        assert fields(*build_predictions(cfg_b, sym_a)) \
            == fields(*build_predictions(cfg_b))
        am = build_action_map(cfg_b, sym_a)
        assert am.eps == cfg_b.epsilon_value()
        s = np.linspace(0.2, 0.6, 5).astype(complex)
        assert np.array_equal(am.averaged_value(s),
                              build_action_map(cfg_b).averaged_value(s))


class TestRunExperiment:
    def test_exact_match_at_eps_zero_circle(self):
        cfg = ExperimentConfig(model="circle", symbol="I", N=16)
        res = run_experiment(cfg, write=False)
        assert res.principal_report.summary.max_dist <= 1e-10
        assert res.principal_report.summary.count_in_window == 25

    def test_in_window_is_the_compared_set(self):
        cfg = ExperimentConfig(model="circle", symbol=FIG1, N=16, delta=0.5)
        res = run_experiment(cfg, write=False)
        lo, hi = cfg.window_value()
        expected = [z for z in res.spectrum.eigenvalues.tolist()
                    if lo <= z.real <= hi and res.rect.contains(z)]
        assert res.in_window.tolist() == expected
        assert res.principal_report.summary.count_in_window \
            == len(res.in_window) > 0
        paired = {p.computed for p in res.principal_report.pairs}
        assert paired <= set(res.in_window)

    def test_result_arrays_are_read_only(self):
        cfg = ExperimentConfig(model="line", symbol=FIG5, N=16, delta=0.5)
        res = run_experiment(cfg, write=False)
        pairs = res.principal_report.pairs
        pred = res.predictions["principal_exact"]
        arrays = [res.spectrum.eigenvalues, res.spectrum.residuals,
                  res.in_window, pred.ks, pred.values, pairs.candidates,
                  pairs.pred_ks, pairs.pred_values, pairs.eig_index,
                  pairs.pred_index]
        assert len(pairs) > 0
        for a in arrays:
            assert a.size > 0
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[1]
        assert pairs.candidates is res.in_window
        assert pairs.pred_values is pred.values

    def test_exact_match_at_eps_zero_line(self):
        cfg = ExperimentConfig(model="line", symbol="x^2 + xi^2", N=16)
        res = run_experiment(cfg, write=False)
        assert res.principal_report.summary.max_dist <= 1e-10

    def test_small_N_rejected_for_comparisons(self):
        with pytest.raises(ConfigError):
            run_experiment(ExperimentConfig(model="circle", symbol="I", N=4))

    def test_pt_section_present_for_line(self):
        cfg = ExperimentConfig(model="line", symbol=FIG5, N=12, delta=0.5)
        res = run_experiment(cfg, write=False)
        assert res.pt is not None
        assert res.pt["symbol_symmetric"] is False
        cfg2 = ExperimentConfig(model="circle", symbol=FIG1, N=12, delta=0.5)
        assert run_experiment(cfg2, write=False).pt is None

    def test_bad_symbol_is_config_error(self):
        cfg = ExperimentConfig(model="circle", symbol="I + q", N=16)
        with pytest.raises(ConfigError):
            run_experiment(cfg, write=False)

    def test_prediction_leaves_scipy_linalg_unimported(self, run_python):
        # importing scipy.linalg costs about 0.3 s and 20 MB of RSS; the
        # predict path must not pay for it
        script = (
            "import sys\n"
            "from semispec.experiments import (ExperimentConfig,\n"
            "    build_predictions)\n"
            f"cfg = ExperimentConfig(model='circle', symbol={FIG1!r}, N=12,\n"
            "                       delta=0.5)\n"
            "rect, preds = build_predictions(cfg)\n"
            "assert preds['principal_exact'].points\n"
            "print('scipy.linalg' in sys.modules)\n")
        assert run_python(script).strip() == "False"

    def test_numeric_failure_carries_stage(self):
        from semispec import Rectangle

        cfg = ExperimentConfig(model="circle", symbol="I^2", N=16,
                               rect=Rectangle(-0.1, 0.1, -0.1, 0.1),
                               window=(-0.1, 0.1))
        with pytest.raises(PipelineError) as exc:
            run_experiment(cfg, write=False)
        assert exc.value.stage == "predict"

    def test_rejected_prediction_costs_no_eigensolve(self, monkeypatch):
        # the level loop of this q does not close, so the predict stage
        # fails; it runs before the 133-row spectrum
        solve = semispec.experiments.eigenvalues_of
        calls = []

        def counting(op):
            calls.append(op.matrix_fingerprint())
            return solve(op)

        monkeypatch.setattr(semispec.experiments, "eigenvalues_of", counting)
        cfg = ExperimentConfig(
            model="circle", N=66, delta=0.5,
            symbol="I + i*epsilon*(cos(1e20*theta) + cos(theta))")
        with pytest.raises(PipelineError) as exc:
            run_experiment(cfg, write=False)
        assert exc.value.stage == "predict"
        assert calls == []

    @pytest.mark.parametrize("symbol", [
        FIG5,
        "x^2 + xi^2 + i*epsilon*(x^2 + x^3)",
        "x^2 + xi^2 + i*epsilon*x^4",
    ])
    def test_maslov_beats_integer_rule_on_line(self, symbol):
        def max_dist(maslov):
            cfg = ExperimentConfig(model="line", symbol=symbol, N=24,
                                   delta=0.5, maslov=maslov)
            res = run_experiment(cfg, write=False)
            return res.principal_report.summary.max_dist

        assert max_dist(True) < max_dist(False)

    def test_artifact_files_and_determinism(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        for out in (out1, out2):
            cfg = ExperimentConfig(model="line", symbol=FIG5, N=12,
                                   delta=0.5, out=str(out))
            run_experiment(cfg)
        names = ["config.txt", "spectrum.csv",
                 "predictions_principal_exact.csv",
                 "predictions_averaged_first_order.csv", "report.json",
                 "plot.py"]
        for name in names:
            b1 = (out1 / name).read_bytes()
            b2 = (out2 / name).read_bytes()
            assert b1 == b2, name
        report = json.loads((out1 / "report.json").read_text())
        assert set(report["comparisons"]) \
            == {"averaged_first_order", "principal_exact"}
        assert report["provenance"]["config_sha256"]
        summary = report["comparisons"]["principal_exact"]["summary"]
        assert summary["mean_dist"] <= summary["max_dist"]


class TestPTVerify:
    def test_x_cubed(self):
        cfg = ExperimentConfig(model="line", symbol="x^2 + xi^2 + i*epsilon*x^3",
                               N=24, delta=0.5)
        rep = pt_verify(cfg, write=False)
        assert rep.symbol_symmetric is True
        assert rep.conjugation_defect <= 1e-13
        assert rep.max_abs_imag_in_window <= 1e-9

    def test_x_squared(self):
        cfg = ExperimentConfig(model="line", symbol=FIG5, N=24, delta=0.5)
        rep = pt_verify(cfg, write=False)
        assert rep.symbol_symmetric is False
        eps = cfg.epsilon_value()
        assert rep.max_abs_imag_in_window > 0.01 * eps

    def test_selfadjoint(self):
        cfg = ExperimentConfig(model="line", symbol="x^2 + xi^2", N=24)
        rep = pt_verify(cfg, write=False)
        assert rep.symbol_symmetric is True
        assert rep.max_abs_imag_in_window <= 1e-12

    def test_circle_rejected(self):
        cfg = ExperimentConfig(model="circle", symbol=FIG1, N=24)
        with pytest.raises(ConfigError):
            pt_verify(cfg, write=False)

    def test_report_file(self, tmp_path):
        cfg = ExperimentConfig(model="line", symbol="x^2 + xi^2 + i*epsilon*x^3",
                               N=12, delta=0.5, out=str(tmp_path))
        pt_verify(cfg)
        payload = json.loads((tmp_path / "pt_report.json").read_text())
        assert payload["pt"]["symbol_symmetric"] is True


class TestReproduceFigures:
    def test_nine_bundles_five_symbols(self, tmp_path):
        results = reproduce_figures(tmp_path, N=12)
        assert len(results) == 9
        symbols = {FIGURE_SYMBOLS[name][1] for name in results}
        assert len(symbols) == 5
        for name in results:
            out = tmp_path / name
            assert (out / "report.json").exists()
            assert (out / "spectrum.csv").exists()

    def test_figure5_flagged_genuinely_complex(self, tmp_path):
        results = reproduce_figures(tmp_path, N=12)
        rep5 = json.loads((tmp_path / "figure05" / "report.json").read_text())
        assert rep5["pt"]["symbol_symmetric"] is False
        rep7 = json.loads((tmp_path / "figure07" / "report.json").read_text())
        assert rep7["pt"]["symbol_symmetric"] is False

    def test_zoomed_windows_differ(self, tmp_path):
        results = reproduce_figures(tmp_path, N=12)
        r1 = json.loads((tmp_path / "figure01" / "report.json").read_text())
        r2 = json.loads((tmp_path / "figure02" / "report.json").read_text())
        w1 = r1["config"]["window"]
        w2 = r2["config"]["window"]
        assert w2[1] - w2[0] == pytest.approx(0.5 * (w1[1] - w1[0]))


ZOOMED = {"figure02": "figure01", "figure04": "figure03",
          "figure06": "figure05", "figure09": "figure08"}


class TestSpectrumReuse:
    def test_five_solves_for_nine_bundles(self, tmp_path, monkeypatch):
        solve = semispec.experiments.eigenvalues_of
        calls = []

        def counting(op):
            calls.append(op.matrix_fingerprint())
            return solve(op)

        monkeypatch.setattr(semispec.experiments, "eigenvalues_of", counting)
        results = reproduce_figures(tmp_path, N=12)
        assert len(calls) == len(set(calls)) == 5
        for zoomed, parent in ZOOMED.items():
            assert results[zoomed].spectrum is results[parent].spectrum

    def test_zoomed_bundles_share_the_parent_spectrum_file(self, tmp_path):
        reproduce_figures(tmp_path, N=12)
        for zoomed, parent in ZOOMED.items():
            assert (tmp_path / zoomed / "spectrum.csv").read_bytes() \
                == (tmp_path / parent / "spectrum.csv").read_bytes()

    def test_shared_spectrum_equals_a_standalone_solve(self, tmp_path):
        results = reproduce_figures(tmp_path, N=12)
        for zoomed in ZOOMED:
            shared = results[zoomed].spectrum
            alone = run_experiment(results[zoomed].config,
                                   write=False).spectrum
            for field in ("eigenvalues", "residuals"):
                assert np.asarray(getattr(alone, field)).tobytes() \
                    == np.asarray(getattr(shared, field)).tobytes()
