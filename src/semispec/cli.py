"""Command-line front end.

Subcommands: quantize, spectrum, predict, compare, reproduce-figures,
pt-verify.  The run parameters are the rows of _PARAMS: each is a flag
--<key> and a key of a flat config file (--config FILE, lines "key =
value", '#' comments, keys in any case with '_' or '-'); flags win.
Exit codes: 0 success, 2 config error (also for a malformed value from
a flag or the file, and for a --config or --matrix file that is
missing, unreadable or malformed), 3 numeric failure (the failing stage
is named on stderr).  Every subcommand runs the stage functions of
semispec.experiments.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .action import Rectangle, parse_floats
from .errors import ConfigError, NumericError
from .experiments import (ExperimentConfig, build_action_map, build_operator,
                          default_rect, eigenvalues_of, predict_modes,
                          pt_verify, reproduce_figures, run_experiment,
                          _stage, _write_text)
from .operators import TruncatedOperator


def _rect(text):
    return Rectangle.parse(text) if text else None


def _window(text):
    return parse_floats(text, "window", ("lo", "hi")) if text else None


def _on_off(text):
    if text not in ("on", "off"):
        raise ConfigError("maslov must be on or off")
    return text == "on"


# The run parameters: flag and config-file key -> (parser of its text,
# help).  The ExperimentConfig field is the key with '-' read as '_',
# which is also the attribute argparse stores the flag under.
_PARAMS = {
    "model": (str, "circle or line"),
    "symbol": (str, "symbol text, e.g. 'I + i*epsilon*(cos(theta) + I^2)'"),
    "N": (int, "truncation size"),
    "hbar": (float, "semiclassical parameter (default 1/N)"),
    "delta": (float, "epsilon = hbar**delta"),
    "epsilon": (float, "fixed perturbation strength"),
    "rect": (_rect, "re_min,re_max,im_min,im_max"),
    "window": (_window, "lo,hi interior window on Re"),
    "out": (str, "output directory"),
    "pairing": (str, "greedy or optimal"),
    "maslov": (_on_off, "on or off"),
    "floquet-offset": (float, "Floquet offset of the quantized action"),
}


def _field(key):
    return key.replace("-", "_")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="semispec",
        description="Spectra of 1-D non-selfadjoint semiclassical operators "
                    "and their Bohr-Sommerfeld predictions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p, keys=_PARAMS):
        for key in keys:
            p.add_argument(f"--{key}", help=_PARAMS[key][1])

    def add_common(p):
        p.add_argument("--config", help="flat key/value config file")
        add_params(p)

    p = sub.add_parser("quantize", help="build and serialize the matrix")
    add_common(p)
    p = sub.add_parser("spectrum", help="compute eigenvalues")
    add_common(p)
    p.add_argument("--matrix", help="read a TruncatedOperator JSON file "
                                    "instead of quantizing a symbol")
    p = sub.add_parser("predict", help="Bohr-Sommerfeld predictions only")
    add_common(p)
    p = sub.add_parser("compare", help="full pipeline with report")
    add_common(p)
    p = sub.add_parser("reproduce-figures",
                       help="run the nine standard configurations")
    add_params(p, ("out", "N", "delta"))
    p = sub.add_parser("pt-verify", help="parity-conjugation symmetry checks")
    add_common(p)
    return parser


def _read_input(path):
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def _load_config_file(path):
    """{key: (where, text)} for each line of a config file."""
    keys = {key.lower(): key for key in _PARAMS}
    values = {}
    for lineno, raw in enumerate(_read_input(path).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip().lower().replace("_", "-")
        if key not in keys:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[keys[key]] = (f"{path}:{lineno}", val.strip())
    return values


def _param_values(args):
    """{field: value} from the config file and the flags (flags win), each
    text parsed by its row of _PARAMS."""
    text = {}
    if getattr(args, "config", None):
        text.update(_load_config_file(args.config))
    for key in _PARAMS:
        val = getattr(args, _field(key), None)
        if val is not None:
            text[key] = (f"--{key}", val)
    values = {}
    for key, (where, val) in text.items():
        try:
            values[_field(key)] = _PARAMS[key][0](val)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    return values


def _experiment_config(args):
    values = _param_values(args)
    for key in ("model", "symbol"):
        if key not in values:
            raise ConfigError(f"--{key} is required")
    return ExperimentConfig(**values)


def _out_dir(out):
    out = Path(out) if out else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_quantize(args):
    cfg = _experiment_config(args)
    with _stage("quantize"):
        _, op = build_operator(cfg)
    out = _out_dir(cfg.out)
    _write_text(out / "operator.json",
                json.dumps(op.to_json_dict(), sort_keys=True) + "\n")
    _write_text(out / "operator.csv", op.to_csv())
    print(f"wrote {out / 'operator.json'} ({op.dimension}x{op.dimension})")
    return 0


def _cmd_spectrum(args):
    if args.matrix:
        op = TruncatedOperator.from_json(_read_input(args.matrix))
        out = _out_dir(args.out)
    else:
        cfg = _experiment_config(args)
        with _stage("quantize"):
            _, op = build_operator(cfg)
        out = _out_dir(cfg.out)
    with _stage("spectrum"):
        spec = eigenvalues_of(op)
    _write_text(out / "spectrum.csv", spec.to_csv())
    print(f"wrote {out / 'spectrum.csv'} ({len(spec.eigenvalues)} eigenvalues, "
          f"max residual {spec.tolerance:.3e})")
    return 0


def _cmd_predict(args):
    cfg = _experiment_config(args)
    with _stage("predict"):
        am = build_action_map(cfg)
        rect = cfg.rect if cfg.rect is not None else default_rect(cfg, am)
        predictions = predict_modes(cfg, am, rect)
    out = _out_dir(cfg.out)
    for mode, pred in predictions.items():
        _write_text(out / f"predictions_{mode}.csv", pred.to_csv())
        _write_text(out / f"predictions_{mode}.json",
                    json.dumps(pred.to_json_dict(), sort_keys=True) + "\n")
        print(f"wrote {out}/predictions_{mode}.csv ({len(pred.points)} points)")
    return 0


def _cmd_compare(args):
    cfg = _experiment_config(args)
    if cfg.out is None:
        raise ConfigError("compare needs --out for its artifact files")
    result = run_experiment(cfg)
    summary = result.principal_report.summary
    print(f"count_in_window={summary.count_in_window} "
          f"max_dist={summary.max_dist:.6e} mean_dist={summary.mean_dist:.6e}")
    print(f"wrote {Path(cfg.out) / 'report.json'}")
    return 0


def _cmd_reproduce_figures(args):
    values = _param_values(args)
    if "out" not in values:
        raise ConfigError("reproduce-figures needs --out")
    out = values.pop("out")
    results = reproduce_figures(out, **values)
    for name, result in sorted(results.items()):
        s = result.principal_report.summary
        print(f"{name}: count={s.count_in_window} max_dist={s.max_dist:.4e}")
    distinct = len({r.spectrum.source_fingerprint for r in results.values()})
    print(f"wrote {len(results)} bundles under {out} "
          f"({distinct} distinct spectra)")
    return 0


def _cmd_pt_verify(args):
    cfg = _experiment_config(args)
    report = pt_verify(cfg)
    print(f"symbol_symmetric={report.symbol_symmetric} "
          f"conjugation_defect={report.conjugation_defect:.3e} "
          f"max|Im| in window={report.max_abs_imag_in_window:.3e}")
    return 0


_COMMANDS = {
    "quantize": _cmd_quantize,
    "spectrum": _cmd_spectrum,
    "predict": _cmd_predict,
    "compare": _cmd_compare,
    "reproduce-figures": _cmd_reproduce_figures,
    "pt-verify": _cmd_pt_verify,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
