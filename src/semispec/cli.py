"""Command-line front end.

Subcommands: quantize, spectrum, predict, compare, reproduce-figures,
pt-verify.  Flags can also come from a flat key/value config file
(--config FILE, lines "key = value", '#' comments); explicit flags win.
Exit codes: 0 success, 2 config error (also for malformed --rect or
--window values and for a --config or --matrix file that is missing,
unreadable or malformed), 3 numeric failure (the failing stage is named
on stderr).  Every subcommand runs the stage functions of
semispec.experiments.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .action import Rectangle
from .errors import ConfigError, NumericError
from .experiments import (ExperimentConfig, build_action_map, build_operator,
                          default_rect, eigenvalues_of, predict_modes,
                          pt_verify, reproduce_figures, run_experiment,
                          _stage, _write_text)
from .operators import TruncatedOperator


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="semispec",
        description="Spectra of 1-D non-selfadjoint semiclassical operators "
                    "and their Bohr-Sommerfeld predictions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, need_symbol=True):
        p.add_argument("--config", help="flat key/value config file")
        p.add_argument("--model", choices=["circle", "line"])
        p.add_argument("--symbol", required=False,
                       help="symbol text, e.g. 'I + i*epsilon*(cos(theta) + I^2)'")
        p.add_argument("--N", type=int)
        p.add_argument("--hbar", type=float)
        p.add_argument("--delta", type=float,
                       help="epsilon = hbar**delta")
        p.add_argument("--epsilon", type=float)
        p.add_argument("--rect", help="re_min,re_max,im_min,im_max")
        p.add_argument("--window", help="lo,hi interior window on Re")
        p.add_argument("--out", help="output directory")
        p.add_argument("--pairing", choices=["greedy", "optimal"])
        p.add_argument("--maslov", choices=["on", "off"])
        p.add_argument("--floquet-offset", type=float, dest="floquet_offset")

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
    p.add_argument("--out", required=True)
    p.add_argument("--N", type=int, default=66)
    p.add_argument("--delta", type=float, default=0.5)
    p = sub.add_parser("pt-verify", help="parity-conjugation symmetry checks")
    add_common(p)
    return parser


_CONFIG_KEYS = {
    "model": str, "symbol": str, "n": int, "hbar": float, "delta": float,
    "epsilon": float, "rect": str, "window": str, "out": str,
    "pairing": str, "maslov": str, "floquet-offset": float,
}


def _read_input(path):
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def _load_config_file(path):
    values = {}
    for lineno, raw in enumerate(_read_input(path).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip().lower().replace("_", "-")
        val = val.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _CONFIG_KEYS[key](val)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return values


def _merge_config(args):
    merged = {}
    if getattr(args, "config", None):
        merged.update(_load_config_file(args.config))
    cli_map = {
        "model": args.model, "symbol": args.symbol, "n": args.N,
        "hbar": args.hbar, "delta": args.delta, "epsilon": args.epsilon,
        "rect": args.rect, "window": args.window, "out": args.out,
        "pairing": args.pairing, "maslov": args.maslov,
        "floquet-offset": args.floquet_offset,
    }
    for key, val in cli_map.items():
        if val is not None:
            merged[key] = val
    return merged


def _experiment_config(args):
    merged = _merge_config(args)
    if "model" not in merged:
        raise ConfigError("--model is required")
    if "symbol" not in merged:
        raise ConfigError("--symbol is required")
    window = None
    if merged.get("window"):
        parts = [p.strip() for p in str(merged["window"]).split(",")]
        if len(parts) != 2:
            raise ConfigError("window needs lo,hi")
        try:
            window = (float(parts[0]), float(parts[1]))
        except ValueError as exc:
            raise ConfigError(f"window: {exc}") from exc
    rect = Rectangle.parse(merged["rect"]) if merged.get("rect") else None
    maslov = merged.get("maslov", "on")
    if maslov not in ("on", "off"):
        raise ConfigError("maslov must be on or off")
    kwargs = dict(
        model=merged["model"],
        symbol=merged["symbol"],
        rect=rect,
        window=window,
        out=merged.get("out"),
        pairing=merged.get("pairing", "greedy"),
        maslov=maslov == "on",
        floquet_offset=float(merged.get("floquet-offset", 0.0)),
    )
    if "n" in merged:
        kwargs["N"] = int(merged["n"])
    if "hbar" in merged:
        kwargs["hbar"] = float(merged["hbar"])
    if "delta" in merged:
        kwargs["delta"] = float(merged["delta"])
    if "epsilon" in merged:
        kwargs["epsilon"] = float(merged["epsilon"])
    return ExperimentConfig(**kwargs)


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
    results = reproduce_figures(args.out, N=args.N, delta=args.delta)
    for name, result in sorted(results.items()):
        s = result.principal_report.summary
        print(f"{name}: count={s.count_in_window} max_dist={s.max_dist:.4e}")
    distinct = len({r.spectrum.source_fingerprint for r in results.values()})
    print(f"wrote {len(results)} bundles under {args.out} "
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
