"""Command-line front end.

Subcommands: quantize, spectrum, predict, compare, reproduce-figures,
pt-verify, scan.  The run parameters are the rows of _PARAMS: each is a
flag --<key> and a key of a flat config file (--config FILE, lines "key
= value", '#' comments, keys in any case with '_' or '-'); flags win.
Exit codes: 0 success, 2 config error (also for a malformed value from
a flag or the file, and for a --config or --matrix file that is
missing, unreadable or malformed, for an --out that cannot be written,
for a run parameter other than out given to spectrum --matrix, for N
or out given to scan, and for a scan point with eigenvalues in the
window but no prediction in the rect), 3 numeric failure (the failing
stage is named on stderr).  Without --out, quantize, spectrum, predict
and pt-verify write into the current directory; compare and
reproduce-figures need it, and scan writes nothing.  Every subcommand
runs the stage functions of semispec.experiments, and every file is
written through its write_files.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .action import Rectangle
from .compare import directed_hausdorff
from .errors import ConfigError, NumericError
from .experiments import (ExperimentConfig, build_operator, build_predictions,
                          build_spectrum, pt_verify, reproduce_figures,
                          run_experiment, write_files)
from .operators import TruncatedOperator


def _floats(text, names):
    """Comma-separated floats, one per name (the --rect and --window form)."""
    parts = text.split(",")
    if len(parts) != len(names):
        raise ValueError(f"expected {','.join(names)}")
    return tuple(float(p) for p in parts)


def _rect(text):
    return (Rectangle(*_floats(text, ("re_min", "re_max", "im_min", "im_max")))
            if text else None)


def _window(text):
    return _floats(text, ("lo", "hi")) if text else None


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
    p = sub.add_parser("scan", help="max_dist vs N and its fitted order in "
                                    "hbar; writes nothing")
    add_common(p)
    p.add_argument("--Ns", default="24,33,48,66",
                   help="comma-separated truncation sizes")
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
    if "out" in values:  # refused before any stage runs; nothing is made
        path = Path(values["out"])
        part = next((p for p in (path, *path.parents) if p.exists()), path)
        if not part.is_dir():
            raise ConfigError(f"cannot write under {path}: {part} is not a "
                              "directory")
    return values


def _experiment_config(args, refused=()):
    values = _param_values(args)
    given = [key for key in refused if key in values]
    if given:
        raise ConfigError(f"{args.command} takes no {', '.join(given)}")
    for key in ("model", "symbol"):
        if key not in values:
            raise ConfigError(f"--{key} is required")
    return ExperimentConfig(**values)


def _cmd_quantize(args):
    cfg = _experiment_config(args)
    _, op = build_operator(cfg)
    out = write_files(cfg.out, {
        "operator.json": op.to_json() + "\n",
        "operator.csv": op.to_csv()})
    print(f"wrote {out / 'operator.json'} ({op.dimension}x{op.dimension})")
    return 0


def _cmd_spectrum(args):
    if args.matrix:
        values = _param_values(args)
        out = values.pop("out", None)
        if values:
            unused = ", ".join(key.replace("_", "-") for key in values)
            raise ConfigError(f"spectrum --matrix takes only out, not {unused}")
        op = TruncatedOperator.from_json(_read_input(args.matrix))
    else:
        cfg = _experiment_config(args)
        out = cfg.out
        _, op = build_operator(cfg)
    spec = build_spectrum(op)
    out = write_files(out, {"spectrum.csv": spec.to_csv()})
    print(f"wrote {out / 'spectrum.csv'} ({len(spec.eigenvalues)} eigenvalues, "
          f"max residual {spec.tolerance:.3e})")
    return 0


def _cmd_predict(args):
    cfg = _experiment_config(args)
    _, predictions = build_predictions(cfg)
    files = {}
    for mode, pred in predictions.items():
        files[f"predictions_{mode}.csv"] = pred.to_csv()
        files[f"predictions_{mode}.json"] = \
            json.dumps(pred.to_json_dict(), sort_keys=True) + "\n"
    out = write_files(cfg.out, files)
    for mode, pred in predictions.items():
        print(f"wrote {out}/predictions_{mode}.csv ({len(pred.points)} points)")
    return 0


def _cmd_compare(args):
    cfg = _experiment_config(args)
    if cfg.out is None:
        raise ConfigError("compare needs --out for its artifact files")
    result = run_experiment(cfg)
    summary = result.principal_report.summary
    print(f"count_in_window={summary.count_in_window} "
          f"pairs={len(result.principal_report.pairs)} "
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
    # like predict, it writes under the current directory without --out
    cfg = _experiment_config(args)
    cfg = replace(cfg, out=cfg.out or ".")
    report = pt_verify(cfg)
    print(f"symbol_symmetric={report.symbol_symmetric} "
          f"conjugation_defect={report.conjugation_defect:.3e} "
          f"max|Im| in window={report.max_abs_imag_in_window:.3e}")
    print(f"wrote {Path(cfg.out) / 'pt_report.json'}")
    return 0


def _cmd_scan(args):
    # one pipeline run per N, nothing written; the order is the slope of
    # log max_dist against log hbar
    try:
        ns = [int(v) for v in args.Ns.split(",")]
    except ValueError:
        raise ConfigError(f"--Ns must be comma-separated integers, got "
                          f"{args.Ns!r}") from None
    cfg = _experiment_config(args, refused=("N", "out"))
    hbars, dists = [], []
    for n in ns:
        t0 = time.perf_counter()
        point = replace(cfg, N=n)
        result = run_experiment(point, write=False)
        dist = directed_hausdorff(
            result.in_window, result.predictions["principal_exact"].values)
        if dist is None:
            raise ConfigError(f"N={n}: no principal_exact prediction in "
                              "the rect; in-window eigenvalues: "
                              f"{len(result.in_window)}")
        hbars.append(point.hbar_value())
        dists.append(dist)
        print(f"N={n:4d}  hbar={hbars[-1]:.6f}  max_dist={dist:.6e}  "
              f"[{time.perf_counter() - t0:.2f}s]")
    if len(set(hbars)) < 2:
        print("fitted log-log order: undefined (fewer than two distinct hbar)")
    elif min(dists) > 0:
        order = np.polyfit(np.log(hbars), np.log(dists), 1)[0]
        print(f"fitted log-log order: {order:.2f}")
    else:
        print("fitted log-log order: undefined (a max_dist is 0)")
    return 0


_COMMANDS = {
    "quantize": _cmd_quantize,
    "spectrum": _cmd_spectrum,
    "predict": _cmd_predict,
    "compare": _cmd_compare,
    "reproduce-figures": _cmd_reproduce_figures,
    "pt-verify": _cmd_pt_verify,
    "scan": _cmd_scan,
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
