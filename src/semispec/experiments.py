"""Experiment pipeline: quantize -> solve -> predict -> compare.

Runs are fully deterministic: a fixed config produces byte-identical
CSV/JSON artifacts.  Every report records the canonical config text,
its hash, and the library versions that produced it.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .action import (ActionMap, Rectangle, floquet_offset_value,
                     predict_spectrum)
from .circle_quantize import quantize_circle
from .compare import PairingSummary, pair_spectra, summarize_pairs
from .eig import eigenvalues_of
from .errors import ConfigError, PipelineError, SemispecError
from .fock_quantize import quantize_plane
from .grammar import parse_circle, parse_plane
from .operators import finite, integral, positive_hbar
from .symbols import pt_symmetry_check

INTERIOR_FRACTION = 0.8  # truncation corrupts edge eigenvalues
MODES = ("averaged_first_order", "principal_exact")

FIGURE_SYMBOLS = {
    "figure01": ("circle", "I + i*epsilon*(cos(theta) + I^2)", None),
    "figure02": ("circle", "I + i*epsilon*(cos(theta) + I^2)", 0.5),
    "figure03": ("circle", "I + i*epsilon*(cos(theta) + I^3)", None),
    "figure04": ("circle", "I + i*epsilon*(cos(theta) + I^3)", 0.5),
    "figure05": ("line", "x^2 + xi^2 + i*epsilon*x^2", None),
    "figure06": ("line", "x^2 + xi^2 + i*epsilon*x^2", 0.5),
    "figure07": ("line", "x^2 + xi^2 + i*epsilon*(x^2 + x^3)", None),
    "figure08": ("line", "x^2 + xi^2 + i*epsilon*x^4", None),
    "figure09": ("line", "x^2 + xi^2 + i*epsilon*x^4", 0.5),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat, seed-free description of one pipeline run (mirrors the CLI)."""

    model: str
    symbol: str
    N: int = 66
    hbar: float | None = None        # None -> 1/N
    epsilon: float | None = None     # fixed perturbation strength
    delta: float | None = None       # epsilon = hbar**delta
    rect: Rectangle | None = None
    window: tuple | None = None      # interior window on Re(lambda)
    out: str | None = None
    maslov: bool = True
    floquet_offset: float = 0.0

    def __post_init__(self):
        if self.model not in ("circle", "line"):
            raise ConfigError(f"unknown model {self.model!r}")
        object.__setattr__(self, "N", integral("N", self.N))
        if self.N < 1:
            raise ConfigError("N must be >= 1")
        if self.epsilon is not None and self.delta is not None:
            raise ConfigError("give either epsilon or delta, not both")
        object.__setattr__(self, "floquet_offset",
                           floquet_offset_value(self.floquet_offset))
        if not isinstance(self.maslov, bool):
            raise ConfigError(f"maslov must be True or False, got "
                              f"{self.maslov!r}")
        if self.window is not None:
            try:
                lo, hi = (float(v) for v in self.window)
            except (TypeError, ValueError):
                raise ConfigError(f"window must be two numbers lo,hi, got "
                                  f"{self.window!r}") from None
            if not lo < hi:
                raise ConfigError("window must be lo,hi with lo < hi")
            object.__setattr__(self, "window", (lo, hi))

    def hbar_value(self):
        return positive_hbar(1.0 / self.N if self.hbar is None else self.hbar)

    def epsilon_value(self):
        """The fixed epsilon, else hbar**delta, else 0."""
        if self.epsilon is not None:
            eps = float(self.epsilon)
        elif self.delta is not None:
            try:
                eps = self.hbar_value() ** float(self.delta)
            except OverflowError:
                eps = math.inf
        else:
            eps = 0.0
        eps = finite("resolved epsilon", eps)
        if eps < 0:
            raise ConfigError(f"resolved epsilon {eps!r} is invalid")
        if eps >= 0.5:
            warnings.warn(
                f"epsilon = {eps:.4g} >= 0.5: perturbative regime is doubtful")
        return eps

    def trusted_window(self):
        h = self.hbar_value()
        if self.model == "circle":
            edge = INTERIOR_FRACTION * h * self.N
            return (-edge, edge)
        return (0.0, INTERIOR_FRACTION * h * (2 * self.N + 1))

    def window_value(self):
        trusted = self.trusted_window()
        if self.window is None:
            return trusted
        lo, hi = self.window
        if lo < trusted[0] - 1e-12 or hi > trusted[1] + 1e-12:
            raise ConfigError(
                f"window {self.window} exceeds the trusted interior range "
                f"{trusted}")
        return (lo, hi)

    def canonical_text(self):
        rect = ("auto" if self.rect is None
                else ",".join(repr(v) for v in self.rect.as_tuple()))
        lines = [
            f"model = {self.model}",
            f"symbol = {self.symbol}",
            f"N = {self.N}",
            f"hbar = {self.hbar_value()!r}",
            f"epsilon = {self.epsilon_value()!r}",
            f"window = {self.window_value()[0]!r},{self.window_value()[1]!r}",
            f"rect = {rect}",
            f"maslov = {'on' if self.maslov else 'off'}",
            f"floquet-offset = {self.floquet_offset!r}",
        ]
        return "\n".join(lines) + "\n"

    def config_hash(self):
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


def _provenance(cfg):
    import scipy

    return {
        "config_sha256": cfg.config_hash(),
        "versions": {
            "semispec": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }


# Stage functions.  Every entry point (run_experiment, pt_verify,
# reproduce_figures and the CLI subcommands) is assembled from these, and
# build_operator, build_spectrum and build_predictions each run inside
# their own stage.  They look up the names they call as module globals at
# call time, so swapping such a name on this module (say, for a tracing
# wrapper) reaches them all.

@contextmanager
def _stage(name):
    """Re-raise a numeric failure inside the block as PipelineError(name)."""
    try:
        yield
    except (PipelineError, ConfigError):
        raise
    except SemispecError as exc:
        raise PipelineError(name, exc) from exc


def build_symbol(cfg: ExperimentConfig):
    return (parse_circle if cfg.model == "circle" else parse_plane)(cfg.symbol)


def build_operator(cfg: ExperimentConfig):
    """Parse the symbol once and quantize it: returns (sym, op)."""
    with _stage("quantize"):
        sym = build_symbol(cfg)
        quantize = quantize_circle if cfg.model == "circle" else quantize_plane
        return sym, quantize(sym, cfg.epsilon_value(), cfg.hbar_value(), cfg.N)


def build_spectrum(op):
    """The SpectrumResult of ``op``."""
    with _stage("spectrum"):
        return eigenvalues_of(op)


def build_action_map(cfg: ExperimentConfig, sym=None):
    if sym is None:
        sym = build_symbol(cfg)
    return ActionMap(sym.cylinder_map(cfg.epsilon_value()))


def default_rect(cfg: ExperimentConfig, am: ActionMap):
    """Window on Re from the interior window; Im bounds scaled from the
    averaged predictor over that window (plus padding)."""
    lo, hi = cfg.window_value()
    s_bounds = sorted((am.cyl.seed_action(lo), am.cyl.seed_action(hi)))
    s_lo, s_hi = s_bounds
    if am.cyl.min_action is not None:
        s_lo = max(s_lo, 1e-9)
    samples = np.linspace(s_lo, s_hi, 33)
    vals = am.averaged_value(samples.astype(complex))
    im_lo = float(vals.imag.min())
    im_hi = float(vals.imag.max())
    pad = max(0.05, 0.3 * (im_hi - im_lo))
    return Rectangle(lo, hi, im_lo - pad, im_hi + pad)


def prediction_rule(cfg: ExperimentConfig):
    if cfg.model == "line" and cfg.maslov:
        return "line_maslov"
    return "circle_k"


def build_predictions(cfg: ExperimentConfig, sym=None):
    """The rect (cfg.rect, else default_rect) and both prediction families
    inside it: (rect, {mode: QuantizationPrediction})."""
    with _stage("predict"):
        am = build_action_map(cfg, sym)
        rect = cfg.rect if cfg.rect is not None else default_rect(cfg, am)
        rule = prediction_rule(cfg)
        return rect, {mode: predict_spectrum(am, cfg.hbar_value(), rule, mode,
                                             rect,
                                             floquet_offset=cfg.floquet_offset)
                      for mode in MODES}


def pt_checks(sym, op):
    """The PT checks of a line run: the symbol predicate, and the
    conjugation defect ||D conj(M) D - M||_F / ||M||_F of its Fock matrix
    M, with D = diag((-1)^alpha) applied as a sign vector."""
    m = op.matrix
    sign = (-1.0) ** np.arange(op.dimension)
    defect = np.linalg.norm(sign[:, None] * m.conj() * sign - m, ord="fro") \
        / max(np.linalg.norm(m, ord="fro"), np.finfo(float).tiny)
    return {"symbol_symmetric": pt_symmetry_check(sym),
            "conjugation_defect": float(defect)}


@dataclass(frozen=True)
class ComparisonReport:
    rule: str
    mode: str
    pairs: tuple
    summary: PairingSummary

    def to_json_dict(self):
        return {
            "rule": self.rule,
            "mode": self.mode,
            "pairs": [
                {"k": p.k,
                 "computed": [p.computed.real, p.computed.imag],
                 "predicted": [p.predicted.real, p.predicted.imag],
                 "distance": p.distance}
                for p in self.pairs
            ],
            "summary": asdict(self.summary),
        }


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    rect: Rectangle
    spectrum: object
    in_window: tuple  # eigenvalues in the window and the rect, as compared
    predictions: dict
    reports: dict  # mode -> ComparisonReport
    pt: dict | None

    @property
    def principal_report(self):
        return self.reports["principal_exact"]


def run_experiment(cfg: ExperimentConfig, write=True, spectra=None):
    """Full pipeline for one config; writes artifact files when asked.

    Produces the spectrum CSV, prediction CSVs for both modes, the
    comparison report JSON and a plot script under cfg.out.  ``spectra``,
    when given, maps a matrix fingerprint to its SpectrumResult: the
    matrix is looked up there and solved (and stored) only on a miss, so
    runs that quantize the same matrix share one solve.  The spectrum is
    a deterministic function of the matrix, so sharing changes no result.
    """
    if cfg.N < 8:
        raise ConfigError("comparisons need N >= 8")
    window = cfg.window_value()
    sym, op = build_operator(cfg)
    rect, predictions = build_predictions(cfg, sym)
    if spectra is None:
        spec = build_spectrum(op)
    else:
        key = op.matrix_fingerprint()
        spec = spectra.get(key)
        if spec is None:
            spec = spectra[key] = build_spectrum(op)
    with _stage("compare"):
        in_window = tuple(z for z in spec.eigenvalues
                          if window[0] <= z.real <= window[1]
                          and rect.contains(z))
        reports = {}
        for mode, pred in predictions.items():
            pairs = pair_spectra(in_window, pred.points)
            summary = summarize_pairs(pairs, pred.points, in_window)
            reports[mode] = ComparisonReport(rule=pred.rule, mode=mode,
                                             pairs=tuple(pairs),
                                             summary=summary)
        pt = pt_checks(sym, op) if cfg.model == "line" else None
    result = ExperimentResult(config=cfg, rect=rect, spectrum=spec,
                              in_window=in_window, predictions=predictions,
                              reports=reports, pt=pt)
    if write and cfg.out is not None:
        with _stage("write"):
            write_result(result)
    return result


def result_report_dict(result: ExperimentResult):
    cfg = result.config
    return {
        "config": {
            "text": cfg.canonical_text(),
            "model": cfg.model,
            "symbol": cfg.symbol,
            "N": cfg.N,
            "hbar": cfg.hbar_value(),
            "epsilon": cfg.epsilon_value(),
            "window": list(cfg.window_value()),
            "rect": list(result.rect.as_tuple()),
            "rule": prediction_rule(cfg),
            "floquet_offset": cfg.floquet_offset,
        },
        "provenance": _provenance(cfg),
        "pt": result.pt,
        "comparisons": {mode: rep.to_json_dict()
                        for mode, rep in result.reports.items()},
    }


PLOT_SCRIPT = """\
#!/usr/bin/env python3
\"\"\"Render computed vs predicted spectra from the CSV files next to this
script.  Requires matplotlib; writes spectra.png.\"\"\"
import csv
import pathlib

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

here = pathlib.Path(__file__).resolve().parent


def read_xy(name, xcol, ycol):
    xs, ys = [], []
    with open(here / name, newline="") as fh:
        for row in csv.DictReader(fh):
            xs.append(float(row[xcol]))
            ys.append(float(row[ycol]))
    return xs, ys


fig, ax = plt.subplots(figsize=(9, 5))
sx, sy = read_xy("spectrum.csv", "re", "im")
ax.plot(sx, sy, "+", color="tab:blue", label="computed spectrum", ms=9)
px, py = read_xy("predictions_principal_exact.csv", "re", "im")
ax.plot(px, py, "x", color="tab:red", label="predicted (principal exact)", ms=6)
ax_, ay = read_xy("predictions_averaged_first_order.csv", "re", "im")
ax.plot(ax_, ay, ".", color="tab:green", label="predicted (averaged)", ms=4)
ax.set_xlabel("Re")
ax.set_ylabel("Im")
ax.legend(loc="best")
ax.grid(True, alpha=0.3)
fig.tight_layout()
fig.savefig(here / "spectra.png", dpi=150)
print("wrote", here / "spectra.png")
"""


def write_files(out, files):
    """Write each {name: text} of ``files``, in order, into the directory
    ``out`` (created when missing; None is the current directory) with
    '\\n' line ends; return it as a Path."""
    out = Path(out or ".")
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            with open(out / name, "w", newline="\n") as fh:
                fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write under {out}: {exc}") from exc
    return out


def write_result(result: ExperimentResult):
    return write_files(result.config.out, {
        "config.txt": result.config.canonical_text(),
        "spectrum.csv": result.spectrum.to_csv(),
        **{f"predictions_{mode}.csv": pred.to_csv()
           for mode, pred in result.predictions.items()},
        "report.json": json.dumps(result_report_dict(result), sort_keys=True,
                                  indent=2) + "\n",
        "plot.py": PLOT_SCRIPT,
    })


@dataclass(frozen=True)
class PTReport:
    symbol_symmetric: bool
    conjugation_defect: float
    max_abs_imag_in_window: float
    count_in_window: int


def pt_verify(cfg: ExperimentConfig, write=True):
    """Three-level PT check: symbol predicate, matrix conjugation symmetry
    D conj(M) D == M with D = diag((-1)^alpha), and the imaginary parts
    of the interior eigenvalues."""
    if cfg.model != "line":
        raise ConfigError("pt-verify applies to the line model")
    sym, op = build_operator(cfg)
    spec = build_spectrum(op)
    lo, hi = cfg.window_value()
    inside = [z for z in spec.eigenvalues if lo <= z.real <= hi]
    max_imag = max((abs(z.imag) for z in inside), default=0.0)
    report = PTReport(**pt_checks(sym, op),
                      max_abs_imag_in_window=float(max_imag),
                      count_in_window=len(inside))
    if write and cfg.out is not None:
        payload = {"config": {"text": cfg.canonical_text()},
                   "provenance": _provenance(cfg),
                   "pt": asdict(report)}
        write_files(cfg.out, {"pt_report.json": json.dumps(
            payload, sort_keys=True, indent=2) + "\n"})
    return report


def reproduce_figures(out_root, N=66, delta=0.5):
    """Run the nine standard configurations (five distinct symbols, four of
    them shown twice at a zoomed window) and write one bundle per figure.

    A zoomed figure quantizes the same matrix as its parent, so the nine
    runs share one fingerprint -> spectrum dict and take five eigensolves.
    """
    out_root = Path(out_root)
    results = {}
    spectra = {}
    for name, (model, symbol, zoom) in FIGURE_SYMBOLS.items():
        cfg = ExperimentConfig(model=model, symbol=symbol, N=N, delta=delta,
                               out=str(out_root / name))
        if zoom is not None:
            lo, hi = cfg.trusted_window()
            cfg = replace(cfg, window=(lo * zoom, hi * zoom))
        results[name] = run_experiment(cfg, spectra=spectra)
    return results
