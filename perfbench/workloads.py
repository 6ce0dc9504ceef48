"""The benchmark's workloads: seeded parameters, configs and one pass each.

Every workload is a closed loop: one caller in one process, and each item
starts only after the previous one has finished.  A pass runs all of a
workload's items once.  Stage functions are looked up on
``semispec.experiments`` at call time, so a traced pass sees the wrappers
that ``spans.traced`` puts there.

The seed fixes a base parameter (delta or epsilon).  Pass ``i`` scales it
by ``1 + NUDGE * i``, so no two passes share an input bit for bit while
the work stays the same.
"""

from __future__ import annotations

import random
import traceback
from contextlib import nullcontext
from dataclasses import dataclass

NUDGE = 1e-9
MODES = ("averaged_first_order", "principal_exact")

FIGURES_N = 66
FIGURE_COUNT = 9  # reproduce_figures writes nine bundles
CONVERGENCE_SYMBOL = "I + i*epsilon*(cos(theta) + I^2)"
CONVERGENCE_NS = (24, 33, 48, 66, 96, 132)
PREDICT_NS = (66, 132)
PREDICT_SYMBOLS = (  # the five distinct figure symbols
    ("circle", "I + i*epsilon*(cos(theta) + I^2)"),
    ("circle", "I + i*epsilon*(cos(theta) + I^3)"),
    ("line", "x^2 + xi^2 + i*epsilon*x^2"),
    ("line", "x^2 + xi^2 + i*epsilon*(x^2 + x^3)"),
    ("line", "x^2 + xi^2 + i*epsilon*x^4"),
)


@dataclass
class Outcome:
    """One item of a pass: its result, or the error it raised."""

    label: str
    config: object = None
    result: object = None
    error: str | None = None


def _attempt(label, config, call):
    try:
        return Outcome(label, config, call())
    except Exception:  # an item that raises is a counted failure
        return Outcome(label, config, error=traceback.format_exc(limit=3))


@dataclass(frozen=True)
class Workload:
    name: str
    parameter: str  # "delta" or "epsilon"
    low: float
    high: float
    why: str

    def base(self, seed):
        return self.low + (self.high - self.low) * random.Random(seed).random()

    def value(self, base, index):
        return base * (1.0 + NUDGE * index)

    def configs(self, ex, value, out_root):
        """The inputs of one pass; built outside the timed region."""
        if self.name == "figures":
            return {"out_root": out_root, "N": FIGURES_N, "delta": value}
        if self.name == "convergence":
            return [ex.ExperimentConfig(model="circle",
                                        symbol=CONVERGENCE_SYMBOL, N=n,
                                        epsilon=value)
                    for n in CONVERGENCE_NS]
        return [ex.ExperimentConfig(model=model, symbol=symbol, N=n,
                                    delta=value)
                for model, symbol in PREDICT_SYMBOLS for n in PREDICT_NS]

    def run(self, ex, configs, tracer=None, unit=nullcontext):
        """One pass over the items; returns one Outcome per item.

        ``unit()`` wraps each separately timed call: each item, or the one
        reproduce_figures call.
        """
        if self.name == "figures":
            with unit():
                return _run_figures(ex, configs)
        outcomes = []
        for cfg in configs:
            if self.name == "convergence":
                with unit():
                    outcomes.append(_attempt(
                        f"N={cfg.N}", cfg,
                        lambda: ex.run_experiment(cfg, write=False)))
                continue
            span = tracer.span("bench.item") if tracer else nullcontext()
            with unit(), span:
                outcomes.append(_attempt(f"{cfg.symbol} N={cfg.N}", cfg,
                                         lambda: _predict(ex, cfg)))
        return outcomes


def _run_figures(ex, configs):
    try:
        results = ex.reproduce_figures(configs["out_root"], N=configs["N"],
                                       delta=configs["delta"])
    except Exception:
        err = traceback.format_exc(limit=3)
        return [Outcome(f"figure[{i}]", error=err)
                for i in range(FIGURE_COUNT)]
    outcomes = [Outcome(name, res.config, res)
                for name, res in results.items()]
    outcomes += [Outcome(f"figure[{i}]", error="bundle missing")
                 for i in range(len(outcomes), FIGURE_COUNT)]
    return outcomes


@dataclass(frozen=True)
class Prediction:
    """Output of one predict item: the `semispec predict` path."""

    action_map: object
    rect: object
    predictions: dict  # mode -> QuantizationPrediction


def _predict(ex, cfg):
    am = ex.build_action_map(cfg)
    rect = ex.default_rect(cfg, am)
    rule = ex.prediction_rule(cfg)
    preds = {mode: ex.predict_spectrum(am, cfg.hbar_value(), rule, mode, rect,
                                       floquet_offset=cfg.floquet_offset)
             for mode in MODES}
    return Prediction(am, rect, preds)


WORKLOADS = {w.name: w for w in (
    Workload("figures", "delta", 0.48, 0.52,
             "reproduce_figures at N=66: QR and principal_exact mixed; the "
             "only workload that writes artifacts and re-solves a matrix "
             "(9 solves of 5 distinct matrices)"),
    Workload("convergence", "epsilon", 0.09, 0.11,
             "convergence scan N=24..132 at eps~0.1: QR up to dim 265 "
             "dominates; every matrix distinct and nothing written"),
    Workload("predict", "delta", 0.48, 0.52,
             "semispec predict path for the five figure symbols at N=66,132: "
             "action continuation does the work and nothing is eigensolved"),
)}
