"""Correctness checks, run on every item after the timed region.

Each check returns a list of problems; an empty list means the item is
correct.  Tolerances are fixed here, before any run:

* backward error of the Schur form at most ``BACKWARD_FACTOR * n * u``;
* every in-window prediction paired, in both modes;
* each in-window eigenvalue within ``AGREE_FACTOR * kappa_j * (backward
  errors + u) * ||M||_F`` of an ``engine="numpy"`` eigenvalue of the same
  matrix, with ``kappa_j`` the Wilkinson condition number of that
  eigenvalue (first-order perturbation bound, with a safety factor);
* predictions inside their rectangle, and each ``principal_exact`` point
  within ``PREDICT_FACTOR * eps**2`` of the ``averaged_first_order``
  point with the same k (the two agree to first order in eps).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from workloads import MODES

U = np.finfo(float).eps
BACKWARD_FACTOR = 10.0
AGREE_FACTOR = 10.0
PREDICT_FACTOR = 4.0  # |exact - averaged| / eps**2 peaks at 1.35 today
BUNDLE_FILES = ("config.txt", "spectrum.csv", "report.json", "plot.py") + \
    tuple(f"predictions_{mode}.csv" for mode in MODES)


def check_experiment(ex, semispec, result):
    """An ExperimentResult from run_experiment."""
    problems = []
    cfg = result.config
    spec = result.spectrum
    n = len(spec.eigenvalues)
    if not spec.tolerance <= BACKWARD_FACTOR * n * U:
        problems.append(f"backward error {spec.tolerance:.3e} above "
                        f"{BACKWARD_FACTOR:g}*n*u")
    for mode in MODES:
        paired = len(result.reports[mode].pairs)
        predicted = len(result.predictions[mode].points)
        if paired != predicted:
            problems.append(f"{mode}: {paired} of {predicted} predictions "
                            "paired")
    _, op = ex.build_operator(cfg)
    m = op.matrix
    ref = semispec.eigenvalues(m, engine="numpy")
    if ref.source_fingerprint != spec.source_fingerprint:
        problems.append("rebuilt matrix differs from the solved one")
        return problems
    lo, hi = cfg.window_value()
    window = [z for z in spec.eigenvalues
              if lo <= z.real <= hi and result.rect.contains(z)]
    ref_vals = np.array(ref.eigenvalues)
    ref_res = np.array(ref.residuals)
    kappa_vals, kappa = _condition_numbers(m)
    norm = np.linalg.norm(m, ord="fro")
    for z in window:
        j = int(np.argmin(np.abs(ref_vals - z)))
        kap = kappa[int(np.argmin(np.abs(kappa_vals - ref_vals[j])))]
        tol = AGREE_FACTOR * kap * (spec.tolerance + ref_res[j] + U) * norm
        if not abs(ref_vals[j] - z) <= tol:
            problems.append(f"eigenvalue {z:.6g} is {abs(ref_vals[j] - z):.3e}"
                            f" from numpy (tolerance {tol:.3e})")
    return problems


def _condition_numbers(m):
    """Eigenvalues and kappa_j = ||y_j|| ||x_j|| / |y_j^H x_j|."""
    from scipy.linalg import eig

    vals, left, right = eig(m, left=True, right=True)
    dots = np.abs(np.sum(left.conj() * right, axis=0))
    norms = np.linalg.norm(left, axis=0) * np.linalg.norm(right, axis=0)
    return vals, norms / np.maximum(dots, np.finfo(float).tiny)


def check_bundle(result):
    """The six artifact files written for a figure, with a readable report."""
    out = Path(result.config.out)
    problems = [f"missing or empty {name}" for name in BUNDLE_FILES
                if not (out / name).is_file()
                or (out / name).stat().st_size == 0]
    if not problems:
        report = json.loads((out / "report.json").read_text())
        written = report["comparisons"]["principal_exact"]["summary"]
        if written["max_dist"] != result.principal_report.summary.max_dist:
            problems.append("report.json disagrees with the result")
    return problems


def check_prediction(cfg, item):
    """A workloads.Prediction from the predict path."""
    problems = []
    for mode in MODES:
        points = item.predictions[mode].points
        if not points:
            problems.append(f"{mode}: no points")
        outside = [z for _, z in points if not item.rect.contains(z)]
        if outside:
            problems.append(f"{mode}: {len(outside)} points outside the rect")
    averaged = dict(item.predictions["averaged_first_order"].points)
    bound = PREDICT_FACTOR * cfg.epsilon_value() ** 2
    for k, z in item.predictions["principal_exact"].points:
        if k not in averaged:
            problems.append(f"principal_exact k={k} has no averaged partner")
        elif not abs(z - averaged[k]) <= bound:
            problems.append(f"k={k}: |exact - averaged| = "
                            f"{abs(z - averaged[k]):.3e} above {bound:.3e}")
    return problems
