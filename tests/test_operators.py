import json
import math

import numpy as np
import pytest

from semispec import (ActionMap, Basis, CircleSymbol, ConfigError,
                      ExperimentConfig, PlaneSymbol, Rectangle,
                      TruncatedOperator, action, ladder, predict_spectrum,
                      operators, quantize_circle, quantize_plane)

CIRCLE = CircleSymbol(f_coeffs=(0.0, 1.0), q_terms={(1, 0): 0.5, (-1, 0): 0.5})
PLANE = PlaneSymbol(q_coeffs={(3, 0): 1.0})

# Every entry point that takes hbar, called with a given hbar.
HBAR_ENTRY_POINTS = {
    "TruncatedOperator": lambda h: TruncatedOperator(
        matrix=np.eye(2), basis=Basis(kind="fock", N=1), hbar=h),
    "quantize_circle": lambda h: quantize_circle(CIRCLE, 0.1, h, 4),
    "quantize_plane": lambda h: quantize_plane(PLANE, 0.1, h, 4),
    "ladder": lambda h: ladder(3, h),
    "hbar_value": lambda h: ExperimentConfig(
        model="circle", symbol="I", N=4, hbar=h).hbar_value(),
    "predict_spectrum": lambda h: predict_spectrum(
        ActionMap(CIRCLE.cylinder_map(0.1)), h, "circle_k",
        "principal_exact", Rectangle(-0.5, 0.5, -0.1, 0.1)),
}


@pytest.mark.parametrize("hbar", [math.nan, math.inf, 0.0],
                         ids=["nan", "inf", "zero"])
@pytest.mark.parametrize("entry", HBAR_ENTRY_POINTS)
def test_bad_hbar_is_config_error(entry, hbar):
    # NaN and inf used to pass an hbar <= 0 test: ladder(3, nan) returned
    # a NaN matrix and quantize_plane reported an overflow
    with pytest.raises(ConfigError, match="hbar must be finite and positive"):
        HBAR_ENTRY_POINTS[entry](hbar)


def _operator_json(**fields):
    d = {"basis": "fock", "N": 1, "hbar": 1.0,
         "rows": [[0.0, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0]]}
    d.update(fields)
    return json.dumps(d)


@pytest.mark.parametrize("fields", [{"N": 1.7}, {"N": "1"}, {"N": None}],
                         ids=["N-fraction", "N-string", "N-null"])
def test_non_integral_basis_size_in_json(fields):
    # int() used to cut N = 1.7 to 1
    with pytest.raises(ConfigError, match="must be an integer"):
        TruncatedOperator.from_json(_operator_json(**fields))


def test_integral_float_N_in_json_is_the_int():
    op = TruncatedOperator.from_json(_operator_json(N=1.0))
    assert op.basis.N == 1 and type(op.basis.N) is int
    assert op.to_json() == TruncatedOperator.from_json(_operator_json()).to_json()


# Every library entry point that takes eps, called with a given eps.
EPS_ENTRY_POINTS = {
    "quantize_circle": lambda e: quantize_circle(CIRCLE, e, 0.25, 4),
    "quantize_plane": lambda e: quantize_plane(PLANE, e, 0.25, 4),
    "circle_cylinder_map": lambda e: CIRCLE.cylinder_map(e),
    "plane_cylinder_map": lambda e: PLANE.cylinder_map(e),
    "epsilon_value": lambda e: ExperimentConfig(
        model="circle", symbol="I", N=4, epsilon=e).epsilon_value(),
}


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", EPS_ENTRY_POINTS)
def test_non_finite_eps_is_config_error(entry, eps):
    # a NaN eps used to surface as a numeric failure that misnamed it:
    # DomainError from quantize_circle, NumericRangeError from
    # quantize_plane, LevelSetError from the action map
    with pytest.raises(ConfigError, match="must be finite"):
        EPS_ENTRY_POINTS[entry](eps)


@pytest.mark.parametrize("quantize", [quantize_circle, quantize_plane],
                         ids=["circle", "plane"])
def test_non_integral_N_is_config_error(quantize):
    # range() of a float N used to raise TypeError
    sym = CIRCLE if quantize is quantize_circle else PLANE
    with pytest.raises(ConfigError, match="N must be an integer"):
        quantize(sym, 0.1, 0.25, 2.5)


def _no_allocation(*args, **kwargs):
    raise AssertionError("allocated past a cost cap")


@pytest.mark.parametrize("kind,N", [("fourier", 1024), ("fock", 2048)])
def test_basis_dimension_cap(kind, N):
    # at the cap the basis is admitted, one N past it refused
    assert Basis(kind=kind, N=N).dimension == operators.MAX_DIMENSION
    with pytest.raises(ConfigError, match="above 2049"):
        Basis(kind=kind, N=N + 1)


@pytest.mark.parametrize("build", [
    lambda: quantize_circle(CIRCLE, 0.1, 0.25, 1025),
    lambda: quantize_plane(PLANE, 0.1, 0.25, 2049),
    lambda: TruncatedOperator.from_json(_operator_json(N=2049)),
], ids=["quantize_circle", "quantize_plane", "from_json"])
def test_dimension_cap_before_allocation(monkeypatch, build):
    # the capped matrix is never built: any allocation fails the test
    for name in ("zeros", "empty", "eye"):
        monkeypatch.setattr(np, name, _no_allocation)
    with pytest.raises(ConfigError, match="above 2049"):
        build()


def test_json_row_count_checked_before_allocation(monkeypatch):
    # 2 rows for a basis of dimension 3 are refused before np.empty
    monkeypatch.setattr(np, "empty", _no_allocation)
    with pytest.raises(ConfigError, match="2 rows, its basis dimension is 3"):
        TruncatedOperator.from_json(_operator_json(N=2))


def _predict_circle(hbar, rect, mode="principal_exact"):
    return predict_spectrum(ActionMap(CIRCLE.cylinder_map(0.1)), hbar,
                            "circle_k", mode, rect)


@pytest.mark.parametrize("hbar,rect", [
    (1e-12, Rectangle(-0.5, 0.5, -0.1, 0.1)),
    (1 / 12, Rectangle(-1e300, 1e300, -1.0, 1.0)),
    (1e-12, Rectangle(-1e300, 1e300, -1.0, 1.0)),
    (1e-12, Rectangle(1e300, 1.5e300, -1.0, 1.0)),
], ids=["hbar-tiny", "rect-wide", "span-inf", "span-nan"])
def test_target_budget_before_allocation(monkeypatch, hbar, rect):
    # the quantum numbers past the budget are never listed: np.arange
    # would fail the test, and math.floor would raise OverflowError on
    # the infinite ends of the last two rects
    monkeypatch.setattr(np, "arange", _no_allocation)
    with pytest.raises(ConfigError, match="quantum numbers"):
        _predict_circle(hbar, rect)


def test_target_budget_edge():
    # f = I maps the rect's Re range to actions one to one, so it spans
    # width / hbar quantum numbers
    hbar = 1.0 / action.MAX_TARGETS
    pred = _predict_circle(hbar, Rectangle(-0.49, 0.49, -1.0, 1.0),
                           mode="averaged_first_order")
    assert len(pred.points) > 0.97 * action.MAX_TARGETS
    with pytest.raises(ConfigError, match="quantum numbers"):
        _predict_circle(hbar, Rectangle(-0.51, 0.51, -1.0, 1.0))


@pytest.mark.parametrize("matrix,N", [(np.zeros((2, 3)), 1), (np.eye(3), 1)],
                         ids=["non-square", "dimension-mismatch"])
def test_operator_shape_is_config_error(matrix, N):
    with pytest.raises(ConfigError, match="must be square|does not match"):
        TruncatedOperator(matrix=matrix, basis=Basis(kind="fock", N=N),
                          hbar=1.0)
