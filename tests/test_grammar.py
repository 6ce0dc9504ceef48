import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semispec import (CircleSymbol, ConfigError, PlaneSymbol, format_circle,
                      format_plane, grammar, parse_circle, parse_plane,
                      parse_symbol)

FIGURE_TEXTS = [
    ("circle", "I + i*epsilon*(cos(theta) + I^2)"),
    ("circle", "I + i*epsilon*(cos(theta) + I^3)"),
    ("line", "x^2 + xi^2 + i*epsilon*x^2"),
    ("line", "x^2 + xi^2 + i*epsilon*(x^2 + x^3)"),
    ("line", "x^2 + xi^2 + i*epsilon*x^4"),
]


class TestParseCircle:
    def test_figure_symbol(self):
        sym = parse_circle("I + i*epsilon*(cos(theta) + I^2)")
        assert sym.f_coeffs == (0.0, 1.0)
        assert sym.q_terms[(1, 0)] == 0.5
        assert sym.q_terms[(-1, 0)] == 0.5
        assert sym.q_terms[(0, 2)] == 1.0
        assert len(sym.q_terms) == 3

    def test_sin_and_frequency(self):
        sym = parse_circle("2*I + i*epsilon*(3*sin(2*theta)*I + 0.5)")
        assert sym.f_coeffs == (0.0, 2.0)
        assert sym.q_terms[(2, 1)] == -1.5j
        assert sym.q_terms[(-2, 1)] == 1.5j
        assert sym.q_terms[(0, 0)] == 0.5

    def test_products_expand(self):
        # cos^2 = 1/2 + cos(2 theta)/2
        sym = parse_circle("I + i*epsilon*(cos(theta)*cos(theta))")
        assert sym.q_terms[(0, 0)] == 0.5
        assert sym.q_terms[(2, 0)] == 0.25
        assert sym.q_terms[(-2, 0)] == 0.25

    def test_unary_minus(self):
        sym = parse_circle("-2*I + i*epsilon*(-cos(theta))")
        assert sym.f_coeffs == (0.0, -2.0)
        assert sym.q_terms[(1, 0)] == -0.5

    def test_f_only(self):
        sym = parse_circle("I^2 - 0.25")
        assert sym.f_coeffs == (-0.25, 0.0, 1.0)
        assert not sym.q_terms


class TestParsePlane:
    def test_figure_symbol(self):
        sym = parse_plane("x^2 + xi^2 + i*epsilon*(x^2 + x^3)")
        assert dict(sym.q_coeffs) == {(2, 0): 1.0, (3, 0): 1.0}
        assert not hasattr(sym, "epsilon")  # eps is given at each use

    def test_all_figures_parse(self):
        for model, text in FIGURE_TEXTS:
            sym = parse_symbol(text, model)
            assert isinstance(sym, (CircleSymbol, PlaneSymbol))


class TestRejections:
    @pytest.mark.parametrize("text", [
        "theta + I",                       # bare theta is not periodic
        "I + i*cos(theta)",                # i without epsilon
        "I + epsilon*I",                   # epsilon without i
        "I + i*epsilon^2*I",               # epsilon nonlinear
        "I + i*epsilon*i*epsilon*I",       # epsilon^2 via product
        "I + i*epsilon*(i*I)",             # complex q coefficient
        "I + q",                           # unknown name
        "I + ",                            # dangling operator
        "I I",                             # missing operator
        "cos(theta*2)",                    # frequency must lead
        "I^-1",                            # negative exponent
        "I^0.5",                           # fractional exponent
        "x + I",                           # plane variable in circle model
    ])
    def test_bad_circle_text(self, text):
        with pytest.raises(ConfigError):
            parse_circle(text)

    def test_plane_f_must_be_oscillator(self):
        with pytest.raises(ConfigError):
            parse_plane("x^2 + 2*xi^2 + i*epsilon*x^2")
        with pytest.raises(ConfigError):
            parse_plane("x^2 + i*epsilon*x^2")

    def test_circle_variables_rejected_on_plane(self):
        with pytest.raises(ConfigError):
            parse_plane("x^2 + xi^2 + i*epsilon*cos(theta)")

    def test_unknown_model(self):
        with pytest.raises(ConfigError):
            parse_symbol("I", "torus")

    @pytest.mark.parametrize("text", [
        "I^1e400",                         # exponent overflows to inf
        "cos(1e400*theta)",                # frequency overflows to inf
        "1e400*I",                         # coefficient overflows to inf
        "I + i*epsilon*2e308*cos(theta)",  # q coefficient overflows to inf
    ])
    def test_infinite_integer_is_config_error(self, text):
        # the literal itself is refused, before it is read as a number
        with pytest.raises(ConfigError, match="float range"):
            parse_circle(text)

    def test_largest_float_literal_parses(self):
        assert parse_circle("1.7e308*I").f_coeffs == (0.0, 1.7e308)


class TestCaps:
    """Nesting, power degree, product degree and the monomial pairs a
    parse multiplies are capped, so that no text can exhaust the parser's
    recursion, loop once per unit of a huge exponent or multiply out long
    expansions, alone or added up."""

    @pytest.mark.parametrize("build", [
        lambda depth: "(" * depth + "I" + ")" * depth,
        lambda depth: "I*" + "-" * depth + "I",
    ], ids=["parentheses", "unary-minus"])
    def test_nesting(self, build):
        parse_circle(build(grammar.MAX_NESTING))
        for depth in (grammar.MAX_NESTING + 1, 2000):
            with pytest.raises(ConfigError, match="nests deeper"):
                parse_circle(build(depth))

    def test_siblings_do_not_add_up(self):
        depth = grammar.MAX_NESTING
        text = " + ".join(["(" * depth + "I" + ")" * depth] * 3)
        assert parse_circle(text).f_coeffs == (0.0, 3.0)

    @pytest.mark.parametrize("model,base,degree", [
        ("circle", "I", 1), ("circle", "cos(2*theta)", 2),
        ("line", "(x + xi)", 1), ("circle", "2", 0)])
    def test_power_degree(self, model, base, degree):
        # a constant base counts as degree 1
        p = grammar.MAX_DEGREE // max(degree, 1)
        f = "I" if model == "circle" else "x^2 + xi^2"
        parse_symbol(f"{f} + i*epsilon*{base}^{p}", model)
        # _pow multiplies once per unit of p, so 10^7 is refused before that
        for q in (p + 1, 10**7):
            with pytest.raises(ConfigError, match="beyond degree"):
                parse_symbol(f"{f} + i*epsilon*{base}^{q}", model)

    @pytest.mark.parametrize("model,f,q", [
        ("circle", "I", "(1 + cos(theta))^{}*(1 + I)^32"),
        ("circle", "I", "(I + sin(theta))^{}*(1 + I)^32"),
        ("line", "x^2 + xi^2", "(x + xi)^{}*(1 + x)^32"),
    ])
    def test_product_degree(self, model, f, q):
        # i*epsilon adds 1 to the degree of the product of the two sums
        p = grammar.MAX_DEGREE - 32 - 1
        parse_symbol(f"{f} + i*epsilon*{q.format(p)}", model)
        with pytest.raises(ConfigError, match="product expands beyond"):
            parse_symbol(f"{f} + i*epsilon*{q.format(p + 1)}", model)

    @pytest.mark.parametrize("text", [
        "I + i*epsilon*I^64",
        "I^40*I^40 + i*epsilon*cos(theta)",
        "I + i*epsilon*cos(100*theta)",
        "I + i*epsilon*(cos(theta) + I^2)*I^64",
    ])
    def test_monomial_factor_is_not_capped(self, text):
        # a product with one monomial has no more monomials than the other
        parse_circle(text)

    def test_long_product_fails_fast(self):
        # 93 characters; multiplied out it took tens of seconds
        text = "I + i*epsilon*" + "*".join(["(I + cos(theta))^64"] * 4)
        start = time.perf_counter()
        with pytest.raises(ConfigError, match="product expands beyond"):
            parse_circle(text)
        assert time.perf_counter() - start < 1.0

    def test_pair_budget_stops_a_squared_power(self):
        # 67 characters; multiplied out it took 157 million pairs, ~100 s
        text = "*".join(["(1 + epsilon + I + cos(theta))^32"] * 2)
        start = time.perf_counter()
        with pytest.raises(ConfigError, match="monomial pairs"):
            parse_circle(text)
        assert time.perf_counter() - start < 1.0

    def test_pair_budget_counts_a_sum_of_powers(self):
        # each power is within every degree cap; the eight add up
        text = ("I + i*epsilon*("
                + " + ".join(["(I + cos(theta))^64"] * 8) + ")")
        with pytest.raises(ConfigError, match="monomial pairs"):
            parse_circle(text)

    def test_pair_budget_admits_the_largest_powers(self):
        # 139,426 and 493,680 pairs: under the budget, so the parse ends
        # normally or at the f + i*epsilon*q shape check
        parse_circle("I + i*epsilon*(I + cos(theta))^64")
        with pytest.raises(ConfigError, match="epsilon appears with power"):
            parse_circle("(1 + epsilon + I + cos(theta))^32")


coeff = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)


@st.composite
def circle_symbols(draw):
    f = tuple(draw(st.lists(coeff, min_size=1, max_size=3)))
    q = {}
    for n in range(2):
        c0 = draw(coeff)
        if c0:
            q[(0, n)] = complex(c0)
        for m in (1, 3):
            ccos, csin = draw(coeff), draw(coeff)
            if ccos or csin:
                q[(m, n)] = (ccos - 1j * csin) / 2.0
                q[(-m, n)] = (ccos + 1j * csin) / 2.0
    return CircleSymbol(f_coeffs=f, q_terms=q)


@st.composite
def plane_symbols(draw):
    q = {}
    for mn in ((0, 0), (1, 0), (2, 0), (3, 0), (1, 1), (0, 2)):
        c = draw(coeff)
        if c:
            q[mn] = c
    return PlaneSymbol(q_coeffs=q)


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(circle_symbols())
    def test_circle_round_trip(self, sym):
        back = parse_circle(format_circle(sym))
        assert back.f_coeffs == sym.f_coeffs
        assert dict(back.q_terms) == dict(sym.q_terms)

    @settings(max_examples=60, deadline=None)
    @given(plane_symbols())
    def test_plane_round_trip(self, sym):
        back = parse_plane(format_plane(sym))
        assert dict(back.q_coeffs) == dict(sym.q_coeffs)
        assert dict(back.f_coeffs) == dict(sym.f_coeffs)

    def test_parse_format_parse_idempotent(self):
        for model, text in FIGURE_TEXTS:
            first = parse_symbol(text, model)
            if model == "circle":
                second = parse_circle(format_circle(first))
                assert dict(second.q_terms) == dict(first.q_terms)
                assert second.f_coeffs == first.f_coeffs
            else:
                second = parse_plane(format_plane(first))
                assert dict(second.q_coeffs) == dict(first.q_coeffs)
