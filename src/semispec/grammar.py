"""Text format for symbols.

Grammar (whitespace insensitive)::

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' UINT)?
    atom   := NUMBER | 'I' | 'x' | 'xi' | 'i' | 'epsilon'
            | 'cos' '(' [UINT '*'] 'theta' ')'
            | 'sin' '(' [UINT '*'] 'theta' ')'
            | '(' expr ')'

The expression must expand to  f + i*epsilon*q  with f, q real: terms
carrying no i*epsilon factor form f, terms carrying exactly i*epsilon
form q, anything else (bare i, bare epsilon, epsilon^2, ...) is
rejected.  Circle symbols use I and cos/sin of integer multiples of
theta; plane symbols use x and xi.  Round-tripping parse -> format ->
parse is the identity on the coefficient maps.

'(' and unary '-' nest at most MAX_NESTING (100) deep, a power a^p
expands to degree p * deg(a) <= MAX_DEGREE (64), a constant a counting
as degree 1, and a product a*b of two sums to degree
deg(a) + deg(b) <= MAX_DEGREE; deg(a) is the largest total degree of a
monomial of a, epsilon and the theta frequency included.  A parse
multiplies at most MAX_PAIRS (500,000) monomial pairs in all, summed over
every product and every step of a power, which bounds its time (about
0.35 s on a 2-CPU host) however the products are chained or summed.  Text beyond
any cap, or a number literal past the float range, is a ConfigError.
"""

from __future__ import annotations

import math
import re

from .errors import ConfigError
from .symbols import CircleSymbol, PlaneSymbol

MAX_NESTING = 100
MAX_DEGREE = 64
MAX_PAIRS = 5 * 10**5

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_]+)"
    r"|(?P<op>[-+*^()]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        mo = _TOKEN_RE.match(text, pos)
        if mo is None or mo.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ConfigError(f"cannot tokenize symbol text near {rest[:20]!r}")
        pos = mo.end()
        if mo.group("num") is not None:
            value = float(mo.group("num"))
            if math.isinf(value):
                raise ConfigError(f"number {mo.group('num')!r} is past the "
                                  "float range")
            tokens.append(("num", value))
        elif mo.group("name") is not None:
            tokens.append(("name", mo.group("name")))
        else:
            tokens.append(("op", mo.group("op")))
    tokens.append(("end", None))
    return tokens


# Expressions expand to dicts {(b, m, n): complex}: b is the epsilon
# power; on the circle (m, n) indexes e^{i m theta} I^n, on the plane
# x^m xi^n.

def _mono(b=0, m=0, n=0, c=1.0 + 0j):
    return {(b, m, n): complex(c)}


def _add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0.0) + v
    return {k: v for k, v in out.items() if v != 0}


def _neg(a):
    return {k: -v for k, v in a.items()}


def _degree(a):
    """Largest b + |m| + n of a monomial of a, 0 when there is none."""
    return max((b + abs(m) + n for b, m, n in a), default=0)


class _Parser:
    def __init__(self, text, model):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.model = model
        self.depth = 0
        self.pairs = 0  # monomial pairs multiplied so far, powers included

    def mul(self, a, b):
        # the cap on a product of two sums bounds the monomials it can have; a
        # product with a monomial has no more of them than the other factor
        if min(len(a), len(b)) > 1 and _degree(a) + _degree(b) > MAX_DEGREE:
            raise ConfigError(f"product expands beyond degree {MAX_DEGREE}")
        self.pairs += len(a) * len(b)
        if self.pairs > MAX_PAIRS:
            raise ConfigError(f"symbol multiplies out more than {MAX_PAIRS} "
                              "monomial pairs")
        out = {}
        for (b1, m1, n1), c1 in a.items():
            for (b2, m2, n2), c2 in b.items():
                k = (b1 + b2, m1 + m2, n1 + n2)
                out[k] = out.get(k, 0.0) + c1 * c2
        return {k: v for k, v in out.items() if v != 0}

    def pow(self, a, p):
        if p * max(_degree(a), 1) > MAX_DEGREE:
            raise ConfigError(f"power ^{p} expands beyond degree {MAX_DEGREE}")
        out = _mono()
        for _ in range(p):
            out = self.mul(out, a)
        return out

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None, value=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ConfigError(f"expected {value or kind}, got {tok[1]!r}")
        if value is not None and tok[1] != value:
            raise ConfigError(f"expected {value!r}, got {tok[1]!r}")
        self.pos += 1
        return tok

    def parse(self):
        out = self.expr()
        if self.peek()[0] != "end":
            raise ConfigError(f"trailing input at {self.peek()[1]!r}")
        return out

    def expr(self):
        sign = 1.0
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            if self.take("op")[1] == "-":
                sign = -sign
        acc = self.term()
        if sign < 0:
            acc = _neg(acc)
        while self.peek() in (("op", "+"), ("op", "-")):
            op = self.take("op")[1]
            t = self.term()
            acc = _add(acc, _neg(t) if op == "-" else t)
        return acc

    def term(self):
        acc = self.factor()
        while self.peek() == ("op", "*"):
            self.take("op", "*")
            acc = self.mul(acc, self.factor())
        return acc

    def factor(self):
        a = self.atom()
        if self.peek() == ("op", "^"):
            self.take("op", "^")
            kind, val = self.take("num")
            if not val.is_integer():
                raise ConfigError("exponents must be non-negative integers")
            a = self.pow(a, int(val))
        return a

    def atom(self):
        kind, val = self.peek()
        if kind == "num":
            self.take("num")
            return _mono(c=val)
        if kind == "op" and val in ("(", "-"):
            self.take("op")
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ConfigError(f"symbol nests deeper than {MAX_NESTING}")
            out = self.expr() if val == "(" else _neg(self.factor())
            if val == "(":
                self.take("op", ")")
            self.depth -= 1
            return out
        if kind != "name":
            raise ConfigError(f"unexpected token {val!r}")
        self.take("name")
        if val == "i":
            return _mono(c=1j)
        if val in ("epsilon", "eps"):
            return _mono(b=1)
        if val == "I":
            self._require_model("circle", "I")
            return _mono(n=1)
        if val == "x":
            self._require_model("line", "x")
            return _mono(m=1)
        if val == "xi":
            self._require_model("line", "xi")
            return _mono(n=1)
        if val in ("cos", "sin"):
            self._require_model("circle", val)
            k = self._trig_argument()
            if val == "cos":
                return _add(_mono(m=k, c=0.5), _mono(m=-k, c=0.5))
            return _add(_mono(m=k, c=-0.5j), _mono(m=-k, c=0.5j))
        if val == "theta":
            raise ConfigError("bare theta is not periodic; use cos/sin(k*theta)")
        raise ConfigError(f"unknown name {val!r}")

    def _require_model(self, model, name):
        if self.model != model:
            raise ConfigError(f"{name!r} is not a {self.model} variable")

    def _trig_argument(self):
        self.take("op", "(")
        kind, val = self.peek()
        k = 1
        if kind == "num":
            self.take("num")
            if val < 1 or not val.is_integer():
                raise ConfigError("trig frequency must be a positive integer")
            k = int(val)
            self.take("op", "*")
        self.take("name", "theta")
        self.take("op", ")")
        return k


def _split_graded(graded, what):
    """Split an expanded expression into (f-part, q-part) coefficient maps,
    enforcing the f + i*epsilon*q shape.  q coefficients stay complex here:
    on the circle the exponential basis carries conjugate-paired complex
    coefficients (realness of q is the constructor's pairing check)."""
    f = {}
    q = {}
    scale = max((abs(c) for c in graded.values()), default=1.0)
    for (b, m, n), c in graded.items():
        if b == 0:
            if abs(c.imag) > 1e-12 * scale:
                raise ConfigError(f"{what}: f-part has a complex coefficient "
                                  f"at {(m, n)}; only i*epsilon terms may be "
                                  "imaginary")
            f[(m, n)] = c.real
        elif b == 1:
            q[(m, n)] = c / 1j
        else:
            raise ConfigError(f"{what}: epsilon appears with power {b}; the "
                              "symbol must be linear in i*epsilon")
    return f, q


def parse_circle(text):
    """Parse text into a CircleSymbol."""
    graded = _Parser(text, "circle").parse()
    f, q = _split_graded(graded, "circle symbol")
    f_terms = {}
    for (m, n), c in f.items():
        if m != 0:
            raise ConfigError("f must be theta-independent on the circle")
        f_terms[n] = c
    deg = max(f_terms, default=0)
    f_coeffs = tuple(f_terms.get(nn, 0.0) for nn in range(deg + 1))
    return CircleSymbol(f_coeffs=f_coeffs, q_terms=q)


def parse_plane(text):
    """Parse text into a PlaneSymbol."""
    graded = _Parser(text, "line").parse()
    f, q = _split_graded(graded, "plane symbol")
    scale = max((abs(c) for c in q.values()), default=1.0)
    q_real = {}
    for (m, n), c in q.items():
        if abs(c.imag) > 1e-12 * scale:
            raise ConfigError("plane symbol: q must have real monomial "
                              f"coefficients (term at {(m, n)})")
        q_real[(m, n)] = c.real
    if {k: c for k, c in f.items() if c != 0} != PlaneSymbol.f_coeffs:
        raise ConfigError("f must be exactly x^2 + xi^2 on the plane")
    return PlaneSymbol(q_coeffs=q_real)


def parse_symbol(text, model):
    if model == "circle":
        return parse_circle(text)
    if model == "line":
        return parse_plane(text)
    raise ConfigError(f"unknown model {model!r}")


def _append_term(parts, coeff, body):
    if coeff == 0:
        return
    if body == "":
        if not parts:
            parts.append(f"{coeff!r}")
        elif coeff >= 0:
            parts.append(f" + {coeff!r}")
        else:
            parts.append(f" - {-coeff!r}")
        return
    mag = abs(coeff)
    coeff_str = "" if mag == 1.0 else f"{mag!r}*"
    lead_sign = "-" if coeff < 0 else ""
    joint_sign = " - " if coeff < 0 else " + "
    parts.append((lead_sign if not parts else joint_sign) + coeff_str + body)


def _format_poly_I(coeffs):
    parts = []
    for n, c in enumerate(coeffs):
        if c == 0:
            continue
        body = "" if n == 0 else ("I" if n == 1 else f"I^{n}")
        _append_term(parts, float(c), body)
    return "".join(parts) if parts else "0"


def format_circle(sym: CircleSymbol):
    f_str = _format_poly_I(sym.f_coeffs)
    q_parts = []
    for (m, n) in sorted(sym.q_terms, key=lambda mn: (mn[1], abs(mn[0]), mn[0])):
        if m < 0:
            continue  # folded into the cos/sin of the m > 0 partner
        c = sym.q_terms[(m, n)]
        i_body = "" if n == 0 else ("I" if n == 1 else f"I^{n}")
        if m == 0:
            _append_term(q_parts, c.real, i_body)
        else:
            trig_arg = "theta" if m == 1 else f"{m}*theta"
            cos_c = 2.0 * c.real
            sin_c = -2.0 * c.imag
            for val, fn in ((cos_c, "cos"), (sin_c, "sin")):
                if val == 0:
                    continue
                body = f"{fn}({trig_arg})" + (f"*{i_body}" if i_body else "")
                _append_term(q_parts, val, body)
    if not q_parts:
        return f_str
    return f"{f_str} + i*epsilon*({''.join(q_parts)})"


def _format_poly_xy(coeffs):
    parts = []
    for (m, n) in sorted(coeffs, key=lambda mn: (mn[0] + mn[1], mn[1], mn[0])):
        c = coeffs[(m, n)]
        if c == 0:
            continue
        factors = []
        if m:
            factors.append("x" if m == 1 else f"x^{m}")
        if n:
            factors.append("xi" if n == 1 else f"xi^{n}")
        _append_term(parts, float(c), "*".join(factors))
    return "".join(parts) if parts else "0"


def format_plane(sym: PlaneSymbol):
    f_str = _format_poly_xy(dict(sym.f_coeffs))
    if not sym.q_coeffs:
        return f_str
    return f"{f_str} + i*epsilon*({_format_poly_xy(dict(sym.q_coeffs))})"
