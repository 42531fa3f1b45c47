"""Closed-form expression trees for kernels, dilation maps and radial profiles.

The grammar is deliberately tiny: powers, products, sums, ``abs``, ``log``,
``exp``, ``min`` and the euclidean norm ``norm1m(e1, ..., ek)``.  Variables are
``t1 .. tn`` (cube coordinates) and ``r`` (radial distance).  Keeping the
language closed-form lets :func:`classify` read face-singularity exponents off
the syntax, which is what the graded quadrature needs.

Expressions are immutable and evaluation is pure, so they can be evaluated
concurrently and on whole numpy batches at once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expr",
    "ClosedFormClass",
    "ExprSyntaxError",
    "DomainError",
    "parse",
    "evaluate",
    "to_string",
    "classify",
    "const",
    "var",
    "rvar",
]


class ExprSyntaxError(ValueError):
    """Malformed expression text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DomainError(ValueError):
    """Evaluation left the real domain (log of a non-positive value, ...)."""


@dataclass(frozen=True)
class Expr:
    """One node of an expression tree.

    kind is one of 'const', 'var' (t_i, 1-based ``index``), 'r', 'sum',
    'prod', 'pow' (constant real exponent in ``value``), 'abs', 'log',
    'exp', 'min', 'norm'.
    """

    kind: str
    children: tuple["Expr", ...] = ()
    value: float = 0.0
    index: int = 0

    def free_t_indices(self) -> set[int]:
        if self.kind == "var":
            return {self.index}
        out: set[int] = set()
        for c in self.children:
            out |= c.free_t_indices()
        return out

    def uses_r(self) -> bool:
        if self.kind == "r":
            return True
        return any(c.uses_r() for c in self.children)

    def __str__(self) -> str:
        return to_string(self)


def const(c: float) -> Expr:
    return Expr("const", value=float(c))


def var(i: int) -> Expr:
    if i < 1:
        raise ValueError("variable indices are 1-based")
    return Expr("var", index=i)


def rvar() -> Expr:
    return Expr("r")


def add(*es: Expr) -> Expr:
    flat: list[Expr] = []
    for e in es:
        flat.extend(e.children if e.kind == "sum" else (e,))
    if len(flat) == 1:
        return flat[0]
    return Expr("sum", tuple(flat))


def mul(*es: Expr) -> Expr:
    flat: list[Expr] = []
    for e in es:
        flat.extend(e.children if e.kind == "prod" else (e,))
    if len(flat) == 1:
        return flat[0]
    return Expr("prod", tuple(flat))


def pow_(base: Expr, exponent: float) -> Expr:
    return Expr("pow", (base,), value=float(exponent))


def neg(e: Expr) -> Expr:
    return mul(const(-1.0), e)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\^|\*|/|\+|-|\(|\)|,))"
)

_FUNCTIONS = {"pow", "log", "exp", "abs", "min", "norm1m"}


class _Parser:
    def __init__(self, text: str, n: int):
        self.text = text
        self.n = n
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []
        self._tokenize()
        self.i = 0

    def _tokenize(self) -> None:
        pos = 0
        while pos < len(self.text):
            m = _TOKEN_RE.match(self.text, pos)
            if m is None:
                rest = self.text[pos:]
                if rest.strip() == "":
                    break
                pos += len(rest) - len(rest.lstrip())  # past the blanks
                raise ExprSyntaxError(f"unexpected character {self.text[pos]!r}", pos)
            if m.lastgroup is not None:
                self.tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
            pos = m.end()
        self.tokens.append(("eof", "", len(self.text)))

    def _peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def _next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def _expect(self, text: str) -> None:
        kind, val, pos = self._next()
        if val != text:
            raise ExprSyntaxError(f"expected {text!r}, found {val!r}", pos)

    def parse(self) -> Expr:
        e = self.expression()
        kind, val, pos = self._peek()
        if kind != "eof":
            raise ExprSyntaxError(f"trailing input {val!r}", pos)
        return e

    def expression(self) -> Expr:
        terms = [self.term()]
        while self._peek()[1] in ("+", "-"):
            op = self._next()[1]
            t = self.term()
            terms.append(t if op == "+" else neg(t))
        return add(*terms)

    def term(self) -> Expr:
        factors = [self.factor()]
        while self._peek()[1] in ("*", "/"):
            op = self._next()[1]
            f = self.factor()
            factors.append(f if op == "*" else pow_(f, -1.0))
        return mul(*factors)

    def factor(self) -> Expr:
        # unary minus binds looser than ^, so -r^2 means -(r^2)
        if self._peek()[1] == "-":
            self._next()
            return neg(self.factor())
        if self._peek()[1] == "+":
            self._next()
            return self.factor()
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self._peek()[1] == "^":
            pos = self._next()[2]
            exponent = self.factor()  # right-associative; allows -0.5
            return pow_(base, self._const_value(exponent, pos))
        return base

    def atom(self) -> Expr:
        kind, val, pos = self._next()
        if kind == "num":
            return const(float(val))
        if val == "(":
            e = self.expression()
            self._expect(")")
            return e
        if kind == "name":
            if val in _FUNCTIONS or self._peek()[1] == "(":
                return self._call(val, pos)
            if val == "r":
                return rvar()
            m = re.fullmatch(r"t(\d+)", val)
            if m:
                idx = int(m.group(1))
                if not 1 <= idx <= self.n:
                    raise ExprSyntaxError(
                        f"variable t{idx} exceeds arity n={self.n}", pos
                    )
                return var(idx)
            raise ExprSyntaxError(f"unknown name {val!r}", pos)
        raise ExprSyntaxError(f"unexpected token {val!r}", pos)

    def _call(self, name: str, pos: int) -> Expr:
        if name not in _FUNCTIONS:
            raise ExprSyntaxError(f"unknown function {name!r}", pos)
        self._expect("(")
        args = [self.expression()]
        while self._peek()[1] == ",":
            self._next()
            args.append(self.expression())
        self._expect(")")
        if name == "pow":
            if len(args) != 2:
                raise ExprSyntaxError("pow takes two arguments", pos)
            return pow_(args[0], self._const_value(args[1], pos))
        if name in ("log", "exp", "abs"):
            if len(args) != 1:
                raise ExprSyntaxError(f"{name} takes one argument", pos)
            return Expr(name, (args[0],))
        if name == "min":
            if len(args) < 2:
                raise ExprSyntaxError("min takes at least two arguments", pos)
            return Expr("min", tuple(args))
        return Expr("norm", tuple(args))  # norm1m: one argument or more

    def _const_value(self, e: Expr, pos: int) -> float:
        if e.free_t_indices() or e.uses_r():
            raise ExprSyntaxError("exponent must be a constant expression", pos)
        return float(evaluate(e, t=np.zeros((1, self.n)))[0])


def parse(text: str, n: int) -> Expr:
    """Parse ``text`` into an Expr with variables restricted to t1..tn and r."""
    return _Parser(text, n).parse()


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def evaluate(e: Expr, t: np.ndarray | None = None, r: np.ndarray | float | None = None) -> np.ndarray:
    """Evaluate ``e`` on a batch of points.

    ``t`` has shape (N, n); ``r`` is scalar or shape (N,).  Returns shape (N,).
    Raises DomainError instead of silently producing NaN.

    A ``t`` that carries per-axis coordinates (a ``quad.TensorPoints``) is
    evaluated per axis when there is no ``r``, and the result broadcasts to
    ``t.grid`` rather than having shape (N,); see ``quad.TensorPoints``.
    """
    axes = getattr(t, "axes", None)
    if axes is not None and r is None:
        one, npts = np.ones((1,) * (len(axes) + 1)), None
    else:
        axes, one = (), _ONE
        if t is not None:
            t = np.asarray(t, dtype=float)
            if t.ndim == 1:
                t = t[None, :]
            npts = t.shape[0]
            axes = t.T  # axes[i] is column i
        elif r is not None:
            npts = np.size(r)
        else:
            npts = 1
        if r is not None:
            r = np.broadcast_to(np.ravel(np.asarray(r, dtype=float)), (npts,))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = _eval(e, axes, r, one)
    if np.isnan(out).any():
        raise DomainError(f"expression {to_string(e)} left the real domain")
    if npts is not None and out.shape != (npts,):  # a constant expression
        out = out.repeat(npts)
    return out


def eval_scalar(e: Expr, t: tuple[float, ...] = (), r: float | None = None) -> float:
    tm = np.asarray(t, dtype=float)[None, :] if len(t) else None
    out = evaluate(e, t=tm, r=None if r is None else float(r))
    return float(out[0])


_ONE = np.ones(1)


def _eval(e: Expr, axes, r, one: np.ndarray) -> np.ndarray:
    """Evaluate ``e`` by numpy broadcasting.  ``axes[i]`` holds t_{i+1}'s
    values: the column of the (N, n) points, or a tensor grid's axis i
    shaped to broadcast along its own grid axis, so that each node is taken
    on only the axes it depends on.  ``one`` is 1.0 shaped like the grid's
    rank; a constant is a multiple of it, so that no node becomes a numpy
    scalar, whose powers can round differently from an array's.  Operands
    combine out of place, in the tree's order, so that each point gets the
    same value on either kind of axes."""
    if e.kind == "const":
        return one * e.value
    if e.kind == "var":
        if e.index > len(axes):
            raise DomainError(f"binding missing for t{e.index}")
        return axes[e.index - 1]
    if e.kind == "r":
        if r is None:
            raise DomainError("binding missing for r")
        return r
    acc = _eval(e.children[0], axes, r, one)
    rest = e.children[1:]
    if e.kind == "sum":
        for c in rest:
            acc = acc + _eval(c, axes, r, one)
        return acc
    if e.kind == "prod":
        for c in rest:
            acc = acc * _eval(c, axes, r, one)
        return acc
    # the domain checks use the .any() method: np.any(x) costs about twice
    # as much on the small arrays of per-axis evaluation
    if e.kind == "pow":
        k = e.value
        if k == round(k):
            if k < 0 and (acc == 0.0).any():
                raise DomainError("zero base with negative exponent")
            return acc ** int(round(k))
        if (acc < 0.0).any():
            raise DomainError("fractional power of a negative base")
        if k < 0 and (acc == 0.0).any():
            raise DomainError("zero base with negative exponent")
        return acc ** k
    if e.kind == "abs":
        return np.abs(acc)
    if e.kind == "log":
        if (acc <= 0.0).any():
            raise DomainError("log of a non-positive value")
        return np.log(acc)
    if e.kind == "exp":
        return np.exp(acc)
    if e.kind == "min":
        for c in rest:
            acc = np.minimum(acc, _eval(c, axes, r, one))
        return acc
    if e.kind == "norm":
        acc = acc ** 2
        for c in rest:
            acc = acc + _eval(c, axes, r, one) ** 2
        return np.sqrt(acc)
    raise AssertionError(f"unknown node kind {e.kind}")


# ---------------------------------------------------------------------------
# printing (round-trips through parse)
# ---------------------------------------------------------------------------

def _fmt_number(x: float) -> str:
    if x == int(x) and abs(x) < 1e16:
        s = str(int(x))
    else:
        s = repr(x)
    return f"(-{s.lstrip('-')})" if x < 0 else s


def to_string(e: Expr) -> str:
    if e.kind == "const":
        return _fmt_number(e.value)
    if e.kind == "var":
        return f"t{e.index}"
    if e.kind == "r":
        return "r"
    if e.kind == "sum":
        return "(" + " + ".join(to_string(c) for c in e.children) + ")"
    if e.kind == "prod":
        return "(" + " * ".join(to_string(c) for c in e.children) + ")"
    if e.kind == "pow":
        return f"pow({to_string(e.children[0])}, {_fmt_number(e.value)})"
    if e.kind in ("abs", "log", "exp"):
        return f"{e.kind}({to_string(e.children[0])})"
    if e.kind == "min":
        return "min(" + ", ".join(to_string(c) for c in e.children) + ")"
    if e.kind == "norm":
        return "norm1m(" + ", ".join(to_string(c) for c in e.children) + ")"
    raise AssertionError(f"unknown node kind {e.kind}")


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClosedFormClass:
    """Most specific analytically integrable family containing an Expr.

    tag 'monomial'      : coeff * prod_i t_i^{a_i} * r^{a_r}
    tag 'log-monomial'  : monomial times prod_i log(1/t_i)^{m_i}
    tag 'riesz'         : coeff * norm1m(1-t_1, ..., 1-t_k)^{a}
    tag 'general'       : anything else (always sound)
    """

    tag: str
    coeff: float = 1.0
    t_exponents: tuple[float, ...] = ()
    t_log_powers: tuple[int, ...] = ()
    r_exponent: float = 0.0
    riesz_exponent: float = 0.0
    riesz_arity: int = 0

    @property
    def has_closed_form(self) -> bool:
        return self.tag in ("monomial", "log-monomial")


def _as_power_product(e: Expr, n: int):
    """Return (coeff, t_exps, t_logs, r_exp) if e is coeff * prod t^a * prod
    log(1/t)^m * r^b, else None.  Sound on the open cube (all t_i in (0,1))."""
    if e.kind == "const":
        return (e.value, [0.0] * n, [0] * n, 0.0)
    if e.kind == "var":
        exps = [0.0] * n
        exps[e.index - 1] = 1.0
        return (1.0, exps, [0] * n, 0.0)
    if e.kind == "r":
        return (1.0, [0.0] * n, [0] * n, 1.0)
    if e.kind == "prod":
        coeff, exps, logs, rexp = 1.0, [0.0] * n, [0] * n, 0.0
        for c in e.children:
            sub = _as_power_product(c, n)
            if sub is None:
                return None
            coeff *= sub[0]
            exps = [a + b for a, b in zip(exps, sub[1])]
            logs = [a + b for a, b in zip(logs, sub[2])]
            rexp += sub[3]
        return (coeff, exps, logs, rexp)
    if e.kind == "pow":
        sub = _as_power_product(e.children[0], n)
        if sub is None:
            return None
        coeff, exps, logs, rexp = sub
        k = e.value
        if any(m != 0 for m in logs) and k != 1.0:
            return None
        if coeff < 0 and k != round(k):
            return None
        if coeff == 0.0:
            return (0.0, [0.0] * n, [0] * n, 0.0) if k > 0 else None
        return (coeff ** k, [a * k for a in exps], logs, rexp * k)
    if e.kind == "abs":
        sub = _as_power_product(e.children[0], n)
        if sub is None:
            return None
        coeff, exps, logs, rexp = sub
        return (abs(coeff), exps, logs, rexp)
    if e.kind == "log":
        sub = _as_power_product(e.children[0], n)
        if sub is None or sub[0] != 1.0 or any(m != 0 for m in sub[2]) or sub[3] != 0.0:
            return None
        axes = [i for i, a in enumerate(sub[1]) if a != 0.0]
        if len(axes) == 0:
            return (0.0, [0.0] * n, [0] * n, 0.0)  # log(1) == 0
        if len(axes) > 1:
            return None
        i = axes[0]
        logs = [0] * n
        logs[i] = 1
        # log(t_i^a) = a log t_i = (-a) log(1/t_i)
        return (-sub[1][i], [0.0] * n, logs, 0.0)
    if e.kind == "sum":
        if len(e.children) == 1:
            return _as_power_product(e.children[0], n)
        return None
    return None


def _affine_one_minus(e: Expr) -> int | None:
    """Match the pattern 1 - t_i; return i or None."""
    if e.kind != "sum" or len(e.children) != 2:
        return None
    a, b = e.children
    if a.kind != "const" or a.value != 1.0:
        return None
    if b.kind == "prod" and len(b.children) == 2:
        c0, c1 = b.children
        if c0.kind == "const" and c0.value == -1.0 and c1.kind == "var":
            return c1.index
    return None


def _as_riesz(e: Expr, n: int):
    """Match coeff * norm1m(1-t_1, ..., 1-t_k)^a (k consecutive axes from 1)."""
    coeff = 1.0
    core: Expr | None = None
    factors = e.children if e.kind == "prod" else (e,)
    for f in factors:
        if f.kind == "const":
            coeff *= f.value
            continue
        if core is not None:
            return None
        core = f
    if core is None:
        return None
    if core.kind == "norm":
        exponent = 1.0
        norm_node = core
    elif core.kind == "pow" and core.children[0].kind == "norm":
        exponent = core.value
        norm_node = core.children[0]
    else:
        return None
    indices = [_affine_one_minus(c) for c in norm_node.children]
    if any(i is None for i in indices):
        return None
    if sorted(indices) != list(range(1, len(indices) + 1)):
        return None
    return (coeff, exponent, len(indices))


def classify(e: Expr, n: int) -> ClosedFormClass:
    """Classify ``e`` into the most specific closed-form family.

    'general' is always a sound answer.  A sharper tag comes from a
    structural match of the tree (coeff times powers of the t_i, of
    log(1/t_i) and of r, or coeff times a power of norm1m(1 - t_1, ...,
    1 - t_k)), and is only as sound as that matcher: nothing is evaluated
    here.  eval_classified evaluates the classified form, so that tests
    can check it against the Expr point by point.
    """
    sub = _as_power_product(e, n)
    if sub is not None:
        coeff, exps, logs, rexp = sub
        tag = "log-monomial" if any(m != 0 for m in logs) else "monomial"
        return ClosedFormClass(
            tag=tag,
            coeff=coeff,
            t_exponents=tuple(exps),
            t_log_powers=tuple(int(m) for m in logs),
            r_exponent=rexp,
        )
    riesz = _as_riesz(e, n)
    if riesz is not None:
        return ClosedFormClass(tag="riesz", coeff=riesz[0], riesz_exponent=riesz[1],
                               riesz_arity=riesz[2],
                               t_exponents=(0.0,) * n, t_log_powers=(0,) * n)
    return ClosedFormClass(tag="general", t_exponents=(0.0,) * n, t_log_powers=(0,) * n)


def eval_classified(c: ClosedFormClass, t: np.ndarray, n: int) -> np.ndarray:
    """Evaluate the classified form; used to check classification soundness."""
    t = np.asarray(t, dtype=float)
    if c.tag in ("monomial", "log-monomial"):
        out = np.full(t.shape[0], c.coeff)
        for i in range(n):
            if c.t_exponents[i] != 0.0:
                out = out * t[:, i] ** c.t_exponents[i]
            if c.t_log_powers[i] != 0:
                out = out * np.log(1.0 / t[:, i]) ** c.t_log_powers[i]
        return out
    if c.tag == "riesz":
        k = c.riesz_arity
        norms = np.sqrt(np.sum((1.0 - t[:, :k]) ** 2, axis=1))
        return c.coeff * norms ** c.riesz_exponent
    raise ValueError("general class has no closed-form evaluation")


def is_log_radial(e: Expr) -> bool:
    """Structural check for the profile log(r)."""
    return e.kind == "log" and e.children[0].kind == "r"
