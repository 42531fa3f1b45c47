import math
import re

import numpy as np
import pytest

from hardylab.expr import (DomainError, ExprSyntaxError, classify,
                           eval_classified, evaluate, parse,
                           to_string)
from hardylab.kernels import _single_axis_monomial


def test_parse_power_with_negative_exponent():
    e = parse("t1^(-0.5)", 1)
    assert e.kind == "pow" and e.value == -0.5
    assert evaluate(e, t=(0.25,))[0] == pytest.approx(2.0, rel=1e-15)


def test_parse_constant_in_higher_arity():
    e = parse("1", 2)
    assert e.kind == "const" and e.value == 1.0


def test_parse_riesz_kernel_matches_two_slot_form():
    e = parse("norm1m(1-t1,1-t2)^(-1.5)", 2)
    c = classify(e, 2)
    assert c.tag == "riesz"
    assert c.riesz_exponent == -1.5
    assert c.riesz_arity == 2
    # value check against the explicit euclidean norm
    t = np.array([[0.3, 0.8]])
    want = ((1 - 0.3) ** 2 + (1 - 0.8) ** 2) ** (-0.75)
    assert evaluate(e, t=t)[0] == pytest.approx(want, rel=1e-14)


def test_eval_product():
    assert evaluate(parse("t1*t2", 2), t=(0.5, 0.25))[0] == pytest.approx(0.125)


def test_eval_log_monomial_oracle():
    # direct arithmetic oracle at t1 = e^{-1}
    e = parse("log(1/t1)*t1^(-1/4)", 1)
    got = evaluate(e, t=(math.exp(-1.0),))[0]
    assert got == pytest.approx(math.exp(0.25), rel=1e-14)


def test_unary_minus_binds_looser_than_power():
    assert evaluate(parse("-r^2/2", 0), r=3.0)[0] == pytest.approx(-4.5)
    assert evaluate(parse("(-2)^2 + 1", 0), r=1.0)[0] == pytest.approx(5.0)


def test_domain_errors_are_raised_not_nan():
    with pytest.raises(DomainError):
        evaluate(parse("log(t1 - 2)", 1), t=(0.5,))
    with pytest.raises(DomainError):
        evaluate(parse("(t1 - 2)^0.5", 1), t=(0.5,))
    with pytest.raises(DomainError):
        evaluate(parse("1/t1", 1), t=(0.0,))


def test_syntax_error_carries_position():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("t1 + * 2", 1)
    assert exc.value.position > 0


def test_arity_violation():
    with pytest.raises(ExprSyntaxError):
        parse("t3", 2)


def test_exponent_must_be_constant():
    with pytest.raises(ExprSyntaxError):
        parse("t1^t2", 2)


def test_classify_monomial():
    c = classify(parse("t1^(-1/2)", 1), 1)
    assert c.tag == "monomial"
    assert c.t_exponents == (-0.5,)
    assert c.coeff == 1.0


def test_classify_log_monomial():
    c = classify(parse("t1^(-1/4) * log(1/t1)", 1), 1)
    assert c.tag == "log-monomial"
    assert c.t_exponents == (-0.25,)
    assert c.t_log_powers == (1,)


def test_classify_general():
    assert classify(parse("t1 + t2", 2), 2).tag == "general"
    assert classify(parse("exp(-t1)", 1), 1).tag == "general"
    assert classify(parse("min(t1, t2)", 2), 2).tag == "general"


def test_classify_single_axis_helper():
    assert _single_axis_monomial(classify(parse("0.5 * t2^2", 2), 2)) == (2, 0.5, 2.0)
    assert _single_axis_monomial(classify(parse("t1*t2", 2), 2)) is None


def test_roundtrip_evaluates_identically(rng):
    texts = [
        "t1^(-0.5)",
        "0.25 * t1^2 * t2^(-0.75)",
        "log(1/t1) * t2^(1/3) - 2",
        "min(t1, t2^2, 0.5)",
        "norm1m(1-t1, 1-t2)^(-0.5) * 3",
        "exp(-t1 * t2) + abs(t1 - t2)",
        "(t1 + 2*t2) / (1 + t1)",
    ]
    pts = rng.uniform(0.05, 0.95, size=(64, 2))
    for text in texts:
        e = parse(text, 2)
        back = parse(to_string(e), 2)
        a = evaluate(e, t=pts)
        b = evaluate(back, t=pts)
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a) + 1.0)


def test_classification_soundness(rng):
    texts = [
        "t1^(-1/2)",
        "2 * t1^0.3 * t2^(-0.6)",
        "t1^(-1/4) * log(1/t1)",
        "abs(-3 * t2^2) * log(1/t1)",
        "norm1m(1-t1,1-t2)^(-1.5)",
    ]
    pts = rng.uniform(0.05, 0.95, size=(64, 2))
    for text in texts:
        e = parse(text, 2)
        c = classify(e, 2)
        assert c.tag != "general"
        direct = evaluate(e, t=pts)
        rebuilt = eval_classified(c, pts, 2)
        assert np.max(np.abs(direct - rebuilt)) <= 1e-12 * np.max(np.abs(direct))


def test_classify_radial_power():
    c = classify(parse("2*r^(-0.5)", 0), 0)
    assert c.tag == "monomial"
    assert c.coeff == 2.0
    assert c.r_exponent == -0.5


# ---------------------------------------------------------------------------
# per-axis evaluation on tensor grids
# ---------------------------------------------------------------------------

def _tensor_points(n, boxes=3, seed=0):
    """A TensorPoints over random axis coordinates in (0, 1), shaped as
    quad._family_panels shapes them."""
    from hardylab.quad import TensorPoints

    rng = np.random.default_rng(seed)
    axes = [rng.random((boxes,) + (1,) * i + (15,) + (1,) * (n - 1 - i)) for i in range(n)]
    return TensorPoints(axes, (boxes,) + (15,) * n)


_PER_AXIS_EXPRS = [
    "2.5", "3 * t1", "t2", "t1 + t2 - 0.3", "1 - t1", "t1 * t2 * 1.7",
    "t1^3", "(t1 - 0.5)^2", "t2^(-2)", "t1^0.37", "t2^(-0.6)", "(t1 + t2)^(-1.5)",
    "abs(t1 - t2)", "log(t1 * t2)", "log(1 / t1)^2", "exp(-t1 * t2)",
    "min(t1, t2, 0.4)", "norm1m(1 - t1, 1 - t2)^(-0.5)",
    "(0.7^1.3)^0.45 * t1", "exp(1) * t1",  # a numpy scalar would round the first differently
    "t1^(-0.3) * (0.7 * t2^1.2)^(-0.45) + abs(log(t2))",
]


@pytest.mark.parametrize("n, text", [(n, text) for n in (2, 3) for text in _PER_AXIS_EXPRS]
                         + [(3, "t3^0.5 * t1"), (3, "min(t3, t1) + t2^(-1)")])
def test_per_axis_evaluation_is_the_flat_one_bit_for_bit(n, text):
    t = _tensor_points(n)
    e = parse(text, n)
    got = evaluate(e, t=t)
    want = evaluate(e, t=np.asarray(t))
    assert got.ndim == n + 1  # compact: it broadcasts to the grid
    wide = np.broadcast_to(got, t.grid).reshape(-1)
    assert np.array_equal(wide.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("text", [
    "log(t1 - 0.5)",             # log of a non-positive value
    "(t1 - t1)^(-1)",            # zero base, integer exponent
    "(t2 - t2)^(-0.5) + t1",     # zero base, fractional exponent
    "(t1 - 0.5)^0.5",            # fractional power of a negative base
    "t1^0.5 * log(t2 - 2)",      # the first failing node decides
    "exp(1000 * t1) * (t2 - t2)",  # inf * 0: the final NaN check
    "r * t1",                    # no binding for r
])
def test_per_axis_evaluation_raises_the_flat_domain_error(n, text):
    t = _tensor_points(n)
    e = parse(text, n)
    with pytest.raises(DomainError) as flat:
        evaluate(e, t=np.asarray(t))
    with pytest.raises(DomainError) as per_axis:
        evaluate(e, t=t)
    assert type(per_axis.value) is type(flat.value)
    assert str(per_axis.value) == str(flat.value)


def test_points_derived_from_tensor_points_are_evaluated_point_by_point():
    t = _tensor_points(2)
    e = parse("t1 * t2^0.5", 2)
    shifted = 0.25 + 0.5 * t  # as an integrand may shift its points
    assert evaluate(e, t=shifted).shape == (len(t),)
    assert np.array_equal(evaluate(e, t=shifted), evaluate(e, t=np.asarray(shifted)))
    # with r bound the flat path runs, too
    er = parse("t1 * r", 2)
    assert evaluate(er, t=t, r=2.0).shape == (len(t),)


@pytest.mark.parametrize("text, message, position", [
    ("t1 $ 2", "unexpected character '$'", 3),
    ("t1 t2", "trailing input 't2'", 3),
    ("(t1 + 2", "expected ')', found ''", 7),
    ("q + t1", "unknown name 'q'", 0),
    ("2 * foo(t1)", "unknown function 'foo'", 4),
    ("pow(t1)", "pow takes two arguments", 0),
    ("pow(t1, 2, 3)", "pow takes two arguments", 0),
    ("log(t1, 2)", "log takes one argument", 0),
    ("exp(t1, 2)", "exp takes one argument", 0),
    ("abs(t1, t2)", "abs takes one argument", 0),
    ("min(t1)", "min takes at least two arguments", 0),
    ("norm1m()", "unexpected token ')'", 7),
    ("t1^r", "exponent must be a constant expression", 2),
    ("pow(t1, t2)", "exponent must be a constant expression", 0),
])
def test_each_syntax_error_names_its_cause_and_position(text, message, position):
    with pytest.raises(ExprSyntaxError, match=re.escape(message)) as exc:
        parse(text, 2)
    assert exc.value.position == position


def test_unary_plus_and_trailing_blanks_parse():
    assert evaluate(parse("+t1 * -+2  ", 1), t=(0.25,))[0] == -0.5
