import numpy as np
import pytest

from lentparticle.errors import InputError
from lentparticle.expressions import (
    compile_coefficient,
    compile_mark_scalar,
    compile_scalar,
)


def test_arithmetic_and_power():
    f = compile_mark_scalar("u1^2 + 2*u1 - 1/2", 1)
    assert f(np.array([3.0])) == pytest.approx(9 + 6 - 0.5)
    g = compile_mark_scalar("-u1 * (u2 + 1)", 2)
    assert g(np.array([2.0, 3.0])) == pytest.approx(-8.0)


def test_abs_min_calls():
    f = compile_mark_scalar("min(abs(u1), 1)", 1)
    assert f(np.array([-0.25])) == pytest.approx(0.25)
    assert f(np.array([4.0])) == pytest.approx(1.0)


def test_indicator_uses_mark_norm():
    f = compile_mark_scalar("u1^2 * ind(0.5)", 1)
    assert f(np.array([0.25])) == pytest.approx(0.0625)
    assert f(np.array([0.75])) == 0.0
    g = compile_mark_scalar("ind(1)", 2)
    assert g(np.array([0.6, 0.6])) == 1.0  # norm ~ 0.849 < 1
    assert g(np.array([0.8, 0.8])) == 0.0  # norm ~ 1.13 >= 1


def test_coefficient_sees_time_state_mark():
    c = compile_coefficient(["u1", "x2 * u1 + t"], 2, 1)
    out = c(0.5, np.array([0.0, 2.0]), np.array([0.3]))
    assert np.allclose(out, [0.3, 1.1])


@pytest.mark.parametrize("bad", [
    "__import__('os')",
    "u1.real",
    "u1[0]",
    "lambda: 1",
    "exec('x')",
    "u1 if 1 else 0",
    "'str'",
    "unknown_var + 1",
    "max(u1, 0)",
])
def test_disallowed_constructs(bad):
    with pytest.raises(InputError):
        compile_mark_scalar(bad, 1)


def test_syntax_error():
    with pytest.raises(InputError):
        compile_mark_scalar("u1 +", 1)


def test_scalar_with_named_variables():
    f = compile_scalar("a*b - 2", ["a", "b"])
    assert f({"a": 3.0, "b": 4.0}) == pytest.approx(10.0)
