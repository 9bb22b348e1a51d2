import math
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lentparticle.errors import InputError
from lentparticle.expressions import (
    compile_coefficient,
    compile_jacobians,
    compile_mark_functions,
)


def _mark_value(src, u):
    """One mark through :func:`compile_mark_functions`, as a batch of one."""
    u = np.asarray(u, dtype=float)
    return compile_mark_functions([src], u.shape[0])(u[None])[0, 0]


def test_arithmetic_and_power():
    assert _mark_value("u1^2 + 2*u1 - 1/2", [3.0]) == pytest.approx(9 + 6 - 0.5)
    assert _mark_value("-u1 * (u2 + 1)", [2.0, 3.0]) == pytest.approx(-8.0)


def test_abs_min_calls():
    assert _mark_value("min(abs(u1), 1)", [-0.25]) == pytest.approx(0.25)
    assert _mark_value("min(abs(u1), 1)", [4.0]) == pytest.approx(1.0)


def test_indicator_uses_mark_norm():
    assert _mark_value("u1^2 * ind(0.5)", [0.25]) == pytest.approx(0.0625)
    assert _mark_value("u1^2 * ind(0.5)", [0.75]) == 0.0
    assert _mark_value("ind(1)", [0.6, 0.6]) == 1.0  # norm ~ 0.849 < 1
    assert _mark_value("ind(1)", [0.8, 0.8]) == 0.0  # norm ~ 1.13 >= 1


def _at_point(f, t, x, u):
    """Evaluate a batched coefficient at one point, as a batch of one."""
    return f(np.array([t]), np.asarray(x, dtype=float)[None], np.asarray(u, dtype=float)[None])[0]


def test_coefficient_sees_time_state_mark():
    c = compile_coefficient(["u1", "x2 * u1 + t"], 2, 1)
    out = c(np.array([0.5, 1.0]), np.array([[0.0, 2.0], [0.0, 1.0]]), np.array([[0.3], [0.2]]))
    assert np.allclose(out, [[0.3, 1.1], [0.2, 1.2]])


@pytest.mark.parametrize("sources, reads", [
    (["u1", "x1 * u1"], (False, False, False)),
    (["u1", "x2 * u1^2 * (1 + t)"], (True, True, True)),
    (["t * u1", "x1 * u1"], (True, False, True)),  # t drops out of dx_c
], ids=["no-t", "t-times-x", "t-free-of-x"])
def test_evaluators_report_whether_they_read_time(sources, reads):
    c = compile_coefficient(sources, 2, 1)
    dx_c, du_c = compile_jacobians(sources, 2, 1)
    assert (c.reads_time, dx_c.reads_time, du_c.reads_time) == reads


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
    "min(u1)",
    "abs(u1, 2)",
    "ind()",
])
def test_disallowed_constructs(bad):
    with pytest.raises(InputError):
        compile_mark_functions([bad], 1)


def test_syntax_error():
    with pytest.raises(InputError):
        compile_mark_functions(["u1 +"], 1)


@pytest.mark.parametrize("src, value, message", [
    ("1 + a^0.5", -1.0, "complex"),
    ("10.0^a", 400.0, "out of range"),
])
def test_scalar_evaluator_errors_name_the_expression(src, value, message):
    # `a` is the mark u1; powers are Python floats', so these are not numpy's errors
    src = src.replace("a", "u1")
    with pytest.raises(InputError, match=message) as info:
        _mark_value(src, [value])
    assert repr(src) in str(info.value)


# the expressions above, as coefficients in t, x1, x2, u1, u2
_COEFFICIENTS = [
    ["u1^2 + 2*u1 - 1/2", "-u1 * (u2 + 1)"],
    ["min(abs(u1), 1)", "u1^2 * ind(0.5)"],
    ["ind(1)", "x2 * u1 + t"],
]
_finite = st.floats(-2.0, 2.0, allow_nan=False)


@st.composite
def _batches(draw):
    """Row-paired points: t (n,), x (n, 2), u (n, 2)."""
    n = draw(st.integers(1, 12))
    return (draw(arrays(float, n, elements=_finite)),
            draw(arrays(float, (n, 2), elements=_finite)),
            draw(arrays(float, (n, 2), elements=_finite)))


# mark functions and the same expressions in Python floats, (u1, u2) -> value
_MARK_FUNCTIONS = [
    ("u1^2 + 2*u1 - 1/2", lambda u1, u2: u1 ** 2 + 2 * u1 - 1 / 2),
    ("abs(u1)^1.5 * min(u2, 0.3) - u2^3", lambda u1, u2: abs(u1) ** 1.5 * min(u2, 0.3) - u2 ** 3),
    ("u1^2 * ind(0.5) + 2^u2", lambda u1, u2: u1 ** 2 * float(math.sqrt(u1 * u1 + u2 * u2) < 0.5) + 2 ** u2),
]


@settings(max_examples=60, deadline=None)
@given(marks=arrays(float, st.tuples(st.integers(0, 12), st.just(2)), elements=_finite))
def test_mark_functions_have_the_bits_of_python_floats(marks):
    # powers go through the C library's pow, as in Python; numpy's power
    # rounds differently in the last bit on a few values in a thousand
    f = compile_mark_functions([src for src, _ in _MARK_FUNCTIONS], 2)
    got = f(marks)
    assert got.shape == (marks.shape[0], len(_MARK_FUNCTIONS))
    for row, (u1, u2) in zip(got, marks.tolist()):
        assert row.tolist() == [python(u1, u2) for _, python in _MARK_FUNCTIONS]


@settings(max_examples=60, deadline=None)
@given(sources=st.sampled_from(_COEFFICIENTS), batch=_batches())
def test_batched_coefficient_equals_per_point(sources, batch):
    t, x, marks = batch
    c = compile_coefficient(sources, 2, 2)
    dx_c, du_c = compile_jacobians(sources, 2, 2)
    for f, shape in ((c, (2,)), (dx_c, (2, 2)), (du_c, (2, 2))):
        rows = f(t, x, marks)
        assert rows.shape == (marks.shape[0], *shape)
        for p, row in enumerate(rows):
            point = _at_point(f, t[p], x[p], marks[p])
            assert point.shape == shape
            assert point.tobytes() == row.tobytes()


def test_coefficient_point_matches_scalar_evaluator():
    # _COEFFICIENTS evaluated in Python floats at the point below (|u| = 0.5)
    t, x, u = 0.25, np.array([0.5, -1.5]), np.array([0.3, -0.4])
    wants = [[0.3 ** 2 + 2 * 0.3 - 1 / 2, -0.3 * (-0.4 + 1)],
             [min(abs(0.3), 1), 0.3 ** 2 * 0.0],
             [1.0, -1.5 * 0.3 + 0.25]]
    for sources, want in zip(_COEFFICIENTS, wants):
        assert _at_point(compile_coefficient(sources, 2, 2), t, x, u).tolist() == want


_KINKED = ["abs(x1 - u1) * min(u1, 0.5)^2 + ind(0.3) * x2 / u1",
           "x1^u1 + 2^x2 - t * x2^3 + min(x1 * x2, u1 / 2)"]


@settings(max_examples=60, deadline=None)
@given(t=_finite, x1=st.floats(0.2, 2.0), x2=_finite, u1=st.floats(-1.0, 1.0))
def test_jacobians_match_central_differences(t, x1, x2, u1):
    # away from the kinks of abs, min and ind
    assume(abs(x1 - u1) > 1e-3 and abs(u1 - 0.5) > 1e-3 and abs(abs(u1) - 0.3) > 1e-3)
    assume(abs(u1) > 0.05 and abs(x1 * x2 - u1 / 2) > 1e-3)
    c = compile_coefficient(_KINKED, 2, 1)
    dx_c, du_c = compile_jacobians(_KINKED, 2, 1)
    x, u, h = np.array([x1, x2]), np.array([u1]), 1e-6
    c = partial(_at_point, c, t)
    fd_x = np.column_stack([(c(x + h * e, u) - c(x - h * e, u)) / (2 * h)
                            for e in np.eye(2)])
    fd_u = ((c(x, u + h) - c(x, u - h)) / (2 * h))[:, None]
    np.testing.assert_allclose(_at_point(dx_c, t, x, u), fd_x, rtol=1e-6, atol=1e-6)
    np.testing.assert_allclose(_at_point(du_c, t, x, u), fd_u, rtol=1e-6, atol=1e-6)


def test_jacobian_conventions_at_kinks():
    sources = ["abs(u1)", "min(u1, 0.5)", "min(0.5, u1)", "u1 * ind(0.3)"]
    du_c = partial(_at_point, compile_jacobians(sources, 4, 1)[1], 0.0, np.zeros(4))
    # sign(0) = 0; min follows its first minimal argument on a tie; ind is flat
    assert du_c([0.0])[0, 0] == 0.0
    assert du_c([0.5])[1:3, 0].tolist() == [1.0, 0.0]
    assert du_c([0.3])[3, 0] == 0.0
    assert du_c([0.2])[3, 0] == 1.0
    dx_c, _ = compile_jacobians(["x1^3", "2^x2"], 2, 1)
    np.testing.assert_allclose(_at_point(dx_c, 0.0, [2.0, 2.0], [0.1]),
                               [[12.0, 0.0], [0.0, 4.0 * np.log(2.0)]], rtol=1e-15)


@pytest.mark.parametrize("src, u, message", [
    ("1 / u1", 0.0, "divide by zero"),
    ("u1^0.5", -1.0, "invalid value"),
    ("10^u1^9", 2.0, "overflow"),
    ("10^x1^9 * u1", 1.0, "overflow"),  # the state is a batch column too
])
def test_coefficient_floating_point_error_is_input_error(src, u, message):
    c = compile_coefficient([src], 1, 1)
    with pytest.raises(InputError, match=message):
        c(np.zeros(2), np.full((2, 1), 2.0), np.array([[0.5], [u]]))
