"""The Gauss-Legendre rule and the refinement schedule."""

import numpy as np
import pytest

import rigrad as rg
from rigrad.quadrature import nodes_weights


def test_weights_sum_to_one():
    for n in (2, 5, 16, 33):
        ts, ws = nodes_weights(n)
        assert ts.shape == ws.shape == (n,)
        assert np.all(ts >= 0.0) and np.all(ts <= 1.0)
        assert abs(ws.sum() - 1.0) <= 1e-13


def test_gauss_legendre_is_exact_on_polynomials():
    # n nodes integrate degree 2n-1 exactly; int_0^1 x^7 dx = 1/8
    ts, ws = nodes_weights(4)
    assert abs((ws * ts**7).sum() - 0.125) <= 1e-14
    ts, ws = nodes_weights(2)
    assert abs((ws * ts**3).sum() - 0.25) <= 1e-14


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-10])
def test_quadrature_rejects_a_non_finite_tol(tol):
    with pytest.raises(rg.ParseError, match="positive finite"):
        rg.Quadrature(tol=tol)


def test_quadrature_validation():
    with pytest.raises(rg.ParseError):
        rg.Quadrature(nodes=1)
    with pytest.raises(rg.ParseError):
        rg.Quadrature(tol=0.0)
    with pytest.raises(rg.ParseError):
        rg.Quadrature(nodes=64, max_nodes=32)


@pytest.mark.parametrize("field, value", [
    ("nodes", 2.5), ("nodes", 32.0), ("nodes", "32"), ("max_nodes", 100.5), ("max_nodes", True),
])
def test_quadrature_sizes_must_be_integers(field, value):
    with pytest.raises(rg.ParseError, match=f"{field} must be an integer"):
        rg.Quadrature(**{field: value})
    assert rg.Quadrature(nodes=np.int64(8), max_nodes=np.int64(64)).schedule() == [8, 16, 32, 64]


@pytest.mark.parametrize("field, value, message", [
    ("refine", "no", "refine must be a bool"),
    ("refine", 1, "refine must be a bool"),
    ("refine", None, "refine must be a bool"),
    ("tol", "1e-6", "tol must be a real number"),
    ("tol", True, "tol must be a real number"),
    ("tol", None, "tol must be a real number"),
])
def test_quadrature_refuses_a_flag_or_tol_of_the_wrong_type(field, value, message):
    with pytest.raises(rg.ParseError, match=message):
        rg.Quadrature(**{field: value})
    assert rg.Quadrature(tol=np.float64(1e-8), refine=False).schedule() == [32]


def test_quadrature_has_one_rule():
    """Gauss-Legendre is the only rule: there is no rule to choose."""
    for rule in ("gauss_legendre", "trapezoid", "simpson"):
        with pytest.raises(TypeError):
            rg.Quadrature(rule=rule)
    with pytest.raises(TypeError):
        nodes_weights("gauss_legendre", 4)


def test_schedule_doubles_until_cap():
    q = rg.Quadrature(nodes=8, max_nodes=100)
    assert q.schedule() == [8, 16, 32, 64]
    fixed = rg.Quadrature(nodes=12, refine=False)
    assert fixed.schedule() == [12]


def test_default_quadrature_settings():
    q = rg.DEFAULT_QUADRATURE
    x, w = np.polynomial.legendre.leggauss(q.nodes)
    ts, ws = q.nodes_weights()
    assert np.array_equal(ts, 0.5 * (x + 1.0)) and np.array_equal(ws, 0.5 * w)
    assert q.nodes >= 2
    assert q.refine
    assert q.tol > 0.0


def test_rules_are_cached_read_only_and_exact():
    for n in (3, 32, 256):
        first = nodes_weights(n)
        again = nodes_weights(n)
        x, w = np.polynomial.legendre.leggauss(n)
        for cached in (first, again):
            assert np.array_equal(cached[0], 0.5 * (x + 1.0))
            assert np.array_equal(cached[1], 0.5 * w)
    ts, ws = nodes_weights(9)
    assert not ts.flags.writeable and not ws.flags.writeable
    with pytest.raises(ValueError):
        ws[0] = 1.0
