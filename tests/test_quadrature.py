"""Quadrature rules and the refinement schedule."""

import numpy as np
import pytest

import rigrad as rg
from rigrad.quadrature import nodes_weights


def test_weights_sum_to_one():
    for rule in ("gauss_legendre", "trapezoid"):
        for n in (2, 5, 16, 33):
            ts, ws = nodes_weights(rule, n)
            assert ts.shape == ws.shape == (n,)
            assert np.all(ts >= 0.0) and np.all(ts <= 1.0)
            assert abs(ws.sum() - 1.0) <= 1e-13


def test_gauss_legendre_is_exact_on_polynomials():
    # n nodes integrate degree 2n-1 exactly; int_0^1 x^7 dx = 1/8
    ts, ws = nodes_weights("gauss_legendre", 4)
    assert abs((ws * ts**7).sum() - 0.125) <= 1e-14
    ts, ws = nodes_weights("gauss_legendre", 2)
    assert abs((ws * ts**3).sum() - 0.25) <= 1e-14


def test_trapezoid_second_order():
    errors = []
    for n in (17, 33, 65):
        ts, ws = nodes_weights("trapezoid", n)
        errors.append(abs((ws * np.sin(np.pi * ts)).sum() - 2.0 / np.pi))
    assert errors[1] / errors[0] == pytest.approx(0.25, rel=0.05)
    assert errors[2] / errors[1] == pytest.approx(0.25, rel=0.05)


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
        rg.Quadrature(rule="simpson")
    with pytest.raises(rg.ParseError):
        rg.Quadrature(nodes=64, max_nodes=32)


def test_schedule_doubles_until_cap():
    q = rg.Quadrature(nodes=8, max_nodes=100)
    assert q.schedule() == [8, 16, 32, 64]
    fixed = rg.Quadrature(nodes=12, refine=False)
    assert fixed.schedule() == [12]


def test_default_quadrature_settings():
    q = rg.DEFAULT_QUADRATURE
    assert q.rule == "gauss_legendre"
    assert q.nodes >= 2
    assert q.refine
    assert q.tol > 0.0


def test_rules_are_cached_read_only_and_exact():
    for n in (3, 32, 256):
        first = nodes_weights("gauss_legendre", n)
        again = nodes_weights("gauss_legendre", n)
        x, w = np.polynomial.legendre.leggauss(n)
        for cached in (first, again):
            assert np.array_equal(cached[0], 0.5 * (x + 1.0))
            assert np.array_equal(cached[1], 0.5 * w)
    for rule in ("gauss_legendre", "trapezoid"):
        ts, ws = nodes_weights(rule, 9)
        assert not ts.flags.writeable and not ws.flags.writeable
        with pytest.raises(ValueError):
            ws[0] = 1.0
