"""Shared fixtures plus the acceptance-criteria summary lines.

Acceptance tests call ``record_criterion`` with their measured numbers
before asserting, so the terminal summary always shows one line per
criterion, pass or fail.
"""

import numpy as np
import pytest

import rigrad as rg
from rigrad.manifolds import Chart

_ACCEPTANCE: list[tuple[str, bool, str]] = []


def record_criterion(name: str, ok: bool, detail: str) -> None:
    _ACCEPTANCE.append((name, bool(ok), detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for name, ok, detail in _ACCEPTANCE:
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"[{status}] {name}: {detail}")


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


@pytest.fixture(params=["euclidean", "sphere2", "half_plane2"])
def manifold(request):
    dim = 4 if request.param == "euclidean" else None
    return rg.make_manifold(request.param, dim=dim)


def random_unit_tangent(man, p, generator):
    """A g-unit tangent vector, retrying degenerate draws."""
    for _ in range(10):
        u = man.random_tangent(p, generator)
        norm = man.norm(u)
        if norm > 1e-9:
            return rg.TangentVector(p, u.components / norm)
    raise AssertionError("could not draw a unit tangent vector")


def assert_close_rel(actual, expected, rel=1e-12):
    """Entrywise agreement to ``rel`` times the largest magnitude in ``expected``."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    scale = float(np.max(np.abs(expected))) if expected.size else 0.0
    gap = float(np.max(np.abs(actual - expected))) if expected.size else 0.0
    assert gap <= rel * scale, f"gap {gap:.3e} exceeds {rel:g} x scale {scale:.3e}"


def loop_transport(man, curve, vectors, ts):
    """Per-node reference transport along a geodesic, shape (len(ts), n, coord_dim).

    Rebuilds the g-orthonormal (velocity, normal) pair at each parameter from
    the metric matrix and tangent-vector objects, one node at a time.
    """
    if man.kind == "euclidean" or curve.length < 1e-13:
        return np.array([[u.components for u in vectors] for _ in ts])

    def moving_frame(t):
        vel = curve.velocity(t)
        tangent = vel.components / man.norm(vel)
        if man.kind == "sphere2":
            normal = np.cross(vel.base.coords, tangent)
        else:
            normal = np.array([-tangent[1], tangent[0]])
        return vel.base, tangent, normal

    base, t0, n0 = moving_frame(0.0)
    coeffs = [
        (man.inner(u, rg.TangentVector(base, t0)), man.inner(u, rg.TangentVector(base, n0)))
        for u in vectors
    ]
    out = []
    for t in ts:
        _, tangent, normal = moving_frame(float(t))
        out.append([a * tangent + b * normal for a, b in coeffs])
    return np.array(out)


def latitude_loop_transport(theta, u0, ts):
    """Closed-form transport of the 3-vector u0 around the latitude loop at
    colatitude theta: in the (e_theta, e_phi) frame the components turn by
    -phi cos(theta), shape (len(ts), 3)."""
    phi = 2.0 * np.pi * np.asarray(ts)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    e_theta = np.stack(
        [cos_t * np.cos(phi), cos_t * np.sin(phi), np.full_like(phi, -sin_t)], axis=-1
    )
    e_phi = np.stack([-np.sin(phi), np.cos(phi), np.zeros_like(phi)], axis=-1)
    alpha, beta = u0 @ [cos_t, 0.0, -sin_t], u0[1]  # the frame at phi = 0
    turn = phi * cos_t
    a = alpha * np.cos(turn) + beta * np.sin(turn)
    b = -alpha * np.sin(turn) + beta * np.cos(turn)
    return a[:, None] * e_theta + b[:, None] * e_phi


def latitude_loop_frames(theta, frame, ts):
    """``latitude_loop_transport`` of every vector of ``frame``, (len(ts), n, 3)."""
    return np.stack([latitude_loop_transport(theta, u.components, ts) for u in frame.vectors], axis=1)


def loop_ode_transport(man, curve, components, t0, t1, steps, chart):
    """Per-step RK4 reference for the transport equation in ``chart``.

    Every stage builds a point, evaluates the curve at one parameter and
    contracts the Christoffel symbols with the chart velocity, one step at a
    time from t0 to t1.
    """

    def rhs(t, w):
        p = curve.position(t)
        x = chart.to_chart(p)
        xdot = chart.pull(p, curve.velocity(t).components)
        gamma = chart.christoffel(x)
        return -np.einsum("kij,i,...j->...k", gamma, xdot, w)

    w = np.array(components, dtype=float)
    h = (t1 - t0) / steps
    t = t0
    for _ in range(steps):
        k1 = rhs(t, w)
        k2 = rhs(t + 0.5 * h, w + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, w + 0.5 * h * k2)
        k4 = rhs(t + h, w + h * k3)
        w = w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return w


def loop_ode_pass(man, curve, chart, w0, ts_sorted, total_steps):
    """Reference sweep: ``loop_ode_transport`` from each sorted target to the
    next with max(1, ceil(gap * total_steps)) steps; shape (K, *w0.shape)."""
    results = []
    w = np.array(w0)
    prev = 0.0
    for t in ts_sorted:
        if t > prev:
            seg_steps = max(1, int(np.ceil((t - prev) * total_steps)))
            w = loop_ode_transport(man, curve, w, prev, t, seg_steps, chart)
            prev = t
        results.append(np.array(w))
    return np.array(results)


def loop_geodesic_residual(manifold, curve, samples=17, h=1e-4):
    """Per-sample reference for ``geodesic_residual``: three canonical
    positions, a second difference and one geodesic acceleration per interior
    sample."""
    worst = 0.0
    for t in np.linspace(0.0, 1.0, samples):
        if t - h < 0.0 or t + h > 1.0:
            continue
        x0, xm, xp = (curve.position(s).coords for s in (t, t - h, t + h))
        vel = (xp - xm) / (2.0 * h)
        acc = manifold.geodesic_acceleration(x0[None, :], vel[None, :])[0]
        worst = max(worst, float(np.linalg.norm((xp - 2.0 * x0 + xm) / h**2 - acc)))
    return worst


def sphere_chart_point(chart, x):
    """The point of the sphere at coordinates x = (theta, phi) of the
    SphericalChart ``chart``: colatitude and longitude about its pole."""
    theta, phi = float(x[0]), float(x[1])
    q = np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])
    return rg.Point(chart.rotation.T @ q)


class ScalarMethodsChart(Chart):
    """``chart``'s scalar methods alone, so every batched method, ``frames``
    included, is Chart's default: a custom chart that overrides nothing."""

    def __init__(self, chart):
        self.dim, self.chart = chart.dim, chart

    def to_chart(self, p):
        return self.chart.to_chart(p)

    def metric(self, x):
        return self.chart.metric(x)

    def christoffel(self, x):
        return self.chart.christoffel(x)

    def push(self, x, comps):
        return self.chart.push(x, comps)

    def pull(self, p, comps):
        return self.chart.pull(p, comps)
