"""Numpy-only reference computations the benchmark checks rigrad against.

Nothing here imports rigrad.  Networks are lists of ``(W, b, activation)``
layers, points and tangent vectors are plain arrays in the same canonical
coordinates rigrad uses (ambient R^3 for the sphere, (x, y) for the
half-plane), and every path quantity is evaluated on a whole array of
quadrature nodes at once.

The attribution form is

    entries[i, j] = - sum_k w_k * dF(U_i(t_k)) * g(U_j(t_k), velocity(t_k))

with U the parallel-transported frame, integrated from the explained point
(t=0) to the base point (t=1).  ``predicted_nodes`` replays rigrad's stock
refinement schedule (32 nodes, doubled up to 1024, absolute tolerance 1e-10)
on these values, which lets the benchmark pick inputs whose refinement
stops at a chosen level without calling the program.
"""

from __future__ import annotations

import numpy as np

START_NODES = 32
MAX_NODES = 1024
TOL = 1e-10


# -- networks ------------------------------------------------------------------


def _act(name, z):
    if name == "identity":
        return z
    if name == "tanh":
        return np.tanh(z)
    raise ValueError(f"unknown activation {name!r}")


def _act_prime(name, z):
    if name == "identity":
        return np.ones_like(z)
    if name == "tanh":
        return 1.0 - np.tanh(z) ** 2
    raise ValueError(f"unknown activation {name!r}")


def mlp_value(layers, X):
    """Network output for each row of X, shape (K,)."""
    a = np.atleast_2d(np.asarray(X, dtype=float))
    for w, b, act in layers:
        a = _act(act, a @ w.T + b)
    return a[:, 0]


def mlp_grad(layers, X):
    """Input gradient for each row of X by a batched backward pass, shape (K, d)."""
    a = np.atleast_2d(np.asarray(X, dtype=float))
    pre = []
    for w, b, act in layers:
        z = a @ w.T + b
        pre.append(z)
        a = _act(act, z)
    grad = np.ones((a.shape[0], 1))
    for (w, _, act), z in zip(reversed(layers), reversed(pre)):
        grad = (grad * _act_prime(act, z)) @ w
    return grad


def random_layers(rng, input_dim, hidden, scale):
    """Dense tanh network with a linear output; weights ~ N(0, scale^2 / fan_in)."""
    widths = [input_dim, *hidden, 1]
    layers = []
    for i in range(len(widths) - 1):
        fan_in, fan_out = widths[i], widths[i + 1]
        w = rng.standard_normal((fan_out, fan_in)) * scale / np.sqrt(fan_in)
        b = rng.standard_normal(fan_out) * 0.1
        layers.append((w, b, "tanh" if i < len(widths) - 2 else "identity"))
    return layers


def scale_output(layers, factor):
    """The same network with its (linear) output multiplied by ``factor``."""
    w, b, act = layers[-1]
    return [*layers[:-1], (w * factor, b * factor, act)]


# -- quadrature ------------------------------------------------------------------


def gauss_legendre(n):
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def ig(layers, x, x_prime, basis, n=512):
    """Integrated gradients from x_prime to x along the straight line.

    ``basis`` has one direction per row; returns one attribution per row.
    """
    ts, ws = gauss_legendre(n)
    delta = np.asarray(x, dtype=float) - np.asarray(x_prime, dtype=float)
    grads = mlp_grad(layers, x_prime + ts[:, None] * delta)
    return (basis @ delta) * ((grads @ basis.T).T @ ws)


# -- paths with their transported frames -------------------------------------------
#
# Each path function returns (positions (K, c), velocities (K, c),
# frame (K, n, c), metric (K,)) where frame[k] holds the parallel transport of
# the start frame to t_k and metric[k] is the conformal factor turning
# Euclidean dot products of tangent vectors into g-inner products.


def straight_path(p, o, frame, ts):
    ts = np.asarray(ts, dtype=float)
    delta = o - p
    positions = p + ts[:, None] * delta
    velocities = np.broadcast_to(delta, positions.shape)
    moved = np.broadcast_to(frame, (ts.size, *frame.shape))
    return positions, velocities, moved, np.ones(ts.size)


def _rotate_with_tangent(frame, tangent0, normal0, tangents, normals, g0):
    """Transport along a 2-manifold geodesic: coordinates on (T, N) stay fixed."""
    a = g0 * (frame @ tangent0)
    b = g0 * (frame @ normal0)
    return a[None, :, None] * tangents[:, None, :] + b[None, :, None] * normals[:, None, :]


def great_circle_path(p, o, frame, ts):
    """Minimising great-circle arc from unit vector p to unit vector o."""
    ts = np.asarray(ts, dtype=float)
    cos = float(np.clip(p @ o, -1.0, 1.0))
    w = o - cos * p
    axis_t = w / np.linalg.norm(w)
    theta = float(np.arctan2(np.linalg.norm(np.cross(p, o)), cos))
    c, s = np.cos(theta * ts)[:, None], np.sin(theta * ts)[:, None]
    positions = c * p + s * axis_t
    tangents = -s * p + c * axis_t
    normal = np.cross(p, axis_t)  # constant along a great circle
    normals = np.broadcast_to(normal, tangents.shape)
    moved = _rotate_with_tangent(frame, axis_t, normal, tangents, normals, 1.0)
    return positions, theta * tangents, moved, np.ones(ts.size)


def half_plane_path(p, o, frame, ts):
    """Minimising hyperbolic geodesic in the upper half-plane from p to o."""
    ts = np.concatenate([[0.0], np.asarray(ts, dtype=float)])  # row 0 is the start
    (xp, yp), (xo, yo) = p, o
    if abs(xo - xp) <= 1e-12 * max(abs(xp), abs(xo), yp, yo):
        k = np.log(yo / yp)
        y = yp * np.exp(k * ts)
        positions = np.stack([np.full(ts.size, xp), y], axis=1)
        velocities = np.stack([np.zeros(ts.size), k * y], axis=1)
    else:
        # the geodesic is the half-circle centred on the x-axis through p and o
        c = ((xo * xo + yo * yo) - (xp * xp + yp * yp)) / (2.0 * (xo - xp))
        r = np.hypot(xp - c, yp)
        sp = np.arcsinh((c - xp) / yp)
        ds = np.arcsinh((c - xo) / yo) - sp
        s = sp + ts * ds
        sech, tanh = 1.0 / np.cosh(s), np.tanh(s)
        positions = np.stack([c - r * tanh, r * sech], axis=1)
        velocities = ds * np.stack([-r * sech**2, -r * sech * tanh], axis=1)
    metric = 1.0 / positions[:, 1] ** 2
    speed = np.sqrt(metric) * np.linalg.norm(velocities, axis=1)
    tangents = velocities / speed[:, None]
    normals = np.stack([-tangents[:, 1], tangents[:, 0]], axis=1)
    moved = _rotate_with_tangent(frame, tangents[0], normals[0], tangents, normals, metric[0])
    return positions[1:], velocities[1:], moved[1:], metric[1:]


def latitude_loop_path(colatitude, frame, ts):
    """The loop at constant colatitude around the z-axis, in closed form.

    Along the loop the transported frame turns by -2*pi*t*cos(colatitude)
    relative to the coordinate frame (e_theta, e_phi).
    """
    ts = np.asarray(ts, dtype=float)
    theta = float(colatitude)
    phi = 2.0 * np.pi * ts
    st, ct = np.sin(theta), np.cos(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    positions = np.stack([st * cp, st * sp, np.full(ts.size, ct)], axis=1)
    e_theta = np.stack([ct * cp, ct * sp, np.full(ts.size, -st)], axis=1)
    e_phi = np.stack([-sp, cp, np.zeros(ts.size)], axis=1)
    velocities = 2.0 * np.pi * st * e_phi
    a = frame @ np.array([ct, 0.0, -st])  # e_theta at t = 0
    b = frame @ np.array([0.0, 1.0, 0.0])  # e_phi at t = 0
    turn = -2.0 * np.pi * ts * ct
    cos_t, sin_t = np.cos(turn)[:, None], np.sin(turn)[:, None]
    along_theta = a[None, :] * cos_t - b[None, :] * sin_t
    along_phi = a[None, :] * sin_t + b[None, :] * cos_t
    moved = along_theta[:, :, None] * e_theta[:, None, :] + along_phi[:, :, None] * e_phi[:, None, :]
    return positions, velocities, moved, np.ones(ts.size)


# -- the attribution form ------------------------------------------------------------


def form_entries(layers, path, n):
    """Attribution form on an n-node Gauss-Legendre rule; ``path(ts)`` as above."""
    ts, ws = gauss_legendre(n)
    positions, velocities, moved, metric = path(ts)
    grads = mlp_grad(layers, positions)
    a = np.einsum("kc,kic->ki", grads, moved)
    b = metric[:, None] * np.einsum("kjc,kc->kj", moved, velocities)
    return -np.einsum("k,ki,kj->ij", ws, a, b)


def predicted_nodes(evaluate, limit=MAX_NODES, margin=4.0):
    """Node count at which the stock refinement stops, or None if undecided.

    ``evaluate(n)`` returns the quantity rigrad refines (the form entries, or
    the attributions for straight-line IG) on an n-node rule.  None means
    refinement does not converge by ``limit`` nodes, or a gap lies within a
    factor ``margin`` of the tolerance, where rounding could tip the
    program's own comparison either way.
    """
    previous = evaluate(START_NODES)
    n = START_NODES
    while n < limit:
        n *= 2
        current = evaluate(n)
        gap = float(np.max(np.abs(current - previous)))
        if TOL / margin <= gap <= TOL * margin:
            return None
        if gap < TOL:
            return n
        previous = current
    return None
