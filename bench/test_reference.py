"""Checks of the benchmark's numpy reference computations.

    python3 -m pytest -q bench/test_reference.py      (or: python3 bench/test_reference.py)

The first tests need numpy only; the last ones compare against rigrad,
imported from the checkout's ``src/``.
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import reference as ref  # noqa: E402


def _layers(seed=0, dim=3, scale=1.0):
    return ref.random_layers(np.random.default_rng(seed), dim, (32, 32), scale)


def test_mlp_gradient_matches_central_differences():
    layers = _layers(dim=5)
    x = np.random.default_rng(1).standard_normal((4, 5))
    h = 1e-6
    numeric = np.stack(
        [(ref.mlp_value(layers, x + h * e) - ref.mlp_value(layers, x - h * e)) / (2 * h)
         for e in np.eye(5)], axis=1)
    assert np.max(np.abs(ref.mlp_grad(layers, x) - numeric)) < 1e-8


def test_ig_is_exact_on_a_linear_field_and_complete_on_a_network():
    rng = np.random.default_rng(2)
    w = rng.standard_normal((1, 4))
    linear = [(w, np.zeros(1), "identity")]
    x, x_prime = rng.standard_normal(4), rng.standard_normal(4)
    assert np.allclose(ref.ig(linear, x, x_prime, np.eye(4), n=8), w[0] * (x - x_prime), atol=1e-14)
    layers = _layers(dim=4)
    total = ref.ig(layers, x, x_prime, np.eye(4)).sum()
    gap = ref.mlp_value(layers, np.array([x, x_prime]))
    assert abs(total - (gap[0] - gap[1])) < 1e-12


def test_geodesic_paths_hit_their_endpoints_and_keep_the_frame_orthonormal():
    p = np.array([0.6, 0.0, 0.8])
    o = np.array([0.0, 1.0, 0.0])
    frame = np.array([[0.8, 0.0, -0.6], [0.0, 1.0, 0.0]])
    pos, _, moved, metric = ref.great_circle_path(p, o, frame, np.array([0.0, 0.37, 1.0]))
    assert np.allclose(pos[[0, -1]], [p, o], atol=1e-15)
    for k in range(3):
        assert np.allclose(metric[k] * moved[k] @ moved[k].T, np.eye(2), atol=1e-14)
    p, o = np.array([-0.4, 0.5]), np.array([1.2, 2.0])
    pos, _, moved, metric = ref.half_plane_path(p, o, p[1] * np.eye(2), np.array([0.0, 0.5, 1.0]))
    assert np.allclose(pos[[0, -1]], [p, o], atol=1e-14)
    for k in range(3):
        assert np.allclose(metric[k] * moved[k] @ moved[k].T, np.eye(2), atol=1e-13)


def test_latitude_loop_transport_has_the_holonomy_of_the_enclosed_cap():
    theta = 0.9
    e_theta0 = np.array([np.cos(theta), 0.0, -np.sin(theta)])
    frame = np.array([e_theta0, [0.0, 1.0, 0.0]])
    _, _, moved, _ = ref.latitude_loop_path(theta, frame, np.array([1.0]))
    # one loop turns every vector by the enclosed area 2*pi*(1 - cos(theta))
    angle = 2.0 * np.pi * (1.0 - np.cos(theta))
    rotation = np.array([[np.cos(angle), np.sin(angle)], [-np.sin(angle), np.cos(angle)]])
    assert np.allclose(moved[0] @ frame.T, rotation, atol=1e-13)


# -- against rigrad ----------------------------------------------------------------


def _rigrad():
    import rigrad

    return rigrad


def _field(rg, manifold, layers):
    specs = tuple(rg.LayerSpec(w, b, act) for w, b, act in layers)
    return rg.MLPField(manifold, rg.MLPWeights(manifold.coord_dim, specs))


def test_network_matches_rigrad_mlp_field():
    rg = _rigrad()
    manifold = rg.make_manifold("euclidean", 3)
    layers = _layers()
    field = _field(rg, manifold, layers)
    x = np.array([0.3, -1.2, 0.7])
    assert abs(ref.mlp_value(layers, x)[0] - field.value(rg.Point(x))) < 1e-14
    assert np.max(np.abs(ref.mlp_grad(layers, x)[0] - field.coord_gradient(rg.Point(x)))) < 1e-14


def test_closed_form_loop_transport_matches_rigrad_ode_route():
    rg = _rigrad()
    sphere = rg.make_manifold("sphere2")
    theta = 1.1
    curve = sphere.latitude_loop(theta)
    frame = sphere.orthonormal_frame(curve.start)
    rows = np.array([v.components for v in frame.vectors])
    ts = np.linspace(0.0, 1.0, 9)
    moved, mode, _ = rg.transport_along(sphere, curve, list(frame.vectors), list(ts))
    program = np.array([[v.components for v in row] for row in moved])
    _, _, expected, _ = ref.latitude_loop_path(theta, rows, ts)
    assert mode == "ode"
    assert np.max(np.abs(program - expected)) < 1e-9


def test_predicted_nodes_match_rigrad_refinement():
    rg = _rigrad()
    rng = np.random.default_rng(3)
    for kind, dim, path, scale in (("sphere2", 3, ref.great_circle_path, 2.5),
                                   ("half_plane2", 2, ref.half_plane_path, 1.0)):
        manifold = rg.make_manifold(kind)
        for _ in range(3):
            layers = ref.random_layers(rng, dim, (32, 32), scale)
            p, o = manifold.random_point(rng), manifold.random_point(rng)
            frame = manifold.orthonormal_frame(p)
            rows = np.array([v.components for v in frame.vectors])
            bound = functools.partial(path, p.coords, o.coords, rows)
            predicted = ref.predicted_nodes(lambda n: ref.form_entries(layers, bound, n))
            matrix = rg.attribution_matrix(_field(rg, manifold, layers), manifold, p, o, frame)
            assert np.max(np.abs(ref.form_entries(layers, bound, matrix.diagnostics.nodes_used)
                                 - matrix.entries)) < 1e-12
            if predicted is not None:
                assert predicted == matrix.diagnostics.nodes_used


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
