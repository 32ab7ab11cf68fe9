"""Scalar fields: gradients, network evaluation, weight surgery, serialization."""

import json
import math

import numpy as np
import pytest

import rigrad as rg

from conftest import assert_close_rel, random_unit_tangent


def fd_directional(man, field, p, u, h=1e-5):
    plus = field.value(man.exp_map(rg.TangentVector(p, h * u.components)))
    minus = field.value(man.exp_map(rg.TangentVector(p, -h * u.components)))
    return (plus - minus) / (2.0 * h)


def test_gradient_matches_finite_differences(manifold, rng):
    """Directional derivatives along exponential rays, central differences."""
    weights = rg.random_mlp(manifold.coord_dim, (6, 5), rng)
    field = rg.MLPField(manifold, weights)
    for _ in range(20):
        p = manifold.random_point(rng)
        u = random_unit_tangent(manifold, p, rng)
        fd = fd_directional(manifold, field, p, u)
        analytic = field.differential(u)
        assert abs(fd - analytic) <= 1e-5 * (1.0 + abs(analytic))


def test_differential_equals_metric_pairing(manifold, rng):
    weights = rg.random_mlp(manifold.coord_dim, (5,), rng)
    field = rg.MLPField(manifold, weights)
    for _ in range(10):
        p = manifold.random_point(rng)
        u = manifold.random_tangent(p, rng)
        lhs = field.differential(u)
        rhs = manifold.inner(field.gradient(p), u)
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


def test_linear_field_has_constant_gradient(rng):
    man = rg.make_manifold("euclidean", dim=3)
    w = np.array([2.0, -1.0, 0.5])
    field = rg.AffineField(man, w, bias=0.7)
    for _ in range(5):
        p = man.random_point(rng)
        assert np.array_equal(field.coord_gradient(p), w)
        assert field.value(p) == pytest.approx(w @ p.coords + 0.7, abs=1e-12)


def test_coordinate_field_reads_off_components():
    man = rg.make_manifold("sphere2")
    field = rg.CoordinateField(man, 2)
    p = man.point(np.array([0.0, 0.0, 1.0]))
    q = man.point(np.array([1.0, 0.0, 0.0]))
    assert field.value(p) == 1.0
    assert field.value(q) == 0.0
    # the intrinsic gradient at the equator points toward the pole
    g = field.gradient(q)
    assert np.max(np.abs(g.components - np.array([0.0, 0.0, 1.0]))) <= 1e-12


@pytest.mark.parametrize("index", [1.5, True, "1"])
def test_coordinate_field_refuses_an_index_that_is_not_an_integer(index):
    with pytest.raises(rg.DimensionMismatch, match="coordinate index must be an integer"):
        rg.CoordinateField(rg.make_manifold("sphere2"), index)


def test_bump_width_must_be_positive_and_may_be_infinite():
    man = rg.make_manifold("sphere2")
    center = man.point(np.array([0.0, 1.0, 0.0]))
    for width in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="width must be positive"):
            rg.GaussianBumpField(man, center, width=width)
    flat = rg.GaussianBumpField(man, center, width=math.inf)
    p = man.point(np.array([1.0, 0.0, 0.0]))
    assert flat.value(p) == 1.0
    assert np.array_equal(flat.coord_gradient(p), np.zeros(3))


def test_log_height_field_closed_form():
    man = rg.make_manifold("half_plane2")
    field = rg.LogHeightField(man)
    p = man.point(np.array([3.0, 2.0]))
    assert field.value(p) == pytest.approx(math.log(2.0), abs=1e-15)
    assert np.allclose(field.coord_gradient(p), [0.0, 0.5], atol=1e-15)
    # raising the index against 1/y^2 scales by y^2
    assert np.allclose(field.gradient(p).components, [0.0, 2.0], atol=1e-15)
    with pytest.raises(rg.WrongManifold):
        rg.LogHeightField(rg.make_manifold("euclidean", dim=2))


def test_gaussian_bump_peak_and_symmetry(rng):
    man = rg.make_manifold("sphere2")
    center = man.point(np.array([0.0, 1.0, 0.0]))
    field = rg.GaussianBumpField(man, center, width=0.5)
    assert field.value(center) == pytest.approx(1.0, abs=1e-15)
    # equal distances give equal values
    a = man.point(np.array([1.0, 0.0, 0.0]))
    b = man.point(np.array([0.0, 0.0, 1.0]))
    assert field.value(a) == pytest.approx(field.value(b), abs=1e-12)
    # gradient vanishes at the peak
    assert np.max(np.abs(field.gradient(center).components)) <= 1e-12


def per_row_bump_gradients(field, X):
    """The bump's gradient as one log_map and one value per row."""
    raised = [
        field.manifold.log_map(p, field.center).components * (field.value(p) / field.width**2)
        for p in map(rg.Point, X)
    ]
    return field.manifold.lower(X, np.array(raised).reshape(X.shape))


def bump_rows(manifold, rng, n=3000):
    """A bump and n rows away from its center's cut locus."""
    center = manifold.random_point(rng)
    X = np.array([manifold.random_point(rng).coords for _ in range(n)])
    if manifold.kind == "sphere2":
        X = X[X @ center.coords > -0.99]
    return rg.GaussianBumpField(manifold, center, width=0.7), X


def test_bump_row_gradients_are_the_per_row_formula(manifold, rng):
    """Bit for bit, over enough rows to meet the squares that numpy's
    ``** 2`` rounds differently from ``value``'s."""
    field, X = bump_rows(manifold, rng)
    X = np.concatenate([X, [field.center.coords]])
    assert field.coord_gradients(X).tobytes() == per_row_bump_gradients(field, X).tobytes()


def test_bump_gradients_take_one_log_rows_call(manifold, rng, monkeypatch):
    """One log_rows call per batch of rows, one batch per level of a whole
    rig, and no log_map call."""
    field, X = bump_rows(manifold, rng, n=40)
    calls = {"log_rows": 0, "log_map": 0, "dist": 0}

    def counted(name):
        method = getattr(manifold, name)

        def wrapper(*args):
            calls[name] += 1
            return method(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(manifold, name, counted(name))
    field.coord_gradients(X)
    assert calls == {"log_rows": 1, "log_map": 0, "dist": 0}
    per_batch = []
    gradients = field.coord_gradients

    def batch(X):
        before = calls["log_rows"]
        out = gradients(X)
        per_batch.append(calls["log_rows"] - before)
        return out

    monkeypatch.setattr(field, "coord_gradients", batch)
    p, o = rg.Point(X[0]), rg.Point(X[1])
    report = rg.rig(field, manifold, p, o, manifold.orthonormal_frame(p))
    assert per_batch == [1] * len(per_batch) and calls["log_map"] == 0
    levels = rg.DEFAULT_QUADRATURE.schedule()
    assert len(per_batch) == levels.index(report.diagnostics.nodes_used) + 1


def test_mlp_forward_frozen_value():
    """Tiny hand-checkable network: one tanh unit into an identity output."""
    man = rg.make_manifold("euclidean", dim=2)
    layers = (
        rg.LayerSpec(np.array([[1.0, -1.0]]), np.array([0.5]), "tanh"),
        rg.LayerSpec(np.array([[2.0]]), np.array([-0.25]), "identity"),
    )
    field = rg.MLPField(man, rg.MLPWeights(2, layers))
    p = man.point(np.array([0.75, 0.5]))
    expected = 2.0 * math.tanh(0.75) - 0.25
    assert field.value(p) == pytest.approx(expected, abs=1e-15)
    # d/dx = 2 * (1 - tanh^2(0.75)) * 1
    sech2 = 1.0 - math.tanh(0.75) ** 2
    assert field.coord_gradient(p)[0] == pytest.approx(2.0 * sech2, abs=1e-14)
    assert field.coord_gradient(p)[1] == pytest.approx(-2.0 * sech2, abs=1e-14)


def test_softplus_activation_is_stable():
    man = rg.make_manifold("euclidean", dim=1)
    layers = (
        rg.LayerSpec(np.array([[1.0]]), np.array([0.0]), "softplus"),
        rg.LayerSpec(np.array([[1.0]]), np.array([0.0]), "identity"),
    )
    field = rg.MLPField(man, rg.MLPWeights(1, layers))
    big = man.point(np.array([800.0]))
    assert field.value(big) == pytest.approx(800.0, rel=1e-12)
    assert np.isfinite(field.coord_gradient(big)).all()
    small = man.point(np.array([-800.0]))
    assert field.value(small) == pytest.approx(0.0, abs=1e-12)


def test_layer_spec_validation():
    with pytest.raises(rg.ParseError):
        rg.LayerSpec(np.array([[1.0, 2.0]]), np.array([0.0, 0.0]), "tanh")
    with pytest.raises(rg.ParseError):
        rg.LayerSpec(np.array([[1.0]]), np.array([0.0]), "relu")
    with pytest.raises(rg.ParseError):
        rg.MLPWeights(
            3,
            (
                rg.LayerSpec(np.eye(3), np.zeros(3), "tanh"),
                rg.LayerSpec(np.array([[1.0, 1.0]]), np.zeros(1), "identity"),
            ),
        )


def test_permuted_hidden_units_leave_values_unchanged(rng):
    man = rg.make_manifold("euclidean", dim=4)
    weights = rg.random_mlp(4, (7, 6), rng)
    perm = rng.permutation(7)
    permuted = rg.permute_hidden_units(weights, 0, perm)
    f = rg.MLPField(man, weights)
    g = rg.MLPField(man, permuted)
    for _ in range(20):
        p = man.random_point(rng)
        assert abs(f.value(p) - g.value(p)) <= 1e-12 * (1.0 + abs(f.value(p)))
        assert np.max(np.abs(f.coord_gradient(p) - g.coord_gradient(p))) <= 1e-12


def test_identity_layer_insertion_preserves_function(rng):
    man = rg.make_manifold("half_plane2")
    weights = rg.random_mlp(2, (5, 4), rng)
    widened = rg.insert_identity_layer(weights, 1)
    assert len(widened.layers) == len(weights.layers) + 1
    f = rg.MLPField(man, weights)
    g = rg.MLPField(man, widened)
    for _ in range(10):
        p = man.random_point(rng)
        assert abs(f.value(p) - g.value(p)) <= 1e-12 * (1.0 + abs(f.value(p)))


def _sigmoid(z):
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


# activation and derivative per name, tanh' taken from z as 1 - tanh(z)**2
_ACTIVATIONS = {
    "identity": (lambda z: z, np.ones_like),
    "tanh": (np.tanh, lambda z: 1.0 - np.tanh(z) ** 2),
    "softplus": (lambda z: np.logaddexp(0.0, z), _sigmoid),
}


def _gradient_recomputing_tanh(weights, x):
    """MLPField's backward pass for one point (1-D ``x``) or for rows
    (2-D), with every derivative computed from the pre-activation."""
    batched = x.ndim == 2
    pre, a = [], x
    for layer in weights.layers:
        z = a @ layer.weights.T + layer.bias if batched else layer.weights @ a + layer.bias
        pre.append(z)
        a = _ACTIVATIONS[layer.activation][0](z)
    grad = np.ones((len(x), 1)) if batched else np.ones(1)
    for layer, z in zip(reversed(weights.layers), reversed(pre)):
        prime = _ACTIVATIONS[layer.activation][1](z)
        grad = (grad * prime) @ layer.weights if batched else layer.weights.T @ (grad * prime)
    return grad


def test_mlp_gradients_reuse_the_forward_activations_bit_for_bit(rng):
    """tanh' comes from the forward pass's activation; the bits are those of
    recomputing tanh(z), on tanh, softplus, identity and mixed stacks."""
    tanh = rg.random_mlp(3, (32, 32), rng)
    mixed = rg.MLPWeights(3, (
        rg.LayerSpec(rng.standard_normal((6, 3)), rng.standard_normal(6), "softplus"),
        rg.LayerSpec(rng.standard_normal((5, 6)), rng.standard_normal(5), "tanh"),
        rg.LayerSpec(rng.standard_normal((1, 5)), rng.standard_normal(1), "identity"),
    ))
    stacks = [
        tanh,
        rg.random_mlp(3, (8, 4), rng, activation="softplus"),
        rg.random_mlp(3, (8, 4), rng, activation="identity"),
        rg.insert_identity_layer(tanh, 1),
        mixed,
    ]
    man = rg.make_manifold("euclidean", dim=3)
    X = 3.0 * rng.standard_normal((64, 3))
    for weights in stacks:
        field = rg.MLPField(man, weights)
        assert np.array_equal(field.coord_gradients(X), _gradient_recomputing_tanh(weights, X))
        for x in X[:8]:
            assert np.array_equal(
                field.coord_gradient(man.point(x)), _gradient_recomputing_tanh(weights, x)
            )


def test_swapped_input_columns_compose_with_the_swap(rng):
    man = rg.make_manifold("euclidean", dim=3)
    weights = rg.random_mlp(3, (6,), rng)
    swapped = rg.swap_input_columns(weights, 0, 2)
    f = rg.MLPField(man, weights)
    g = rg.MLPField(man, swapped)
    swap = rg.coordinate_swap(man, 0, 2)
    for _ in range(10):
        p = man.random_point(rng)
        assert g.value(p) == pytest.approx(f.value(swap.apply(p)), abs=1e-13)


def test_combined_field_is_pointwise_linear(manifold, rng):
    f = rg.MLPField(manifold, rg.random_mlp(manifold.coord_dim, (5,), rng))
    g = rg.MLPField(manifold, rg.random_mlp(manifold.coord_dim, (4,), rng))
    combo = rg.CombinedField([2.0, -0.5], [f, g])
    for _ in range(10):
        p = manifold.random_point(rng)
        expected = 2.0 * f.value(p) - 0.5 * g.value(p)
        assert combo.value(p) == pytest.approx(expected, abs=1e-12)
        grad = 2.0 * f.coord_gradient(p) - 0.5 * g.coord_gradient(p)
        assert np.max(np.abs(combo.coord_gradient(p) - grad)) <= 1e-12


def test_linear_combination_validation(manifold, rng):
    f = rg.MLPField(manifold, rg.random_mlp(manifold.coord_dim, (3,), rng))
    with pytest.raises(rg.ParseError):
        rg.CombinedField([1.0, 2.0], [f])
    other = rg.MLPField(
        rg.make_manifold("euclidean", dim=7), rg.random_mlp(7, (3,), rng)
    )
    with pytest.raises(rg.WrongManifold):
        rg.CombinedField([1.0, 1.0], [f, other])


def test_pushforward_field_transforms_values(manifold, rng):
    field = rg.MLPField(manifold, rg.random_mlp(manifold.coord_dim, (5,), rng))
    iso = rg.random_isometry(manifold, rng)
    pushed = rg.PushforwardField(field, iso)
    for _ in range(10):
        p = manifold.random_point(rng)
        assert pushed.value(iso.apply(p)) == pytest.approx(field.value(p), abs=1e-10)
    # the moved gradient has the same length
    p = manifold.random_point(rng)
    g0 = manifold.norm(field.gradient(p))
    g1 = manifold.norm(pushed.gradient(iso.apply(p)))
    assert g1 == pytest.approx(g0, rel=1e-9, abs=1e-12)


def test_pushforward_gradients_match_the_point_loop(manifold, rng):
    """Batched pull-back, raise, push and lower against the per-point loop,
    for single and nested pushforwards and one of a combined field."""
    dim = manifold.coord_dim
    points = np.array([manifold.random_point(rng).coords for _ in range(64)])
    for _ in range(5):
        tanh = rg.MLPField(manifold, rg.random_mlp(dim, (6, 5), rng))
        softplus = rg.MLPField(manifold, rg.random_mlp(dim, (7,), rng, "softplus"))
        once = rg.PushforwardField(tanh, rg.random_isometry(manifold, rng))
        combined = rg.CombinedField([2.0, -0.5], [tanh, softplus])
        for field in (
            once,
            rg.PushforwardField(once, rg.random_isometry(manifold, rng)),
            rg.PushforwardField(combined, rg.random_isometry(manifold, rng)),
        ):
            loop = np.array([field.coord_gradient(rg.Point(x)) for x in points])
            assert_close_rel(field.coord_gradients(points), loop)


def test_mlp_serialization_roundtrip_is_bit_exact(rng):
    weights = rg.random_mlp(3, (4, 5), rng, activation="softplus")
    blob = json.loads(json.dumps(rg.mlp_to_dict(weights)))
    back = rg.mlp_from_dict(blob)
    for a, b in zip(weights.layers, back.layers):
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)
        assert a.activation == b.activation


def test_mlp_file_roundtrip(tmp_path, rng):
    weights = rg.random_mlp(2, (3,), rng)
    path = tmp_path / "net.json"
    rg.mlp_to_file(weights, path)
    back = rg.mlp_from_file(path)
    man = rg.make_manifold("euclidean", dim=2)
    f = rg.MLPField(man, weights)
    g = rg.MLPField(man, back)
    p = man.point(np.array([0.3, -1.2]))
    assert f.value(p) == g.value(p)


def test_mlp_from_dict_rejects_malformed_input():
    good_layer = {"weights": [[1.0, 2.0]], "bias": [0.0], "activation": "tanh"}
    out_layer = {"weights": [[1.0]], "bias": [0.0], "activation": "identity"}
    rg.mlp_from_dict({"input_dim": 2, "layers": [good_layer, out_layer]})
    with pytest.raises(rg.ParseError):
        rg.mlp_from_dict({"layers": [good_layer, out_layer]})  # no input_dim
    with pytest.raises(rg.ParseError):
        rg.mlp_from_dict(
            {"input_dim": 2, "layers": [{"weights": [[1.0, 2.0]], "bias": [0.0]}, out_layer]}
        )
    with pytest.raises(rg.ParseError):
        rg.mlp_from_dict({"input_dim": 2, "layers": []})
    with pytest.raises(rg.ParseError):
        rg.mlp_from_dict({"input_dim": 2, "layers": [good_layer, out_layer], "extra": 1})


@pytest.mark.parametrize(
    "key, bad", [("weights", [[1.0, float("nan")]]), ("bias", [float("inf")])]
)
def test_mlp_from_dict_rejects_non_finite_numbers(key, bad):
    layer = {"weights": [[1.0, 2.0]], "bias": [0.0], "activation": "tanh", key: bad}
    out_layer = {"weights": [[1.0]], "bias": [0.0], "activation": "identity"}
    with pytest.raises(rg.ParseError, match="must be finite"):
        rg.mlp_from_dict({"input_dim": 2, "layers": [layer, out_layer]})


def test_field_requires_matching_manifold(rng):
    man = rg.make_manifold("euclidean", dim=3)
    other = rg.make_manifold("euclidean", dim=4)
    field = rg.MLPField(man, rg.random_mlp(3, (4,), rng))
    p = other.random_point(rng)
    o = other.random_point(rng)
    with pytest.raises(rg.WrongManifold):
        rg.rig(field, other, p, o, other.orthonormal_frame(p))


def _every_field_class(man, center, rng):
    dim = man.coord_dim
    tanh = rg.MLPField(man, rg.random_mlp(dim, (6, 5), rng))
    softplus = rg.MLPField(
        man, rg.insert_identity_layer(rg.random_mlp(dim, (7,), rng, "softplus", 3.0), 1)
    )
    fields = [
        tanh,
        softplus,
        rg.AffineField(man, rng.standard_normal(dim), bias=0.3),
        rg.CoordinateField(man, dim - 1),
        rg.GaussianBumpField(man, center, width=1.3),
        rg.CombinedField([2.0, -0.5], [tanh, softplus]),
        rg.PushforwardField(tanh, rg.random_isometry(man, rng)),
    ]
    if man.kind == "half_plane2":
        fields.append(rg.LogHeightField(man))
    return fields


def test_batched_gradients_match_the_point_loop(manifold, rng):
    center = manifold.random_point(rng)
    points = np.array([manifold.random_point(rng).coords for _ in range(17)])
    if manifold.kind == "sphere2":
        # the bump is smooth away from its center's antipode only
        points = points[points @ center.coords > -0.9]
    for field in _every_field_class(manifold, center, rng):
        batched = field.coord_gradients(points)
        loop = np.array([field.coord_gradient(rg.Point(x)) for x in points])
        assert_close_rel(batched, loop)
        assert field.coord_gradients(points[:0]).shape == (0, manifold.coord_dim)


def test_row_gradients_match_central_differences(manifold, rng):
    """The independent oracle of every built-in field's one gradient formula:
    each row of ``coord_gradients`` paired with the frame vectors there
    against central differences along exponential rays."""
    center = manifold.random_point(rng)
    points = [manifold.random_point(rng) for _ in range(8)]
    if manifold.kind == "sphere2":
        # the bump is smooth away from its center's antipode only
        points = [p for p in points if p.coords @ center.coords > -0.9]
    X = np.array([p.coords for p in points])
    for field in _every_field_class(manifold, center, rng):
        rows = field.coord_gradients(X)
        assert rows.shape == X.shape
        for p, row in zip(points, rows):
            for u in manifold.orthonormal_frame(p).vectors:
                analytic = float(row @ u.components)
                fd = fd_directional(manifold, field, p, u)
                assert abs(fd - analytic) <= 1e-6 * (1.0 + abs(analytic)), type(field).__name__


class _RowAffine(rg.ScalarField):
    """A custom field that writes only ``value`` and ``coord_gradients``."""

    def __init__(self, manifold, weights):
        super().__init__(manifold)
        self.weights = np.asarray(weights, dtype=float)

    def value(self, p):
        return float(self.weights @ p.coords)

    def coord_gradients(self, X):
        return np.tile(self.weights, (len(X), 1))


def test_custom_row_field_attributes_like_the_affine_field(manifold, rng):
    """A custom field's attributions are the built-in affine field's, bit for bit."""
    weights = rng.standard_normal(manifold.coord_dim)
    custom = _RowAffine(manifold, weights)
    builtin = rg.AffineField(manifold, weights)
    p, o = manifold.random_point(rng), manifold.random_point(rng)
    frame = manifold.orthonormal_frame(p)
    mine = rg.rig(custom, manifold, p, o, frame)
    theirs = rg.rig(builtin, manifold, p, o, frame)
    assert np.array_equal(mine.attributions, theirs.attributions)
    assert mine.completeness_residual <= 1e-10
    assert np.array_equal(custom.gradient(p).components, builtin.gradient(p).components)


def test_a_field_writing_only_the_one_point_gradient_is_abstract():
    """``coord_gradient`` is the one-row case of ``coord_gradients``, which
    every field must write."""

    class OnePoint(rg.ScalarField):
        def value(self, p):
            return 0.0

        def coord_gradient(self, p):
            return np.zeros(self.manifold.coord_dim)

    with pytest.raises(TypeError):
        OnePoint(rg.make_manifold("euclidean", dim=2))


def test_builtin_fields_write_one_gradient_formula():
    """Every built-in field defines ``coord_gradients`` and no scalar twin."""
    builtins = [
        cls for cls in vars(rg.fields).values()
        if isinstance(cls, type) and issubclass(cls, rg.ScalarField)
        and cls.__module__ == "rigrad.fields" and not cls.__name__.startswith("_")
        and cls is not rg.ScalarField
    ]
    assert len(builtins) == 7
    for cls in builtins:
        assert "coord_gradients" in cls.__dict__, cls.__name__
        assert "coord_gradient" not in cls.__dict__, cls.__name__
        assert "gradient" not in cls.__dict__, cls.__name__
    assert not hasattr(rg.fields, "GradientFirstField")


def validated_random_mlp(input_dim, hidden, rng, activation="tanh", scale=1.0):
    """random_mlp's draws, each layer built through the public constructor."""
    widths = [input_dim, *hidden, 1]
    layers = []
    for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
        w = rng.standard_normal((fan_out, fan_in)) * scale / np.sqrt(fan_in)
        b = rng.standard_normal(fan_out) * 0.1
        layers.append(rg.LayerSpec(w, b, activation if i < len(widths) - 2 else "identity"))
    return rg.MLPWeights(input_dim, tuple(layers))


@pytest.mark.parametrize("hidden", [(), (1,), (6, 5), (16, 2, 9)])
@pytest.mark.parametrize("activation", rg.fields.ACTIVATIONS)
def test_random_mlp_draws_what_the_validated_layers_hold(hidden, activation):
    for dim, scale in ((1, 1.0), (3, 2.5), (8, 0.3)):
        fast = rg.random_mlp(dim, hidden, np.random.default_rng(dim), activation, scale)
        slow = validated_random_mlp(dim, hidden, np.random.default_rng(dim), activation, scale)
        assert fast.input_dim == slow.input_dim and len(fast.layers) == len(slow.layers)
        for a, b in zip(fast.layers, slow.layers):
            assert a.activation == b.activation
            for x, y in ((a.weights, b.weights), (a.bias, b.bias)):
                assert x.dtype == y.dtype and x.shape == y.shape
                assert x.tobytes() == y.tobytes()
                assert not x.flags.writeable
                with pytest.raises(ValueError):
                    x[0] = 0.0


@pytest.mark.parametrize("kwargs, message", [
    ({"scale": math.inf}, "must be finite"),
    ({"scale": 1e308}, "must be finite"),
    ({"activation": "relu"}, "unknown activation 'relu'"),
])
def test_random_mlp_refuses_what_the_layer_constructor_refuses(kwargs, message):
    with pytest.raises(rg.ParseError, match=message):
        rg.random_mlp(3, (6, 5), np.random.default_rng(0), **kwargs)
    with pytest.raises(rg.ParseError, match=message), np.errstate(over="ignore"):
        validated_random_mlp(3, (6, 5), np.random.default_rng(0), **kwargs)
