"""Smooth scalar fields on manifolds, with exact first derivatives.

Every field reports both a coordinate derivative (the row of partials in the
manifold's canonical coordinates; for the sphere, of a smooth ambient
extension) and the Riemannian gradient obtained by raising it through the
metric.  A field writes ``value`` at one point and the coordinate derivative
once, over rows of points (``coord_gradients``); ``coord_gradient`` is its
one-row case.  Multilayer perceptrons are the main test subjects; a few
analytic fields support the geometry checks.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, ParseError, WrongManifold, _integer, _read_json
from .manifolds import Manifold, Point, TangentVector
from .manifolds.base import float_squares

ACTIVATIONS = ("identity", "tanh", "softplus")


def _same_space(a: Manifold, b: Manifold) -> bool:
    return a.kind == b.kind and a.dim == b.dim


def require_same_space(field: "ScalarField", manifold: Manifold) -> None:
    if not _same_space(field.manifold, manifold):
        raise WrongManifold(
            f"field lives on {field.manifold.kind}(dim={field.manifold.dim}), "
            f"not on {manifold.kind}(dim={manifold.dim})"
        )


class ScalarField(ABC):
    """A smooth real-valued function on a fixed manifold."""

    def __init__(self, manifold: Manifold):
        self.manifold = manifold

    @abstractmethod
    def value(self, p: Point) -> float:
        ...

    @abstractmethod
    def coord_gradients(self, X: np.ndarray) -> np.ndarray:
        """Partial derivatives in canonical coordinates at each row of ``X``
        (K, coord_dim); returns (K, coord_dim)."""

    def coord_gradient(self, p: Point) -> np.ndarray:
        """The one-row case of ``coord_gradients``, shape (coord_dim,)."""
        return self.coord_gradients(p.coords[None, :])[0]

    def gradient(self, p: Point) -> TangentVector:
        """Riemannian gradient at ``p``."""
        return self.manifold.raise_gradient(p, self.coord_gradient(p))

    def differential(self, u: TangentVector) -> float:
        """Directional derivative along the tangent vector ``u``."""
        return float(self.coord_gradient(u.base) @ u.components)


class CoordinateField(ScalarField):
    """F(p) = p[index]; on the sphere this is an ambient height function."""

    def __init__(self, manifold: Manifold, index: int):
        super().__init__(manifold)
        _integer(index, "coordinate index", DimensionMismatch)
        if not 0 <= index < manifold.coord_dim:
            raise DimensionMismatch(
                f"coordinate index {index} out of range for coord_dim {manifold.coord_dim}"
            )
        self.index = index

    def value(self, p: Point) -> float:
        return float(p.coords[self.index])

    def coord_gradients(self, X: np.ndarray) -> np.ndarray:
        out = np.zeros((len(X), self.manifold.coord_dim))
        out[:, self.index] = 1.0
        return out


class AffineField(ScalarField):
    """F(p) = weights . p + bias in canonical coordinates."""

    def __init__(self, manifold: Manifold, weights, bias: float = 0.0):
        super().__init__(manifold)
        self.weights = np.asarray(weights, dtype=float)
        if self.weights.shape != (manifold.coord_dim,):
            raise DimensionMismatch(
                f"weights shape {self.weights.shape} does not match "
                f"coord_dim {manifold.coord_dim}"
            )
        self.bias = float(bias)

    def value(self, p: Point) -> float:
        return float(self.weights @ p.coords + self.bias)

    def coord_gradients(self, X: np.ndarray) -> np.ndarray:
        return np.tile(self.weights, (len(X), 1))


class LogHeightField(ScalarField):
    """F(x, y) = log y on the half-plane; its gradient has constant norm 1."""

    def __init__(self, manifold: Manifold):
        if manifold.kind != "half_plane2":
            raise WrongManifold("LogHeightField is defined on the half-plane only")
        super().__init__(manifold)

    def value(self, p: Point) -> float:
        return float(np.log(p.coords[1]))

    def coord_gradients(self, X: np.ndarray) -> np.ndarray:
        return np.stack([np.zeros(len(X)), 1.0 / X[:, 1]], axis=1)


class GaussianBumpField(ScalarField):
    """F(p) = exp(-d(p, center)^2 / (2 width^2)).

    Smooth wherever the squared distance to the center is (everywhere except
    the center's cut locus, which callers must stay away from).
    """

    def __init__(self, manifold: Manifold, center: Point, width: float = 1.0):
        super().__init__(manifold)
        self.center = manifold.validate_point(center)
        if not width > 0:  # refuses NaN too
            raise ValueError("width must be positive")
        self.width = float(width)

    def value(self, p: Point) -> float:
        d = self.manifold.dist(p, self.center)
        return float(np.exp(-0.5 * (d / self.width) ** 2))

    def coord_gradients(self, X: np.ndarray) -> np.ndarray:
        """The raised gradient (F / width^2) log_p(center) at each row, from one
        ``unique_log_rows`` call, lowered in one call; F is ``value``'s, bit for bit."""
        L, d = self.manifold.unique_log_rows(X, self.center.coords)
        F = np.exp(-0.5 * float_squares(d / self.width))
        return self.manifold.lower(X, L * (F / self.width**2)[:, None])


@dataclass(frozen=True)
class LayerSpec:
    """One dense layer: out = activation(weights @ x + bias)."""

    weights: np.ndarray
    bias: np.ndarray
    activation: str

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        b = np.array(self.bias, dtype=float)
        if w.ndim != 2:
            raise ParseError(f"layer weights must be a matrix, got ndim {w.ndim}")
        if b.shape != (w.shape[0],):
            raise ParseError(
                f"bias shape {b.shape} does not match weight rows {w.shape[0]}"
            )
        self._store(w, b, np.isfinite(b).all())

    @classmethod
    def _fresh(cls, weights: np.ndarray, bias: np.ndarray, activation: str) -> "LayerSpec":
        """A layer that keeps the float arrays of matching shapes its caller
        has just made, instead of copying and re-checking them; the bias, a
        scaled normal draw, is finite."""
        layer = object.__new__(cls)
        object.__setattr__(layer, "activation", activation)
        layer._store(weights, bias, True)
        return layer

    def _store(self, w: np.ndarray, b: np.ndarray, bias_finite: bool) -> None:
        """Freeze and keep the arrays once the values and activation pass."""
        if not (np.isfinite(w).all() and bias_finite):
            raise ParseError("layer weights and bias must be finite")
        if self.activation not in ACTIVATIONS:
            raise ParseError(
                f"unknown activation {self.activation!r}; expected one of {ACTIVATIONS}"
            )
        w.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)


@dataclass(frozen=True)
class MLPWeights:
    """A fully-connected network mapping coord_dim inputs to one output."""

    input_dim: int
    layers: tuple[LayerSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if not self.layers:
            raise ParseError("network needs at least one layer")
        fan_in = self.input_dim
        for i, layer in enumerate(self.layers):
            if layer.weights.shape[1] != fan_in:
                raise ParseError(
                    f"layer {i} expects {layer.weights.shape[1]} inputs, got {fan_in}"
                )
            fan_in = layer.weights.shape[0]
        if fan_in != 1:
            raise ParseError(f"final layer must produce 1 output, got {fan_in}")


def _act(name: str, z: np.ndarray) -> np.ndarray:
    if name == "identity":
        return z
    if name == "tanh":
        return np.tanh(z)
    return np.logaddexp(0.0, z)  # softplus


def _act_prime(name: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Derivative at ``z``, where ``a`` is ``_act(name, z)``; tanh's reuses ``a``."""
    if name == "identity":
        return np.ones_like(z)
    if name == "tanh":
        return 1.0 - a**2
    # logistic sigmoid, stable on both tails
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class MLPField(ScalarField):
    """Scalar field computed by a small dense network on canonical coordinates."""

    def __init__(self, manifold: Manifold, weights: MLPWeights):
        super().__init__(manifold)
        if weights.input_dim != manifold.coord_dim:
            raise DimensionMismatch(
                f"network expects {weights.input_dim} inputs; manifold "
                f"coordinates have {manifold.coord_dim}"
            )
        self.weights = weights

    def value(self, p: Point) -> float:
        a = p.coords
        for layer in self.weights.layers:
            a = _act(layer.activation, layer.weights @ a + layer.bias)
        return float(a[0])

    def coord_gradients(self, X: np.ndarray) -> np.ndarray:
        """One forward and backward pass over all rows of ``X`` at once."""
        seen = []
        a = np.asarray(X, dtype=float)
        for layer in self.weights.layers:
            z = a @ layer.weights.T + layer.bias
            a = _act(layer.activation, z)
            seen.append((z, a))
        # the output layer's act'(z) (K, 1) times its weights (1, h) starts the pass
        *hidden, last = self.weights.layers
        z, a = seen.pop()
        grad = _act_prime(last.activation, z, a) * last.weights
        for layer, (z, a) in zip(reversed(hidden), reversed(seen)):
            grad = (grad * _act_prime(layer.activation, z, a)) @ layer.weights
        return grad


class CombinedField(ScalarField):
    """A fixed linear combination of fields on one manifold."""

    def __init__(self, coefficients: Sequence[float], fields: Sequence[ScalarField]):
        if len(coefficients) != len(fields) or not fields:
            raise ParseError("need one coefficient per field, and at least one field")
        base = fields[0].manifold
        for f in fields[1:]:
            require_same_space(f, base)
        super().__init__(base)
        self.coefficients = tuple(float(c) for c in coefficients)
        self.fields = tuple(fields)

    def value(self, p: Point) -> float:
        return sum(c * f.value(p) for c, f in zip(self.coefficients, self.fields))

    def coord_gradients(self, X: np.ndarray) -> np.ndarray:
        out = np.zeros((len(X), self.manifold.coord_dim))
        for c, f in zip(self.coefficients, self.fields):
            out += c * f.coord_gradients(X)
        return out


class PushforwardField(ScalarField):
    """The field F composed with the inverse of an isometry.

    Gradients push forward through the map's differential, which is what
    makes invariance checks cheap and exact.  ``coord_gradients`` does so for
    all rows at once, through the isometry's row methods.
    """

    def __init__(self, field: ScalarField, isometry):
        require_same_space(field, isometry.manifold)
        super().__init__(isometry.manifold)
        self.field = field
        self.isometry = isometry
        self._inverse = isometry.inverse()

    def value(self, p: Point) -> float:
        return self.field.value(self._inverse.apply(p))

    def coord_gradients(self, X: np.ndarray) -> np.ndarray:
        """Pull the rows back, raise the member's gradients there, push them
        forward through the differential and lower them, one call each."""
        Q = self._inverse.apply_rows(X)
        raised = self.manifold.raise_gradients(Q, self.field.coord_gradients(Q))
        return self.manifold.lower(X, self.isometry.differential_rows(Q, raised))


# -- network construction and serialization --------------------------------


def random_mlp(
    input_dim: int,
    hidden: Sequence[int],
    rng: np.random.Generator,
    activation: str = "tanh",
    scale: float = 1.0,
) -> MLPWeights:
    """Randomly initialised network with the given hidden widths."""
    widths = [input_dim, *hidden, 1]
    layers = []
    with np.errstate(over="ignore"):  # weights that overflow raise ParseError
        for i in range(len(widths) - 1):
            fan_in, fan_out = widths[i], widths[i + 1]
            w = rng.standard_normal((fan_out, fan_in)) * scale / np.sqrt(fan_in)
            b = rng.standard_normal(fan_out) * 0.1
            act = activation if i < len(widths) - 2 else "identity"
            layers.append(LayerSpec._fresh(w, b, act))
    return MLPWeights(input_dim, tuple(layers))


def permute_hidden_units(weights: MLPWeights, layer: int, permutation) -> MLPWeights:
    """Reorder the outputs of one hidden layer; the function is unchanged."""
    perm = np.asarray(permutation, dtype=int)
    layers = list(weights.layers)
    if not 0 <= layer < len(layers) - 1:
        raise ValueError("can only permute a hidden layer")
    here = layers[layer]
    if perm.shape != (here.weights.shape[0],) or sorted(perm) != list(range(len(perm))):
        raise ValueError("permutation must reorder the layer's output units")
    layers[layer] = LayerSpec(here.weights[perm], here.bias[perm], here.activation)
    after = layers[layer + 1]
    layers[layer + 1] = LayerSpec(
        after.weights[:, perm], after.bias, after.activation
    )
    return MLPWeights(weights.input_dim, tuple(layers))


def insert_identity_layer(weights: MLPWeights, position: int) -> MLPWeights:
    """Insert a pass-through layer; the architecture changes, the function not."""
    layers = list(weights.layers)
    if not 0 <= position <= len(layers):
        raise ValueError("position out of range")
    width = weights.input_dim if position == 0 else layers[position - 1].weights.shape[0]
    layers.insert(position, LayerSpec(np.eye(width), np.zeros(width), "identity"))
    return MLPWeights(weights.input_dim, tuple(layers))


def swap_input_columns(weights: MLPWeights, i: int, j: int) -> MLPWeights:
    """Network computing F(swap_ij(x)): exchange two first-layer columns."""
    first = weights.layers[0]
    cols = list(range(first.weights.shape[1]))
    cols[i], cols[j] = cols[j], cols[i]
    swapped = LayerSpec(first.weights[:, cols], first.bias, first.activation)
    return MLPWeights(weights.input_dim, (swapped, *weights.layers[1:]))


def mlp_to_dict(weights: MLPWeights) -> dict:
    return {
        "input_dim": weights.input_dim,
        "layers": [
            {
                "weights": layer.weights.tolist(),
                "bias": layer.bias.tolist(),
                "activation": layer.activation,
            }
            for layer in weights.layers
        ],
    }


def mlp_from_dict(data: dict) -> MLPWeights:
    if not isinstance(data, dict):
        raise ParseError("network document must be a JSON object")
    unknown = set(data) - {"input_dim", "layers"}
    if unknown:
        raise ParseError(f"unknown network keys: {sorted(unknown)}")
    if "input_dim" not in data or "layers" not in data:
        raise ParseError("network document needs 'input_dim' and 'layers'")
    input_dim = _integer(data["input_dim"], "input_dim")
    if input_dim < 1:
        raise ParseError(f"input_dim must be a positive integer, got {input_dim!r}")
    if not isinstance(data["layers"], list) or not data["layers"]:
        raise ParseError("'layers' must be a non-empty list")
    layers = []
    for i, entry in enumerate(data["layers"]):
        if not isinstance(entry, dict):
            raise ParseError(f"layer {i} must be an object")
        extra = set(entry) - {"weights", "bias", "activation"}
        if extra:
            raise ParseError(f"layer {i} has unknown keys: {sorted(extra)}")
        missing = {"weights", "bias", "activation"} - set(entry)
        if missing:
            raise ParseError(f"layer {i} is missing {sorted(missing)}")
        try:
            layers.append(
                LayerSpec(
                    np.array(entry["weights"], dtype=float),
                    np.array(entry["bias"], dtype=float),
                    entry["activation"],
                )
            )
        except (TypeError, ValueError) as exc:
            raise ParseError(f"layer {i} is malformed: {exc}") from exc
    return MLPWeights(input_dim, tuple(layers))


def mlp_from_file(path: str | Path) -> MLPWeights:
    return mlp_from_dict(_read_json(path, f"network file {path}"))


def mlp_to_file(weights: MLPWeights, path: str | Path) -> None:
    Path(path).write_text(json.dumps(mlp_to_dict(weights), indent=2) + "\n")
