"""Exception hierarchy shared across the package."""

import json
import numbers
from pathlib import Path


class RigradError(Exception):
    """Base class for all rigrad-specific errors."""


class InvalidPoint(RigradError):
    """Coordinates do not describe a valid point of the manifold."""


class InvalidTangent(RigradError):
    """Components do not describe a tangent vector at the given base point."""


class InvalidCurve(RigradError):
    """Curve violates a precondition (e.g. vanishing velocity)."""


class InvalidIsometry(RigradError):
    """Isometry parameters fail their normalization constraints."""


class CutLocusAmbiguity(RigradError):
    """The length-minimising geodesic between the two points is not unique."""


class DimensionMismatch(RigradError):
    """Operand dimensions are incompatible."""


class ParseError(RigradError):
    """A configuration or weights document is malformed."""


def _read_json(path, label: str):
    """The JSON document in the file at ``path``, named ``label`` in the
    ParseError raised when it cannot be read or parsed."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ParseError(f"cannot read {label}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{label} is not valid JSON: {exc}") from exc


def _integer(value, name: str, error: type[Exception] = ParseError):
    """``value`` when it is an integer and not a bool; otherwise raises
    ``error`` naming ``name``, so 2.5, True and "5" never pass as sizes."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    return value


def _real(value, name: str):
    """``value`` when it is a real number and not a bool, else ParseError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ParseError(f"{name} must be a real number, got {value!r}")
    return value


class WrongManifold(RigradError):
    """Operation is only defined on a different manifold kind."""


class QuadratureNotConverged(RigradError):
    """Node-doubling refinement exhausted max_nodes without meeting tol."""


class TransportNotConverged(RigradError):
    """RK4 step doubling reached its step cap without meeting its tolerance."""


class NonFiniteValue(RigradError):
    """A computation produced NaN or infinite values from finite inputs."""


class EigenSolverFailure(RigradError):
    """Symmetric eigendecomposition did not converge."""
