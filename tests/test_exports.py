"""The export lists of the public packages."""

import inspect

import pytest

import rigrad
import rigrad.manifolds


@pytest.mark.parametrize("package", [rigrad, rigrad.manifolds], ids=lambda m: m.__name__)
def test_all_lists_exactly_the_public_names(package):
    """``__all__`` names every public non-module name the package imports,
    and nothing else; each listed name resolves."""
    public = {
        name
        for name, value in vars(package).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert len(package.__all__) == len(set(package.__all__))
    assert set(package.__all__) == public
    namespace = {}
    exec(f"from {package.__name__} import *", namespace)
    assert public <= set(namespace)
