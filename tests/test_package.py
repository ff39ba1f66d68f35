"""The public interface: each module's ``__all__``, republished by the package."""

import hqperc
from hqperc import bootstrap, bounds, constructions, hypercube, meta

MODULES = (bootstrap, bounds, constructions, hypercube, meta)


def test_each_module_all_names_its_own_attributes():
    for module in MODULES:
        assert module.__all__, module.__name__
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
            assert getattr(hqperc, name) is getattr(module, name), name


def test_package_all_is_the_module_lists_in_order():
    names = [name for module in MODULES for name in module.__all__]
    assert hqperc.__all__ == names
    assert len(set(names)) == len(names) == 54


def test_star_imports_bind_exactly_all():
    for module in (hqperc, *MODULES):
        namespace = {}
        exec(f"from {module.__name__} import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(module.__all__), module.__name__
