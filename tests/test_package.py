import importlib
import types

import turanlag

# by module path: the attribute turanlag.lagrangian is the function
MODULES = [importlib.import_module(f"turanlag.{name}") for name in
           ("hypergraph", "constructions", "lagrangian", "symmetrization", "extremal", "hgio")]


def test_package_namespace_is_the_union_of_the_module_apis():
    declared = [name for mod in MODULES for name in mod.__all__]
    # a name in two lists would be shadowed silently by the later star import
    assert len(declared) == len(set(declared))
    public = {name for name, obj in vars(turanlag).items()
              if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert public == set(declared)
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(turanlag, name) is getattr(mod, name), name


def test_lagrangian_module_is_reached_through_importlib():
    module = importlib.import_module("turanlag.lagrangian")
    assert isinstance(module, types.ModuleType)
    assert turanlag.lagrangian is module.lagrangian
