"""``tools/check_api.py``: a class's public surface is what its users can
call on it, inherited methods included, so an override or a method
moved between a base and a subclass changes no snapshot line."""

import importlib.util
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def check_api():
    path = ROOT / "tools" / "check_api.py"
    spec = importlib.util.spec_from_file_location(path.stem, path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[path.stem] = mod
    spec.loader.exec_module(mod)
    return mod


def throwaway_module(**child_members) -> types.ModuleType:
    """A ``repro``-named module holding ``Base``, a ``Child(Base)`` with
    ``child_members`` of its own, and an exception over a builtin."""

    class Base:
        __module__ = "repro.throwaway"

        def run(self):
            return "base"

        def stop(self):
            return "base"

        @property
        def size(self):
            return 0

        def _helper(self):
            return None

    class Error(ValueError):
        __module__ = "repro.throwaway"

    module = types.ModuleType("repro.throwaway")
    module.Base = Base
    module.Child = type("Child", (Base,), {"__module__": "repro.throwaway", **child_members})
    module.Error = Error
    module.__all__ = ["Base", "Child", "Error"]
    return module


def test_inherited_methods_are_part_of_a_class_surface(check_api):
    surface = check_api.module_surface(throwaway_module())
    assert surface == [
        "Base", "Base.run", "Base.size", "Base.stop",
        "Child", "Child.run", "Child.size", "Child.stop",
        "Error",  # nothing of ValueError's: only repro classes count
    ]


def test_an_override_or_a_new_private_helper_changes_no_surface(check_api):
    plain = check_api.module_surface(throwaway_module())
    overriding = check_api.module_surface(
        throwaway_module(run=lambda self: "child", _extra=lambda self: None)
    )
    assert overriding == plain
    assert check_api.diff({"repro.throwaway": plain}, {"repro.throwaway": overriding}) == ([], [])


def test_a_new_public_method_is_still_an_addition(check_api):
    plain = check_api.module_surface(throwaway_module())
    grown = check_api.module_surface(throwaway_module(pause=lambda self: None))
    removals, additions = check_api.diff({"repro.throwaway": plain}, {"repro.throwaway": grown})
    assert removals == [] and additions == ["repro.throwaway: Child.pause"]
