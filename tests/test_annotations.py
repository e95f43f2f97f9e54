"""Every annotation in the package resolves at run time.

Modules that load numpy inside functions must not name `np` in an
annotation: typing.get_type_hints evaluates it in the module's globals.
"""

import importlib
import inspect
import pkgutil
import typing

import gpfree


def _defined_functions():
    """(qualified name, function) for each function and method a gpfree module defines."""
    for info in pkgutil.iter_modules(gpfree.__path__):
        mod = importlib.import_module(f"gpfree.{info.name}")
        for obj in vars(mod).values():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            members = vars(obj).values() if inspect.isclass(obj) else (obj,)
            for m in members:
                f = getattr(m, "__func__", getattr(m, "fget", m))  # static/class methods, properties
                if inspect.isfunction(f) and f.__module__ == mod.__name__:
                    yield f"{mod.__name__}.{f.__qualname__}", f


FUNCTIONS = dict(_defined_functions())


def test_walk_reaches_methods_and_numpy_kernels():
    for name in ("gpfree.process._coin_array", "gpfree.process._below_p",
                 "gpfree.gpcore.KGeoProgression.__new__", "gpfree.process.GapReport.gaps"):
        assert name in FUNCTIONS


def test_type_hints_resolve():
    unresolved = []
    for name, f in FUNCTIONS.items():
        try:
            typing.get_type_hints(f)
        except NameError as exc:
            unresolved.append(f"{name}: {exc}")
    assert unresolved == []
