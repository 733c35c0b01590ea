"""The library's settable values, counted by one written-down rule.

A settable value is a keyword parameter of a public function or method in
``src/vrkit`` (one with a default, or keyword-only), or an init field of a
public dataclass.  A public class that is not a dataclass counts its
``__init__`` by the parameter rule.  Public means a name without a leading
underscore, defined in the module that holds it.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import vrkit

# Change only together with the settings that move it.
SETTABLE_VALUES = 94


def _keyword_parameters(qualname: str, function) -> list[str]:
    function = getattr(function, "__func__", function)  # staticmethod, classmethod
    if not inspect.isfunction(function):
        return []
    return [f"{qualname}({p.name})" for p in inspect.signature(function).parameters.values()
            if p.default is not p.empty or p.kind is p.KEYWORD_ONLY]


def settable_values() -> list[str]:
    found = []
    for info in pkgutil.iter_modules(vrkit.__path__):
        module = importlib.import_module(f"vrkit.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            qualname = f"{module.__name__}.{name}"
            if inspect.isfunction(obj):
                found += _keyword_parameters(qualname, obj)
            elif inspect.isclass(obj):
                if dataclasses.is_dataclass(obj):
                    found += [f"{qualname}.{f.name}" for f in dataclasses.fields(obj) if f.init]
                else:
                    found += _keyword_parameters(f"{qualname}.__init__", obj.__init__)
                for method, function in vars(obj).items():
                    if not method.startswith("_"):
                        found += _keyword_parameters(f"{qualname}.{method}", function)
    return found


def test_settable_value_count():
    found = settable_values()
    assert len(found) == SETTABLE_VALUES, "\n".join(
        [f"{len(found)} settable values, stated {SETTABLE_VALUES}:", *found])

