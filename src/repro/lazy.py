"""Lazy package exports (PEP 562): a package's public names, each imported
from its defining module on first access."""

from importlib import import_module


def lazy_exports(namespace: dict, exports: dict):
    """The ``__getattr__`` and ``__dir__`` of a package whose ``exports`` map
    each exported name to its defining module; ``namespace`` is the package's
    ``globals()``, where a resolved name is kept so later reads skip the hook."""

    def __getattr__(name: str):
        try:
            module_name = exports[name]
        except KeyError:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}") from None
        value = namespace[name] = getattr(import_module(module_name), name)
        return value

    def __dir__():
        return sorted(namespace["__all__"])

    return __getattr__, __dir__
