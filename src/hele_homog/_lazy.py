"""SciPy names imported on first use.

Importing SciPy's subpackages takes most of a process's start-up, and most
commands never call them. ``name = lazy("scipy.pkg", "name")`` binds a stub
as a module attribute; its first call imports the real object, and every
call forwards to it. The attribute itself is never rebound, so a test may
patch it like any other attribute, and the bench tracer finds every binding
of the package unchanged after a pass.
"""

from __future__ import annotations

import importlib


def lazy(module: str, name: str):
    """A stub that imports `module.name` on its first call and forwards every
    call to it; once imported, the real object is the stub's __wrapped__."""

    def stub(*args, **kwargs):
        try:
            real = stub.__wrapped__
        except AttributeError:
            real = stub.__wrapped__ = getattr(importlib.import_module(module), name)
        return real(*args, **kwargs)

    stub.__name__ = stub.__qualname__ = name
    stub.__doc__ = f"{module}.{name}, imported on first call."
    return stub
