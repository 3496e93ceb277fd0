"""Exact Halton sequences and the diaphony of point sets over p-adic
function systems: closed-form kernel evaluation, truncated spectral sums
with rigorous tails, worst-case integration error, and sequence bounds.

``import padiaphony`` loads no submodule.  The first public name asked
for (PEP 562 ``__getattr__``), ``dir(padiaphony)`` or a star import loads
every module and binds the exports of each: its ``__all__``, or for
``errors``, which has none, the exception classes it defines.  A CLI run
therefore loads only the modules of its command (see ``cli``).
"""

__version__ = "0.1.0"

_MODULES = ("core", "diaphony", "errors", "halton", "kernel", "padic", "weights")


def _exports() -> list[str]:
    """Import every module, bind each one's exports here, and return their names."""
    names = []
    for name in _MODULES:
        # binds the submodule here; an import statement's machinery, not
        # importlib's, so that -X importtime lists it
        __import__(f"{__name__}.{name}")
        module = globals()[name]
        exports = getattr(module, "__all__", None)
        if exports is None:
            exports = [n for n, v in vars(module).items()
                       if isinstance(v, type) and v.__module__ == module.__name__]
        for attr in exports:
            globals()[attr] = getattr(module, attr)
        names += exports
    globals()["__all__"] = names
    return names


def __getattr__(name: str):
    # the exports are bound once: a later miss must not rebind a name
    # that a caller has replaced since
    if "__all__" not in globals() and (name == "__all__" or not name.startswith("_")):
        _exports()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(globals().get("__all__") or _exports())
