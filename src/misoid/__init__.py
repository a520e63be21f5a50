"""Distributed recursive identification of MISO FIR systems.

Library layout:

- ``fir``: FIR modules, regressor banks, system files
- ``central``: batch LSE and central recursive LSE (sigma- and gamma-driven)
- ``distributed``: local nodes, fusion center, round-synchronous protocol
- ``lyapunov``: decrease monitor for the error dynamics (oracle mode)
- ``experiment``: seeded systems/signals, side-by-side runs, CSV output
- ``csvcolumns``: trajectory CSV columns and first crossings, without numpy
- ``kernels``: numpy trajectory loops, the one run path of both estimators
- ``cli``: the ``misoid`` command
"""
from .errors import (
    DimensionError,
    MisoidError,
    NumericError,
    ParameterError,
    ProtocolError,
    SingularMatrixError,
)


def __getattr__(name):
    # the names of __all__ not bound above are fir's: fir, and numpy with it,
    # load on first use, so ``misoid compare``, which needs neither, starts without them
    if name in __all__:
        from . import fir

        return getattr(fir, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DimensionError",
    "FirModule",
    "MisoidError",
    "MisoSystem",
    "NumericError",
    "ParameterError",
    "ProtocolError",
    "RegressorBank",
    "SingularMatrixError",
    "load_system",
    "push_inputs",
    "save_system",
]
