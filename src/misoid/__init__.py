"""Distributed recursive identification of MISO FIR systems.

Library layout:

- ``fir``: FIR modules, regressor banks, system files
- ``central``: batch LSE and central recursive LSE (sigma- and gamma-driven)
- ``distributed``: local nodes, fusion center, round-synchronous protocol
- ``lyapunov``: decrease monitor for the error dynamics (oracle mode)
- ``experiment``: seeded systems/signals, side-by-side runs, CSV output
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
from .fir import (
    FirModule,
    MisoSystem,
    RegressorBank,
    load_system,
    push_inputs,
    save_system,
)

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
