"""Distributed recursive identification of MISO FIR systems.

The package root exports nothing and imports nothing: every name is
imported from the module that defines it, so ``import misoid`` loads no
submodule and no numpy.

Library layout:

- ``fir``: FIR modules, regressor banks, system files
- ``central``: batch LSE and central recursive LSE (sigma- and gamma-driven)
- ``distributed``: local nodes, fusion center, round-synchronous protocol
- ``lyapunov``: decrease monitor for the error dynamics (oracle mode)
- ``experiment``: seeded systems/signals, side-by-side runs, CSV output
- ``csvcolumns``: the trajectory CSV writer, and the column reader and
  first crossings, which need no numpy
- ``kernels``: numpy trajectory loops, the one run path of both estimators
- ``errors``: the exception classes and the scale rule
- ``cli``: the ``misoid`` command (``entry``, which runs ``main``)
"""
