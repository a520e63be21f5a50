"""MISO FIR systems, regressor windows and system files.

A system is a bank of FIR modules, each a finite polynomial in the delay
operator.  The regressor of module i is the window of its ``n_i`` most
recent input samples, newest first, so that the module output is a plain
dot product between the window and the coefficient vector.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError


@dataclass(frozen=True)
class FirModule:
    """One FIR subsystem: coefficients (b_0, ..., b_{n-1}), newest tap first."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 1 or c.size < 1:
            raise ParameterError("FIR module needs at least one coefficient")
        if not np.all(np.isfinite(c)):
            raise ParameterError("FIR coefficients must be finite")
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self) -> int:
        return self.coeffs.size


@dataclass(frozen=True)
class MisoSystem:
    """m FIR modules feeding one summed output with additive noise."""

    modules: tuple[FirModule, ...]

    def __post_init__(self):
        mods = tuple(self.modules)
        if len(mods) < 1:
            raise ParameterError("a MISO system needs at least one module")
        object.__setattr__(self, "modules", mods)

    @property
    def m(self) -> int:
        return len(self.modules)

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(mod.order for mod in self.modules)

    @property
    def n(self) -> int:
        return sum(self.orders)

    def theta_true(self) -> np.ndarray:
        """Stacked true parameter vector."""
        return np.concatenate([mod.coeffs for mod in self.modules])


def block_offsets(orders) -> np.ndarray:
    """Offsets (m+1,) of the modules' blocks in the stacked parameter vector."""
    return np.concatenate([[0], np.cumsum(orders)]).astype(np.int64)


def packed_layout(offsets):
    """(m, p) mask of the real entries of the packed per-node layout, p the largest
    order, and their stacked columns, 0 on padding: rows[:, cols] packs as (b, m, p)."""
    orders = np.diff(offsets)
    real = np.arange(orders.max()) < orders[:, None]
    return real, np.where(real, np.asarray(offsets)[:-1, None] + np.arange(real.shape[1]), 0)


@dataclass(frozen=True)
class RegressorBank:
    """Per-module sliding input windows, newest sample first.

    Samples before the first push are taken to be zero.
    """

    windows: tuple[np.ndarray, ...]

    @classmethod
    def zeros(cls, orders) -> "RegressorBank":
        return cls(tuple(np.zeros(ni) for ni in orders))

    @classmethod
    def for_system(cls, system: MisoSystem) -> "RegressorBank":
        return cls.zeros(system.orders)

    @property
    def m(self) -> int:
        return len(self.windows)

    def stacked(self) -> np.ndarray:
        """The stacked regressor: all windows concatenated in module order."""
        return np.concatenate(self.windows)


def push_inputs(bank: RegressorBank, u) -> RegressorBank:
    """Shift every window one step and insert the new samples u[i] in front."""
    u = np.asarray(u, dtype=float)
    if u.shape != (bank.m,):
        raise DimensionError(
            f"expected {bank.m} input samples, got shape {u.shape}"
        )
    if not np.all(np.isfinite(u)):
        raise ParameterError("input samples must be finite")
    new_windows = []
    for ui, w in zip(u, bank.windows):
        shifted = np.empty_like(w)
        shifted[0] = ui
        shifted[1:] = w[:-1]
        new_windows.append(shifted)
    return RegressorBank(tuple(new_windows))


def save_system(system: MisoSystem, path):
    """Write a system file: {"modules": [[b0, ...], ...]}."""
    doc = {"modules": [mod.coeffs.tolist() for mod in system.modules]}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_system(path) -> MisoSystem:
    """Read a system file's modules; a malformed one raises ParameterError naming the path."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        system = MisoSystem(tuple(FirModule(np.asarray(c, dtype=float)) for c in doc["modules"]))
        # numpy also converts numeric strings and booleans; the modules are flat lists here
        bad = next((x for c in doc["modules"] for x in c if type(x) not in (int, float)), None)
        if bad is not None:
            raise ParameterError(f"coefficient {bad!r} is not a JSON number")
        return system
    except (ValueError, TypeError, KeyError, OverflowError, RecursionError,
            ParameterError) as exc:
        raise ParameterError(f"{path}: not a valid system file ({exc!r})") from None
