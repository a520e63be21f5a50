"""Distributed recursive estimator: local nodes, fusion center, rounds.

Each identification node owns the estimate and gain matrix of one FIR
module.  Per round every node sends two scalars upstream (its local
prediction and its local gain scalar), the fusion center broadcasts two
scalars back (the shared prediction error and the shared gain alpha), and
all nodes then update simultaneously from their pre-round state.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (DimensionError, NumericError, ParameterError, ProtocolError,
                     check_denominator, check_scale)
from .fir import RegressorBank, block_offsets


@dataclass(frozen=True)
class NodeState:
    """Local estimator of one module: estimate, gain matrix, inverse, gamma."""

    index: int
    theta_hat: np.ndarray
    sigma: np.ndarray
    info: np.ndarray
    gamma: float

    def __post_init__(self):
        check_scale(f"gamma[{self.index}]", self.gamma)

    @property
    def order(self) -> int:
        return self.theta_hat.size


@dataclass(frozen=True)
class FusionCenter:
    """Static fusion element: aggregates scalars, owns the noise variance."""

    noise_var: float
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ParameterError("fusion center needs m >= 1 nodes")
        if not 0 <= self.noise_var < np.inf:
            raise ParameterError("noise_var must be finite and >= 0")


@dataclass(frozen=True)
class RoundMessageUp:
    """Upstream message of one node: exactly two scalars."""

    index: int
    local_prediction: float
    local_gain_scalar: float


@dataclass(frozen=True)
class RoundMessageDown:
    """Broadcast reply of the fusion center: exactly two scalars."""

    prediction_error: float
    alpha: float


@dataclass(frozen=True)
class RoundTrace:
    """Record of one round: both message directions plus the applied y."""

    k: int
    y: float
    ups: tuple[RoundMessageUp, ...]
    down: RoundMessageDown

    @property
    def upstream_scalars(self) -> int:
        return 2 * len(self.ups)

    @property
    def downstream_scalars(self) -> int:
        return 2


@dataclass(frozen=True)
class BlockState:
    """Stacked view of all nodes: theta_B, block-diagonal Sigma_B and friends."""

    theta: np.ndarray
    sigma_b: np.ndarray
    info_b: np.ndarray
    gammas: np.ndarray
    offsets: np.ndarray  # length m+1, block i spans offsets[i]:offsets[i+1]

    @property
    def m(self) -> int:
        return self.gammas.size

    @property
    def n(self) -> int:
        return self.theta.size


def init_nodes(orders, c: float, gamma: float) -> list[NodeState]:
    """Zero estimates with gain c*I per node and a common constant gamma."""
    check_scale("c", c)
    return [
        NodeState(
            index=i,
            theta_hat=np.zeros(ni),
            sigma=c * np.eye(ni),
            info=(1.0 / c) * np.eye(ni),
            gamma=float(gamma),
        )
        for i, ni in enumerate(orders)
    ]


def local_prediction(node: NodeState, phi_i) -> float:
    phi_i = np.asarray(phi_i, dtype=float)
    if phi_i.shape != (node.order,):
        raise DimensionError(
            f"node {node.index}: regressor shape {phi_i.shape}, expected ({node.order},)"
        )
    return float(phi_i @ node.theta_hat)


def node_message(node: NodeState, phi_i) -> RoundMessageUp:
    """Step (i): the two scalars a node sends to the fusion center."""
    phi_i = np.asarray(phi_i, dtype=float)
    pred = local_prediction(node, phi_i)
    gain = float(phi_i @ node.sigma @ phi_i)
    return RoundMessageUp(node.index, pred, gain)


def fuse(center: FusionCenter, y: float, ups) -> RoundMessageDown:
    """Step (ii): form the shared prediction error and shared gain alpha."""
    seen = sorted(msg.index for msg in ups)
    if seen != list(range(center.m)):
        expected = set(range(center.m))
        got = [msg.index for msg in ups]
        missing = sorted(expected - set(got))
        dupes = sorted({i for i in got if got.count(i) > 1})
        raise ProtocolError(
            f"bad round message set: missing nodes {missing}, duplicated {dupes}"
        )
    # fixed summation order for determinism regardless of arrival order
    by_index = sorted(ups, key=lambda msg: msg.index)
    eps = float(y) - sum(msg.local_prediction for msg in by_index)
    denom = center.noise_var + sum(msg.local_gain_scalar for msg in by_index)
    check_denominator(denom)
    return RoundMessageDown(prediction_error=eps, alpha=1.0 / denom)


def local_update(node: NodeState, phi_i, down: RoundMessageDown) -> NodeState:
    """Step (iii): apply the broadcast error/gain to one node."""
    phi_i = np.asarray(phi_i, dtype=float)
    if phi_i.shape != (node.order,):
        raise DimensionError(
            f"node {node.index}: regressor shape {phi_i.shape}, expected ({node.order},)"
        )
    if down.alpha <= 0:
        raise ParameterError("broadcast alpha must be > 0")
    c = node.sigma @ phi_i
    s = float(phi_i @ c)
    theta_new = node.theta_hat + down.alpha * down.prediction_error * c
    g2 = node.gamma**2
    sigma_new = node.sigma - np.outer(c, c) / (g2 + s)
    info_new = node.info + np.outer(phi_i, phi_i) / g2
    if not (np.all(np.isfinite(theta_new)) and np.all(np.isfinite(sigma_new))):
        raise NumericError(f"node {node.index}: non-finite value in local update")
    return replace(node, theta_hat=theta_new, sigma=sigma_new, info=info_new)


def run_round(nodes, center: FusionCenter, bank: RegressorBank, y: float, k: int = 0):
    """One synchronous round over all nodes.

    Every node reads its own window from the bank, the fusion center
    aggregates, and all nodes update from their pre-round state; the node
    processing order therefore cannot influence the result.
    """
    if len(nodes) != center.m or bank.m != center.m:
        raise DimensionError(
            f"inconsistent node count: {len(nodes)} nodes, bank m={bank.m}, center m={center.m}"
        )
    ups = tuple(node_message(node, bank.windows[node.index]) for node in nodes)
    down = fuse(center, y, ups)
    new_nodes = [local_update(node, bank.windows[node.index], down) for node in nodes]
    trace = RoundTrace(k=k, y=float(y), ups=ups, down=down)
    return new_nodes, trace


def stack(nodes) -> BlockState:
    """Assemble the stacked estimate and block-diagonal matrices."""
    nodes = sorted(nodes, key=lambda nd: nd.index)
    offsets = block_offsets([node.order for node in nodes])
    n = int(offsets[-1])
    theta = np.concatenate([node.theta_hat for node in nodes])
    sigma_b = np.zeros((n, n))
    info_b = np.zeros((n, n))
    for i, node in enumerate(nodes):
        sl = slice(int(offsets[i]), int(offsets[i + 1]))
        sigma_b[sl, sl] = node.sigma
        info_b[sl, sl] = node.info
    gammas = np.array([node.gamma for node in nodes])
    return BlockState(theta=theta, sigma_b=sigma_b, info_b=info_b, gammas=gammas, offsets=offsets)

