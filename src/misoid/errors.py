"""Exception hierarchy shared by all misoid modules, the scale and alpha rules."""
import math


class MisoidError(Exception):
    """Base class for all errors raised by misoid."""


class DimensionError(MisoidError):
    """Vector/matrix shapes do not line up."""


class ParameterError(MisoidError):
    """A scalar parameter is outside its admissible range."""


class SingularMatrixError(MisoidError):
    """A matrix that must be inverted is (numerically) singular."""


class NumericError(MisoidError):
    """A non-finite value or impossible division showed up mid-update."""


class ProtocolError(MisoidError):
    """A fusion round received a malformed set of node messages."""


def check_scale(name: str, value: float, zero_ok: bool = False):
    """Reject NaN, infinities, negatives and values whose square or its
    reciprocal is not finite.

    gamma^2 and sigma^2 enter the recursions, 1/gamma^2 is the information
    weight, and c and its reciprocal are the initial gain and information,
    so each scale keeps both v^2 and 1/v^2 positive finite floats; only
    noise_std may be exactly 0.
    """
    square = float(value) * float(value) if value > 0 else 0.0
    if not ((zero_ok and value == 0) or (0 < square < math.inf and 1.0 / square < math.inf)):
        need = f"{name} >= 0 and, unless it is 0," if zero_ok else f"{name} > 0 and"
        raise ParameterError(f"{name}={value!r} is out of range: "
                             f"need {need} 0 < {name}^2 < inf and 1/{name}^2 < inf")


def check_denominator(denom: float, step: int | None = None):
    """Reject an alpha denominator sigma^2 + phi' Sigma phi that is not a
    positive finite number, naming the step when one is given; both kernels
    and both protocol layers fail through this one rule."""
    if not 0.0 < denom < math.inf:
        where = "" if step is None else f"step {step}: "
        raise NumericError(f"{where}alpha denominator sigma^2 + phi' Sigma phi = "
                           f"{float(denom)!r} is not a positive finite number")
