"""Lyapunov monitor: decrease checks for the estimation error dynamics.

The monitor is an oracle-mode verification instrument: it needs the true
parameter vector, evaluates the quadratic Lyapunov function along the
estimation errors of a trajectory kernel's run, compares the direct one-step
difference against the closed-form decrease expressions, and checks the
gamma-largeness sufficiency bound for the distributed scheme.  The central
gamma-driven RLS is that scheme's one-block case, so both runs get the
same columns from the same formulas.  It is a post-pass: the gain
sequence of both recursions depends on the regressors only, and
check_trajectory takes the errors, regressors, alphas and per-block gain
scalars of a run of any length N >= 0 as they are.  W runs
CHUNK steps at a time on packed per-node information blocks, in the
kernels' layout but with a chunk length of its own; every other column is
one array expression over all steps.  The report is a record array with
one row per step, and a gamma bound that does not apply or is degenerate
is inf there and in the CSV; a W that is not finite is an error.
The single-step forms on the gain matrices that the post-pass is tested
against live with the tests; w_quadratic and delta_w_central_closed stay
here, since the benchmark and the acceptance test use them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericError, ParameterError
from .fir import packed_layout

#: steps per chunk of W's loop, apart from kernels.CHUNK: W's last bits depend on it
CHUNK = 16

#: decrease violations beyond this are flagged
VIOLATION_TOL = 1e-12
#: scale-invariant threshold for the orthogonal degenerate case
ORTHOGONAL_TOL = 1e-12
#: denominators below this make the gamma bound vacuous
DEGENERATE_DENOM_TOL = 1e-14


def w_quadratic(theta_err, info_mat) -> float:
    """Quadratic Lyapunov value err' * info * err."""
    err = np.asarray(theta_err, dtype=float)
    info = np.asarray(info_mat, dtype=float)
    if info.shape != (err.size, err.size):
        raise DimensionError(
            f"info matrix shape {info.shape} does not match error length {err.size}"
        )
    return float(err @ info @ err)


def delta_w_central_closed(theta_err, phi, sigma_mat, sigma: float) -> float:
    """Closed-form one-step decrease of the central Lyapunov function.

    Valid along the sigma-driven recursion: -(err'phi)^2 / (sigma^2 + phi'S phi).
    """
    if sigma <= 0:
        raise ParameterError("sigma must be > 0")
    err = np.asarray(theta_err, dtype=float)
    phi = np.asarray(phi, dtype=float)
    s = float(phi @ np.asarray(sigma_mat, dtype=float) @ phi)
    return -float(err @ phi) ** 2 / (sigma**2 + s)


#: each CSV header of the monitor paired with its record field
MONITOR_COLUMNS = (
    ("W", "w"),
    ("deltaW", "delta_w"),
    ("deltaW_closed", "delta_w_closed"),
    ("overline_dW", "overline_delta_w"),
    ("gamma_bound", "gamma_bound"),
    ("gamma_sum", "gamma_sum"),
    ("orthogonal_flag", "orthogonal_flag"),
    ("violation_flag", "violation_flag"),
)


@dataclass(frozen=True)
class MonitorReport:
    """Row k of records is the transition k -> k+1; fields as in MONITOR_COLUMNS."""

    records: np.recarray

    @property
    def violations(self) -> list[int]:
        return np.flatnonzero(self.records.violation_flag).tolist()

    @property
    def orthogonal_steps(self) -> list[int]:
        return np.flatnonzero(self.records.orthogonal_flag).tolist()

    @property
    def gamma_implication_ok(self) -> bool:
        """Every step where the bound certifies decrease indeed decreased."""
        r = self.records
        certified = np.isfinite(r.gamma_bound) & (r.gamma_sum < r.gamma_bound)
        return bool(np.all(r.delta_w[certified] < 0))

    def columns(self) -> dict[str, np.ndarray]:
        """The monitor's CSV columns by header."""
        return {head: self.records[name] for head, name in MONITOR_COLUMNS}


def _rowdot(a, b) -> np.ndarray:
    """a[k] @ b[k] for every row k, bit for bit as the 1-D dot."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _pow2(x) -> np.ndarray:
    """x**2 by libm pow, as the scalar x**2 of a Python float.

    numpy's x**2 is x*x, which differs from pow in the last bit on about
    one value in a thousand; pow keeps the bits of the single-step forms.
    """
    return np.float_power(x, 2)


def check_trajectory(mode: str, errors, phis, alphas, noise_var: float, init_c: float,
                     weights, offsets, gains) -> MonitorReport:
    """Evaluate the per-step Lyapunov columns along a recorded run.

    errors (N+1, n) are estimate minus truth at states 0..N, whose state 0
    has information I / init_c; phis (N, n) and alphas (N,) drove the
    steps.  Block i spans offsets[i]:offsets[i+1] and adds weights[i] phi_i
    phi_i' to the information at every step, and gains (N, m) holds its
    phi_i' Sigma_i phi_i; central RLS is the one-block case with weight
    1/gamma^2.  mode only names the run in errors.  At N = 0 the report
    has no rows.

    No gain matrix is needed: since alpha phi'Sigma phi = 1 - alpha sigma^2,
    every closed form follows from alpha, phi, the error and the per-block
    gain scalars, and W from packed per-node information blocks advanced per
    chunk.  The closed forms are those of the noise-free step.  A gamma
    bound that does not apply or is degenerate is inf.  A W that is not
    finite raises NumericError naming its first step, since no decrease
    check can read it.
    """
    n_steps = phis.shape[0]
    real, idx = packed_layout(offsets)
    info = np.eye(real.shape[1]) / init_c * np.ones((real.shape[0], 1, 1))
    w = np.empty(n_steps + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite W is named below
        w[0] = errors[0] @ errors[0] / init_c
        for k in range(0, n_steps, CHUNK):
            # W_{k+j+1} = sum_i e_i' I_i e_i + w_i sum_{l<=j} (phi_{k+l,i}' e_i)^2
            # at e = e_{k+j+1}
            e = np.where(real, errors[k + 1:k + 1 + CHUNK, idx], 0.0).transpose(1, 0, 2)
            phi = np.where(real, phis[k:k + CHUNK, idx], 0.0).transpose(1, 0, 2)
            pe = np.triu(np.matmul(phi, e.transpose(0, 2, 1)))
            quad = (np.matmul(e, info) * e).sum(axis=2) + weights[:, None] * (pe * pe).sum(axis=1)
            w[k + 1:k + 1 + CHUNK] = quad.sum(axis=0)
            info += np.matmul(weights[:, None, None] * phi.transpose(0, 2, 1), phi)
    bad = ~np.isfinite(w)
    if bad.any():
        raise NumericError(f"{mode} monitor: the Lyapunov value W is not finite at step "
                           f"{int(np.argmax(bad))}")
    errs = errors[:-1]
    proj = _rowdot(errs, phis)
    scale = np.sqrt(_rowdot(phis, phis)) * np.sqrt(_rowdot(errs, errs))
    a_sig = alphas * noise_var  # = 1 - alpha phi'Sigma phi
    odw = -alphas * _pow2(proj) * (1.0 + a_sig)
    # (phi_i'(F err)_i)^2 with F = I - alpha Sigma_B phi phi', block by block
    resid = (np.add.reduceat(errs * phis, offsets[:-1], axis=1)
             - (alphas * proj)[:, None] * gains) ** 2
    denom = resid.sum(axis=1)  # err'F' Phi_B F err
    delta_w = np.diff(w)
    cols = {
        "w": w[:-1],
        "delta_w": delta_w,
        "delta_w_closed": odw + (resid * weights).sum(axis=1),
        "overline_delta_w": odw,
        "gamma_bound": np.divide(np.abs(odw), denom, out=np.full(n_steps, np.inf),
                                 where=(odw < 0) & (denom > DEGENERATE_DENOM_TOL)),
        "gamma_sum": np.full(n_steps, float(np.sum(weights))),  # sum of 1/gamma_i^2
        "orthogonal_flag": np.abs(proj) <= ORTHOGONAL_TOL * scale,
        "violation_flag": delta_w > VIOLATION_TOL,
    }
    names = [name for _, name in MONITOR_COLUMNS]
    return MonitorReport(np.rec.fromarrays([cols[name] for name in names], names=names))


#: values formatted per block by write_csv_rows
CSV_BLOCK = 8192
#: 2**27 + 1: Dekker's split of a double into two halves of 26 bits
_SPLIT = 134217729.0
#: bytes of one float's text template (see _FloatText.fields)
_FIELD = 30


def _split(x):
    t = x * _SPLIT
    hi = t - (t - x)
    return hi, x - hi


class _FloatText:
    """``%.17g`` text of float64 values, whole blocks at a time.

    Holds the (hi, lo) double pairs of the powers of ten a file needs:
    hi is 10**s correctly rounded and lo the rest, correctly rounded, so
    hi + lo is 10**s to about 2**-106.  Pairs are built on first use.
    """

    def __init__(self):
        self.hi, self.lo = np.zeros(540), np.zeros(540)  # index s + 270
        self.have = np.zeros(540, dtype=bool)
        self.special = np.array([list(("%.17g" % v).encode().ljust(_FIELD - 1, b"\0"))
                                 for v in (0.0, -0.0, math.inf, -math.inf, math.nan)], np.uint8)

    def _pow10(self, s):
        i = s + 270
        used = np.zeros(540, dtype=bool)  # not np.unique, whose first call imports numpy.ma
        used[i] = True
        for j in np.flatnonzero(used & ~self.have).tolist():
            num, den = (10 ** (j - 270), 1) if j >= 270 else (1, 10 ** (270 - j))
            hi = num / den  # int true division rounds correctly
            n, d = hi.as_integer_ratio()
            self.hi[j], self.lo[j], self.have[j] = hi, (num * d - n * den) / (den * d), True
        return self.hi[i], self.lo[i]

    def _digits(self, a, s):
        """D = round(a * 10**s) as int64; whether a * 10**s < 1e16; whether it is near a tie.

        Dekker's split gives a * hi = p + err exactly, so a * 10**s is
        p + err + a * lo up to about 1e-14 when it lies below 1e18.
        """
        hi, lo = self._pow10(s)
        p = a * hi
        ah, al = _split(a)
        hh, hl = _split(hi)
        whole = np.floor(p)
        rest = (p - whole) + ((((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * lo)
        near = np.floor(rest + 0.5)
        whole = whole.astype(np.int64)
        return (whole + near.astype(np.int64), whole + np.floor(rest).astype(np.int64) < 10**16,
                np.abs(rest - near) > 0.5 - 1e-6)

    def fields(self, x):
        """(_FIELD, x.size) uint8 templates of x's texts, one column per value, and the
        number of values that Python's ``%`` formatted.

        A column holds the sign, a "0.000" prefix, the 17 digits of D with a
        point slot among them, "e+XXX" and a separator slot.  Unused bytes
        are NUL.
        """
        a = np.abs(x)
        direct = (a >= 1e-250) & (a <= 1e250)  # the split product neither underflows nor overflows
        a = np.where(direct, a, 1.0)
        e = np.floor(np.log10(a)).astype(np.int64)  # wrong by one at most, near 10**e
        d, low, tie = self._digits(a, 16 - e)
        off = low | (d > 10**17)
        if off.any():
            e[off] += np.where(low[off], -1, 1)
            d[off], _, tie[off] = self._digits(a[off], 16 - e[off])
        top = d == 10**17  # rounding carried into an 18th digit
        e = (e + top).astype(np.int16)
        d[top] = 10**16
        high = d // 10**9
        halves = np.stack([high, d - high * 10**9]).astype(np.uint32)  # 8 and 9 digits
        dig = np.empty((18, x.size), np.uint8)  # dig[1:] are D's 17 digits
        for i in range(8, -1, -1):
            q = halves // 10
            dig[i::9] = halves - q * 10
            halves = q
        dig = dig[1:]
        # the selections below are uint8 arithmetic: np.where is slow on bytes
        col = np.arange(18, dtype=np.int16)[:, None]
        last = ((dig != 0) * col[:17]).max(axis=0)  # %g drops zeros after the last nonzero digit
        fixed = (e >= -4) & (e <= 16)
        lead = fixed & (e < 0)  # 0.000ddd
        before = np.where(fixed, np.maximum(e, -1), 0)  # digits 0..before precede the point
        out = np.empty((_FIELD, x.size), np.uint8)
        out[0] = 45 * (x < 0)
        out[1], out[2] = 48 * lead, 46 * lead
        out[3:6] = 48 * (lead & (e <= -col[2:5]))
        area = out[6:24]  # digits 0..unmoved, then the point slot, then the other digits
        area[:17] = (dig + 48) * (col[:17] <= np.maximum(last, before))
        area[17] = 0
        unmoved = np.where(lead, 16, before)
        area += (np.roll(area, 1, axis=0) - area) * (col > unmoved)
        area += (np.uint8(46) * ((last > before) & ~lead) - area) * (col == unmoved + 1)
        expo, ae = ~fixed, np.abs(e)
        out[24], out[25] = 101 * expo, (43 + 2 * (e < 0)) * expo
        out[26] = (48 + ae // 100) * (expo & (ae >= 100))
        out[27], out[28] = (48 + ae // 10 % 10) * expo, (48 + ae % 10) * expo
        special = np.flatnonzero(~np.isfinite(x) | (x == 0))
        if special.size:
            v = x[special]
            out[:-1, special] = self.special[np.where(v == 0, np.signbit(v),
                                                      np.where(np.isnan(v), 4, 2 + (v < 0)))].T
        slow = np.flatnonzero(tie | ~direct & np.isfinite(x) & (x != 0))
        for i in slow.tolist():
            out[:-1, i] = list(("%.17g" % x[i]).encode().ljust(_FIELD - 1, b"\0"))
        return out, slow.size


def _int_fields(v):
    """(width + 2, v.size) uint8 ``%d`` templates: sign, digits, separator slot."""
    mag = np.abs(v.astype(np.int64)).astype(np.uint64)
    width = len(str(int(mag.max()))) if v.size else 1
    out = np.empty((width + 2, v.size), np.uint8)
    out[0] = 45 * (v < 0)
    for i in range(width, 0, -1):
        q = mag // 10
        out[i] = (48 + mag - q * 10) * ((mag > 0) | (i == width))
        mag = q
    return out


def write_csv_rows(path, header, columns):
    """Header then one row per step, in the text of Python's ``%``.

    columns are 1-D arrays or 2-D arrays of several columns, one row per
    step.  Integer and flag columns are written with ``%d``, floats with
    ``%.17g``, which is the same text as ``format(x, '.17g')``, inf, nan
    and -0 included, and the file's bytes are those of
    ``"%.17g,%d,...\\n" % row`` for every row.  Returns how many floats
    were formatted by ``%`` itself.

    Floats are formatted in numpy, CSV_BLOCK values at a time.  With
    X = floor(log10|x|), the 17 digits D = round(|x| * 10**(16 - X)) come
    from an error-free product of x with a double pair for 10**(16 - X)
    (Dekker 1971), whose error is far below 1e-6 of a unit of D, and X is
    corrected when D falls outside [1e16, 1e17).  The text is then laid
    out from a byte template as %g does.  Python's ``%`` formats a value
    only where the product cannot certify the rounding: D's fraction lies
    within 1e-6 of 1/2 (ties round half to even), or |x| lies outside
    [1e-250, 1e250], where the split product could underflow or overflow.
    """
    runs = []  # consecutive float or integer columns, as one 2-D array each
    for col in columns:
        col = np.asarray(col)
        col = col.reshape(len(col), math.prod(col.shape[1:]))
        if runs and runs[-1][0] == (col.dtype.kind == "f"):
            runs[-1][1].append(col)
        else:
            runs.append((col.dtype.kind == "f", [col]))
    runs = [(isfloat, np.hstack(cols).astype(float if isfloat else np.int64))
            for isfloat, cols in runs]
    n_rows = len(columns[0])
    step = max(1, CSV_BLOCK // sum(arr.shape[1] for _, arr in runs))
    text = _FloatText()
    n_slow = 0
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, step):
            parts = []
            for isfloat, arr in runs:
                block = arr[start:start + step]
                if isfloat:
                    fields, slow = text.fields(block.ravel())
                    n_slow += slow
                else:
                    fields = _int_fields(block.ravel())
                fields[-1] = 44
                # (bytes, rows, columns) to rows of fields
                parts.append(fields.reshape(len(fields), *block.shape).transpose(1, 2, 0)
                             .reshape(len(block), -1))
            rows = np.concatenate(parts, axis=1)
            rows[:, -1] = 10
            fh.write(rows.tobytes().translate(None, b"\0").decode("ascii"))
    return n_slow


def write_monitor_csv(report: MonitorReport, path):
    cols = report.columns()
    write_csv_rows(path, ["k", *cols], [np.arange(len(report.records)), *cols.values()])
