"""Trajectory CSV files: the one writer, the one column reader, and first crossings.

The reader returns float lists and needs no numpy, so ``misoid compare``
needs only this module; ``experiment``'s reader wraps ``read_columns`` for
numpy callers.  The writer, ``write_csv_rows``, writes every value of its
numpy arrays as ``%.17g`` of its float, which for the step index and the
0/1 flags is their ``%d`` text, exact up to magnitude 2**53.  It imports
numpy in each function it runs, so importing this module loads no numpy.
"""
from __future__ import annotations

import math

from .errors import ParameterError


def _number(field: str) -> float | None:
    """field as a float, or None when it is not a number.

    The one number rule of trajectory CSVs: Python's float syntax,
    surrounding whitespace included, but ASCII only and without
    underscores.
    """
    if not field.isascii() or "_" in field:
        return None
    try:
        return float(field)
    except ValueError:
        return None


def _check_bytes(path, lineno: int, line: str):
    """Reject line's first byte that is not UTF-8, naming it and the line.

    Decoding with errors="surrogateescape" keeps such a byte b as the code
    point U+DC00 + b, in U+DC80..U+DCFF.
    """
    if not line.isascii():
        for char in line:
            if "\udc80" <= char <= "\udcff":
                raise ParameterError(
                    f"{path}: line {lineno} has byte 0x{ord(char) - 0xdc00:02x}, which is not UTF-8"
                )


def read_columns(path, names=None) -> dict[str, list[float]]:
    """Read a trajectory CSV back into named float columns, in one pass.

    Only the columns in names (all when None) are parsed, by _number's
    rule.  An empty line is skipped; every other data line must have the
    header's field count, but a field in a column that is not read is not
    checked to be a number.  A header that names a column more than once
    is malformed.  The first defect in file order is raised, naming the
    1-based file line; a byte that is not UTF-8 is one in any column and
    the first defect of its line.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        line = fh.readline()
        _check_bytes(path, 1, line)
        header = line.strip().split(",")
        if header == [""]:
            raise ParameterError(f"{path}: empty file")
        index = {name: j for j, name in enumerate(header)}
        if len(index) < len(header):
            name = next(name for j, name in enumerate(header) if index[name] != j)
            raise ParameterError(f"{path}: the header names column {name!r} more than once")
        for name in names or ():
            if name not in index:
                raise ParameterError(f"{path} has no column {name!r}")
        if names is None:
            names = header
        cols = [index[name] for name in names]
        last = max(cols, default=0)
        rows = []
        for lineno, line in enumerate(fh, 2):
            _check_bytes(path, lineno, line)
            if line == "\n":
                continue
            count = line.count(",") + 1
            if count != len(header):
                raise ParameterError(
                    f"{path}: line {lineno} has field count {count}, the header {len(header)}"
                )
            fields = line.split(",", last + 1)
            row = [_number(fields[j]) for j in cols]
            if None in row:
                j = cols[row.index(None)]
                field = fields[j].rstrip("\n")
                raise ParameterError(
                    f"{path}: line {lineno}, column {header[j]!r}: {field!r} is not a number"
                )
            rows.append(row)
    columns = zip(*rows) if rows else [()] * len(names)
    return {name: list(column) for name, column in zip(names, columns)}


def first_crossing(values: list[float], threshold_frac: float, metric: str = "metric"):
    """First index where the metric drops to threshold_frac times its start.

    The crossing is defined only for a positive finite start; any other
    start raises ParameterError naming the metric.
    """
    if not values:
        return None
    if not 0 < values[0] < math.inf:
        raise ParameterError(
            f"{metric} starts at {values[0]!r}: a first crossing needs a positive finite start"
        )
    limit = threshold_frac * values[0]
    return next((k for k, value in enumerate(values) if value <= limit), None)


#: values formatted per block by write_csv_rows
CSV_BLOCK = 8192
#: 2**27 + 1: Dekker's split of a double into two halves of 26 bits
_SPLIT = 134217729.0
#: bytes of one float's text template (see _FloatText.fields)
_FIELD = 30
#: the decimal exponents, -_E.._E, of _FloatText's table of templates' bytes
_E = 260


def _split(x):
    t = x * _SPLIT
    hi = t - (t - x)
    return hi, x - hi


class _FloatText:
    """``%.17g`` text of float64 values, whole blocks at a time.

    Holds the (hi, lo) double pairs of the powers of ten a file needs:
    hi is 10**s correctly rounded and lo the rest, correctly rounded, so
    hi + lo is 10**s to about 2**-106.  Pairs are built on first use.
    by_e holds a template's bytes 1..5 (the "0." and up to three zeros
    before the digits of a value in [1e-4, 1)) and 24..28 (the "e+XXX" of
    %g's exponent form) by the value's decimal exponent e, at e + _E; it
    is built once per process.
    """

    by_e = None

    def __init__(self):
        import numpy as np

        self.hi, self.lo = np.zeros(540), np.zeros(540)  # index s + 270
        self.have = np.zeros(540, dtype=bool)
        self.special = np.array([list(("%.17g" % v).encode().ljust(_FIELD - 1, b"\0"))
                                 for v in (0.0, -0.0, math.inf, -math.inf, math.nan)], np.uint8)
        if _FloatText.by_e is None:
            texts = [(("0." + "0" * (-1 - e)) if -4 <= e < 0 else "").ljust(5, "\0")
                     + ("" if -4 <= e <= 16 else f"e{e:+03d}").ljust(5, "\0")
                     for e in range(-_E, _E + 1)]
            _FloatText.by_e = np.frombuffer("".join(texts).encode(), np.uint8).reshape(-1, 10).T.copy()

    def _pow10(self, s):
        import numpy as np

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
        import numpy as np

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
        import numpy as np

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
        for row, table in zip((1, 2, 3, 4, 5, 24, 25, 26, 27, 28), self.by_e):
            table.take(e + _E, out=out[row], mode="clip")  # |e| <= 251 here
        area = out[6:24]  # digits 0..unmoved, then the point slot, then the other digits
        kept = (dig + 48) * (col[:17] <= np.maximum(last, before))
        area[:17] = kept
        area[17] = 0
        unmoved = np.where(lead, 16, before)
        area[1:] += (kept - area[1:]) * (col[1:] > unmoved)
        area += (np.uint8(46) * ((last > before) & ~lead) - area) * (col == unmoved + 1)
        odd = np.flatnonzero(~direct)  # zeros, infinities, NaNs and values the split cannot take
        v = x[odd]
        special = (v == 0) | ~np.isfinite(v)
        if special.any():
            v = v[special]
            out[:-1, odd[special]] = self.special[np.where(v == 0, np.signbit(v),
                                                           np.where(np.isnan(v), 4, 2 + (v < 0)))].T
        slow = np.concatenate([np.flatnonzero(tie), odd[~special]])
        for i in slow.tolist():
            out[:-1, i] = list(("%.17g" % x[i]).encode().ljust(_FIELD - 1, b"\0"))
        return out, slow.size


class RowWriter:
    """Rows of float columns appended to a binary file, as write_csv_rows writes them.

    The writer writes the header at once.  append takes the next rows as
    write_csv_rows takes its columns; the rows are copied into one block of
    about CSV_BLOCK values, which is formatted and written whenever it is
    full, and flush writes what is left.  So a file written in any number
    of appends has the bytes, and the blocks, of one write_csv_rows call.
    slow counts the values that Python's ``%`` formatted.
    """

    def __init__(self, fh, header):
        import numpy as np

        fh.write((",".join(header) + "\n").encode())
        self.fh, self.text, self.slow, self.filled = fh, _FloatText(), 0, 0
        # formatting a block takes about 150 bytes of temporaries per value.
        # glibc gives the top of its heap back to the system once twice its
        # mmap threshold lies free there, and raises that threshold to the
        # size of each mmapped block it frees; this block, freed at once,
        # keeps the temporaries on the heap, so their pages are not faulted
        # in anew for every block
        np.empty(CSV_BLOCK * 128, np.uint8)
        self.block = np.empty((max(1, CSV_BLOCK // len(header)), len(header)))

    def append(self, columns):
        import numpy as np

        cols = [np.asarray(col, dtype=float) for col in columns]
        cols = [col.reshape(len(col), math.prod(col.shape[1:])) for col in cols]
        start, rows = 0, len(cols[0])
        while start < rows:
            take = min(rows - start, len(self.block) - self.filled)
            into = self.block[self.filled:self.filled + take]
            j = 0
            for col in cols:
                into[:, j:j + col.shape[1]] = col[start:start + take]
                j += col.shape[1]
            self.filled += take
            start += take
            if self.filled == len(self.block):
                self.flush()

    def flush(self):
        """Format and write the rows not yet written."""
        if self.filled:
            fields, slow = self.text.fields(self.block[:self.filled].ravel())
            self.slow += slow
            fields[-1] = 44
            rows = fields.T.reshape(self.filled, -1)  # row-major values to rows of fields
            rows[:, -1] = 10
            self.fh.write(rows.tobytes().translate(None, b"\0"))
            self.filled = 0


def write_csv_rows(path, header, columns):
    """Header then one row per step, in the text of Python's ``%``.

    columns are 1-D arrays or 2-D arrays of several columns, one row per
    step, with as many columns in all as header has names.  Every value is
    written as ``%.17g`` of its float, which is the same text as
    ``format(x, '.17g')``, inf, nan and -0 included, and the file's bytes
    are those of ``"%.17g,%.17g,...\\n" % row`` for every row.  For the step
    index and 0/1 flag columns that text is their ``%d`` text, as for every
    integer of magnitude up to 2**53.  Returns how many values were
    formatted by ``%`` itself.

    Values are formatted in numpy, a RowWriter block of CSV_BLOCK values
    at a time.  With X = floor(log10|x|), the 17 digits
    D = round(|x| * 10**(16 - X)) come from an error-free product of x with
    a double pair for 10**(16 - X) (Dekker 1971), whose error is far below
    1e-6 of a unit of D, and X is corrected when D falls outside
    [1e16, 1e17).  The text is then laid out from a byte template as %g
    does.  Python's ``%`` formats a value only where the product cannot
    certify the rounding: D's fraction lies within 1e-6 of 1/2 (ties round
    half to even), or |x| lies outside [1e-250, 1e250], where the split
    product could underflow or overflow.
    """
    with open(path, "wb") as fh:
        rows = RowWriter(fh, header)
        rows.append(columns)
        rows.flush()
    return rows.slow
