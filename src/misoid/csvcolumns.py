"""Trajectory CSV files: the one writer, the one column reader, and first crossings.

The reader returns float lists and needs no numpy, so ``misoid compare``
needs only this module; ``experiment``'s reader wraps ``read_columns`` for
numpy callers.  The writer, ``write_steps``, numbers the steps of every
run and monitor CSV and writes every value of its numpy arrays as
``%.17g`` of its float, which for the step index and the 0/1 flags is
their ``%d`` text, exact up to magnitude 2**53.  It imports numpy in each
function it runs, so importing this module loads no numpy.
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


#: values formatted per block by RowWriter
CSV_BLOCK = 8192
#: 2**27 + 1: Dekker's split of a double into two halves of 26 bits
_SPLIT = 134217729.0
#: bytes of one float's text template (see _FloatText.fields)
_FIELD = 25
#: the decimal exponents, -_E.._E, of _FloatText's tables
_E = 260


def _split(x):
    t = x * _SPLIT
    hi = t - (t - x)
    return hi, x - hi


class _FloatText:
    """``%.17g`` text of float64 values, whole blocks at a time.

    With X = floor(log10|x|), the 17 digits D = round(|x| * 10**(16 - X))
    come from an error-free product of x with a double pair for
    10**(16 - X) (Dekker 1971), whose error is far below 1e-6 of a unit of
    D, and X is corrected when D falls outside [1e16, 1e17).  The text is
    then laid out as %g does in a template of _FIELD bytes per value, one
    byte row across the block at a time (D's digits by 4-digit groups,
    then pairs).  Python's ``%`` formats a value only where the product
    cannot certify the rounding: D's fraction lies within 1e-6 of 1/2
    (ties round half to even), or |x| lies outside [1e-250, 1e250], where
    the split product could underflow or overflow.

    pw holds, by decimal exponent e at e + _E, the (hi, lo) double pair of
    10**(16 - e) and Dekker's halves (hh, hl) of hi: hi is the power
    correctly rounded and lo the rest, correctly rounded, so hi + lo is the
    power to about 2**-106.  Its entries are built on first use.  by_e
    holds the "e+XXX" of %g's exponent form by e, at e + _E; it is built
    once per process.
    """

    by_e = None

    def __init__(self):
        import numpy as np

        self.pw = np.zeros((4, 2 * _E + 1))  # hi, lo, hh, hl
        self.have = np.zeros(2 * _E + 1, dtype=bool)
        self.special = np.array([list(("%.17g" % v).encode().ljust(_FIELD - 1, b"\0"))
                                 for v in (0.0, -0.0, math.inf, -math.inf, math.nan)], np.uint8)
        if _FloatText.by_e is None:
            texts = [("" if -4 <= e <= 16 else f"e{e:+03d}").ljust(5, "\0")
                     for e in range(-_E, _E + 1)]
            _FloatText.by_e = np.frombuffer("".join(texts).encode(), np.uint8).reshape(-1, 5).T.copy()

    def _digits(self, a, ie):
        """D = round(a * 10**(16 - e)) as int64, for ie = e + _E, and the
        fraction by which a * 10**(16 - e) exceeds D, in [-1/2, 1/2].

        Dekker's split gives a * hi = p + err exactly, so a * 10**(16 - e)
        is p + err + a * lo up to about 1e-14 when it lies below 1e18.
        """
        import numpy as np

        first, last = int(ie.min()), int(ie.max())
        for j in (np.flatnonzero(~self.have[first:last + 1]) + first).tolist():
            s = 16 + _E - j
            num, den = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)
            hi = num / den  # int true division rounds correctly
            n, d = hi.as_integer_ratio()
            self.pw[:, j] = hi, (num * d - n * den) / (den * d), *_split(hi)
            self.have[j] = True
        hi, lo, hh, hl = self.pw.take(ie, axis=1)
        p = a * hi
        ah = a * _SPLIT
        al = ah - a
        ah -= al
        np.subtract(a, ah, out=al)
        # rest = (p - floor(p)) + ((((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * lo),
        # summed in that order, in place
        rest = ah * hh
        rest -= p
        for u, v in ((ah, hl), (al, hh), (al, hl), (a, lo)):
            rest += np.multiply(u, v, out=hi)
        whole = np.floor(p)
        rest += np.subtract(p, whole, out=hi)
        near = np.floor(rest + 0.5)
        d = whole.astype(np.int64)
        d += near.astype(np.int64)
        return d, np.subtract(rest, near, out=rest)

    def fields(self, x):
        """(_FIELD, x.size) uint8 templates of x's texts, one column per value, and the
        number of values that Python's ``%`` formatted.

        Byte 0 of a column is the sign and byte 24 a separator slot, left to
        the caller.  In fixed form bytes 1..5 hold the "0." and up to three
        zeros before the digits of a value in [1e-4, 1), and bytes 6..23
        the 17 digits of D with a point slot among them; in exponent form
        the digits and point start at byte 1 and "e+XXX" ends at byte 23.
        Unused bytes are NUL.
        """
        import numpy as np

        a = np.abs(x)
        direct = (a >= 1e-250) & (a <= 1e250)  # the split product neither underflows nor overflows
        odd = None if direct.all() else np.flatnonzero(~direct)  # zeros, infinities, NaNs, the rest
        if odd is not None:
            a[odd] = 1.0
        ie = np.floor(np.log10(a))  # e, wrong by one at most, near 10**e
        ie += _E
        ie = ie.astype(np.intp)
        d, frac = self._digits(a, ie)
        low = d - (frac < 0) < 10**16  # a * 10**(16 - e) < 1e16: e was one high
        off = np.flatnonzero(low | (d > 10**17))
        if off.size:
            ie[off] += np.where(low[off], -1, 1)
            d[off], frac[off] = self._digits(a[off], ie[off])
        top = np.flatnonzero(d == 10**17)  # rounding carried into an 18th digit
        ie[top] += 1
        d[top] = 10**16
        e = ie.astype(np.int16)
        e -= _E
        # D's digits: halves of 8 and 9 digits, 4-digit groups, then pairs
        halves = np.empty((2, x.size), np.uint32)
        halves[0] = high = d // 10**9
        d -= high * 10**9
        halves[1] = d
        q = halves // 10**4
        quads = np.empty((2, 2, x.size), np.uint16)
        quads[:, 1] = halves - q * 10**4
        halves = q // 10**4  # the 9-digit half's leading digit, and 0
        quads[:, 0] = q - halves * 10**4
        q = quads // 100
        pairs = np.empty((2, 2, 2, x.size), np.uint8)
        pairs[:, :, 0] = q
        pairs[:, :, 1] = quads - q * 100
        pairs = pairs.reshape(2, 4, x.size)
        dig = np.empty((2, 9, x.size), np.uint8)  # each half's 9 digits, the first half's after a 0
        dig[:, 0] = halves
        tens = np.floor_divide(pairs, 10, out=dig[:, 1::2])
        pairs -= tens * np.uint8(10)
        dig[:, 2::2] = pairs
        dig = dig.reshape(18, x.size)[1:]
        # the selections below are uint8 arithmetic: np.where is slow on bytes
        col = np.arange(18, dtype=np.uint8)[:, None]
        last = (dig != 0).view(np.uint8)  # a uint8 buffer to multiply in place
        last *= col[:17]
        last = last.max(axis=0)  # %g drops zeros after the last nonzero digit
        form = (e + np.int16(4)).view(np.uint16)  # 0..3: 0.000ddd, 4..20: fixed, more: exponent
        before = (e * (e.view(np.uint16) <= 16)).astype(np.uint8)  # the point follows digit before
        point = last > before
        point &= form >= 4
        out = np.empty((_FIELD, x.size), np.uint8)
        np.multiply(x < 0, np.uint8(45), out=out[0])
        zeros = ((form < 4) * (1 - e)).astype(np.uint8)  # bytes of "0.000" before the digits
        np.multiply(np.frombuffer(b"0.000", np.uint8)[:, None], col[:5] < zeros, out=out[1:6])
        area = out[6:24]  # digits 0..before, the point slot, the other digits
        np.add(dig, np.uint8(48), out=area[:17])
        area[:17] *= col[:17] <= np.maximum(last, before)
        area[17] = 0
        unmoved = np.uint8(17) - point * (np.uint8(17) - before)  # 17: no digit moves
        shift = area[:17] - area[1:]
        shift *= col[1:] > unmoved
        area[1:] += shift
        at = np.flatnonzero(point)
        out.reshape(-1)[(before[at] + 7).astype(np.intp) * x.size + at] = 46
        sci = form > 20
        if sci.any():  # exponent form: the digits move up to byte 1, "e+XXX" follows them
            moved = area * sci
            sci = np.flatnonzero(sci)
            area -= moved
            out[1:19] += moved
            out[19:24, sci] = self.by_e.take(ie[sci], axis=1)
        slow = np.flatnonzero(np.abs(frac, out=frac) > 0.5 - 1e-6)  # ties round half to even
        if odd is not None:
            v = x[odd]
            special = (v == 0) | ~np.isfinite(v)
            v = v[special]
            out[:-1, odd[special]] = self.special[np.where(v == 0, np.signbit(v),
                                                           np.where(np.isnan(v), 4, 2 + (v < 0)))].T
            slow = np.concatenate([slow, odd[~special]])
        for i in slow.tolist():
            out[:-1, i] = list(("%.17g" % x[i]).encode().ljust(_FIELD - 1, b"\0"))
        return out, slow.size


class RowWriter:
    """Rows of float columns appended to a binary file, in the text of write_steps.

    The writer writes the header at once.  append takes the next rows as
    1-D arrays or 2-D arrays of several columns, one row per step, with as
    many columns in all as header has names; the rows are copied into one
    block of about CSV_BLOCK values, which is formatted and written
    whenever it is full, and flush writes what is left.  A block's
    templates are transposed once into row order and written without
    their NUL bytes.  So a file written in any number of appends has the
    bytes, and the blocks, of one append.  slow counts the values that
    Python's ``%`` formatted.
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
            width = self.block.shape[1]
            fields[-1] = 44
            fields[-1, width - 1::width] = 10  # each row's last separator
            self.fh.write(fields.T.tobytes().translate(None, b"\0"))
            self.filled = 0


def write_steps(path, header, chunks):
    """k, then header's columns, one row per step, in the text of Python's ``%``.

    chunks yields each chunk's columns, as RowWriter.append takes them;
    k counts the steps from 0 across the chunks.  Every value is written
    as ``%.17g`` of its float, which is the same text as
    ``format(x, '.17g')``, inf, nan and -0 included, and the file's bytes
    are those of ``"%.17g,%.17g,...\\n" % row`` for every row.  For the step
    index and 0/1 flag columns that text is their ``%d`` text, as for every
    integer of magnitude up to 2**53.  Returns how many values were
    formatted by ``%`` itself (see _FloatText).
    """
    import numpy as np

    with open(path, "wb") as fh:
        rows, k = RowWriter(fh, ["k", *header]), 0
        for columns in chunks:
            rows.append([np.arange(k, k + len(columns[0])), *columns])
            k += len(columns[0])
        rows.flush()
    return rows.slow
