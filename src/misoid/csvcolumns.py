"""Trajectory CSV columns as float lists, and their first crossing, without numpy.

``misoid compare`` needs only this module; ``experiment``'s reader wraps
``read_columns`` for numpy callers.
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
    checked to be a number.  The first defect in file order is raised,
    naming the 1-based file line; a byte that is not UTF-8 is one in any
    column and the first defect of its line.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        line = fh.readline()
        _check_bytes(path, 1, line)
        header = line.strip().split(",")
        if header == [""]:
            raise ParameterError(f"{path}: empty file")
        index = {name: j for j, name in enumerate(header)}
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
