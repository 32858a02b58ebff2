"""CSV formats for point lists, finite codes, and constellations.

A point-list file starts with ``# n=<n>`` and carries one point per row as
comma-separated decimals.  Code files add ``# L= # N= # K= # seed=
# expurgated=`` header lines; constellation files additionally carry
``# period=`` and ``# gap=``.  Floats are written with repr so files
round-trip exactly and identical runs produce identical bytes; a code
without points is a header-only file.
"""

from __future__ import annotations

import numpy as np

from .construction import Constellation, FiniteCode
from .errors import ParseError
from .geometry import PointList


def _parse_rows(lines, n, path, first_lineno):
    rows = []
    for off, line in enumerate(lines):
        lineno = first_lineno + off
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != n:
            raise ParseError(
                f"{path}:{lineno}: expected {n} coordinates, got {len(parts)}"
            )
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
    return np.array(rows, dtype=float).reshape(len(rows), n)


def _header(headers, key, kind, path):
    """Header ``key`` converted by ``kind``; ParseError naming the file when
    it is missing or malformed."""
    if key not in headers:
        raise ParseError(f"{path}: missing '# {key}=' header")
    try:
        return kind(headers[key])
    except ValueError:
        raise ParseError(f"{path}: bad '# {key}=' header {headers[key]!r}") from None


def _read(path):
    """The leading '# key=value' lines of a file as a dict, and its rows,
    from one pass over the file."""
    with open(path) as fh:
        lines = fh.readlines()
    headers = {}
    start = len(lines)
    for i, line in enumerate(lines):
        s = line.strip()
        if not s.startswith("#"):
            start = i
            break
        body = s.lstrip("#").strip()
        if "=" not in body:
            raise ParseError(f"{path}:{i + 1}: malformed header line {s!r}")
        key, _, value = body.partition("=")
        headers[key.strip()] = value.strip()
    n = _header(headers, "n", int, path)
    if n < 1:
        raise ParseError(f"{path}: n must be positive, got {n}")
    return headers, _parse_rows(lines[start:], n, path, start + 1)


def _point_list(path, rows) -> PointList:
    if len(rows) < 2:
        raise ParseError(f"{path}: a point list needs at least 2 rows, got {len(rows)}")
    return PointList(rows)


def _code(path, headers, rows) -> FiniteCode:
    return FiniteCode(
        points=rows,
        n=rows.shape[1],
        L=_header(headers, "L", int, path),
        N=_header(headers, "N", float, path),
        K=_header(headers, "K", float, path),
        seed=_header(headers, "seed", int, path) if "seed" in headers else None,
        expurgated_count=_header(headers, "expurgated", int, path),
    )


def _constellation(path, headers, rows) -> Constellation:
    if "gap" not in headers:
        raise ParseError(f"{path}: missing '# gap=' header; not a constellation file")
    c = Constellation(base=_code(path, headers, rows), gap=_header(headers, "gap", float, path))
    if "period" in headers:
        period = _header(headers, "period", float, path)
        if not abs(period - c.period) <= 1e-9 * max(1.0, abs(period)):
            raise ParseError(
                f"{path}: period header {period!r} does not match 2K + 2*gap = {c.period!r}"
            )
    return c


def _write(path, headers: dict, points) -> None:
    """A '# key=value' line for each header that is not None, then one
    point per row, in one write.  The rows are formatted a column at a time
    and zipped back together; an empty code leaves only the headers.  A
    memoryview yields a column's floats one at a time, so the rows' text is
    never held beside a float object for every coordinate."""
    cols = np.ascontiguousarray(np.asarray(points, dtype=float).T)
    body = "\n".join(map(",".join, zip(*[map(repr, memoryview(col)) for col in cols])))
    head = "".join(f"# {key}={value}\n" for key, value in headers.items() if value is not None)
    with open(path, "w") as fh:
        fh.write(head + body + "\n" if body else head)


def _code_headers(code: FiniteCode) -> dict:
    return {
        "n": code.n,
        "L": code.L,
        "N": repr(code.N),
        "K": repr(code.K),
        "seed": code.seed,
        "expurgated": code.expurgated_count,
    }


def write_points(path, pl: PointList) -> None:
    _write(path, {"n": pl.n}, pl.points)


def read_points(path) -> PointList:
    _, rows = _read(path)
    return _point_list(path, rows)


def write_code(path, code: FiniteCode) -> None:
    _write(path, _code_headers(code), code.points)


def write_constellation(path, c: Constellation) -> None:
    _write(path, {**_code_headers(c.base), "period": repr(c.period), "gap": repr(c.gap)}, c.base.points)


def read_code(path) -> FiniteCode:
    headers, rows = _read(path)
    if "period" in headers or "gap" in headers:
        raise ParseError(f"{path}: constellation file; use read_constellation")
    return _code(path, headers, rows)


def read_constellation(path) -> Constellation:
    return _constellation(path, *_read(path))


def load(path):
    """Read a point file as whatever it is: Constellation, FiniteCode, or PointList."""
    headers, rows = _read(path)
    if "gap" in headers:
        return _constellation(path, headers, rows)
    if "L" in headers:
        return _code(path, headers, rows)
    return _point_list(path, rows)
