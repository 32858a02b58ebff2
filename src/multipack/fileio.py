"""CSV formats for point lists, finite codes, and constellations.

A point-list file starts with ``# n=<n>`` and carries one point per row as
comma-separated decimals.  Code files add ``# L= # N= # K= # seed=
# expurgated=`` header lines; constellation files additionally carry
``# period=`` and ``# gap=``, and ``load`` reads all three kinds.  Each
coordinate is written with repr's digits and notation: the shortest
decimal that reads back to the same double, in fixed notation for
1e-4 <= |x| < 1e16 and for zero, in exponent notation otherwise.  So
files round-trip exactly and identical runs produce identical bytes; a
code without points is a header-only file.
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
    c = Constellation(base=_code(path, headers, rows), gap=_header(headers, "gap", float, path))
    if "period" in headers:
        period = _header(headers, "period", float, path)
        if not abs(period - c.period) <= 1e-9 * max(1.0, abs(period)):
            raise ParseError(
                f"{path}: period header {period!r} does not match 2K + 2*gap = {c.period!r}"
            )
    return c


# Rows formatted by one orjson call and written at once: large enough that
# the per-call overhead vanishes, small enough that a frontier-size code's
# text is never held whole.  A 365,651 x 7 code wrote in 0.51-0.61 s at 256
# to 4096 rows with no rise in peak RSS, against 1.2 s and +199 MB as one
# block (2-vCPU Xeon).
BLOCK_ROWS = 4096


def _write(path, headers: dict, points) -> None:
    """A '# key=value' line for each header that is not None, then one
    point per row, each coordinate in repr's digits and notation; an empty
    code leaves only the headers.

    The rows are formatted BLOCK_ROWS at a time by orjson, whose printer
    gives repr's shortest round-trip digits, and each block is written as
    soon as it is formatted.  orjson's notation matches repr's for zero and
    for 1e-4 <= |x| < 1e16; outside that range it prints ``0.00001234`` and
    ``1e16`` where repr prints ``1.234e-05`` and ``1e+16``, so a row holding
    such a coordinate is formatted again with repr."""
    import orjson

    pts = np.ascontiguousarray(points, dtype=float)
    with open(path, "w") as fh:
        fh.write("".join(f"# {key}={value}\n" for key, value in headers.items() if value is not None))
        for start in range(0, len(pts), BLOCK_ROWS):
            block = pts[start : start + BLOCK_ROWS]
            # "[[a,b],[c,d]]" -> "a,b\nc,d"
            text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].decode().replace("],[", "\n")
            mag = np.abs(block)
            same = (block == 0) | (mag >= 1e-4) & (mag < 1e16)
            odd = np.flatnonzero(~same.all(axis=1))
            if odd.size:
                lines = text.split("\n")
                for i in odd.tolist():
                    lines[i] = ",".join(map(repr, block[i].tolist()))
                text = "\n".join(lines)
            fh.write(text + "\n")


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
        raise ParseError(f"{path}: constellation file; use load")
    return _code(path, headers, rows)


def load(path):
    """Read a point file as whatever it is: Constellation, FiniteCode, or
    PointList.  A '# period=' or '# gap=' header makes it a constellation
    file, which must carry the gap."""
    headers, rows = _read(path)
    if "period" in headers or "gap" in headers:
        return _constellation(path, headers, rows)
    if "L" in headers:
        return _code(path, headers, rows)
    return _point_list(path, rows)
