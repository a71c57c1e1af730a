"""Plain-text persistence for grid functions, spectral data and point values.

Every file is optional `#`-prefixed key=value header lines, then one CSV
record per non-blank row, read by `_read_records` and `_parse_records` and
written by `_write_records`.  Floats are written as e-notation with 17
significant digits, which round-trips double precision exactly.

Grid file:     header alpha, beta, nr, ns; rows r,s,value (r-major, every r,s checked).
Spectral file: header alpha, beta, n_max, n_tau, tau_grid, tau_weights (grids
               comma-separated); rows n,tau_index,value (real, each pair once).
Points file:   rows r,s (finite, > 0).  Outputs: rows r,s,value or x,value.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from ._util import count_value, real_value
from .diffop import GridFunction2D
from .gtransform import SpectralData

__all__ = [
    "FileFormatError",
    "HeaderError",
    "RowCountError",
    "NonFiniteEntryError",
    "ParameterError",
    "read_grid",
    "write_grid",
    "read_spectral",
    "write_spectral",
    "read_points",
    "write_points",
    "write_profile",
]


class FileFormatError(ValueError):
    """Base class for persistence format violations."""


class HeaderError(FileFormatError):
    """Missing or malformed header line."""


class RowCountError(FileFormatError):
    """Number of data rows disagrees with the header."""


class NonFiniteEntryError(FileFormatError):
    """A data row holds NaN or infinity."""


class ParameterError(FileFormatError):
    """Header parameters outside their admissible range."""


_GRID = np.dtype([("r", float), ("s", float), ("value", float)])
_SPECTRAL = np.dtype([("n", np.int64), ("tau_index", np.int64), ("value", float)])
_POINTS = np.dtype([("r", float), ("s", float)])
_fmt = "{:.16e}".format
# the error and message of a row holding NaN or infinity, for _check_rows
_NONFINITE = (NonFiniteEntryError, lambda k: f"non-finite entry in row {k}")


def read_lines(path):
    """The lines of a text file: the one place the package reads a file."""
    with open(path) as fh:
        return fh.read().splitlines()


def split_entry(entry):
    """Stripped (key, value) of a header or --config `key=value` line; None without '='."""
    key, sep, val = entry.partition("=")
    return (key.strip(), val.strip()) if sep else None


def _read_records(path):
    """The header dict, the non-blank body rows, and line_of(k), the file line of row k."""
    lines = read_lines(path)
    body = next((i for i, ln in enumerate(lines) if not ln.startswith("#")), len(lines))
    header = {}
    for i, line in enumerate(lines[:body]):
        key_val = split_entry(line[1:])
        if key_val:
            header[key_val[0]] = key_val[1]
        elif line[1:].strip():
            raise HeaderError(f"{path}:{i + 1}: header line without '=': {line!r}")

    def line_of(k):  # counted only for a row that is reported
        return next(islice((i for i, ln in enumerate(lines[body:], body + 1) if ln.strip()),
                           k, None))

    return header, [ln for ln in lines[body:] if ln.strip()], line_of


def _parse_records(path, rows, line_of, dtype, nrows):
    """Parse `nrows` rows into the structured `dtype` with one numpy call; only if that
    fails, a per-row loop parses them (and "1_0" as Python does) up to the first row of
    the wrong field count or a non-numeric field.  Returns (the parsed rows, None), or
    (the rows before that one, its error), which the caller raises after checking them."""
    if len(rows) != nrows:
        raise RowCountError(f"{path}: expected {nrows} rows, found {len(rows)}")
    try:
        return (np.loadtxt(rows, dtype, delimiter=",", comments=None, ndmin=1)
                if rows else np.empty(0, dtype)), None
    except ValueError:
        pass
    types = [dtype[name].type for name in dtype.names]
    parsed = []
    for k, row in enumerate(rows):
        parts = row.split(",")
        if len(parts) != len(types):
            return np.array(parsed, dtype), FileFormatError(
                f"{path}:{line_of(k)}: expected {len(types)} fields, found {len(parts)}")
        try:
            parsed.append(tuple(t(p) for t, p in zip(types, parts)))
        except (ValueError, OverflowError):
            return np.array(parsed, dtype), FileFormatError(
                f"{path}:{line_of(k)}: non-numeric field")
    return np.array(parsed, dtype), None


def _check_rows(path, line_of, checks, error=None):
    """Raise at the first row where one of `checks`, (bad, error class, message(k))
    in the order a row is checked, holds: the first such check's error, citing the
    row's file line.  With no such row, raise `error` if there is one."""
    bad = np.logical_or.reduce([check[0] for check in checks])
    if np.any(bad):
        k = int(np.argmax(bad))
        _, cls, message = next(check for check in checks if check[0][k])
        raise cls(f"{path}:{line_of(k)}: {message(k)}")
    if error is not None:
        raise error


def _write_records(path, header, columns, formats=None):
    """Write `# key=value` header lines, then one CSV record per row of `columns`,
    field j formatted by formats[j] (default: 17 significant digits)."""
    record = ",".join(formats or ["{:.16e}"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.writelines(f"# {key}={val}\n" for key, val in header.items())
        fh.writelines(map(record.format, *(np.asarray(c).tolist() for c in columns)))


def _checked(path, error, fn, *args, what=""):
    """fn(*args), a ValueError of its checks raised as error("{path}: {what}{message}")."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise error(f"{path}: {what}{exc}") from None


def _header_float(header, key, path):
    if key not in header:
        raise HeaderError(f"{path}: missing header field {key!r}")
    try:
        return float(header[key])
    except ValueError:
        raise HeaderError(f"{path}: header field {key!r} is not a number: "
                          f"{header[key]!r}")


def _header_int(header, key, path):
    """A header count: an integer >= 1."""
    return _checked(path, HeaderError, count_value, _header_float(header, key, path), key, 1,
                    what="header field ")


def _header_array(header, key, path):
    """The comma-separated entries of a header field, each finite and > 0."""
    if key not in header:
        raise HeaderError(f"{path}: missing header field {key!r}")
    try:
        values = np.array([float(tok) for tok in header[key].split(",")])
    except ValueError:
        raise HeaderError(f"{path}: header field {key!r} holds a non-numeric entry")
    return _checked(path, HeaderError, real_value, values, key, what="header field ")


def _header_types(header, path):
    alpha = _header_float(header, "alpha", path)
    beta = _header_float(header, "beta", path)
    if not (np.isfinite(alpha) and np.isfinite(beta)):
        raise ParameterError(
            f"{path}: type parameters must be finite, got alpha={alpha}, beta={beta}")
    if alpha <= -1.0 or beta <= -1.0:
        raise ParameterError(
            f"{path}: type parameters must be > -1, got alpha={alpha}, beta={beta}")
    return alpha, beta


def write_grid(path, grid: GridFunction2D, alpha: float = 0.0,
               beta: float = 0.0) -> None:
    """Write r,s,value records (r-major) with the grid shape in the header."""
    nr, ns = len(grid.r_nodes), len(grid.s_nodes)
    _write_records(path, {"alpha": _fmt(alpha), "beta": _fmt(beta), "nr": nr, "ns": ns},
                   [np.repeat(grid.r_nodes, ns), np.tile(grid.s_nodes, nr),
                    grid.values.ravel()])


def read_grid(path):
    """Read a grid file; returns (GridFunction2D, alpha, beta)."""
    header, rows, line_of = _read_records(path)
    alpha, beta = _header_types(header, path)
    nr = _header_int(header, "nr", path)
    ns = _header_int(header, "ns", path)
    data, error = _parse_records(path, rows, line_of, _GRID, nr * ns)
    _check_rows(path, line_of, [(~np.isfinite(data.view((float, 3))).all(axis=1), *_NONFINITE)],
                error)
    r_nodes, s_nodes = data["r"][::ns], data["s"][:ns]
    bad = (data["r"] != np.repeat(r_nodes, ns)) | (data["s"] != np.tile(s_nodes, nr))
    _check_rows(path, line_of, [(bad, FileFormatError, lambda k: (
        f"coordinates ({data['r'][k]!r}, {data['s'][k]!r}) are not the r-major grid "
        f"point ({r_nodes[k // ns]!r}, {s_nodes[k % ns]!r})"))])
    grid = _checked(path, FileFormatError, GridFunction2D, r_nodes, s_nodes,
                    data["value"].reshape(nr, ns))
    return grid, alpha, beta


def write_spectral(path, sd: SpectralData) -> None:
    """Write n,tau_index,value records with grids and weights in the header,
    so norms are reproducible from the file alone."""
    if np.iscomplexobj(sd.values):
        raise FileFormatError(f"{path}: spectral files hold real values only; "
                              f"values has dtype {sd.values.dtype}")
    n_tau = len(sd.tau_grid)
    header = {"alpha": _fmt(sd.alpha), "beta": _fmt(sd.beta), "n_max": sd.n_max,
              "n_tau": n_tau, "tau_grid": ",".join(map(_fmt, sd.tau_grid)),
              "tau_weights": ",".join(map(_fmt, sd.tau_weights))}
    n, k = np.divmod(np.arange(sd.n_max * n_tau), n_tau)  # n-major order
    _write_records(path, header, [n, k, sd.values.ravel()], ["{}", "{}", "{:.16e}"])


def read_spectral(path) -> SpectralData:
    header, rows, line_of = _read_records(path)
    alpha, beta = _header_types(header, path)
    n_max = _header_int(header, "n_max", path)
    n_tau = _header_int(header, "n_tau", path)
    tau_grid = _header_array(header, "tau_grid", path)
    tau_weights = _header_array(header, "tau_weights", path)
    if len(tau_grid) != n_tau or len(tau_weights) != n_tau:
        raise HeaderError(f"{path}: tau grid/weights do not match n_tau={n_tau}")
    data, error = _parse_records(path, rows, line_of, _SPECTRAL, n_max * n_tau)
    n, idx = data["n"], data["tau_index"]
    # row on which each row's pair first appears; with the row count right, a
    # repeated pair means another one is missing
    _, first, pair = np.unique(n * n_tau + idx, return_index=True, return_inverse=True)
    first = first[pair]
    _check_rows(path, line_of, [
        (~((0 <= n) & (n < n_max) & (0 <= idx) & (idx < n_tau)), FileFormatError,
         lambda k: f"index ({n[k]}, {idx[k]}) out of range"),
        (first < np.arange(len(n)), FileFormatError,
         lambda k: f"pair ({n[k]}, {idx[k]}) repeats line {line_of(first[k])}"),
        (~np.isfinite(data["value"]), *_NONFINITE)], error)
    values = np.empty((n_max, n_tau))
    values[data["n"], data["tau_index"]] = data["value"]
    return _checked(path, ParameterError, SpectralData, alpha, beta, tau_grid, tau_weights, values)


def read_points(path):
    """Read r,s rows of points in the open quarter plane; returns an (m, 2) array."""
    _, rows, line_of = _read_records(path)
    if not rows:
        raise RowCountError(f"{path}: no points found")
    data, error = _parse_records(path, rows, line_of, _POINTS, len(rows))
    pts = data.view((float, 2))
    _check_rows(path, line_of, [
        (~(np.isfinite(pts[:, j]) & (pts[:, j] > 0.0)), FileFormatError,
         lambda k, j=j: f"coordinate {_POINTS.names[j]}={pts[k, j]} is not finite and > 0")
        for j in range(2)], error)
    return pts


def write_points(path, pts, values) -> None:
    """Write r,s,value records, one per point, with the count in the header."""
    _write_records(path, {"count": len(values)}, [pts[:, 0], pts[:, 1], values])


def write_profile(path, kind, alpha, beta, xs, values) -> None:
    """Write x,value records of a diagonal kernel profile."""
    _write_records(path, {"kind": kind, "alpha": _fmt(alpha), "beta": _fmt(beta)},
                   [xs, values])
