"""Plain-text persistence for grid functions and spectral data.

Both formats are `#`-prefixed key=value header lines followed by one CSV
record per row.  Floats are written as e-notation with 17 significant
digits, which round-trips double precision exactly.

Grid file:    header alpha, beta, nr, ns; rows r,s,value (r-major, every r,s checked).
Spectral file: header alpha, beta, n_max, n_tau, tau_grid, tau_weights
               (grids comma-separated inside the value); rows n,tau_index,value
               (real, each pair once).
"""

from __future__ import annotations

import numpy as np

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


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def _parse_header(lines, path):
    header = {}
    body_start = 0
    for i, line in enumerate(lines):
        if not line.startswith("#"):
            body_start = i
            break
        body_start = i + 1
        entry = line[1:].strip()
        if not entry:
            continue
        if "=" not in entry:
            raise HeaderError(f"{path}:{i + 1}: header line without '=': {line!r}")
        key, _, val = entry.partition("=")
        header[key.strip()] = val.strip()
    return header, body_start


def _body_rows(lines, body):
    """Non-blank data rows with their 1-based line numbers in the file."""
    return [(i + 1, ln) for i, ln in enumerate(lines[body:], start=body) if ln.strip()]


def _header_float(header, key, path):
    if key not in header:
        raise HeaderError(f"{path}: missing header field {key!r}")
    try:
        return float(header[key])
    except ValueError:
        raise HeaderError(f"{path}: header field {key!r} is not a number: "
                          f"{header[key]!r}")


def _header_int(header, key, path):
    v = _header_float(header, key, path)
    if int(v) != v:
        raise HeaderError(f"{path}: header field {key!r} must be an integer")
    return int(v)


def _header_array(header, key, path):
    if key not in header:
        raise HeaderError(f"{path}: missing header field {key!r}")
    try:
        return np.array([float(tok) for tok in header[key].split(",")])
    except ValueError:
        raise HeaderError(f"{path}: header field {key!r} holds a non-numeric entry")


def _check_types(alpha, beta, path):
    if alpha <= -1.0 or beta <= -1.0:
        raise ParameterError(
            f"{path}: type parameters must be > -1, got alpha={alpha}, beta={beta}")


def write_grid(path, grid: GridFunction2D, alpha: float = 0.0,
               beta: float = 0.0) -> None:
    """Write r,s,value records (r-major) with the grid shape in the header."""
    with open(path, "w") as fh:
        fh.write(f"# alpha={_fmt(alpha)}\n")
        fh.write(f"# beta={_fmt(beta)}\n")
        fh.write(f"# nr={len(grid.r_nodes)}\n")
        fh.write(f"# ns={len(grid.s_nodes)}\n")
        for i, r in enumerate(grid.r_nodes):
            for j, s in enumerate(grid.s_nodes):
                fh.write(f"{_fmt(r)},{_fmt(s)},{_fmt(grid.values[i, j])}\n")


def read_grid(path):
    """Read a grid file; returns (GridFunction2D, alpha, beta)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    header, body = _parse_header(lines, path)
    alpha = _header_float(header, "alpha", path)
    beta = _header_float(header, "beta", path)
    _check_types(alpha, beta, path)
    nr = _header_int(header, "nr", path)
    ns = _header_int(header, "ns", path)
    rows = _body_rows(lines, body)
    if len(rows) != nr * ns:
        raise RowCountError(f"{path}: expected {nr * ns} rows, found {len(rows)}")
    data = np.empty((nr * ns, 3))
    for k, (line_no, row) in enumerate(rows):
        parts = row.split(",")
        if len(parts) != 3:
            raise FileFormatError(
                f"{path}:{line_no}: expected 3 fields, found {len(parts)}")
        try:
            data[k] = [float(p) for p in parts]
        except ValueError:
            raise FileFormatError(f"{path}:{line_no}: non-numeric field")
        if not np.all(np.isfinite(data[k])):
            raise NonFiniteEntryError(
                f"{path}:{line_no}: non-finite entry in row {k}")
    r_nodes = data[::ns, 0]
    s_nodes = data[:ns, 1]
    bad = (data[:, 0] != np.repeat(r_nodes, ns)) | (data[:, 1] != np.tile(s_nodes, nr))
    if np.any(bad):
        k = int(np.argmax(bad))
        raise FileFormatError(
            f"{path}:{rows[k][0]}: coordinates ({data[k, 0]!r}, {data[k, 1]!r}) are "
            f"not the r-major grid point ({r_nodes[k // ns]!r}, {s_nodes[k % ns]!r})")
    values = data[:, 2].reshape(nr, ns)
    return GridFunction2D(r_nodes, s_nodes, values), alpha, beta


def write_spectral(path, sd: SpectralData) -> None:
    """Write n,tau_index,value records with grids and weights in the header,
    so norms are reproducible from the file alone."""
    if np.iscomplexobj(sd.values):
        raise FileFormatError(f"{path}: spectral files hold real values only; "
                              f"values has dtype {sd.values.dtype}")
    with open(path, "w") as fh:
        fh.write(f"# alpha={_fmt(sd.alpha)}\n")
        fh.write(f"# beta={_fmt(sd.beta)}\n")
        fh.write(f"# n_max={sd.n_max}\n")
        fh.write(f"# n_tau={len(sd.tau_grid)}\n")
        fh.write("# tau_grid=" + ",".join(_fmt(t) for t in sd.tau_grid) + "\n")
        fh.write("# tau_weights=" + ",".join(_fmt(w) for w in sd.tau_weights) + "\n")
        for n in range(sd.n_max):
            for k in range(len(sd.tau_grid)):
                fh.write(f"{n},{k},{_fmt(sd.values[n, k])}\n")


def read_spectral(path) -> SpectralData:
    with open(path) as fh:
        lines = fh.read().splitlines()
    header, body = _parse_header(lines, path)
    alpha = _header_float(header, "alpha", path)
    beta = _header_float(header, "beta", path)
    _check_types(alpha, beta, path)
    n_max = _header_int(header, "n_max", path)
    n_tau = _header_int(header, "n_tau", path)
    tau_grid = _header_array(header, "tau_grid", path)
    tau_weights = _header_array(header, "tau_weights", path)
    if len(tau_grid) != n_tau or len(tau_weights) != n_tau:
        raise HeaderError(f"{path}: tau grid/weights do not match n_tau={n_tau}")
    rows = _body_rows(lines, body)
    if len(rows) != n_max * n_tau:
        raise RowCountError(
            f"{path}: expected {n_max * n_tau} rows, found {len(rows)}")
    values = np.empty((n_max, n_tau))
    # line on which each (n, tau_index) pair was read, 0 while unseen; with
    # the row count right, a repeated pair means another one is missing
    seen_on = np.zeros((n_max, n_tau), dtype=int)
    for k, (line_no, row) in enumerate(rows):
        parts = row.split(",")
        if len(parts) != 3:
            raise FileFormatError(
                f"{path}:{line_no}: expected 3 fields, found {len(parts)}")
        try:
            n, idx, val = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise FileFormatError(f"{path}:{line_no}: non-numeric field")
        if not (0 <= n < n_max and 0 <= idx < n_tau):
            raise FileFormatError(
                f"{path}:{line_no}: index ({n}, {idx}) out of range")
        if seen_on[n, idx]:
            raise FileFormatError(
                f"{path}:{line_no}: pair ({n}, {idx}) repeats line {seen_on[n, idx]}")
        if not np.isfinite(val):
            raise NonFiniteEntryError(
                f"{path}:{line_no}: non-finite entry in row {k}")
        seen_on[n, idx] = line_no
        values[n, idx] = val
    return SpectralData(alpha, beta, tau_grid, tau_weights, values)
