"""Persistence round trips and the distinct failure modes."""

import re

import numpy as np
import pytest

from grushin import io as gio
from grushin.diffop import GridFunction2D
from grushin.gtransform import SpectralData, default_tau_rule


@pytest.fixture
def grid():
    r = np.linspace(0.5, 2.0, 7)
    s = np.linspace(1.0, 3.0, 5)
    values = np.outer(np.sin(r), np.cos(s)) * np.pi
    return GridFunction2D(r, s, values)


@pytest.fixture
def spectral():
    rule = default_tau_rule(upper=4.0, panels=4)
    rng = np.random.default_rng(9)
    values = rng.standard_normal((6, len(rule.nodes)))
    return SpectralData(0.5, -0.25, rule.nodes, rule.weights, values)


class TestGridFiles:
    def test_round_trip_is_exact(self, grid, tmp_path):
        path = tmp_path / "g.csv"
        gio.write_grid(path, grid, alpha=0.5, beta=-0.3)
        back, alpha, beta = gio.read_grid(path)
        assert alpha == 0.5 and beta == -0.3
        assert np.array_equal(back.r_nodes, grid.r_nodes)
        assert np.array_equal(back.s_nodes, grid.s_nodes)
        assert np.array_equal(back.values, grid.values)

    def test_missing_header_field(self, grid, tmp_path):
        path = tmp_path / "g.csv"
        gio.write_grid(path, grid)
        lines = path.read_text().splitlines()
        del lines[2]  # the nr field
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(gio.HeaderError, match="nr"):
            gio.read_grid(path)

    def test_nan_row_cites_line(self, grid, tmp_path):
        path = tmp_path / "g.csv"
        gio.write_grid(path, grid)
        lines = path.read_text().splitlines()
        r, s, _ = lines[11].split(",")
        lines[11] = f"{r},{s},nan"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(gio.NonFiniteEntryError, match=":12:"):
            gio.read_grid(path)

    def test_row_count_mismatch(self, grid, tmp_path):
        path = tmp_path / "g.csv"
        gio.write_grid(path, grid)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(gio.RowCountError):
            gio.read_grid(path)

    def test_malformed_row(self, grid, tmp_path):
        path = tmp_path / "g.csv"
        gio.write_grid(path, grid)
        lines = path.read_text().splitlines()
        lines[7] = "1.0,2.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(gio.FileFormatError, match="3 fields"):
            gio.read_grid(path)

    def test_blank_line_keeps_file_line_numbers(self, grid, tmp_path):
        path = tmp_path / "g.csv"
        gio.write_grid(path, grid)
        lines = path.read_text().splitlines()
        lines.insert(6, "")
        r, s, _ = lines[9].split(",")
        lines[9] = f"{r},{s},nan"  # file line 10, after one blank body line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(gio.NonFiniteEntryError, match=":10:"):
            gio.read_grid(path)

    def test_blank_line_keeps_coordinate_line_number(self, grid, tmp_path):
        path = tmp_path / "g.csv"
        gio.write_grid(path, grid)
        lines = path.read_text().splitlines()
        lines.insert(5, "")
        lines.insert(8, "   ")
        value = lines[12].split(",")[2]
        lines[12] = f"9.0,7.0,{value}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(gio.FileFormatError, match=":13:"):
            gio.read_grid(path)

    def test_every_row_coordinate_checked(self, tmp_path):
        r = np.linspace(0.5, 2.5, 9)
        s = np.linspace(1.0, 4.0, 13)
        path = tmp_path / "g.csv"
        gio.write_grid(path, GridFunction2D(r, s, np.outer(r, s)))
        lines = path.read_text().splitlines()
        row = 4 + 30  # data row 30, past the first row and column
        value = lines[row].split(",")[2]
        lines[row] = f"9.0,7.0,{value}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(gio.FileFormatError, match=f":{row + 1}:"):
            gio.read_grid(path)


class TestSpectralFiles:
    def test_round_trip_preserves_norm_exactly(self, spectral, tmp_path):
        from grushin.gtransform import plancherel_norm
        path = tmp_path / "sd.csv"
        gio.write_spectral(path, spectral)
        back = gio.read_spectral(path)
        assert plancherel_norm(back) == plancherel_norm(spectral)
        assert np.array_equal(back.values, spectral.values)
        assert np.array_equal(back.tau_weights, spectral.tau_weights)

    def test_truncated_file_row_count(self, spectral, tmp_path):
        path = tmp_path / "sd.csv"
        gio.write_spectral(path, spectral)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-5]) + "\n")
        with pytest.raises(gio.RowCountError):
            gio.read_spectral(path)

    def test_out_of_range_parameters(self, spectral, tmp_path):
        path = tmp_path / "sd.csv"
        gio.write_spectral(path, spectral)
        text = path.read_text().replace("# alpha=5.0000000000000000e-01",
                                        "# alpha=-1.5000000000000000e+00")
        path.write_text(text)
        with pytest.raises(gio.ParameterError):
            gio.read_spectral(path)

    @pytest.mark.parametrize("entry", ["# alpha=nan", "# alpha=inf", "# beta=-inf"])
    def test_nonfinite_type_parameter_names_the_file(self, spectral, tmp_path, entry):
        path = tmp_path / "sd.csv"
        gio.write_spectral(path, spectral)
        key = entry[2:].split("=")[0]
        lines = [entry if ln.startswith(f"# {key}=") else ln
                 for ln in path.read_text().splitlines()]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(gio.ParameterError, match="type parameters must be finite") as err:
            gio.read_spectral(path)
        assert str(path) in str(err.value)

    def test_header_grid_length_mismatch(self, spectral, tmp_path):
        path = tmp_path / "sd.csv"
        gio.write_spectral(path, spectral)
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines):
            if line.startswith("# n_tau="):
                lines[i] = "# n_tau=7"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(gio.HeaderError):
            gio.read_spectral(path)

    def test_nonfinite_entry(self, spectral, tmp_path):
        path = tmp_path / "sd.csv"
        gio.write_spectral(path, spectral)
        lines = path.read_text().splitlines()
        n, k, _ = lines[10].split(",")
        lines[10] = f"{n},{k},inf"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(gio.NonFiniteEntryError):
            gio.read_spectral(path)

    def test_repeated_pair_rejected(self, spectral, tmp_path):
        path = tmp_path / "sd.csv"
        values = spectral.values.copy()
        values[0, 1] = 2.0
        gio.write_spectral(path, SpectralData(spectral.alpha, spectral.beta,
                                              spectral.tau_grid, spectral.tau_weights,
                                              values))
        lines = path.read_text().splitlines()
        first = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
        lines[first + 1] = lines[first]  # pair (0, 0) twice, (0, 1) missing
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(gio.FileFormatError,
                           match=rf":{first + 2}: pair \(0, 0\) repeats line {first + 1}"):
            gio.read_spectral(path)

    def test_blank_line_keeps_file_line_numbers(self, spectral, tmp_path):
        path = tmp_path / "sd.csv"
        gio.write_spectral(path, spectral)
        lines = path.read_text().splitlines()
        first = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
        lines.insert(first + 2, "")
        n, k, _ = lines[first + 4].split(",")
        lines[first + 4] = f"{n},{k},nan"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(gio.NonFiniteEntryError, match=f":{first + 5}:"):
            gio.read_spectral(path)

    def test_complex_values_rejected_before_writing(self, spectral, tmp_path):
        path = tmp_path / "sd.csv"
        sd = SpectralData(spectral.alpha, spectral.beta, spectral.tau_grid,
                          spectral.tau_weights, spectral.values * (1.0 + 1.0j))
        with pytest.raises(gio.FileFormatError, match="values.*complex128"):
            gio.write_spectral(path, sd)
        assert not path.exists()


def _write_with_field(grid, spectral, path, kind, field, token, body=True):
    if kind == "grid":
        gio.write_grid(path, grid)
    else:
        gio.write_spectral(path, spectral)
    lines = [f"# {field}={token}" if ln.startswith(f"# {field}=") else ln
             for ln in path.read_text().splitlines() if body or ln.startswith("#")]
    path.write_text("\n".join(lines) + "\n")


# each of these counts used to fail with a bare ValueError or OverflowError, or
# with a row-count or node-count message, none of which named the header field
@pytest.mark.parametrize("kind, field", [("grid", "nr"), ("grid", "ns"),
                                         ("spectral", "n_max"), ("spectral", "n_tau")])
@pytest.mark.parametrize("token", ["nan", "inf", "0", "-1", "1.5"])
def test_header_count_is_an_integer_of_at_least_one(grid, spectral, tmp_path, kind, field,
                                                     token):
    path = tmp_path / f"{kind}.csv"
    _write_with_field(grid, spectral, path, kind, field, token)
    read = gio.read_grid if kind == "grid" else gio.read_spectral
    with pytest.raises(gio.HeaderError, match=re.escape(
            f"{path}: header field {field} must be an integer >= 1, got ")):
        read(path)


def test_spectral_file_of_zero_orders_is_rejected(grid, spectral, tmp_path):
    # used to read as a SpectralData with no orders and a zero norm
    path = tmp_path / "sd.csv"
    _write_with_field(grid, spectral, path, "spectral", "n_max", "0", body=False)
    with pytest.raises(gio.HeaderError, match="n_max must be an integer >= 1, got 0.0"):
        gio.read_spectral(path)


# the checks of GridFunction2D and SpectralData used to escape the readers as
# bare ValueErrors that named no file
@pytest.mark.parametrize("r, message", [
    ([0.5, 0.6, 0.8, 0.9, 1.0], "r_nodes must be uniformly spaced"),
    ([0.5, 1.0, 1.5], "r_nodes must be 1-d with at least 5 nodes"),
    ([-1.0, 0.0, 1.0, 2.0, 3.0], "r_nodes[0] must be a finite real > 0, got -1.0")],
    ids=["non-uniform r", "three r nodes", "negative r"])
def test_grid_node_checks_name_the_file(tmp_path, r, message):
    path = tmp_path / "g.csv"
    s = np.linspace(1.0, 2.0, 5)
    rows = [f"{x},{y:.16e},1.0" for x in r for y in s]
    path.write_text(f"# alpha=0\n# beta=0\n# nr={len(r)}\n# ns=5\n" + "\n".join(rows) + "\n")
    with pytest.raises(gio.FileFormatError, match=f"^{re.escape(f'{path}: {message}')}$"):
        gio.read_grid(path)


def _swap_first_taus(spectral, path):
    taus = spectral.tau_grid.copy()
    taus[[0, 1]] = taus[[1, 0]]
    _write_with_field(None, spectral, path, "spectral", "tau_grid",
                      ",".join(f"{t:.16e}" for t in taus))


@pytest.mark.parametrize("edit, message", [
    (lambda sd, path: _write_with_field(None, sd, path, "spectral", "alpha", "2e4"),
     "alpha must be a finite real > -1 and <= 10000, got 20000.0"),
    (_swap_first_taus, "tau_grid must be strictly increasing")],
    ids=["alpha past the bound", "tau_grid out of order"])
def test_spectral_header_checks_name_the_file(spectral, tmp_path, edit, message):
    path = tmp_path / "sd.csv"
    edit(spectral, path)
    with pytest.raises(gio.ParameterError, match=f"^{re.escape(f'{path}: {message}')}$"):
        gio.read_spectral(path)


# ------------------------------------------------------------ reference code
# The per-row readers and the writers that the shared record reader and writer
# replaced, kept to pin down their messages and bytes.

def _parse_header_reference(lines, path):
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
            raise gio.HeaderError(f"{path}:{i + 1}: header line without '=': {line!r}")
        key, _, val = entry.partition("=")
        header[key.strip()] = val.strip()
    return header, body_start


def _body_rows_reference(lines, body):
    return [(i + 1, ln) for i, ln in enumerate(lines[body:], start=body) if ln.strip()]


def _check_types_reference(alpha, beta, path):
    if alpha <= -1.0 or beta <= -1.0:
        raise gio.ParameterError(
            f"{path}: type parameters must be > -1, got alpha={alpha}, beta={beta}")


def read_grid_reference(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    header, body = _parse_header_reference(lines, path)
    alpha = gio._header_float(header, "alpha", path)
    beta = gio._header_float(header, "beta", path)
    _check_types_reference(alpha, beta, path)
    nr = gio._header_int(header, "nr", path)
    ns = gio._header_int(header, "ns", path)
    rows = _body_rows_reference(lines, body)
    if len(rows) != nr * ns:
        raise gio.RowCountError(f"{path}: expected {nr * ns} rows, found {len(rows)}")
    data = np.empty((nr * ns, 3))
    for k, (line_no, row) in enumerate(rows):
        parts = row.split(",")
        if len(parts) != 3:
            raise gio.FileFormatError(
                f"{path}:{line_no}: expected 3 fields, found {len(parts)}")
        try:
            data[k] = [float(p) for p in parts]
        except ValueError:
            raise gio.FileFormatError(f"{path}:{line_no}: non-numeric field")
        if not np.all(np.isfinite(data[k])):
            raise gio.NonFiniteEntryError(
                f"{path}:{line_no}: non-finite entry in row {k}")
    r_nodes = data[::ns, 0]
    s_nodes = data[:ns, 1]
    bad = (data[:, 0] != np.repeat(r_nodes, ns)) | (data[:, 1] != np.tile(s_nodes, nr))
    if np.any(bad):
        k = int(np.argmax(bad))
        raise gio.FileFormatError(
            f"{path}:{rows[k][0]}: coordinates ({data[k, 0]!r}, {data[k, 1]!r}) are "
            f"not the r-major grid point ({r_nodes[k // ns]!r}, {s_nodes[k % ns]!r})")
    values = data[:, 2].reshape(nr, ns)
    return GridFunction2D(r_nodes, s_nodes, values), alpha, beta


def read_spectral_reference(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    header, body = _parse_header_reference(lines, path)
    alpha = gio._header_float(header, "alpha", path)
    beta = gio._header_float(header, "beta", path)
    _check_types_reference(alpha, beta, path)
    n_max = gio._header_int(header, "n_max", path)
    n_tau = gio._header_int(header, "n_tau", path)
    tau_grid = gio._header_array(header, "tau_grid", path)
    tau_weights = gio._header_array(header, "tau_weights", path)
    if len(tau_grid) != n_tau or len(tau_weights) != n_tau:
        raise gio.HeaderError(f"{path}: tau grid/weights do not match n_tau={n_tau}")
    rows = _body_rows_reference(lines, body)
    if len(rows) != n_max * n_tau:
        raise gio.RowCountError(
            f"{path}: expected {n_max * n_tau} rows, found {len(rows)}")
    values = np.empty((n_max, n_tau))
    seen_on = np.zeros((n_max, n_tau), dtype=int)
    for k, (line_no, row) in enumerate(rows):
        parts = row.split(",")
        if len(parts) != 3:
            raise gio.FileFormatError(
                f"{path}:{line_no}: expected 3 fields, found {len(parts)}")
        try:
            n, idx, val = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise gio.FileFormatError(f"{path}:{line_no}: non-numeric field")
        if not (0 <= n < n_max and 0 <= idx < n_tau):
            raise gio.FileFormatError(
                f"{path}:{line_no}: index ({n}, {idx}) out of range")
        if seen_on[n, idx]:
            raise gio.FileFormatError(
                f"{path}:{line_no}: pair ({n}, {idx}) repeats line {seen_on[n, idx]}")
        if not np.isfinite(val):
            raise gio.NonFiniteEntryError(
                f"{path}:{line_no}: non-finite entry in row {k}")
        seen_on[n, idx] = line_no
        values[n, idx] = val
    return SpectralData(alpha, beta, tau_grid, tau_weights, values)


def _fmt_reference(x):
    return f"{x:.16e}"


def write_grid_reference(path, grid, alpha=0.0, beta=0.0):
    with open(path, "w") as fh:
        fh.write(f"# alpha={_fmt_reference(alpha)}\n")
        fh.write(f"# beta={_fmt_reference(beta)}\n")
        fh.write(f"# nr={len(grid.r_nodes)}\n")
        fh.write(f"# ns={len(grid.s_nodes)}\n")
        for i, r in enumerate(grid.r_nodes):
            for j, s in enumerate(grid.s_nodes):
                fh.write(f"{_fmt_reference(r)},{_fmt_reference(s)},"
                         f"{_fmt_reference(grid.values[i, j])}\n")


def write_spectral_reference(path, sd):
    with open(path, "w") as fh:
        fh.write(f"# alpha={_fmt_reference(sd.alpha)}\n")
        fh.write(f"# beta={_fmt_reference(sd.beta)}\n")
        fh.write(f"# n_max={sd.n_max}\n")
        fh.write(f"# n_tau={len(sd.tau_grid)}\n")
        fh.write("# tau_grid=" + ",".join(_fmt_reference(t) for t in sd.tau_grid) + "\n")
        fh.write("# tau_weights=" + ",".join(_fmt_reference(w) for w in sd.tau_weights)
                 + "\n")
        for n in range(sd.n_max):
            for k in range(len(sd.tau_grid)):
                fh.write(f"{n},{k},{_fmt_reference(sd.values[n, k])}\n")


def write_points_reference(path, pts, values):
    with open(path, "w") as fh:
        fh.write(f"# count={len(values)}\n")
        for (r, s), v in zip(pts, values):
            fh.write(f"{r:.16e},{s:.16e},{v:.16e}\n")


def write_profile_reference(path, kind, alpha, beta, xs, vals):
    with open(path, "w") as fh:
        fh.write(f"# kind={kind}\n")
        fh.write(f"# alpha={alpha:.16e}\n")
        fh.write(f"# beta={beta:.16e}\n")
        for x, v in zip(xs, vals):
            fh.write(f"{x:.16e},{v:.16e}\n")


def _outcome(read, path):
    """The exception class and message a reader raises, or what it returns."""
    try:
        out = read(path)
    except gio.FileFormatError as exc:
        return type(exc), str(exc)
    if isinstance(out, SpectralData):
        return "ok", (out.alpha, out.beta, out.tau_grid.tolist(),
                      out.tau_weights.tolist(), out.values.tolist())
    grid, alpha, beta = out
    return "ok", (alpha, beta, grid.r_nodes.tolist(), grid.s_nodes.tolist(),
                  grid.values.tolist())


def _set_field(lines, i, j, text):
    parts = lines[i].split(",")
    parts[j] = text
    lines[i] = ",".join(parts)


def _blank_then_nan(lines):
    lines.insert(6, "")
    _set_field(lines, 9, 2, "nan")


def _blank_then_coordinates(lines):
    lines.insert(5, "")
    lines.insert(8, "   ")
    _set_field(lines, 12, 0, "9.0")
    _set_field(lines, 12, 1, "7.0")


# edits of a written 7 x 5 grid file: its header is lines 0-3
GRID_EDITS = {
    "unchanged": lambda lines: None,
    "missing header field": lambda lines: lines.pop(2),
    "header line without '='": lambda lines: lines.insert(1, "# free comment"),
    "nan value": lambda lines: _set_field(lines, 11, 2, "nan"),
    "infinite coordinate": lambda lines: _set_field(lines, 20, 0, "-inf"),
    "row count": lambda lines: lines.__delitem__(slice(-3, None)),
    "two fields": lambda lines: lines.__setitem__(7, "1.0,2.0"),
    "four fields": lambda lines: lines.__setitem__(30, lines[30] + ",1.0"),
    "non-numeric value": lambda lines: _set_field(lines, 9, 2, "abc"),
    "empty field": lambda lines: _set_field(lines, 9, 1, ""),
    "blank line before nan": _blank_then_nan,
    "blank lines before coordinates": _blank_then_coordinates,
    "coordinates past first row and column": lambda lines: (
        _set_field(lines, 34, 0, "9.0"), _set_field(lines, 34, 1, "7.0")),
    "underscore digits": lambda lines: _set_field(lines, 12, 2, "1_0"),
    "type parameter": lambda lines: lines.__setitem__(0, "# alpha=-2"),
    "inf before a non-numeric field": lambda lines: (
        _set_field(lines, 11, 2, "inf"), _set_field(lines, 30, 2, "abc")),
}


@pytest.mark.parametrize("edit", GRID_EDITS, ids=list(GRID_EDITS))
def test_grid_reader_matches_per_row_reference(grid, tmp_path, edit):
    path = tmp_path / "g.csv"
    gio.write_grid(path, grid, alpha=0.5, beta=-0.3)
    lines = path.read_text().splitlines()
    GRID_EDITS[edit](lines)
    path.write_text("\n".join(lines) + "\n")
    assert _outcome(gio.read_grid, path) == _outcome(read_grid_reference, path)


# edits of a written spectral file: its header is lines 0-5, n_tau = 176
SPECTRAL_EDITS = {
    "unchanged": lambda lines: None,
    "truncated": lambda lines: lines.__delitem__(slice(-5, None)),
    "type parameter": lambda lines: lines.__setitem__(0, "# alpha=-1.5"),
    "n_tau mismatch": lambda lines: lines.__setitem__(3, "# n_tau=7"),
    "infinite value": lambda lines: _set_field(lines, 10, 2, "inf"),
    "repeated pair": lambda lines: lines.__setitem__(7, lines[6]),
    "blank line before nan": lambda lines: (
        lines.insert(8, ""), _set_field(lines, 10, 2, "nan")),
    "index written 1.0": lambda lines: _set_field(lines, 9, 0, "1.0"),
    "n out of range": lambda lines: _set_field(lines, 12, 0, "6"),
    "tau_index out of range": lambda lines: _set_field(lines, 12, 1, "-1"),
    "out of range and nan in one row": lambda lines: (
        _set_field(lines, 12, 1, "999"), _set_field(lines, 12, 2, "nan")),
    "repeat and nan in one row": lambda lines: (
        lines.__setitem__(9, lines[8]), _set_field(lines, 9, 2, "nan")),
    "non-numeric index": lambda lines: _set_field(lines, 15, 1, "x"),
    "two fields": lambda lines: lines.__setitem__(20, "0,1"),
    "shuffled rows": lambda lines: lines.__setitem__(
        slice(6, None), lines[:5:-1]),
    "nan before n out of range": lambda lines: (
        _set_field(lines, 8, 2, "nan"), _set_field(lines, 12, 0, "6")),
}


@pytest.mark.parametrize("edit", SPECTRAL_EDITS, ids=list(SPECTRAL_EDITS))
def test_spectral_reader_matches_per_row_reference(spectral, tmp_path, edit):
    path = tmp_path / "sd.csv"
    gio.write_spectral(path, spectral)
    lines = path.read_text().splitlines()
    SPECTRAL_EDITS[edit](lines)
    path.write_text("\n".join(lines) + "\n")
    assert _outcome(gio.read_spectral, path) == _outcome(read_spectral_reference, path)


def test_writers_match_per_row_reference(grid, spectral, tmp_path):
    def same_bytes(write, write_reference, *args):
        write(tmp_path / "new.csv", *args)
        write_reference(tmp_path / "ref.csv", *args)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    assert np.any(grid.values < 0.0)
    same_bytes(gio.write_grid, write_grid_reference, grid, 0.5, -0.3)
    same_bytes(gio.write_grid, write_grid_reference,
               GridFunction2D(grid.r_nodes, grid.s_nodes, -grid.values))
    same_bytes(gio.write_spectral, write_spectral_reference, spectral)
    one_order = SpectralData(spectral.alpha, spectral.beta, spectral.tau_grid,
                             spectral.tau_weights, spectral.values[:1])
    same_bytes(gio.write_spectral, write_spectral_reference, one_order)
    pts = np.column_stack([grid.r_nodes, grid.r_nodes[::-1] * 3.0])
    same_bytes(gio.write_points, write_points_reference, pts, -np.sin(pts[:, 0]) * 1e-300)
    xs = np.logspace(-3, -1, 9)
    same_bytes(gio.write_profile, write_profile_reference, "F2", 0.25, -0.5, xs, xs ** 0.8)


class TestPointsFiles:
    def test_round_trip_and_header_ignored(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("# count=2\n\n1.5,2.5\n  \n3.0,1.0e-3\n")
        assert np.array_equal(gio.read_points(path), [[1.5, 2.5], [3.0, 1.0e-3]])

    @pytest.mark.parametrize("row, error, named", [
        ("nan,1.0", gio.FileFormatError, "r=nan"),
        ("1.0,inf", gio.FileFormatError, "s=inf"),
        ("1.0,-2.0", gio.FileFormatError, "s=-2.0"),
        ("0,1.0", gio.FileFormatError, "r=0.0"),
        ("1.0,abc", gio.FileFormatError, "non-numeric field"),
        ("1.0", gio.FileFormatError, "expected 2 fields, found 1"),
        ("# a comment after the first row", gio.FileFormatError, "expected 2 fields"),
    ])
    def test_bad_point_cites_line_and_coordinate(self, tmp_path, row, error, named):
        path = tmp_path / "pts.csv"
        path.write_text(f"1.0,2.0\n\n{row}\n4.0,5.0\n")
        with pytest.raises(error, match=f"^{path}:3: .*{named}"):
            gio.read_points(path)

    def test_first_bad_row_is_reported(self, tmp_path):
        # line 2's s is checked before line 3's r
        path = tmp_path / "pts.csv"
        path.write_text("1.0,2.0\n1.0,-2.0\nnan,5.0\n")
        with pytest.raises(gio.FileFormatError, match=f"^{path}:2: coordinate s=-2.0 "):
            gio.read_points(path)

    def test_free_form_leading_comment_is_a_header_error(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("# probe points\n1.0,2.0\n")
        with pytest.raises(gio.HeaderError, match=":1: header line without '='"):
            gio.read_points(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("# count=0\n\n")
        with pytest.raises(gio.RowCountError, match="no points found"):
            gio.read_points(path)
