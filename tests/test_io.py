"""Persistence round trips and the distinct failure modes."""

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
