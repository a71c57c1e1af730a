"""End-to-end command-line tests through main(argv)."""

import gc
import warnings

import numpy as np
import pytest

from grushin import io as gio
from grushin.cli import main
from grushin.diffop import GridFunction2D
from grushin.functions import wave_packet
from grushin.gtransform import PlaneFunction, SpectralData, TypePair, default_tau_rule
from grushin.heat import HeatParams, heat_apply, heat_kernel_half


@pytest.fixture
def packet_grid_file(tmp_path):
    """The round-trip packet sampled finely enough for cubic interpolation."""
    fr = wave_packet(2.0, 0.6, 3.0)
    fs = wave_packet(3.2, 0.9, 5.5)
    r = np.arange(0.05, 5.35, 0.02)
    s = np.arange(0.05, 8.2, 0.02)
    grid = GridFunction2D(r, s, fr(r)[:, None] * fs(s)[None, :])
    path = tmp_path / "f.csv"
    gio.write_grid(path, grid, alpha=0.4, beta=0.25)
    return path, grid


@pytest.fixture
def spectral_file(tmp_path):
    rule = default_tau_rule(upper=4.0, panels=4)
    values = np.random.default_rng(3).standard_normal((4, len(rule.nodes)))
    path = tmp_path / "F.csv"
    gio.write_spectral(path, SpectralData(0.5, 0.25, rule.nodes, rule.weights, values))
    return path


def test_heat_kernel_prints_closed_form(capsys):
    code = main(["heat-kernel", "--t", "0.5", "--alpha", "-0.5", "--beta", "-0.5",
                 "--point", "1,1,1,1"])
    assert code == 0
    printed = float(capsys.readouterr().out.strip())
    want = heat_kernel_half(0.5, 1.0, 1.0, 1.0, 1.0, variant="cosh")
    assert printed == pytest.approx(want, rel=1e-6)


def test_transform_round_trip(tmp_path, packet_grid_file):
    fpath, grid = packet_grid_file
    spath = tmp_path / "F.csv"
    assert main(["gtransform", "--alpha", "0.4", "--beta", "0.25",
                 "--input", str(fpath), "--nmax", "64",
                 "--output", str(spath)]) == 0

    # probe at a subset of the original grid nodes
    take_r = np.arange(95, 140, 9)
    take_s = np.arange(150, 190, 8)
    pts = [(grid.r_nodes[i], grid.s_nodes[j]) for i in take_r for j in take_s]
    ppath = tmp_path / "pts.csv"
    ppath.write_text("".join(f"{r:.16e},{s:.16e}\n" for r, s in pts))
    opath = tmp_path / "g.csv"
    assert main(["igtransform", "--input", str(spath), "--points", str(ppath),
                 "--output", str(opath)]) == 0

    rows = [ln.split(",") for ln in opath.read_text().splitlines()
            if not ln.startswith("#")]
    got = np.array([float(r[2]) for r in rows])
    want = np.array([grid.values[i, j] for i in take_r for j in take_s])
    scale = np.max(np.abs(grid.values))
    assert np.sqrt(np.mean((got - want) ** 2)) / scale < 1e-3


def test_heat_apply_routes_agree(tmp_path, packet_grid_file):
    fpath, grid = packet_grid_file
    ppath = tmp_path / "pts.csv"
    ppath.write_text("2.0,3.0\n1.6,2.6\n")
    outs = []
    for route in ("kernel", "spectral"):
        opath = tmp_path / f"out_{route}.csv"
        assert main(["heat-apply", "--t", "0.5", "--alpha", "0.4",
                     "--beta", "0.25", "--input", str(fpath),
                     "--points", str(ppath), "--route", route,
                     "--output", str(opath)]) == 0
        rows = [ln.split(",") for ln in opath.read_text().splitlines()
                if not ln.startswith("#")]
        outs.append(np.array([float(r[2]) for r in rows]))
    assert np.max(np.abs(outs[0] - outs[1]) / np.abs(outs[0])) < 1e-3


@pytest.mark.parametrize("route", ["kernel", "spectral"])
def test_heat_apply_of_a_grid_file_matches_the_analytic_packet(
        tmp_path, packet_grid_file, route):
    # the grid file's spline stands in for the packet it samples: the heat
    # flow of both agree to far below the interpolation error of a pointwise
    # cubic (the packet is cut to the grid box in both)
    fpath, grid = packet_grid_file
    pts = np.array([[2.0, 3.0], [1.6, 2.6], [2.4, 3.7]])
    ppath = tmp_path / "pts.csv"
    ppath.write_text("".join(f"{r:.17g},{s:.17g}\n" for r, s in pts))
    opath = tmp_path / "out.csv"
    assert main(["heat-apply", "--t", "0.5", "--alpha", "0.4", "--beta", "0.25",
                 "--input", str(fpath), "--points", str(ppath), "--route", route,
                 "--output", str(opath)]) == 0
    got = np.array([float(ln.split(",")[2]) for ln in opath.read_text().splitlines()
                    if not ln.startswith("#")])
    fr, fs = wave_packet(2.0, 0.6, 3.0), wave_packet(3.2, 0.9, 5.5)
    box = ((grid.r_nodes[0], grid.r_nodes[-1]), (grid.s_nodes[0], grid.s_nodes[-1]))
    packet = PlaneFunction(fn=lambda r, s: fr(r) * fs(s), support=box)
    want = heat_apply(HeatParams(0.5, TypePair(0.4, 0.25)), packet, pts, route=route)
    assert np.max(np.abs(got - want)) < 1e-7 * np.max(np.abs(want))


def _data_rows(path):
    text = path.read_text()
    assert "# count=1\n" in text
    return sum(1 for ln in text.splitlines() if not ln.startswith("#"))


@pytest.mark.parametrize("route", ["kernel", "spectral"])
def test_one_point_heat_apply_writes_one_row(tmp_path, packet_grid_file, route):
    fpath, _ = packet_grid_file
    ppath = tmp_path / "pts.csv"
    ppath.write_text("2.0,3.0\n")
    opath = tmp_path / "out.csv"
    assert main(["heat-apply", "--t", "0.5", "--alpha", "0.4", "--beta", "0.25",
                 "--input", str(fpath), "--points", str(ppath), "--route", route,
                 "--output", str(opath)]) == 0
    assert _data_rows(opath) == 1


def test_one_point_igtransform_writes_one_row(tmp_path, spectral_file):
    ppath = tmp_path / "pts.csv"
    ppath.write_text("1.0,2.0\n")
    opath = tmp_path / "g.csv"
    assert main(["igtransform", "--input", str(spectral_file), "--points", str(ppath),
                 "--output", str(opath)]) == 0
    assert _data_rows(opath) == 1


def test_profiles_command(tmp_path):
    opath = tmp_path / "p.csv"
    assert main(["profiles", "--kind", "F1", "--alpha", "0.25", "--beta", "0.4",
                 "--grid", "log:1e-3:1e-2:10", "--output", str(opath)]) == 0
    rows = [ln for ln in opath.read_text().splitlines() if not ln.startswith("#")]
    assert len(rows) == 10
    xs, vals = np.array([[float(t) for t in r.split(",")] for r in rows]).T
    slope = np.polyfit(np.log(xs), np.log(vals), 1)[0]
    assert abs(slope - 0.8) < 0.1


def test_profiles_f2_past_the_iv_overflow_is_finite(tmp_path):
    # F2 at r = 30 and 40 needs e^-x I_a(x) past x = 700, where I_a overflows
    opath = tmp_path / "p.csv"
    assert main(["profiles", "--kind", "F2", "--alpha", "0.0", "--beta", "0.0",
                 "--grid", "lin:10:40:4", "--output", str(opath)]) == 0
    text = opath.read_text()
    assert "nan" not in text.lower()
    rows = [ln for ln in text.splitlines() if not ln.startswith("#")]
    vals = np.array([float(r.split(",")[1]) for r in rows])
    assert len(vals) == 4 and np.all(vals > 0.0)


def test_verify_suite_exit_codes():
    assert main(["verify", "--suite", "laguerre"]) == 0
    # an absurdly tightened tolerance must flip to failure (exit 1)
    assert main(["verify", "--suite", "laguerre", "--tol-scale", "1e-20"]) == 1


def test_usage_error_exit_code():
    assert main(["gtransform", "--alpha", "0.0"]) == 2
    assert main(["bogus-subcommand"]) == 2


def test_determinism(tmp_path, packet_grid_file):
    fpath, _ = packet_grid_file
    outs = []
    for tag in ("a", "b"):
        opath = tmp_path / f"F_{tag}.csv"
        main(["gtransform", "--alpha", "0.4", "--beta", "0.25",
              "--input", str(fpath), "--nmax", "16", "--output", str(opath)])
        outs.append(opath.read_bytes())
    assert outs[0] == outs[1]


def test_config_file_supplies_missing_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t=0.5\nalpha=-0.5\nbeta=-0.5\n")
    code = main(["heat-kernel", "--t", "0.5", "--alpha", "-0.5", "--beta", "-0.5",
                 "--point", "1,1,1,1"])
    want = capsys.readouterr().out
    # config fills in every flag that was not given
    code2 = main(["heat-kernel", "--point", "1,1,1,1", "--config", str(cfg)])
    got2 = capsys.readouterr().out
    assert code == 0 and code2 == 0 and got2 == want
    # an explicit flag beats the config value
    code3 = main(["heat-kernel", "--t", "2.0", "--point", "1,1,1,1",
                  "--config", str(cfg)])
    got3 = capsys.readouterr().out
    assert code3 == 0 and got3 != want


def test_missing_required_flag_is_usage_error():
    assert main(["heat-kernel", "--t", "0.5", "--alpha", "0.0",
                 "--beta", "0.0"]) == 2


def test_numeric_failure_cites_origin(capsys):
    # out-of-range type parameter fails with the originating module named
    code = main(["heat-kernel", "--t", "0.5", "--alpha", "-1.5",
                 "--beta", "0.0", "--point", "1,1,1,1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "heat-kernel" in err and "ValueError" in err


def test_bad_grid_spec(tmp_path):
    code = main(["profiles", "--kind", "F1", "--alpha", "0.0", "--beta", "0.0",
                 "--grid", "weird:1:2:3", "--output", str(tmp_path / "x.csv")])
    assert code == 2


@pytest.mark.parametrize("spec", ["lin:1:2:0", "log:1:2:0", "lin:1:2:-3"])
def test_grid_count_below_one_is_usage_error(tmp_path, capsys, spec):
    opath = tmp_path / "p.csv"
    code = main(["profiles", "--kind", "F1", "--alpha", "0.3", "--beta", "0.2",
                 "--grid", spec, "--output", str(opath)])
    assert code == 2 and not opath.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: --grid count must be >= 1, got ")
    assert "Traceback" not in err


@pytest.mark.parametrize("spec", ["log:0:1:5", "log:-1:1:5", "log:1e-3:0:5",
                                  "log:nan:1:5"])
def test_log_grid_bounds_must_be_positive(tmp_path, capsys, spec):
    opath = tmp_path / "p.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["profiles", "--kind", "F1", "--alpha", "0.3", "--beta", "0.2",
                     "--grid", spec, "--output", str(opath)])
    assert code == 2 and not opath.exists()
    assert capsys.readouterr().err.startswith("error: --grid log bounds must be > 0, got lo=")


def test_thread_env_var_validation(monkeypatch):
    from grushin._util import thread_count
    monkeypatch.setenv("GRUSHIN_THREADS", "3")
    assert thread_count() == 3
    monkeypatch.setenv("GRUSHIN_THREADS", "0")
    assert thread_count() >= 1
    monkeypatch.setenv("GRUSHIN_THREADS", "many")
    with pytest.raises(ValueError):
        thread_count()


def test_parallel_map_keeps_item_order(monkeypatch):
    import threading

    from grushin._util import parallel_map
    for threads in ("1", "4"):
        monkeypatch.setenv("GRUSHIN_THREADS", threads)
        seen = []
        lock = threading.Lock()

        def square(i):
            with lock:
                seen.append(i)
            return i * i

        assert parallel_map(square, range(200)) == [i * i for i in range(200)]
        assert sorted(seen) == list(range(200))


def test_every_file_is_closed(tmp_path, capsys, spectral_file):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t=0.5\nalpha=-0.5\nbeta=-0.5\n")
    ppath = tmp_path / "pts.csv"
    ppath.write_text("1.0,2.0\n1.5,0.5\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert main(["heat-kernel", "--point", "1,1,1,1", "--config", str(cfg)]) == 0
        assert main(["igtransform", "--input", str(spectral_file), "--points", str(ppath),
                     "--output", str(tmp_path / "g.csv")]) == 0
        gc.collect()
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []


# each of these points files used to run to exit 0 writing nan, or fail with
# a message that named neither the file nor the line
BAD_POINTS = [("nan,1.0", "r=nan"), ("1.0,-2.0", "s=-2.0"), ("0,1.0", "r=0.0"),
              ("1.0,abc", "non-numeric field")]


@pytest.mark.parametrize("row, named", BAD_POINTS)
def test_igtransform_rejects_points_outside_open_quarter_plane(
        tmp_path, capsys, spectral_file, row, named):
    ppath = tmp_path / "pts.csv"
    ppath.write_text(f"1.0,2.0\n{row}\n")
    opath = tmp_path / "g.csv"
    code = main(["igtransform", "--input", str(spectral_file), "--points", str(ppath),
                 "--output", str(opath)])
    err = capsys.readouterr().err
    assert code == 2 and f"{ppath}:2: " in err and named in err
    assert not opath.exists()


@pytest.mark.parametrize("route", ["kernel", "spectral"])
@pytest.mark.parametrize("row, named", BAD_POINTS[:2])
def test_heat_apply_rejects_points_outside_open_quarter_plane(
        tmp_path, capsys, packet_grid_file, route, row, named):
    fpath, _ = packet_grid_file
    ppath = tmp_path / "pts.csv"
    ppath.write_text(f"{row}\n")
    code = main(["heat-apply", "--t", "0.5", "--alpha", "0.4", "--beta", "0.25",
                 "--input", str(fpath), "--points", str(ppath), "--route", route,
                 "--output", str(tmp_path / "out.csv")])
    err = capsys.readouterr().err
    assert code == 2 and f"{ppath}:1: " in err and named in err


@pytest.mark.parametrize("point, named", [("nan,1,1,1", "r"), ("1,inf,1,1", "s")])
def test_heat_kernel_rejects_nonfinite_point(capsys, point, named):
    code = main(["heat-kernel", "--t", "0.5", "--alpha", "0.0", "--beta", "0.0",
                 "--point", point])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert f"error [heat-kernel]: ValueError: {named} must be a finite real > 0" in err


def test_profiles_rejects_nan_grid(tmp_path, capsys):
    opath = tmp_path / "p.csv"
    code = main(["profiles", "--kind", "F1", "--alpha", "0.0", "--beta", "0.0",
                 "--grid", "lin:nan:1:3", "--output", str(opath)])
    assert code == 2 and not opath.exists()
    assert "x_grid[0] must be a finite real > 0, got nan" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["profiles", "--kind", "F2", "--alpha", "-0.9", "--beta", "0.5",
     "--grid", "lin:10:40:4", "--output", "unused.csv"],
    ["heat-kernel", "--t", "1e-4", "--alpha", "0.3", "--beta", "0.45",
     "--point", "1,1,1,1"]])
def test_rule_size_error_exits_2(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(
        f"error [{argv[0]}]: grushin.quadrature.QuadratureError: rule needs ")
    assert "Traceback" not in err and not (tmp_path / "unused.csv").exists()


def test_missing_required_flags_are_named(capsys):
    code = main(["heat-apply", "--t", "0.5", "--alpha", "0.0"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: heat-apply: missing required flag(s): --beta, --input, --points, --output\n")


def _set_first_entry(path, field, token):
    lines = path.read_text().splitlines()
    prefix = f"# {field}="
    i = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    lines[i] = prefix + ",".join([token] + lines[i][len(prefix):].split(",")[1:])
    path.write_text("\n".join(lines) + "\n")


# each of these headers used to run to exit 0 writing nan or inf, or fail with a
# ValueError that named neither the file nor the field
@pytest.mark.parametrize("field", ["tau_grid", "tau_weights"])
@pytest.mark.parametrize("token", ["nan", "inf", "-1"])
def test_igtransform_rejects_bad_spectral_header(tmp_path, capsys, spectral_file, field,
                                                 token):
    _set_first_entry(spectral_file, field, token)
    ppath = tmp_path / "pts.csv"
    ppath.write_text("1.0,2.0\n")
    opath = tmp_path / "g.csv"
    code = main(["igtransform", "--input", str(spectral_file), "--points", str(ppath),
                 "--output", str(opath)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"HeaderError: {spectral_file}: header field {field}[0] must be" in err
    assert not opath.exists()
