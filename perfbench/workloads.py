"""The benchmark's workloads: seeded inputs, warm-up, one pass, accuracy.

Each pass is a fixed list of library calls run one after another (a closed
loop with one client).  Every op's output is checked for shape and
finiteness.  A pass has two stages, timed separately:

  cli_pipeline  stage 1 `grushin gtransform`   stage 2 `grushin igtransform`
  spectral      stage 1 three g_forward calls  stage 2 heat_apply, spectral route
  heat          stage 1 heat_apply, kernel     stage 2 the heat_kernel batch

Inputs are drawn from the seed without changing the amount of work: point
sets are fixed lattices shifted by a seeded offset within one cell, and the
kernel batch takes one jittered draw in each cell of a fixed design.  Runs
with different seeds therefore measure the same work, and their accuracy
figures differ only by the sampling of the same error.
"""

from __future__ import annotations

import os

import numpy as np
from scipy.special import gammaln

from grushin import cli, gtransform, heat
from grushin import io as gio
from grushin.diffop import GridFunction2D
from grushin.functions import packet_plane, power_gaussian, wave_packet
from grushin.gtransform import TypePair, default_tau_rule
from grushin.heat import HeatParams

# grid file of the cli workload: 265 x 408 nodes, as in the README
GRID_R = np.arange(0.05, 5.35, 0.02)
GRID_S = np.arange(0.05, 8.2, 0.02)
CLI_TYPES = (0.4, 0.25)
CLI_NMAX = 96
# (a, b, n_max) of the spectral workload's forward transforms; the last two
# sit at the negative-parameter defects of ROADMAP item 2
PLANCHEREL_CASES = (("err.plancherel", 0.5, 0.5, 256),
                    ("err.plancherel_bneg", 0.4, -0.9, 96),
                    ("err.plancherel_aneg", -0.9, 0.5, 96))
HEAT_T = 0.5
HEAT_TYPES = (0.4, 0.25)
KERNEL_PAIRS = ((-0.5, -0.5), (0.3, 0.45), (0.4, -0.9), (-0.9, 0.5))
KERNEL_BATCH = 32
# heat_kernel inputs that raise QuadratureError at this commit (ROADMAP item 2)
EDGE_INPUTS = (("t=1e-4", 1e-4, (0.3, 0.45), (1.0, 1.0, 1.0, 1.0)),
               ("s=v=1e3", 0.5, (0.3, 0.45), (1.0, 1e3, 1.0, 1e3)),
               ("a=-0.9999", 0.5, (-0.9999, 0.45), (1.0, 1.0, 1.0, 1.0)))
# accuracy a correct build reaches (the verify suite's tolerances); the two
# negative-parameter Plancherel errors are known defects and are not gated
TOLERANCES = {"err.roundtrip": 1e-3, "err.plancherel": 1e-5, "err.route_gap": 1e-3}


def lattice(rng, lo, hi, n):
    """n evenly spaced points of [lo, hi], shifted together by one seeded
    offset within a cell."""
    return lo + (hi - lo) * (np.arange(n) + rng.uniform()) / n


def stratified(rng, lo, hi, n, log=False):
    """One uniform draw in each of n equal cells of [lo, hi], in cell order
    (cells equal in log scale when log is true)."""
    a, b = (np.log(lo), np.log(hi)) if log else (lo, hi)
    x = a + (b - a) * (np.arange(n) + rng.uniform(size=n)) / n
    return np.exp(x) if log else x


def array_check(shape):
    def check(out):
        out = np.asarray(out)
        if not np.all(np.isfinite(out)):
            return "nonfinite"
        return "ok" if out.shape == shape else f"shape {out.shape}, expected {shape}"
    return check


def _write_points(path, pts):
    with open(path, "w") as fh:
        fh.writelines(f"{r:.16e},{s:.16e}\n" for r, s in pts)


def _read_csv(path):
    return np.loadtxt(path, delimiter=",", comments="#", ndmin=2)


def _run_cli(argv):
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"grushin {argv[0]} exited with code {code}")
    return argv[argv.index("--output") + 1]


# ---------------------------------------------------------------- inputs

def cli_inputs(seed, workdir, grid_step=1, n_points=20):
    """The round-trip wave packet, scaled by a seeded amplitude, written as a
    grid file; probe points on a seeded lattice over the packet's core."""
    rng = np.random.default_rng([seed, 1])
    amp = rng.uniform(0.5, 2.0)
    fr, fs = wave_packet(2.0, 0.6, 3.0), wave_packet(3.2, 0.9, 5.5)
    r, s = GRID_R[::grid_step], GRID_S[::grid_step]
    grid_path = os.path.join(workdir, f"f{grid_step}.csv")
    gio.write_grid(grid_path, GridFunction2D(r, s, amp * fr(r)[:, None] * fs(s)[None, :]),
                   *CLI_TYPES)
    pts = grid_points(rng, (1.1, 2.9), (1.85, 4.55), n_points)
    points_path = os.path.join(workdir, f"pts{grid_step}.csv")
    _write_points(points_path, pts)
    return {"grid": grid_path, "points": points_path, "pts": pts,
            "exact": amp * fr(pts[:, 0]) * fs(pts[:, 1]),
            "spectral": os.path.join(workdir, f"F{grid_step}.csv"),
            "values": os.path.join(workdir, f"g{grid_step}.csv")}


def grid_points(rng, r_span, s_span, n=16):
    r = lattice(rng, *r_span, n)
    s = lattice(rng, *s_span, n)
    return np.stack(np.meshgrid(r, s, indexing="ij"), axis=-1).reshape(-1, 2)


def heat_apply_points(seed):
    """16 distinct r x 16 s inside the heat-smoothed packet."""
    return grid_points(np.random.default_rng([seed, 3]), (1.0, 3.0), (1.8, 4.6))


def kernel_batch(seed):
    """KERNEL_BATCH heat_kernel inputs (t, (a, b), (r, s, u, v)).

    t is log-uniform on [0.05, 2] and r, s, u, v uniform on [0.2, 4], each
    stratified into KERNEL_BATCH cells; a fixed design decides which cells
    meet in one input, and the type pairs cycle.  The cost of one value
    grows like max(s, v) / (t (1 + min(a, 0))), so fixing the design keeps
    the batch's cost nearly the same for every seed.
    """
    rng = np.random.default_rng([seed, 4])
    design = np.random.default_rng(20250207)
    n = KERNEL_BATCH
    ts = stratified(rng, 0.05, 2.0, n, log=True)[design.permutation(n)]
    coords = [stratified(rng, 0.2, 4.0, n)[design.permutation(n)] for _ in range(4)]
    return [(float(ts[i]), KERNEL_PAIRS[i % len(KERNEL_PAIRS)],
             tuple(float(c[i]) for c in coords)) for i in range(n)]


# ---------------------------------------------------------------- accuracy

def rel_l2(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def plancherel_error(sd, a, b):
    want = 0.25 * np.exp(gammaln(a + 1.0) + gammaln(b + 1.0))
    return float(abs(gtransform.plancherel_norm(sd) ** 2 - want) / want)


def route_gap(kern, spec):
    """Largest kernel-vs-spectral difference relative to the largest value."""
    return float(np.max(np.abs(kern - spec)) / np.max(np.abs(spec)))


def roundtrip_error(seed, workdir):
    inp = cli_inputs(seed, workdir)
    _run_cli(["gtransform", "--alpha", str(CLI_TYPES[0]), "--beta", str(CLI_TYPES[1]),
              "--input", inp["grid"], "--nmax", str(CLI_NMAX), "--output", inp["spectral"]])
    _run_cli(["igtransform", "--input", inp["spectral"], "--points", inp["points"],
              "--output", inp["values"]])
    return rel_l2(_read_csv(inp["values"])[:, 2], inp["exact"])


def plancherel_errors(skip=()):
    return {name: plancherel_error(gtransform.g_forward(TypePair(a, b), power_gaussian(a, b),
                                                        n_max=n), a, b)
            for name, a, b, n in PLANCHEREL_CASES if name not in skip}


def accuracy_figures(seed, workdir, own):
    """Every accuracy metric: `own` holds those a workload took from its own
    passes; the others are computed here, outside the timed passes, so that
    every run reports every metric."""
    errs = dict(own)
    if "err.roundtrip" not in errs:
        errs["err.roundtrip"] = roundtrip_error(seed, workdir)
    for name, value in plancherel_errors(skip=errs).items():
        errs[name] = value
    if "err.route_gap" not in errs:
        errs["err.route_gap"] = route_gap_error(seed)
    return errs


def heat_reference(seed):
    hp = HeatParams(HEAT_T, TypePair(*HEAT_TYPES))
    return heat.heat_apply(hp, packet_plane(), heat_apply_points(seed), route="spectral")


def route_gap_error(seed):
    hp = HeatParams(HEAT_T, TypePair(*HEAT_TYPES))
    kern = heat.heat_apply(hp, packet_plane(), heat_apply_points(seed), route="kernel")
    return route_gap(kern, heat_reference(seed))


# ---------------------------------------------------------------- workloads

class CliPipeline:
    """`grushin gtransform` on the grid file, then `grushin igtransform` at
    the probe points, through cli.main in this process."""

    name = "cli_pipeline"

    def generate(self, seed, workdir):
        inp = cli_inputs(seed, workdir)
        inp["n_tau"] = len(default_tau_rule(
            endpoint_exponent=min(2.0 * CLI_TYPES[1] + 1.0, 0.0)))
        return inp

    def warm_up(self, seed, workdir, inp):
        small = cli_inputs(seed, workdir, grid_step=6, n_points=4)
        _run_cli(["gtransform", "--alpha", str(CLI_TYPES[0]), "--beta", str(CLI_TYPES[1]),
                  "--input", small["grid"], "--nmax", "16", "--output", small["spectral"]])
        _run_cli(["igtransform", "--input", small["spectral"], "--points", small["points"],
                  "--output", small["values"]])

    def run_pass(self, inp, runner):
        a, b = CLI_TYPES
        spectral_shape = (CLI_NMAX * inp["n_tau"], 3)
        with runner.stage(1):
            runner.op("gtransform_cmd", lambda: _run_cli(
                ["gtransform", "--alpha", str(a), "--beta", str(b), "--input", inp["grid"],
                 "--nmax", str(CLI_NMAX), "--output", inp["spectral"]]),
                lambda path: array_check(spectral_shape)(_read_csv(path)))
        with runner.stage(2):
            out = runner.op("igtransform_cmd", lambda: _run_cli(
                ["igtransform", "--input", inp["spectral"], "--points", inp["points"],
                 "--output", inp["values"]]),
                lambda path: array_check((len(inp["pts"]), 3))(_read_csv(path)))
        return {"values": None if out is None else _read_csv(out)[:, 2]}

    def own_accuracy(self, seed, inp, last):
        if last["values"] is None:
            return {}
        return {"err.roundtrip": rel_l2(last["values"], inp["exact"])}


class Spectral:
    """Forward transforms of the separated gaussian, no files, then the
    spectral-route heat semigroup of it at seeded points."""

    name = "spectral"

    def generate(self, seed, workdir):
        return {"pts": grid_points(np.random.default_rng([seed, 2]), (0.3, 3.0), (0.3, 3.0))}

    def warm_up(self, seed, workdir, inp):
        for _, a, b, _ in PLANCHEREL_CASES:
            gtransform.g_forward(TypePair(a, b), power_gaussian(a, b), n_max=16)
        heat.heat_apply(HeatParams(HEAT_T, TypePair(0.5, 0.5)), power_gaussian(0.5, 0.5),
                        inp["pts"][:2], route="spectral", n_max=16)

    def run_pass(self, inp, runner):
        sds = {}
        with runner.stage(1):
            for name, a, b, n in PLANCHEREL_CASES:
                tp, f = TypePair(a, b), power_gaussian(a, b)
                sds[name] = runner.op(
                    "g_forward" + name[len("err.plancherel"):],
                    lambda tp=tp, f=f, n=n: gtransform.g_forward(tp, f, n_max=n),
                    lambda sd, n=n: array_check((n, sd.values.shape[1]))(sd.values))
        with runner.stage(2):
            hp = HeatParams(HEAT_T, TypePair(0.5, 0.5))
            runner.op("heat_apply_spectral", lambda: heat.heat_apply(
                hp, power_gaussian(0.5, 0.5), inp["pts"], route="spectral"),
                array_check((len(inp["pts"]),)))
        return {"sds": sds}

    def own_accuracy(self, seed, inp, last):
        return {name: plancherel_error(last["sds"][name], a, b)
                for name, a, b, _ in PLANCHEREL_CASES if last["sds"][name] is not None}


class Heat:
    """heat_apply by the kernel route on the wave-packet plane, then a
    batch of single heat_kernel values."""

    name = "heat"

    def generate(self, seed, workdir):
        return {"pts": heat_apply_points(seed), "batch": kernel_batch(seed)}

    def warm_up(self, seed, workdir, inp):
        hp = HeatParams(HEAT_T, TypePair(*HEAT_TYPES))
        heat.heat_apply(hp, packet_plane(), inp["pts"][::17][:2], route="kernel")
        for a, b in KERNEL_PAIRS:
            heat.heat_kernel(HeatParams(1.0, TypePair(a, b)), 1.0, 1.0, 1.0, 1.0)

    def run_pass(self, inp, runner):
        hp = HeatParams(HEAT_T, TypePair(*HEAT_TYPES))
        f = packet_plane()
        with runner.stage(1):
            kern = runner.op("heat_apply_kernel", lambda: heat.heat_apply(
                hp, f, inp["pts"], route="kernel"), array_check((len(inp["pts"]),)))
        with runner.stage(2):
            for t, ab, x in inp["batch"]:
                runner.op("heat_kernel", lambda t=t, ab=ab, x=x: heat.heat_kernel(
                    HeatParams(t, TypePair(*ab)), *x), array_check(()))
        return {"kern": kern}

    def own_accuracy(self, seed, inp, last):
        if last["kern"] is None:
            return {}
        return {"err.route_gap": route_gap(last["kern"], heat_reference(seed))}

    def probes(self, runner):
        """The ROADMAP item 2 edge inputs, run once outside the passes."""
        for label, t, ab, x in EDGE_INPUTS:
            runner.op(f"edge {label}", lambda t=t, ab=ab, x=x: heat.heat_kernel(
                HeatParams(t, TypePair(*ab)), *x), array_check(()))


WORKLOADS = {w.name: w for w in (CliPipeline(), Spectral(), Heat())}
