"""Half-line quadrature: truncation policies, endpoint handling, invariants."""

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.special import gammaln, roots_jacobi

from grushin.hankel import HalfLineFunction
from grushin.laguerre import analysis_rule
from grushin.quadrature import (HalfLineRule, QuadratureError, TruncationPolicy,
                                build_finite_rule, build_rule, integrate,
                                truncation_point)


class TestBuildRule:
    def test_gaussian_upper_cut(self):
        rule = build_rule(TruncationPolicy(abs_tol=1e-12, decay_hint="gaussian"))
        assert rule.upper_cut >= 8.0
        assert np.exp(-rule.upper_cut**2 / 2) < 1e-12

    def test_exponential_upper_cut(self):
        rule = build_rule(TruncationPolicy(abs_tol=1e-10, decay_hint="exponential"))
        assert rule.upper_cut >= 24.0
        assert np.exp(-rule.upper_cut) < 1e-10

    def test_oscillatory_rule(self):
        # frequency bound 10 caps the panel width; validated on the
        # closed-form integral of e^-u sin(10u) = 10/101
        policy = TruncationPolicy(abs_tol=1e-12, decay_hint="exponential",
                                  rate=1.0, freq_bound=10.0)
        rule = build_rule(policy)
        widths = np.diff(np.concatenate([[0.0], rule.nodes]))  # crude bound check
        val = integrate(lambda u: np.exp(-u) * np.sin(10.0 * u), rule)
        assert val == pytest.approx(10.0 / 101.0, abs=1e-12)

    def test_max_panels_failure(self):
        policy = TruncationPolicy(abs_tol=1e-12, decay_hint="exponential",
                                  freq_bound=500.0, max_panels=100)
        with pytest.raises(QuadratureError):
            build_rule(policy)

    def test_points_per_panel_minimum(self):
        with pytest.raises(ValueError):
            build_finite_rule(0.0, 1.0, 0.5, points_per_panel=3)


class TestIntegrate:
    def test_exponential(self):
        rule = build_rule(TruncationPolicy(decay_hint="exponential", abs_tol=1e-13))
        assert integrate(lambda u: np.exp(-u), rule) == pytest.approx(1.0, abs=1e-10)

    def test_gaussian(self):
        rule = build_rule(TruncationPolicy(decay_hint="gaussian", rate=np.sqrt(2.0)))
        want = np.sqrt(np.pi) / 2
        assert integrate(lambda u: np.exp(-u * u), rule) == pytest.approx(want,
                                                                          abs=1e-10)

    def test_singular_weight(self):
        # u^(2a+1) e^(-u^2) integrates to Gamma(a+1)/2; cross-checked with
        # log-gamma after the substitution v = u^2
        for a in (0.25, -0.45, -0.8):
            rule = build_rule(TruncationPolicy(
                decay_hint="gaussian", rate=np.sqrt(2.0),
                endpoint_exponent=2 * a + 1))
            got = integrate(lambda u: u ** (2 * a + 1) * np.exp(-u * u), rule)
            assert got == pytest.approx(0.5 * np.exp(gammaln(a + 1.0)), abs=1e-9)

    def test_values_array_input(self):
        rule = build_finite_rule(0.0, 1.0, 0.25)
        vals = rule.nodes**2
        assert integrate(vals, rule) == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_nonfinite_reported_with_node(self):
        rule = build_finite_rule(1.0, 2.0, 0.5)
        bad = rule.nodes[3]

        def f(u):
            out = np.ones_like(u)
            out[u == bad] = np.nan
            return out

        with pytest.raises(QuadratureError) as excinfo:
            integrate(f, rule)
        assert f"{float(bad)}" in str(excinfo.value)
        assert "index 3" in str(excinfo.value)

    def test_complex_integrand(self):
        rule = build_rule(TruncationPolicy(decay_hint="exponential"))
        got = integrate(lambda u: np.exp(-u) * (1 + 2j), rule)
        assert got == pytest.approx(1.0 + 2.0j, abs=1e-10)


class TestInvariants:
    def test_refinement_convergence(self, monkeypatch):
        # doubling points per panel, on the same edges, moves the three
        # reference integrals by less than the policy tolerance
        from grushin import quadrature
        cases = [
            (lambda u: np.exp(-u), TruncationPolicy(decay_hint="exponential")),
            (lambda u: np.exp(-u * u),
             TruncationPolicy(decay_hint="gaussian", rate=np.sqrt(2.0))),
            (lambda u: u**1.5 * np.exp(-u * u),
             TruncationPolicy(decay_hint="gaussian", rate=np.sqrt(2.0),
                              endpoint_exponent=1.5)),
        ]
        for f, policy in cases:
            coarse = integrate(f, build_rule(policy))
            with monkeypatch.context() as m:
                m.setattr(quadrature, "_PANEL_POINTS", 2 * quadrature._PANEL_POINTS)
                fine = integrate(f, build_rule(policy))
            assert abs(coarse - fine) < policy.abs_tol

    def test_positivity(self):
        rule = build_rule(TruncationPolicy(decay_hint="gaussian"))
        assert integrate(lambda u: np.exp(-u * u / 2) + 0.01 * u, rule) > 0.0
        assert np.all(rule.weights > 0.0)

    def test_linearity(self):
        rule = build_rule(TruncationPolicy(decay_hint="gaussian"))
        f = lambda u: np.exp(-u * u / 2)
        g = lambda u: u * np.exp(-u * u / 3)
        a, b = 2.7, -1.3
        lhs = integrate(lambda u: a * f(u) + b * g(u), rule)
        rhs = a * integrate(f, rule) + b * integrate(g, rule)
        assert lhs == pytest.approx(rhs, rel=1e-13)


class TestRuleValidation:
    def test_increasing_nodes_required(self):
        with pytest.raises(ValueError):
            HalfLineRule(np.array([1.0, 0.5]), np.array([1.0, 1.0]), upper_cut=2.0)

    def test_positive_weights_required(self):
        with pytest.raises(ValueError):
            HalfLineRule(np.array([0.5, 1.0]), np.array([1.0, -1.0]), upper_cut=2.0)

    def test_upper_cut_covers_nodes(self):
        with pytest.raises(ValueError):
            HalfLineRule(np.array([0.5, 1.0]), np.array([1.0, 1.0]), upper_cut=0.9)
        with pytest.raises(TypeError):  # no default cut to fall back on
            HalfLineRule(np.array([0.5, 1.0]), np.array([1.0, 1.0]))

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            TruncationPolicy(abs_tol=0.0)
        with pytest.raises(ValueError):
            TruncationPolicy(endpoint_exponent=-1.0)
        # a policy and a profile check the same hints, with or without a support
        for hint in ("bogus", "algebraic_oscillatory"):
            with pytest.raises(ValueError, match=f"^unknown decay hint '{hint}'$"):
                TruncationPolicy(decay_hint=hint)
            with pytest.raises(ValueError, match=f"^unknown decay hint '{hint}'$"):
                HalfLineFunction(np.exp, support=(0.0, 1.0), decay=hint)

    def test_finite_rule_validation(self):
        with pytest.raises(ValueError):
            build_finite_rule(2.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            build_finite_rule(0.0, 1.0, -0.1)


# Reference construction: separate edge loops for the two builders and one
# Gauss node set computed per panel.  The library must reproduce it exactly.
def _reference_panel(a, b, points, gamma):
    if gamma != 0.0:
        t, w = roots_jacobi(points, 0.0, gamma)
        u = 0.5 * (b - a) * (t + 1.0) + a
        scale = (0.5 * (b - a)) ** (gamma + 1.0)
        return u, scale * w * ((t + 1.0) * 0.5 * (b - a)) ** (-gamma)
    x, w = leggauss(points)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def _reference_assemble(edges, points, gamma):
    nodes, weights = [], []
    for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        u, w = _reference_panel(a, b, points, gamma if (i == 0 and edges[0] == 0.0) else 0.0)
        nodes.append(u)
        weights.append(w)
    return np.concatenate(nodes), np.concatenate(weights)


def _reference_rule(policy, points=16):
    upper = truncation_point(policy)
    base = np.concatenate([[0.0], upper * 2.0 ** (-np.arange(20, -1, -1.0))])
    edges = [0.0]
    for a, b in zip(base[:-1], base[1:]):
        local = policy.rate**2 * b if policy.decay_hint == "gaussian" else policy.rate
        cap = 3.5 / local
        if policy.freq_bound > 0.0:
            cap = min(cap, 5.0 * np.pi / policy.freq_bound)
        k = max(1, int(np.ceil((b - a) / cap)))
        edges.extend(np.linspace(a, b, k + 1)[1:])
    return _reference_assemble(np.asarray(edges), points, policy.endpoint_exponent)


def _reference_finite_rule(a, b, max_width, points=8, gamma=0.0):
    if a == 0.0:
        base = np.concatenate([[0.0], b * 2.0 ** (-np.arange(20, -1, -1.0))])
    else:
        base = np.array([a, b])
    edges = [base[0]]
    for lo, hi in zip(base[:-1], base[1:]):
        k = max(1, int(np.ceil((hi - lo) / max_width)))
        edges.extend(np.linspace(lo, hi, k + 1)[1:])
    return _reference_assemble(np.asarray(edges), points, gamma)


class TestAgainstReference:
    @pytest.mark.parametrize("policy", [
        TruncationPolicy(decay_hint="gaussian", rate=np.sqrt(2.0)),
        TruncationPolicy(decay_hint="exponential", rate=0.7, abs_tol=1e-14),
        TruncationPolicy(decay_hint="exponential", rate=1.3, freq_bound=9.0),
        TruncationPolicy(decay_hint="gaussian", rate=0.4, freq_bound=2.5,
                         endpoint_exponent=-0.8),
        TruncationPolicy(decay_hint="exponential", rate=np.sqrt(2.0), endpoint_exponent=1.5),
    ])
    def test_build_rule_bitwise(self, policy):
        rule = build_rule(policy)
        nodes, weights = _reference_rule(policy)
        assert np.array_equal(rule.nodes, nodes)
        assert np.array_equal(rule.weights, weights)

    @pytest.mark.parametrize("args", [(0.3, 7.1, 0.13, 8, 0.0), (0.05, 3.5, 0.02, 5, 1.2),
                                      (0.0, 12.0, 12.0 / 32, 8, -0.6),
                                      (0.0, 8.0, 0.45, 16, 1.0)])
    def test_build_finite_rule_bitwise(self, args):
        a, b, width, points, gamma = args
        rule = build_finite_rule(a, b, width, points, endpoint_exponent=gamma)
        nodes, weights = _reference_finite_rule(a, b, width, points, gamma)
        assert np.array_equal(rule.nodes, nodes)
        assert np.array_equal(rule.weights, weights)


@pytest.mark.parametrize("octaves", [True, False], ids=["octave-base", "two-point-base"])
def test_composite_rule_edges_are_linspace_bitwise(octaves):
    # every piece's edges are formed in one pass; they must be the per-piece
    # np.linspace edges bit for bit, with a random width for each piece
    from grushin.quadrature import _composite_rule
    rng = np.random.default_rng(35)
    for _ in range(100):
        b = float(rng.uniform(1e-3, 1e3))
        a = 0.0 if octaves or rng.uniform() < 0.3 else float(rng.uniform(0.0, 0.9 * b))
        base = (np.concatenate([[0.0], b * 2.0 ** (-np.arange(20, -1, -1.0))]) if octaves
                else np.array([a, b]))
        widths = np.diff(base) / rng.uniform(0.3, 20.0, len(base) - 1)
        counts = np.maximum(1.0, np.ceil(np.diff(base) / widths)).astype(int)
        edges = np.concatenate([base[:1]] + [np.linspace(lo, hi, k + 1)[1:] for lo, hi, k
                                             in zip(base[:-1], base[1:], counts)])
        rule = _composite_rule(a, b, lambda top: widths, 4, 0.0, 1 << 20, octaves=octaves)
        nodes, weights = _reference_assemble(edges, 4, 0.0)
        assert np.array_equal(rule.nodes, nodes) and np.array_equal(rule.weights, weights)


def test_r_rule_turning_point_cap():
    # at tau = 4 the basis functions up to n = 20 die out by r ~ 4.5, far
    # inside the cut 75 of a slowly decaying gaussian profile
    prof = HalfLineFunction(lambda r: np.exp(-(0.1 * r) ** 2 / 2), decay="gaussian", rate=0.1)
    assert truncation_point(TruncationPolicy(decay_hint="gaussian", rate=0.1)) == 75.0
    assert analysis_rule(0.3, (4.0, 4.0), prof, 21).upper_cut == 11.0


def test_only_quadrature_and_hankel_bind_truncation_point():
    # every profile's finite rule comes from quadrature.profile_rule, so no
    # other module truncates a profile on its own (hankel's reach check of
    # the modified form reads the cut, but builds no rule from it)
    import importlib
    import pkgutil

    import grushin
    offenders = []
    for info in pkgutil.iter_modules(grushin.__path__):
        if info.name in ("quadrature", "hankel"):
            continue
        mod = importlib.import_module(f"grushin.{info.name}")
        offenders += [f"{info.name}.{attr}" for attr, value in vars(mod).items()
                      if value is truncation_point]
    assert offenders == []


def test_only_quadrature_and_heat_bind_build_rule():
    # every profile's rule comes from quadrature.profile_rule; build_rule is
    # left to the policy-driven tau rules of heat
    import importlib
    import pkgutil

    import grushin
    offenders = []
    for info in pkgutil.iter_modules(grushin.__path__):
        if info.name in ("quadrature", "heat"):
            continue
        mod = importlib.import_module(f"grushin.{info.name}")
        offenders += [f"{info.name}.{attr}" for attr, value in vars(mod).items()
                      if value is build_rule]
    assert offenders == []


def test_every_plane_owns_its_widths():
    # every plane the library builds declares a panel width on both axes, and
    # only quadrature reads HalfLineFunction.width: no module decides a
    # profile's panels from the context it is integrated in
    import ast
    import importlib
    import inspect
    import pkgutil

    import grushin
    from grushin import diffop, functions
    from grushin.verify import route_test_function
    r, s = np.arange(0.05, 5.35, 0.1), np.arange(0.05, 8.2, 0.1)
    planes = {"power_gaussian": functions.power_gaussian(0.4, -0.5),
              "packet_plane": functions.packet_plane(),
              "bump_plane": functions.bump_plane(),
              "grid_plane": functions.grid_plane(diffop.GridFunction2D(r, s, np.outer(r, s))),
              "route_test_function": route_test_function()}
    factories = {name for name in functions.__all__
                 if inspect.signature(getattr(functions, name)).return_annotation
                 == "PlaneFunction"}
    assert factories | {"route_test_function"} == set(planes)
    assert [name for name, f in planes.items()
            if f.profiles is None or any(p.width is None for p in f.profiles)] == []
    readers = []
    for info in pkgutil.iter_modules(grushin.__path__):
        if info.name == "quadrature":
            continue
        tree = ast.parse(inspect.getsource(importlib.import_module(f"grushin.{info.name}")))
        readers += [f"{info.name}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr == "width"]
    assert readers == []


def test_one_kernel_integrand():
    # the kernel's tau integrand is written once, in heat._kernel_core: no
    # second copy takes the I_a factor, and the floored 1/sinh y serves only
    # the closed-form oracle heat_kernel_half
    import ast
    import importlib
    import inspect
    import pkgutil

    import grushin
    users = {"bessel_i_normalized_exp": set(), "_inv_sinh": set()}
    defined = set()
    for info in pkgutil.iter_modules(grushin.__path__):
        tree = ast.parse(inspect.getsource(importlib.import_module(f"grushin.{info.name}")))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            defined.add(f"{info.name}.{fn.name}")
            for node in ast.walk(fn):
                name = getattr(node, "id", getattr(node, "attr", None))
                if isinstance(node, (ast.Name, ast.Attribute)) and name in users:
                    users[name].add(f"{info.name}.{fn.name}")
    assert {f for f in users["bessel_i_normalized_exp"] if not f.startswith("specfun.")} \
        == {"heat._kernel_core"}
    assert users["_inv_sinh"] == {"heat.heat_kernel_half"}
    assert "heat._weighted_kernel" not in defined


def test_one_tau_path():
    # heat builds its tau rules in kernel_tau_rule(hp, freq, point) alone, and
    # forms the product J_b J_b core in _tau_sum alone: the point kernels and
    # the diagonal profiles sum through it, each profile point on its own
    # kernel_tau_rule and without column blocks, and the core is otherwise
    # called only by the closed Mehler factor and the kernel route
    # (heat_kernel_half keeps its own integrand, the independent oracle of verify)
    import ast
    import inspect

    from grushin import heat, specfun
    callers = {"TruncationPolicy": [], "_kernel_core": [], "_bessel_j_scaled": []}
    profile_names = set()
    for fn in ast.parse(inspect.getsource(heat)).body:
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) in callers:
                    callers[node.func.id].append(fn.name)
                if fn.name == "diagonal_profile" and isinstance(node, ast.Name):
                    profile_names.add(node.id)
    assert callers["TruncationPolicy"] == ["kernel_tau_rule"]
    assert list(inspect.signature(heat.kernel_tau_rule).parameters) == ["hp", "freq", "point"]
    assert set(callers["_kernel_core"]) == {"_tau_sum", "mehler_kernel", "_kernel_route"}
    assert set(callers["_bessel_j_scaled"]) == {"_tau_sum"}
    assert not any(value is specfun.bessel_j for value in vars(heat).values())
    rule_paths = {"kernel_tau_rule", "build_rule", "build_finite_rule", "profile_rule",
                     "rule_for_function", "_composite_rule", "_point_cut", "column_blocks"}
    assert profile_names & rule_paths == {"kernel_tau_rule"}


def test_basis_factors_in_their_own_normalization():
    # laguerre's column kernels form sqrt(tau) r and the factor tau^(1/4) of
    # l_{n,tau}^a for g_forward and every synthesis, so in gtransform only
    # g_forward_hat, the order-exchanged reference, forms them itself;
    # heat_kernel sums on the Liouville kernel sqrt(x) J_b(x), shift 1/2; and no
    # einsum is left in the library
    import ast
    import inspect
    import pathlib
    import re

    import grushin
    from grushin import gtransform, heat
    assert not hasattr(gtransform, "_synthesis") and not hasattr(gtransform, "_band_tables")
    formers = set()
    for fn in ast.parse(inspect.getsource(gtransform)).body:
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                quarter = isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) \
                    and isinstance(node.right, ast.Constant) and node.right.value == 0.25
                root = isinstance(node, ast.Call) and ast.unparse(node.func) == "np.sqrt" \
                    and re.search(r"\b(tg|taus?|tau_grid|tau_rule)\b", ast.unparse(node.args[0]))
                if quarter or root:
                    formers.add(fn.name)
    assert formers == {"g_forward_hat"}
    shifts = [ast.literal_eval(node.args[6])
              for node in ast.walk(ast.parse(inspect.getsource(heat.heat_kernel)))
              if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_tau_sum"]
    assert shifts == [0.5]
    sources = list(pathlib.Path(grushin.__file__).parent.glob("*.py"))
    assert sources and not any("einsum" in path.read_text() for path in sources)


def test_only_quadrature_defines_the_panel_law():
    # _PANEL_POINTS and _PANEL_PHASE are assigned in quadrature alone, and
    # no rule builder takes a point count of its own
    import ast
    import importlib
    import inspect
    import pkgutil

    import grushin
    from grushin.quadrature import profile_rule
    owners = []
    for info in pkgutil.iter_modules(grushin.__path__):
        tree = ast.parse(inspect.getsource(importlib.import_module(f"grushin.{info.name}")))
        owners += [info.name for node in ast.walk(tree) if isinstance(node, ast.Name)
                   and isinstance(node.ctx, ast.Store)
                   and node.id in ("_PANEL_POINTS", "_PANEL_PHASE")]
    assert owners == ["quadrature", "quadrature"]
    for fn in (build_rule, profile_rule):
        assert "points_per_panel" not in inspect.signature(fn).parameters


def test_quadrature_owns_the_rule_builders():
    # the panel law, the envelope cap, the composite rule, the finite panel cap and
    # the decay hints are read in quadrature alone; laguerre and functions take
    # profiles and their rules from it, not through hankel; and the package's API
    # is written once, as the __all__ of the modules it re-exports
    import ast
    import importlib
    import inspect
    import pkgutil
    import types

    import grushin
    private = {"_composite_rule", "_envelope_cap", "_PANEL_PHASE", "_PANEL_POINTS",
               "_MAX_FINITE_PANELS", "_DECAY_HINTS"}
    readers, imported = set(), {}
    for info in pkgutil.iter_modules(grushin.__path__):
        tree = ast.parse(inspect.getsource(importlib.import_module(f"grushin.{info.name}")))
        nodes = list(ast.walk(tree))
        if private & {getattr(n, key, None) for n in nodes for key in ("id", "attr", "name")}:
            readers.add(info.name)
        imported[info.name] = {n.module or a.name for n in nodes
                               if isinstance(n, ast.ImportFrom) for a in n.names}
    assert readers == {"quadrature"}
    assert "hankel" not in imported["laguerre"] | imported["functions"]
    modules = ("specfun", "quadrature", "hankel", "laguerre", "gtransform", "heat", "diffop")
    api = set().union(*(importlib.import_module(f"grushin.{m}").__all__ for m in modules))
    public = {name for name, value in vars(grushin).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == api and len(api) == 52


def test_only_quadrature_binds_the_gauss_node_generators():
    # the [-1, 1] node sets are cached in one place
    import importlib
    import pkgutil

    import grushin
    offenders = []
    for info in pkgutil.iter_modules(grushin.__path__):
        if info.name == "quadrature":
            continue
        mod = importlib.import_module(f"grushin.{info.name}")
        offenders += [f"{info.name}.{attr}" for attr, value in vars(mod).items()
                      if value is leggauss or value is roots_jacobi]
    assert offenders == []


def test_finite_rule_panel_cap(monkeypatch):
    # the cap lowered to 1000, so that the probe (1e5 panels) stays cheap even
    # if a wrong cap builds the rule before it counts the panels
    from grushin import quadrature
    assert len(build_finite_rule(0.0, 100.0, 1e-3)) > 8 * 100_000
    monkeypatch.setattr(quadrature, "_MAX_FINITE_PANELS", 1000)
    with pytest.raises(QuadratureError, match=r"^rule needs 100010 panels, more than the "
                       r"cap of 1000, for \[0\.0, 100\.0\]; widen the panels"):
        build_finite_rule(0.0, 100.0, 1e-3)


def test_public_rule_builders_do_not_call_each_other():
    # the benchmark's tracer wraps both names, so a nested call would count a
    # rule twice
    import ast
    import inspect

    from grushin import quadrature
    tree = ast.parse(inspect.getsource(quadrature))
    names = {fn.name: {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)}
             for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    assert "build_finite_rule" not in names["build_rule"]
    assert "build_rule" not in names["build_finite_rule"]


def test_unit_node_sets_are_cached_and_read_only():
    from grushin.quadrature import _unit_nodes
    for gamma in (0.0, -0.8):
        x, w = _unit_nodes(8, gamma)
        assert _unit_nodes(8, gamma)[0] is x
        assert not x.flags.writeable and not w.flags.writeable
    assert np.array_equal(_unit_nodes(8, 0.0)[0], leggauss(8)[0])
    assert np.array_equal(_unit_nodes(8, -0.8)[1], roots_jacobi(8, 0.0, -0.8)[1])
