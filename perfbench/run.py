"""Benchmark of the grushin library: one workload, one run.

    python3 perfbench/run.py --workload {cli_pipeline,spectral,heat} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; the library is imported from ./src.  After
set-up the run repeats passes of the workload until S seconds have passed,
then computes the accuracy figures outside the timed passes.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics of a traced run with --trace 1.  The lines before it hold the
provenance block and a report with per-op latencies and known defects.
See perfbench/README.md for the workloads and metrics.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
# set-up is repeated this many times per run and its median reported
SETUP_REPEATS = 3
# per-op latencies reported beside the end-to-end metrics, on the workloads
# that run the op: name -> (op kind, statistic)
OP_METRICS = {"gtransform_cmd_s": ("gtransform_cmd", "p50"),
              "igtransform_cmd_s": ("igtransform_cmd", "p50"),
              "heat_apply_s": ("heat_apply_kernel", "p50"),
              "kernel_value_p50_s": ("heat_kernel", "p50"),
              "kernel_value_p90_s": ("heat_kernel", "p90")}


class Runner:
    """Runs the ops of a pass through the op log, inside a root span when
    tracing, and times the stages of the pass."""

    def __init__(self, log, tracer=None):
        self.log = log
        self.tracer = tracer
        self.group = None
        self.stage_s = {}

    def op(self, kind, fn, check):
        if self.tracer is not None:
            self.tracer.op = (self.group, kind)
            traced = fn
            fn = lambda: self.tracer.call("bench.op", traced)  # noqa: E731
        return self.log.run(kind, fn, check)

    @contextlib.contextmanager
    def stage(self, k):
        busy = self.log.busy
        yield
        self.stage_s[k] = self.log.busy - busy


def provenance(args):
    import ctypes
    import glob

    import numpy as np
    import scipy
    from grushin._util import thread_count

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    threads = None
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs",
                                       "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                getter = getattr(lib, sym)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                threads = getter()
                break
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": threads, "grushin_threads": thread_count(),
            "git_commit": commit, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def run(args):
    from statistics import median

    import numpy as np

    import layers
    from stats import OpLog, latency_summary
    from tracing import OVERHEAD, Patcher, Tracer, self_times
    from workloads import TOLERANCES, WORKLOADS, accuracy_figures

    import_s = time.perf_counter() - T_START
    wl = WORKLOADS[args.workload]
    prov = provenance(args)
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        setup_reps = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inp = wl.generate(args.seed, workdir)
            wl.warm_up(args.seed, workdir, inp)
            setup_reps.append(time.perf_counter() - t0)

        tracer = Tracer() if args.trace else None
        patcher = Patcher()
        log, edge_log = OpLog(), OpLog()
        runner = Runner(log, tracer)
        passes = []
        try:
            if tracer is not None:
                layers.instrument(tracer, patcher)
            deadline = time.perf_counter() + args.seconds
            while True:
                runner.group = len(passes)
                busy = log.busy
                last = wl.run_pass(inp, runner)
                passes.append({"pass_s": log.busy - busy, "stage1_s": runner.stage_s[1],
                               "stage2_s": runner.stage_s[2]})
                if time.perf_counter() >= deadline:
                    break
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if hasattr(wl, "probes"):
                edge_runner = Runner(edge_log, tracer)
                edge_runner.group = "edge"
                wl.probes(edge_runner)
        finally:
            patcher.restore()
        errs = accuracy_figures(args.seed, workdir, wl.own_accuracy(args.seed, inp, last))

    correct = (not log.shape_errors and not edge_log.shape_errors
               and all(np.isfinite(v) for v in errs.values())
               and all(errs[k] < tol for k, tol in TOLERANCES.items()))
    ops = {kind: latency_summary(v) for kind, v in log.latencies.items()}
    report = {
        "workload": args.workload, "passes": passes,
        "setup_repeats_s": setup_reps, "import_s": import_s, "ops": ops,
        "op_metrics": {name: {"value": ops[kind][stat], "unit": "s", "n": ops[kind]["n"]}
                       for name, (kind, stat) in OP_METRICS.items()
                       if stat in ops.get(kind, {})},
        "failed_frac": log.failed_frac, "failures": log.failures,
        "accuracy": errs, "tolerances": TOLERANCES,
    }
    if edge_log.attempted:
        report["known_defects"] = {
            "roadmap_item": 2, "attempted": edge_log.attempted, "failed": edge_log.failed,
            "failures": edge_log.failures,
            "failed_frac_with_edge_inputs": (log.failed + edge_log.failed)
            / (log.attempted + edge_log.attempted)}

    if tracer is None:
        metrics = {"setup_s": (import_s + median(setup_reps), "s"),
                   "pass_s": (median([p["pass_s"] for p in passes]), "s"),
                   "stage1_s": (median([p["stage1_s"] for p in passes]), "s"),
                   "stage2_s": (median([p["stage2_s"] for p in passes]), "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB"),
                   "ok_frac": (log.ok_frac, "fraction")}
        metrics.update({k: (v, "rel") for k, v in errs.items()})
        metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}
    else:
        times = self_times(tracer.spans, group=lambda op: op[0])
        metrics = layers.per_layer_metrics(tracer, times, len(passes))
        report["trace"] = {
            "pass_s": median([p["pass_s"] for p in passes]),
            "self_sum_s": median([sum(v for (g, name), v in times.items()
                                      if g == p and name != OVERHEAD)
                                  for p in range(len(passes))]),
            "overhead_s": median([times.get((p, OVERHEAD), 0.0)
                                  for p in range(len(passes))]),
            "spans": len(tracer.spans),
        }
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"provenance": prov,
                       "fields": ["id", "name", "start", "end", "parent", "op"],
                       "spans": tracer.spans,
                       "counts": [[op, key, v] for (op, key), v in tracer.counts.items()]},
                      fh)
        report["trace"]["spans_file"] = os.path.relpath(path, ROOT)

    print(json.dumps({"provenance": prov}))
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": bool(correct), "attempted": log.attempted,
                      "failed": log.failed, "metrics": metrics}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli_pipeline", "spectral", "heat"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not os.path.isfile(os.path.join(SRC, "grushin", "__init__.py")):
        print(f"error: the grushin sources are not at {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, BENCH_DIR]
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
