"""spdelab benchmark: end-to-end and per-layer metrics of the CLI.

    python3 bench/run.py --workload {mc_sweep,trajectories,lab_session,all}
                         --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src`` and nowhere else. One workload runs in one process: the
benchmark writes the workload's configs from the seed, measures set-up in
fresh interpreters, runs one warm-up operation, then times operations
(``spdelab.cli.main`` called in-process) until ``--seconds`` have passed.
Every timing is scaled to a reference machine speed by the calibrations
taken around it (see ``calibrate``). Every operation's outputs are checked;
a failed check or a nonzero exit counts the operation as failed.

With ``--trace 1`` the untimed extras follow: on ``mc_sweep`` one untraced
1-worker operation (scaling efficiency), then one traced operation at one
worker, from which the per-layer metrics come. The last stdout line is the
result object; the human-readable report goes to stderr, and the full
record (samples, machine facts, spans) to ``.bench_work/<workload>/``.
``--workload all`` runs each workload in its own process and prints a table.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracing import ROOT, Tracer, analyse
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
SRC = CHECKOUT / "src"
WORK = CHECKOUT / ".bench_work"
SETUP_SAMPLES = 9
MAX_WORKERS = 2
# about calibrate() on an idle vCPU of a 2-vCPU Xeon VM (Python 3.11, numpy 2.4, scipy 1.17)
CALIBRATION_REF_S = 0.03

# import + load_config in a fresh interpreter; argv: src dir, config path
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import spdelab.cli
spdelab.cli.load_config(sys.argv[2])
elapsed = time.perf_counter() - t0
if not spdelab.__file__.startswith(sys.argv[1]):
    sys.exit("spdelab imported from outside " + sys.argv[1])
print(repr(elapsed))
"""


def import_program():
    if not (SRC / "spdelab" / "__init__.py").is_file():
        sys.exit(f"no spdelab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import spdelab.cli

    if not Path(spdelab.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"spdelab imported from {spdelab.__file__}, not from {SRC}")
    return spdelab.cli


def machine_facts() -> dict:
    import numpy
    import scipy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = (
                (index / f).read_text().strip() for f in ("level", "type", "size")
            )
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def measure_setup(config: str, cpus: list[int]) -> tuple[list[float], list[float]]:
    """Seconds of import plus load_config, each in a fresh interpreter, and
    the calibration taken just before each."""
    samples, calibrations = [], []
    for _ in range(SETUP_SAMPLES):
        calibrations.append(calibrate(cpus))
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), config],
            capture_output=True,
            text=True,
            timeout=60,
            cwd=CHECKOUT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout))
    return samples, calibrations


def calibrate(cpus: list[int]) -> float:
    """Mean seconds, over ``cpus``, of a fixed kernel run pinned to each.

    On a shared VM each vCPU's effective speed drifts by 20% or more over
    seconds, and two vCPUs can differ by as much at the same moment. The
    kernel mixes the three kinds of work the workloads do (cache-sized RNG
    and cumsum/exp, many small-array calls around a small sparse solve,
    medium dense products), uses no spdelab code, and slows down with the
    CPUs the op runs on. An op's wall time scaled by CALIBRATION_REF_S over
    the mean of the calibrations just before and just after it is its time
    at the reference speed.
    """
    allowed = os.sched_getaffinity(0)
    times = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        times.append(_calibration_kernel())
    os.sched_setaffinity(0, allowed)
    return statistics.mean(times)


def _calibration_kernel() -> float:
    import numpy as np
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    rng = np.random.default_rng(0)
    start = perf_counter()
    # Monte Carlo-like: cache-sized draws, running sums and exponentials
    for _ in range(12):
        w = rng.standard_normal(30_000)
        np.cumsum(w, out=w)
        np.exp(w * 1e-2, out=w)
    # integrator-like: many small-array calls around a small sparse solve
    n = 64
    lu = splu(sp.diags([np.full(n - 1, -1.0), np.full(n, 2.5), np.full(n - 1, -1.0)],
                       (-1, 0, 1), format="csc"))
    v = np.ones(n)
    for _ in range(600):
        v = lu.solve(v + 1e-3 * np.power(np.maximum(v, 0.0), 2.0))
        v /= float(np.max(np.abs(v)))
    # spectral-like: medium dense products
    m = rng.standard_normal((512, 128))
    x = np.ones(512)
    for _ in range(60):
        x = m @ (m.T @ x)
        x /= np.linalg.norm(x)
    return perf_counter() - start


def at_reference_speed(wall: float, before: float, after: float) -> float:
    """Wall time scaled by the calibrations taken just before and after it."""
    return 2 * wall * CALIBRATION_REF_S / (before + after)


class Runner:
    """Runs and checks operations of one workload, keeping every sample."""

    def __init__(self, workload, cli, reference: dict, out: Path):
        self.workload = workload
        self.cli = cli
        self.reference = reference
        self.out = out
        self.attempted = 0
        self.failures: list[str] = []
        self.same_bytes: dict[str, bytes] = {}

    def op(self, workers: int, tracer: Tracer | None = None) -> float:
        """Run, time and check one op; returns its wall seconds."""
        if self.out.exists():
            shutil.rmtree(self.out)
        self.out.mkdir(parents=True)
        argvs = self.workload.commands(self.out, workers)
        sink = io.StringIO()
        errors = []
        self.attempted += 1
        with contextlib.ExitStack() as stack:
            stack.enter_context(contextlib.redirect_stdout(sink))
            stack.enter_context(contextlib.redirect_stderr(sink))
            if tracer is not None:
                stack.enter_context(tracer.installed())
            start = perf_counter()
            try:
                with tracer.span(ROOT) if tracer is not None else contextlib.nullcontext():
                    for argv in argvs:
                        # looked up per call, so the traced op runs the wrapped main
                        code = self.cli.main(argv)
                        if code != 0:
                            errors.append(f"{argv[0]} exited {code}")
                            break
            except Exception:
                errors.append(traceback.format_exc())
            wall = perf_counter() - start
        if not errors:
            try:
                errors = self.workload.check(self.out, self.reference)
            except (OSError, KeyError, ValueError) as exc:
                errors = [f"unreadable output: {exc!r}"]
        for name in self.workload.identical_files:
            path = self.out / name
            data = path.read_bytes() if path.exists() else b""
            first = self.same_bytes.setdefault(name, data)
            if data != first:
                errors.append(f"{name} differs from the run's first op (workers={workers})")
        if errors:
            log = sink.getvalue().strip()
            self.failures.append(f"op {self.attempted} (workers={workers}): " + "; ".join(errors)
                                 + (f"\n{log}" if log else ""))
        return wall


def highest_percentile(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"none (n={n} < 11)"
    value = sorted(samples)[n - 11]
    return f"p{100 * (n - 10) // n} = {value:.6g} s (n={n})"


COUNT_TAILS = {"calls", "modes", "paths", "steps", "failed", "rows", "bytes", "normals_drawn",
               "numerical_blowups"}


def layer_unit(name: str) -> str:
    tail = name.rsplit(".", 1)[-1]
    if tail in COUNT_TAILS:
        return "count"
    return {"us_per_step": "us", "scaling_efficiency": "ratio"}.get(tail, "s")


def per_layer(tr: Tracer, extra: dict) -> tuple[dict, dict]:
    a = analyse(tr.spans)
    inc, own, calls, c = a["inclusive"], a["self"], a["calls"], tr.counts
    rpde_steps = c["integrator.simulate_rpde.steps"]
    values = {
        "config.load_config.s": inc["config.load_config"],
        "domain.solve_eigenpairs.s": inc["domain.solve_eigenpairs"],
        "domain.solve_eigenpairs.calls": calls["domain.solve_eigenpairs"],
        "domain.solve_eigenpairs.modes": c["domain.solve_eigenpairs.modes"],
        "domain.heat_kernel_ratio_report.s": inc["domain.heat_kernel_ratio_report"],
        "stochastic.brownian_increments.s": inc["stochastic.brownian_increments"],
        "stochastic.normals_drawn": c["stochastic.normals_drawn"],
        "stochastic.sample_brownian.s": inc["stochastic.sample_brownian"],
        "stochastic.exp_functional.s": inc["stochastic.exp_functional"],
        "blowup.mc_blowup_probability.s": inc["blowup.mc_blowup_probability"],
        "blowup.mc_blowup_probability.self_s": own["blowup.mc_blowup_probability"],
        "blowup.mc.paths": c["blowup.mc.paths"],
        "blowup.mc.scaling_efficiency": extra.get("scaling_efficiency", 0.0),
        "blowup.lower_solution_series.s": inc["blowup.lower_solution_series"],
        "blowup.tau_from_path.s": inc["blowup.tau_from_path"],
        "integrator.simulate_rpde.s": inc["integrator.simulate_rpde"],
        "integrator.simulate_rpde.steps": rpde_steps,
        "integrator.simulate_rpde.us_per_step": (
            1e6 * inc["integrator.simulate_rpde"] / rpde_steps if rpde_steps else 0.0
        ),
        "integrator.simulate_spde_em.s": inc["integrator.simulate_spde_em"],
        "integrator.simulate_spde_em.steps": c["integrator.simulate_spde_em.steps"],
        "integrator.simulate_spde_em.failed": c["integrator.simulate_spde_em.failed"],
        "integrator.numerical_blowups": c["integrator.numerical_blowups"],
        "integrator.weak_form_residual.s": inc["integrator.weak_form_residual"],
        "integrator.mild_residual.s": inc["integrator.mild_residual"],
        "certificates.certificate_integral.s": inc["certificates.certificate_integral"],
        "certificates.certificate_saturation.s": inc["certificates.certificate_saturation"],
        "certificates.certificate_heat_kernel.s": inc["certificates.certificate_heat_kernel"],
        "cli.write_csv.s": inc["cli.write_csv"],
        "cli.write_csv.rows": c["cli.write_csv.rows"],
        "cli.write_csv.bytes": c["cli.write_csv.bytes"],
        "cli.self_s": sum(t for name, t in own.items() if name.startswith("cli.cmd_")),
    }
    for layer in ("bench", "config", "domain", "stochastic", "blowup", "certificates",
                  "integrator", "cli"):
        values[f"layer.{layer}.self_s"] = a["layer_self"][layer]
    values["trace.root_s"] = a["root_s"]
    values["trace.overhead_s"] = extra["overhead_s"]
    return values, a


def run_workload(args) -> int:
    cli = import_program()
    work = WORK / args.workload
    work.mkdir(parents=True, exist_ok=True)
    workers = min(MAX_WORKERS, os.cpu_count() or 1)
    workload = WORKLOADS[args.workload](CHECKOUT, work, args.seed)
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    runner = Runner(workload, cli, reference, work / "op")

    if not workload.parallel:
        # a single-threaded op stays on the CPU its calibration measured
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    cpus = sorted(os.sched_getaffinity(0))
    t0 = perf_counter()
    setup, setup_calibrations = measure_setup(workload.setup_config(), cpus)
    runner.op(workers)  # warm-up: checked, not timed
    walls, calibrations = [], [calibrate(cpus)]
    start = perf_counter()
    while perf_counter() - start < args.seconds:
        walls.append(runner.op(workers))
        calibrations.append(calibrate(cpus))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_s = statistics.median(walls)
    norm = [at_reference_speed(w, before, after)
            for w, before, after in zip(walls, calibrations, calibrations[1:])]
    norm_wall_s = statistics.median(norm)
    end_to_end = {
        "norm_wall_s": (norm_wall_s, "s"),
        "work_per_s": (workload.work_per_op / norm_wall_s, "1/s"),
        "setup_s": (statistics.median(
            t * CALIBRATION_REF_S / c for t, c in zip(setup, setup_calibrations)), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "program_seed": workload.program_seed,
        "workers": workers,
        "machine": machine_facts(),
        "wall_samples_s": walls,
        "calibration_samples_s": calibrations,
        "setup_samples_s": setup,
        "setup_calibration_samples_s": setup_calibrations,
        "work_unit": workload.work_unit,
    }

    metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}
    if args.trace:
        extra = {}
        if workload.name == "mc_sweep":
            base = at_reference_speed(runner.op(1), calibrations[-1], calibrate(cpus))
            extra["scaling_efficiency"] = base / (workers * norm_wall_s)
        else:
            base = norm_wall_s
        tracer = Tracer()
        before = calibrate(cpus)
        traced = at_reference_speed(runner.op(1, tracer), before, calibrate(cpus))
        extra["overhead_s"] = traced - base
        layer_values, analysis = per_layer(tracer, extra)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layer_values.items()}
        defect = abs(analysis["root_s"] - analysis["self_sum_s"])
        if defect > 1e-9 * max(analysis["root_s"], 1.0):
            runner.failures.append(f"root span {analysis['root_s']} != sum of self times "
                                   f"{analysis['self_sum_s']}")
        origin = tracer.spans[0][1]
        (work / "trace.json").write_text(json.dumps({
            "spans": [[n, s - origin, e - origin, p] for n, s, e, p in tracer.spans],
            "counts": dict(tracer.counts),
            "untraced_norm_wall_s": base,
            "traced_norm_wall_s": traced,
        }))
        record["traced_norm_wall_s"] = traced
    record["metrics"] = metrics
    record["failures"] = runner.failures
    record["elapsed_s"] = perf_counter() - t0
    (work / ("trace_result.json" if args.trace else "result.json")).write_text(
        json.dumps(record, indent=1) + "\n"
    )

    report = [f"{args.workload}: seed {args.seed}, {workers} workers, "
              f"{len(walls)} timed ops of {runner.attempted} attempted"]
    if not args.trace:
        report.append(f"  norm_wall_s {norm_wall_s:.6g} s  median of {len(norm)} at reference "
                      f"speed; highest percentile with >=10 samples beyond: "
                      f"{highest_percentile(norm)}")
        report.append(f"  (raw wall time: median {wall_s:.6g} s, {highest_percentile(walls)}; "
                      f"calibration median {statistics.median(calibrations):.4g} s against "
                      f"{CALIBRATION_REF_S} s)")
        report.append(f"  work_per_s {end_to_end['work_per_s'][0]:.6g} 1/s  ({workload.work_unit})")
        report.append(f"  setup_s {end_to_end['setup_s'][0]:.6g} s  median of {len(setup)} "
                      f"fresh interpreters at reference speed (raw median "
                      f"{statistics.median(setup):.4g} s)")
        report.append(f"  peak_rss_mb {peak_rss_mb:.6g} MB")
    else:
        for name, m in metrics.items():
            report.append(f"  {name} {m['value']:.6g} {m['unit']}")
    report.append(f"  error_rate {len(runner.failures) / runner.attempted:.6g}  "
                  f"({len(runner.failures)} of {runner.attempted} ops failed)")
    report.extend(f"  FAILED {f}" for f in runner.failures)
    print("\n".join(report), file=sys.stderr)
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one table of the metrics."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode} without a result", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    names = list(dict.fromkeys(k for r in results.values() for k in r["metrics"]))
    print(f"{'metric':40} {'unit':6} " + " ".join(f"{w:>14}" for w in results))
    for metric in names:
        cells = []
        for r in results.values():
            m = r["metrics"].get(metric)
            cells.append(f"{m['value']:14.6g}" if m else f"{'-':>14}")
        unit = next(r["metrics"][metric]["unit"] for r in results.values() if metric in r["metrics"])
        print(f"{metric:40} {unit:6} " + " ".join(cells))
    rates = [f"{r['failed'] / r['attempted']:14.6g}" for r in results.values()]
    print(f"{'error_rate':40} {'1':6} " + " ".join(rates))
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main() -> int:
    # One BLAS thread, set before numpy loads: OpenBLAS's second thread spins
    # between calls, and on a 2-vCPU Xeon VM it made 20-second medians of
    # lab_session spread by 19%, against 5% with one thread.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
