"""The three workloads: inputs made from a seed, the commands of one operation,
and the checks an operation's outputs must pass.

An operation ("op") is a list of ``spdelab.cli.main`` argument vectors run in
order. Checks compare numbers that do not depend on the benchmark seed with
``reference.json``, the values the unoptimised code produced, to the relative
tolerance ``REL_TOL``; a reordering of floating-point work therefore does not
fail them. Values that depend on the seed are checked against the
mathematics instead.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

REL_TOL = 1e-6
PI = math.pi


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _num(cell: str) -> float | None:
    return None if cell == "" else float(cell)


def _write_config(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload, indent=1) + "\n")
    return str(path)


class Workload:
    name = ""
    why = ""
    work_unit = ""  # what one unit of work_per_s counts on this workload
    work_per_op = 1
    identical_files: tuple[str, ...] = ()  # byte-identical across every op of a run
    parallel = False  # whether an op runs threads of its own

    def __init__(self, root: Path, seed: int):
        self.root = root
        # the program receives a seed derived from the benchmark's, never the
        # benchmark's own
        self.program_seed = random.Random(f"{self.name}:{seed}").randrange(1 << 31)

    def setup_config(self) -> str:
        """Config that the set-up measurement loads in a fresh interpreter."""
        raise NotImplementedError

    def commands(self, out: Path, workers: int) -> list[list[str]]:
        """Argument vectors of one op; ``workers`` is the Monte Carlo thread count."""
        raise NotImplementedError

    def summary(self, out: Path) -> dict:
        """Seed-independent values of one op's outputs, compared with reference.json."""
        raise NotImplementedError

    def check(self, out: Path, reference: dict) -> list[str]:
        """Problems found in one op's outputs; empty when the op is correct."""
        errors = []
        want = reference.get(self.name)
        if want is None:
            return [f"reference.json has no entry for {self.name}"]
        got = self.summary(out)
        for key, expected in want.items():
            value = got.get(key)
            if isinstance(expected, float):
                if value is None or not math.isclose(value, expected, rel_tol=REL_TOL):
                    errors.append(f"{key} = {value!r}, reference {expected!r} (rel tol {REL_TOL})")
            elif value != expected:
                errors.append(f"{key} = {value!r}, reference {expected!r}")
        return errors


class McSweep(Workload):
    name = "mc_sweep"
    why = (
        "RNG-bound Monte Carlo kernel behind P[blowup] >= 1 - Q(alpha, z*): 5000 paths, "
        "T=30, dt=1e-3, sweep 0.25/0.5/1.0 at 2 workers"
    )
    work_unit = "Monte Carlo paths x sweep entries at T=30, dt=1e-3 (mc_paths_per_s)"
    SWEEP = [0.25, 0.5, 1.0]
    N_PATHS = 5000
    work_per_op = N_PATHS * len(SWEEP)
    # worker-count invariance: the 1-worker ops must reproduce the 2-worker bytes
    identical_files = ("blowup.csv",)
    parallel = True

    def __init__(self, root, work, seed):
        super().__init__(root, seed)
        self.config = _write_config(
            work / "blowup_mc.json",
            {
                "domain": {"kind": "interval", "lengths": [PI], "n": 512},
                "model": {"beta": 1.0, "kappa": 1.0},
                "sim": {
                    "dt": 0.001,
                    "horizon": 30.0,
                    "n_paths": self.N_PATHS,
                    "seed": self.program_seed,
                    "v0psi_sweep": self.SWEEP,
                },
            },
        )

    def setup_config(self):
        return self.config

    def commands(self, out, workers):
        return [["blowup", "--config", self.config, "--out", str(out), "--workers", str(workers)]]

    def summary(self, out):
        got = {"rows": 0}
        for i, row in enumerate(_read_csv(out / "blowup.csv")):
            got["rows"] += 1
            for key in ("v0psi", "x_star", "z_star", "alpha", "p_analytic_blowup"):
                got[f"row{i}.{key}"] = float(row[key])
        return got

    def check(self, out, reference):
        errors = super().check(out, reference)
        for row in _read_csv(out / "blowup.csv"):
            p_hat, p_ref, se = (float(row[k]) for k in ("p_hat", "p_analytic_blowup", "stderr"))
            # the criterion-2 band
            if abs(p_hat - p_ref) > 3.0 * se + 0.005:
                errors.append(f"v0psi={row['v0psi']}: p_hat {p_hat} outside 3*stderr+0.005 of {p_ref}")
            censored = int(row["n_censored"])
            if censored != round(self.N_PATHS * (1.0 - p_hat)):
                errors.append(f"v0psi={row['v0psi']}: n_censored {censored} disagrees with p_hat")
        return errors


class Trajectories(Workload):
    name = "trajectories"
    why = (
        "per-path, per-step IMEX and Euler-Maruyama loops: 16 fixed noise paths, n=64, a=3, "
        "T=5, dt=1e-3; 7 of them blow up and are refined by dt halving"
    )
    work_unit = "scheduled integrator steps, 16 paths x 5000 steps x 2 schemes (path_steps_per_s)"
    N_PATHS = 16
    DT = 0.001
    work_per_op = N_PATHS * 5000 * 2

    def __init__(self, root, work, seed):
        super().__init__(root, seed)
        # The noise paths are fixed: how many of them blow up sets the work of
        # an op (3.7 s to 5.0 s over eight seeds), which would swamp any change
        # under test. With seed 7, 7 of the 16 paths blow up.
        self.program_seed = 7
        self.config = _write_config(
            work / "simulate.json",
            {
                "domain": {"kind": "interval", "lengths": [PI], "n": 64},
                "model": {"beta": 1.0, "kappa": 1.0},
                "initial": {"mode": "eigen-multiple", "a": 3.0},
                "sim": {
                    "dt": self.DT,
                    "horizon": 5.0,
                    "n_paths": self.N_PATHS,
                    "seed": self.program_seed,
                    "cutoff": 1e8,
                },
            },
        )

    def setup_config(self):
        return self.config

    def commands(self, out, workers):
        return [["simulate", "--config", self.config, "--out", str(out)]]

    def summary(self, out):
        rows = _read_csv(out / "trajectories.csv")
        got = {
            "rows": len(rows),
            "mass_initial": float(rows[0]["mass_initial"]),
            "series_files": sum(1 for _ in out.glob("mass_series_*.csv")),
        }
        for row, cons in zip(rows, _read_csv(out / "consistency.csv")):
            path = f"path{row['path_index']}"
            got[f"{path}.outcome"] = row["outcome"]
            if row["tau_analytic"]:
                got[f"{path}.tau_analytic"] = float(row["tau_analytic"])
            # Near the cutoff one step multiplies a rounding difference by
            # about 2*dt*sup, so only paths that complete the horizon are
            # compared value by value. Blowup brackets are checked below.
            if row["outcome"] == "completed_horizon":
                got[f"{path}.mass_final"] = float(row["mass_final"])
                got[f"{path}.sup_final"] = float(row["sup_final"])
                for key in ("em_transform_rel_diff", "weak_residual_max", "mild_residual_max"):
                    got[f"{path}.{key}"] = float(cons[key])
        return got

    def check(self, out, reference):
        errors = super().check(out, reference)
        for row in _read_csv(out / "trajectories.csv"):
            if row["outcome"] == "numerical_blowup":
                lo, hi = float(row["t_last_stable"]), float(row["t_blowup"])
                if not lo <= hi <= lo + self.DT * (1 + 1e-9):
                    errors.append(f"path {row['path_index']}: bracket [{lo}, {hi}] wider than dt")
        for row in _read_csv(out / "consistency.csv"):
            ratio = _num(row["mass_over_lower_min"])
            if ratio is None or ratio < 0.98:
                errors.append(f"path {row['path_index']}: mass_over_lower_min {ratio} < 0.98")
        return errors


class LabSession(Workload):
    name = "lab_session"
    why = (
        "one pass over the light commands on the shipped configs plus one noiseless path: "
        "spectral layer, certificate series, the P=1 integrator; no Monte Carlo"
    )
    work_unit = "CLI commands (6 per pass)"
    SHIPPED = (
        ("eigen", "eigen_interval"),
        ("blowup", "blowup_dichotomy"),
        ("certify", "certify_frozen"),
        ("certify", "certify_analytic"),
        ("heat-kernel", "heat_kernel"),
    )
    work_per_op = len(SHIPPED) + 1

    def __init__(self, root, work, seed):
        super().__init__(root, seed)
        # a = 5.093 puts the psi-mass at 2.000, whose lower solution blows up at ln 2
        self.noiseless = _write_config(
            work / "noiseless.json",
            {
                "domain": {"kind": "interval", "lengths": [PI], "n": 128},
                "model": {"beta": 1.0, "kappa": 0.0},
                "initial": {"mode": "eigen-multiple", "a": 5.093},
                "sim": {"dt": 0.001, "horizon": 2.0, "seed": self.program_seed, "cutoff": 1e8},
            },
        )

    def setup_config(self):
        return str(self.root / "configs" / "certify_frozen.json")

    def commands(self, out, workers):
        argvs = []
        for command, config in self.SHIPPED:
            argvs.append(
                [
                    command,
                    "--config",
                    str(self.root / "configs" / f"{config}.json"),
                    "--out",
                    str(out / config),
                    "--seed",
                    str(self.program_seed),
                ]
            )
        argvs.append(["simulate", "--config", self.noiseless, "--out", str(out / "noiseless")])
        return argvs

    def summary(self, out):
        got = {}
        eig = json.loads((out / "eigen_interval" / "eigenvalues.json").read_text())
        for key in ("lam1", "lam2", "lam1_fine", "lam2_fine", "lam1_extrapolated", "lam2_extrapolated"):
            got[f"eigen.{key}"] = float(eig[key])
        for row in _read_csv(out / "blowup_dichotomy" / "dichotomy.csv"):
            got[f"dichotomy.{row['mass']}.verdict"] = row["verdict"]
            got[f"dichotomy.{row['mass']}.threshold"] = float(row["threshold"])
        for config in ("certify_frozen", "certify_analytic"):
            for row in _read_csv(out / config / "certificates.csv"):
                prefix = f"{config}.{row['kind']}"
                got[f"{prefix}.verdict"] = row["verdict"]
                for key in ("J", "threshold", "envelope_max", "probability_certified"):
                    if row[key] != "":
                        got[f"{prefix}.{key}"] = float(row[key])
        hk = json.loads((out / "heat_kernel" / "heatkernel_summary.json").read_text())
        for key in ("c", "spectral_gap", "n_modes"):
            got[f"heat_kernel.{key}"] = float(hk[key])
        (traj,) = _read_csv(out / "noiseless" / "trajectories.csv")
        got["noiseless.outcome"] = traj["outcome"]
        got["noiseless.mass_initial"] = float(traj["mass_initial"])
        return got

    def check(self, out, reference):
        errors = super().check(out, reference)
        eig = json.loads((out / "eigen_interval" / "eigenvalues.json").read_text())
        if abs(eig["lam1_extrapolated"] - 1.0) > 1e-6:
            errors.append(f"lam1_extrapolated {eig['lam1_extrapolated']} not within 1e-6 of 1")
        for row in _read_csv(out / "heat_kernel" / "heatkernel.csv"):
            if row["pass"] != "true":
                errors.append(f"heat-kernel sandwich fails at t={row['t']}")
        (traj,) = _read_csv(out / "noiseless" / "trajectories.csv")
        if traj["outcome"] != "numerical_blowup":
            errors.append(f"noiseless path outcome {traj['outcome']}, expected numerical_blowup")
        else:
            lo, hi = float(traj["t_last_stable"]), float(traj["t_blowup"])
            if not (lo <= hi <= lo + 0.001 * (1 + 1e-9) and hi < math.log(2.0)):
                errors.append(f"noiseless blowup bracket [{lo}, {hi}] not inside one step before ln 2")
        # with W = 0 the two schemes integrate the same equation
        (cons,) = _read_csv(out / "noiseless" / "consistency.csv")
        em, ratio = _num(cons["em_transform_rel_diff"]), _num(cons["mass_over_lower_min"])
        if em is None or em > 0.05:
            errors.append(f"noiseless em_transform_rel_diff {em} > 0.05")
        if ratio is None or ratio < 0.98:
            errors.append(f"noiseless mass_over_lower_min {ratio} < 0.98")
        return errors


WORKLOADS = {w.name: w for w in (McSweep, Trajectories, LabSession)}
