"""End-to-end tests of the command-line interface and config validation."""

import csv
import hashlib
import inspect
import json
import math
import multiprocessing
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy

from spdelab import blowup, certificates, cli, stochastic
from spdelab.blowup import ModelParams
from spdelab.cli import _consistency_row, main, write_columns, write_csv
from spdelab.config import load_config
from spdelab.domain import (
    DomainSpec,
    build_grid,
    solve_eigenpairs,
    weighted_inner,
)
from spdelab.errors import ConfigurationError, NumericalFailure, _refuse_oversized
from spdelab.integrator import mode_residuals, reconstruct_u, simulate_paths
from spdelab.stochastic import BrownianPath, sample_brownian


def write_cfg(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def interval_cfg(n=32, **extra):
    cfg = {"domain": {"kind": "interval", "lengths": [math.pi], "n": n}}
    cfg.update(extra)
    return cfg


MODEL = {"beta": 1.0, "kappa": 1.0}
CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# one refused value per range-checked key, as (dotted key, section update); a
# None drops the key. cutoff is in
# test_bad_integrator_setting_exits_2_without_files.
RANGE_CASES = [
    ("domain.kind", {"kind": "disk"}),
    ("domain.lengths", {"lengths": [-1.0]}),
    ("domain.lengths", {"lengths": [1.0, 2.0]}),
    ("domain.n", {"n": 7}),
    ("domain.n_fine", {"n_fine": 16}),
    ("model.beta", {"beta": 0.0}),
    ("model.kappa", {"kappa": -1.0}),
    ("model.C", {"C": -1.0}),
    ("model.C", {"C": 2.0}),
    ("model.C", {"Lambda": 0.0, "C": 1.0}),
    ("model.Lambda", {"Lambda": -1.0}),
    ("model.Cstar", {"Cstar": 0.0}),
    ("initial.mode", {"mode": "random"}),
    ("initial.a", {"a": 0.0}),
    ("initial.a", {"mode": "eigen-multiple", "a": None}),
    ("initial.file", {"mode": "tabulated", "file": ""}),
    ("sim.dt", {"dt": 0.0}),
    ("sim.horizon", {"horizon": -1.0}),
    ("sim.n_paths", {"n_paths": 0}),
    ("sim.seed", {"seed": -1}),
    ("sim.v0psi_sweep", {"v0psi_sweep": [0.5, 0.0]}),
    ("certificate.kinds", {"kinds": []}),
    ("certificate.kinds", {"kinds": ["integral", "heat"]}),
    ("certificate.kinds", {"kinds": ["integral", "integral"]}),
    ("certificate.K", {"K": 0.0}),
    ("certificate.eta", {"eta": 0.5}),
    ("certificate.c", {"c": -1.0}),
    ("heat_kernel.n_modes", {"n_modes": 29}),
    ("heat_kernel.t_start", {"t_start": 0.0}),
    ("heat_kernel.t_stop", {"t_stop": 0.01}),
    ("heat_kernel.t_num", {"t_num": 1}),
]


def nonfinite_table(tmp_path, bad, n=16):
    """A tabulated initial datum on the n-interval grid with ``bad`` at node 5."""
    grid = build_grid(DomainSpec(kind="interval", lengths=(math.pi,)), n)
    values = [repr(float(v)) for v in 0.2 * np.sin(grid.axes[0])]
    values[5] = bad
    table = tmp_path / "f.csv"
    table.write_text("value\n" + "\n".join(values) + "\n")
    return table


class TestConfigValidation:
    def test_unknown_top_level_key_rejected(self, tmp_path):
        p = write_cfg(tmp_path, {**interval_cfg(), "extra_section": {}})
        assert main(["eigen", "--config", str(p), "--out", str(tmp_path / "o")]) == 2

    def test_unknown_nested_key_rejected(self, tmp_path):
        cfg = interval_cfg(model={**MODEL, "gamma": 2.0})
        with pytest.raises(ConfigurationError, match="gamma"):
            load_config(write_cfg(tmp_path, cfg))
        cfg = interval_cfg(heat_kernel={"formats": ["csv"]})
        with pytest.raises(ConfigurationError, match="formats"):
            load_config(write_cfg(tmp_path, cfg))

    def test_coarse_grid_exits_2_without_files(self, tmp_path):
        out = tmp_path / "out"
        p = write_cfg(tmp_path, {"domain": {"kind": "interval", "lengths": [math.pi], "n": 4}})
        assert main(["eigen", "--config", str(p), "--out", str(out)]) == 2
        assert not out.exists() or not any(out.iterdir())

    def test_invalid_json_exits_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["eigen", "--config", str(p), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "text", [b'{"domain": {"kind": "interval\xff"}}', b"[" * 100_000 + b"]" * 100_000],
        ids=["non-utf8-byte", "nested-100000-deep"],
    )
    def test_text_that_is_not_json_exits_2_without_files(self, tmp_path, capsys, text):
        # the decoder's UnicodeDecodeError and RecursionError escaped as exit 1
        p = tmp_path / "bad.json"
        p.write_bytes(text)
        out = tmp_path / "out"
        assert main(["eigen", "--config", str(p), "--out", str(out)]) == 2
        assert "is not valid JSON" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file_exits_2(self, tmp_path):
        assert main(["eigen", "--config", str(tmp_path / "absent.json")]) == 2

    def test_bool_is_not_a_number(self, tmp_path):
        cfg = interval_cfg(model={"beta": True, "kappa": 1.0})
        with pytest.raises(ConfigurationError, match="beta"):
            load_config(write_cfg(tmp_path, cfg))

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("cutoff", 1.0, "cutoff must exceed one"),
            ("cutoff", 0.5, "cutoff must exceed one"),
        ],
    )
    def test_bad_integrator_setting_exits_2_without_files(
        self, tmp_path, capsys, key, value, message
    ):
        # sim.cutoff is checked once, by SimConfig, when the config loads
        cfg = interval_cfg(
            n=16,
            model=MODEL,
            initial={"mode": "eigen-multiple", "a": 0.3},
            sim={"dt": 0.01, "horizon": 0.5, "seed": 1, key: value},
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"configuration error: sim.{message}, got {value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "blowup"])
    def test_max_snapshots_is_an_unknown_key(self, tmp_path, capsys, command):
        # simulate keeps the integrator's default rows; no config sets them
        cfg = interval_cfg(
            n=16,
            model=MODEL,
            initial={"mode": "eigen-multiple", "a": 0.3},
            sim={"dt": 0.01, "horizon": 0.5, "seed": 1, "v0psi_sweep": [0.5],
                 "max_snapshots": 10},
        )
        out = tmp_path / "out"
        assert main([command, "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "configuration error: sim: unknown keys ['max_snapshots']\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("scheme", ["leapfrog", "imex", "crank_nicolson"])
    def test_bad_scheme_rejected(self, tmp_path, capsys, scheme):
        # there is one linear step, so sim names none: scheme is an unknown key
        cfg = interval_cfg(
            n=16,
            model=MODEL,
            initial={"mode": "eigen-multiple", "a": 0.3},
            sim={"dt": 0.1, "horizon": 1.0, "scheme": scheme},
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 2
        assert "sim: unknown keys ['scheme']" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_sweep_entry_rejected(self, tmp_path):
        cfg = interval_cfg(sim={"dt": 0.1, "horizon": 1.0, "v0psi_sweep": [0.5, -1.0]})
        with pytest.raises(ConfigurationError, match="v0psi_sweep"):
            load_config(write_cfg(tmp_path, cfg))

    def test_bad_initial_mode_rejected(self, tmp_path):
        cfg = interval_cfg(initial={"mode": "random"})
        with pytest.raises(ConfigurationError, match="initial.mode"):
            load_config(write_cfg(tmp_path, cfg))

    def test_missing_section_exits_2(self, tmp_path):
        p = write_cfg(tmp_path, interval_cfg(model=MODEL))
        rc = main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize(
        "flag", [["--seed", "-5"], ["--workers", "0"], ["--workers", "-2"]], ids="=".join
    )
    @pytest.mark.parametrize(
        "command,kappa", [("blowup", 1.0), ("blowup", 0.0), ("simulate", 1.0)]
    )
    def test_bad_seed_or_workers_exits_2_without_files(
        self, tmp_path, capsys, flag, command, kappa
    ):
        cfg = interval_cfg(
            n=16,
            model={"beta": 1.0, "kappa": kappa},
            initial={"mode": "eigen-multiple", "a": 0.3},
            sim={"dt": 0.01, "horizon": 0.5, "n_paths": 1000, "seed": 1, "v0psi_sweep": [0.5]},
        )
        out = tmp_path / "out"
        p = write_cfg(tmp_path, cfg)
        assert main([command, "--config", str(p), "--out", str(out), *flag]) == 2
        assert f"configuration error: {flag[0]} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, kappa, beta, name",
        [
            ("blowup", 1e200, 1.0, "kappa"),
            ("simulate", 1e200, 1.0, "kappa"),
            ("certify", 1e200, 1.0, "kappa"),
            ("blowup", 1.0, 1e200, "beta"),
            ("certify", 1.0, 1e200, "beta"),
        ],
    )
    def test_overflowing_kappa_or_beta_exits_2_without_files(
        self, tmp_path, capsys, command, kappa, beta, name
    ):
        # kappa^2 or (kappa beta)^2 overflows a float; a float ** raised
        # OverflowError deep in the gamma law, certificates or integrator
        cfg = interval_cfg(
            n=32,
            model={"beta": beta, "kappa": kappa},
            initial={"mode": "eigen-multiple", "a": 0.05},
            sim={"dt": 0.01, "horizon": 1.0, "n_paths": 1000, "seed": 1, "v0psi_sweep": [0.5]},
            certificate={"kinds": ["integral", "heat_kernel"], "K": 0.5, "c": 1.0},
        )
        out = tmp_path / "out"
        p = write_cfg(tmp_path, cfg)
        assert main([command, "--config", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert f"{name}=1e+200 is too large" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, kappa", [("simulate", 1.0), ("simulate", 0.0),
                                                ("blowup", 1.0)])
    def test_non_finite_step_count_exits_2_without_files(self, tmp_path, capsys, command, kappa):
        # horizon/dt overflows to inf: the step count raised OverflowError
        cfg = interval_cfg(
            n=16,
            model={"beta": 1.0, "kappa": kappa},
            initial={"mode": "eigen-multiple", "a": 0.3},
            sim={"dt": 1e-320, "horizon": 1.0, "n_paths": 1000, "seed": 1, "v0psi_sweep": [0.5]},
        )
        out = tmp_path / "out"
        assert main([command, "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 2
        assert "not a finite step count" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "command, domain, kappa, horizon, certificate",
        [
            ("simulate", {}, 1.0, 1e300, {}),
            ("simulate", {}, 1.0, 1e17, {}),
            ("simulate", {}, 0.0, 1e300, {}),
            ("certify", {}, 1.0, 1e300, {}),
            ("certify", {}, 1.0, 1e300, {"frozen_zero_path": True}),
            ("certify", {}, 1.0, 1e300, {"kinds": ["heat_kernel"], "K": 0.5, "c": 4.0}),
            ("eigen", {"n": 2**62}, 1.0, 1.0, {}),
            ("simulate", {"kind": "rectangle", "lengths": [1.0, 1.0], "n": 2**31}, 1.0, 1.0, {}),
        ],
        ids=["simulate-T1e300", "simulate-T1e17", "simulate-kappa0", "certify-sampled",
             "certify-frozen", "certify-heat-kernel-path", "eigen-n2^62", "rectangle-n2^31"],
    )
    def test_array_numpy_cannot_hold_exits_2_without_files(
        self, tmp_path, capsys, command, domain, kappa, horizon, certificate
    ):
        # numpy's ValueError for these sizes once escaped as exit 1; the
        # refusal comes before any allocation
        cfg = interval_cfg(
            n=16,
            model={"beta": 1.0, "kappa": kappa},
            initial={"mode": "eigen-multiple", "a": 0.1},
            sim={"dt": 1e-3, "horizon": horizon, "n_paths": 2, "seed": 1},
            certificate={"kinds": ["integral"], **certificate},
        )
        cfg["domain"].update(domain)
        out = tmp_path / "out"
        assert main([command, "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 2
        assert "more than numpy can hold" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_largest_array_numpy_can_hold_is_not_refused(self):
        limit = np.iinfo(np.intp).max // 8
        _refuse_oversized(limit, "the largest array")
        with pytest.raises(ConfigurationError, match="more than numpy can hold"):
            _refuse_oversized(limit + 1, "one entry more")

    @pytest.mark.parametrize(
        "G", [{"type": "tabulated", "z": [0, 1], "g": [0, 0]}, {"type": "power_law"}],
        ids=["tabulated", "power_law"],
    )
    def test_nonlinearity_key_exits_2_as_unknown(self, tmp_path, capsys, G):
        # the reaction is Lambda z^(1+beta); model.G is no longer a key
        cfg = interval_cfg(model={**MODEL, "G": G})
        out = tmp_path / "out"
        assert main(["eigen", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "configuration error: model: unknown keys ['G']\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "where", ["horizon", "lengths", "sweep", "c", "n", "n_fine", "t_num", "n_paths"]
    )
    def test_integer_past_float_range_exits_2(self, tmp_path, capsys, where):
        # JSON integers are unbounded; float() of this one overflows, and no
        # int64 holds it as a count
        huge = 10**400
        cfg = interval_cfg(
            n=32,
            model=MODEL,
            sim={"dt": 0.01, "horizon": 1.0, "n_paths": 10, "v0psi_sweep": [0.5]},
            certificate={"c": 1.0},
        )
        if where == "horizon":
            cfg["sim"]["horizon"] = huge
        elif where == "lengths":
            cfg["domain"]["lengths"] = [huge]
        elif where == "sweep":
            cfg["sim"]["v0psi_sweep"] = [huge]
        elif where == "c":
            cfg["certificate"]["c"] = huge
        elif where == "t_num":
            cfg["heat_kernel"] = {"t_num": huge}
        elif where == "n_paths":
            cfg["sim"]["n_paths"] = huge
        else:
            cfg["domain"][where] = huge
        out = tmp_path / "out"
        assert main(["blowup", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        RANGE_CASES,
        ids=[f"{key}={list(value.values())[-1]}" for key, value in RANGE_CASES],
    )
    def test_out_of_range_setting_exits_2_naming_its_key(self, tmp_path, capsys, key, value):
        cfg = interval_cfg(
            n=16,
            model=dict(MODEL),
            initial={"mode": "eigen-multiple", "a": 0.3},
            sim={"dt": 0.01, "horizon": 0.5, "v0psi_sweep": [0.5]},
            certificate={"K": 0.5},
            heat_kernel={},
        )
        section = key.split(".")[0]
        cfg[section].update(value)
        cfg[section] = {k: v for k, v in cfg[section].items() if v is not None}
        out = tmp_path / "out"
        assert main(["eigen", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"configuration error: {key} ")
        assert not out.exists()


class TestEigenCommand:
    def test_interval_outputs(self, tmp_path):
        out = tmp_path / "out"
        p = write_cfg(tmp_path, interval_cfg(n=32))
        assert main(["eigen", "--config", str(p), "--out", str(out)]) == 0
        data = json.loads((out / "eigenvalues.json").read_text())
        assert data["n"] == 32 and data["n_fine"] == 65
        assert abs(data["ratio"] - 4.0) < 1e-12  # default n_fine halves h exactly
        assert abs(data["lam1_extrapolated"] - 1.0) < 1e-5
        assert abs(data["lam2_extrapolated"] - 4.0) < 1e-4
        rows = read_csv(out / "psi.csv")
        assert len(rows) == 32 and set(rows[0]) == {"x", "psi"}
        psi = np.array([float(r["psi"]) for r in rows])
        h = math.pi / 33
        assert np.all(psi > 0)
        assert abs(h * psi.sum() - 1.0) < 1e-12

    def test_one_parser_serves_every_call(self, tmp_path, monkeypatch):
        # the parser is built once per process, and each call looks its
        # command up in _COMMANDS, so a wrapped entry there is the one that runs
        p = write_cfg(tmp_path, interval_cfg(n=16))
        with pytest.raises(SystemExit) as exc:
            main(["eigen", "--config", str(p), "--workers", "two"])
        assert exc.value.code == 2
        assert main(["eigen", "--config", str(p), "--out", str(tmp_path / "a")]) == 0
        calls = []
        eigen = cli._COMMANDS["eigen"]
        monkeypatch.setitem(cli._COMMANDS, "eigen", lambda *a: calls.append(a) or eigen(*a))
        assert main(["eigen", "--config", str(p), "--out", str(tmp_path / "b")]) == 0
        assert len(calls) == 1
        for name in ("eigenvalues.json", "psi.csv"):
            assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()
        assert cli._build_parser() is cli._build_parser()

    @pytest.mark.parametrize(
        "kind, lengths, n", [("interval", [math.pi], 32), ("rectangle", [math.pi, 2.0], 16)]
    )
    def test_psi_csv_matches_the_row_writer(self, tmp_path, kind, lengths, n):
        out = tmp_path / "out"
        p = write_cfg(tmp_path, {"domain": {"kind": kind, "lengths": lengths, "n": n}})
        assert main(["eigen", "--config", str(p), "--out", str(out)]) == 0
        grid = build_grid(DomainSpec(kind=kind, lengths=tuple(lengths)), n)
        eig = solve_eigenpairs(grid, 4)
        axes = list(zip(("x", "y"), grid.nodes()))
        rows = [
            {**{name: c[i] for name, c in axes}, "psi": eig.psi[i]} for i in range(grid.npoints)
        ]
        cells = write_csv(tmp_path / "cells.csv", rows)
        assert (out / "psi.csv").read_bytes() == cells.read_bytes()

    def test_manifest_records_run(self, tmp_path):
        out = tmp_path / "out"
        p = write_cfg(tmp_path, interval_cfg(n=16))
        assert main(["eigen", "--config", str(p), "--out", str(out)]) == 0
        man = json.loads((out / "eigen_manifest.json").read_text())
        assert man["config_sha256"] == hashlib.sha256(p.read_bytes()).hexdigest()
        assert set(man["outputs"]) == {"eigenvalues.json", "psi.csv"}
        assert man["command"] == "eigen"
        assert man["started_at"] <= man["finished_at"]

    def test_rectangle_outputs(self, tmp_path):
        out = tmp_path / "out"
        cfg = {"domain": {"kind": "rectangle", "lengths": [math.pi, math.pi], "n": 16}}
        p = write_cfg(tmp_path, cfg)
        assert main(["eigen", "--config", str(p), "--out", str(out)]) == 0
        data = json.loads((out / "eigenvalues.json").read_text())
        assert abs(data["lam1_extrapolated"] - 2.0) < 1e-3
        rows = read_csv(out / "psi.csv")
        assert len(rows) == 256 and set(rows[0]) == {"x", "y", "psi"}


    @pytest.mark.parametrize(
        "command, lengths",
        [
            ("eigen", [1e-300]),  # the eigenvalues overflow
            ("eigen", [1e300]),  # they underflow to 0
            ("simulate", [1e-300]),
            ("eigen", [1e160, 1e160]),  # the cell volume overflows
        ],
    )
    def test_unrepresentable_mesh_exits_2_without_files(self, tmp_path, capsys, command, lengths):
        # unchecked, eigen writes lam1 Infinity and NaN extrapolations, or lam1
        # 0.0, and simulate raises ZeroDivisionError; warnings are errors here
        kind = "interval" if len(lengths) == 1 else "rectangle"
        cfg = {
            "domain": {"kind": kind, "lengths": lengths, "n": 16},
            "model": MODEL,
            "initial": {"mode": "eigen-multiple", "a": 0.3},
            "sim": {"dt": 0.01, "horizon": 0.1},
        }
        out = tmp_path / "out"
        assert main([command, "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 2
        assert "must be a positive finite float" in capsys.readouterr().err
        assert not [*out.glob("*.csv"), *out.glob("*.json")]


def _exit_worker(*args):
    """Stands in for the Monte Carlo kernel and kills the worker running it."""
    if multiprocessing.parent_process() is None:
        raise AssertionError("the kernel ran in the parent, not in a worker")
    os._exit(1)


class TestBlowupCommand:
    def cfg(self, **sim_extra):
        sim = {"dt": 0.01, "horizon": 10.0, "n_paths": 1000, "seed": 7, "v0psi_sweep": [0.5]}
        sim.update(sim_extra)
        return interval_cfg(n=32, model=MODEL, sim=sim)

    def test_monte_carlo_sweep(self, tmp_path):
        out = tmp_path / "out"
        p = write_cfg(tmp_path, self.cfg())
        assert main(["blowup", "--config", str(p), "--out", str(out)]) == 0
        rows = read_csv(out / "blowup.csv")
        assert [c for c in rows[0]] == [
            "v0psi", "x_star", "z_star", "alpha",
            "p_analytic_blowup", "p_hat", "stderr", "n_censored",
            "truncation_allowance", "n_saturated",
        ]
        row = rows[0]
        assert float(row["x_star"]) == 2.0
        assert abs(float(row["z_star"]) - 1.0) < 1e-12
        p_hat = float(row["p_hat"])
        assert 0.0 <= p_hat <= 1.0
        assert int(row["n_censored"]) == round(1000 * (1 - p_hat))
        assert 0.0 < float(row["truncation_allowance"]) <= 1.0 - p_hat
        assert row["n_saturated"] == "0"

    def test_sweep_draws_each_path_once(self, tmp_path, monkeypatch):
        # every sweep entry reads the same paths, so the command seeds each
        # path's generator once for the whole sweep, not once per path and
        # entry
        built = []

        def counting_generators(seed, path_indices, out=None):
            built.extend(int(i) for i in path_indices)
            return stochastic.path_generators(seed, path_indices, out)

        monkeypatch.setattr(blowup, "path_generators", counting_generators)
        p = write_cfg(tmp_path, self.cfg(v0psi_sweep=[0.25, 0.5, 1.0]))
        assert main(["blowup", "--config", str(p), "--out", str(tmp_path / "o")]) == 0
        assert len(read_csv(tmp_path / "o" / "blowup.csv")) == 3
        assert sorted(built) == list(range(1000))

    def test_each_level_evaluates_its_gamma_law_once(self, tmp_path, monkeypatch):
        # the Monte Carlo pass evaluates each level's gamma law to check the
        # level, and blowup.csv reads that same evaluation back
        calls = []

        def counting_tail(alpha, z):
            calls.append(z)
            return stochastic.gamma_tail(alpha, z)

        monkeypatch.setattr(blowup, "gamma_tail", counting_tail)
        p = write_cfg(tmp_path, self.cfg(v0psi_sweep=[0.25, 0.5, 1.0]))
        assert main(["blowup", "--config", str(p), "--out", str(tmp_path / "o")]) == 0
        rows = read_csv(tmp_path / "o" / "blowup.csv")
        assert [repr(z) for z in calls] == [row["z_star"] for row in rows]

    def test_small_kappa_large_gamma_shape(self, tmp_path):
        # kappa = 0.02 puts the gamma law at alpha ~ 5000 with z* ~ alpha
        cfg = interval_cfg(
            n=64,
            model={"beta": 1.0, "kappa": 0.02},
            sim={"dt": 1e-3, "horizon": 2.0, "n_paths": 1000, "seed": 7, "v0psi_sweep": [1.0]},
        )
        out = tmp_path / "out"
        assert main(["blowup", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 0
        [row] = read_csv(out / "blowup.csv")
        assert float(row["alpha"]) == pytest.approx(5000.0, rel=1e-3)
        assert 0.4 < float(row["p_analytic_blowup"]) < 0.6

    def test_rerun_and_workers_byte_identical(self, tmp_path):
        p = write_cfg(tmp_path, self.cfg())
        outs = [tmp_path / f"o{i}" for i in range(3)]
        assert main(["blowup", "--config", str(p), "--out", str(outs[0])]) == 0
        assert main(["blowup", "--config", str(p), "--out", str(outs[1])]) == 0
        assert main(["blowup", "--config", str(p), "--out", str(outs[2]), "--workers", "3"]) == 0
        ref = (outs[0] / "blowup.csv").read_bytes()
        assert (outs[1] / "blowup.csv").read_bytes() == ref
        assert (outs[2] / "blowup.csv").read_bytes() == ref

    def test_manifest_records_workers(self, tmp_path):
        p = write_cfg(tmp_path, self.cfg())
        cores = os.cpu_count()
        for workers in (1, 3):
            out = tmp_path / f"w{workers}"
            assert main(["blowup", "--config", str(p), "--out", str(out),
                         "--workers", str(workers)]) == 0
            man = json.loads((out / "blowup_manifest.json").read_text())
            assert man["workers_requested"] == workers
            assert man["workers_used"] == min(workers, cores)
            assert man["cpu_count"] == cores
        # a command that runs in one process uses one worker
        out = tmp_path / "eigen"
        assert main(["eigen", "--config", str(p), "--out", str(out), "--workers", "3"]) == 0
        man = json.loads((out / "eigen_manifest.json").read_text())
        assert (man["workers_requested"], man["workers_used"]) == (3, 1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_manifest_records_versions_and_normals_drawn(self, tmp_path, monkeypatch, workers):
        sweeps = []

        def recording(*args, **kwargs):
            sweeps.append(blowup.mc_blowup_probability(*args, **kwargs))
            return sweeps[-1]

        monkeypatch.setattr(cli, "mc_blowup_probability", recording)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a pool on any runner
        out = tmp_path / "o"
        p = write_cfg(tmp_path, self.cfg(v0psi_sweep=[0.25, 1.0]))
        assert main(["blowup", "--config", str(p), "--out", str(out),
                     "--workers", str(workers)]) == 0
        man = json.loads((out / "blowup_manifest.json").read_text())
        [sweep] = sweeps
        assert man["workers_used"] == sweep.workers == workers
        assert man["normals_drawn"] == sweep.normals_drawn > 0
        assert man["python_version"] == platform.python_version()
        assert man["numpy_version"] == np.__version__
        assert man["scipy_version"] == scipy.__version__
        assert man["rng_scheme"] == "PCG64 default_rng([seed, path_index])"

    def test_manifest_of_a_run_without_scipy_names_no_scipy(self, tmp_path):
        # eigen loads no scipy; the manifest does not import it to name it
        p = write_cfg(tmp_path, interval_cfg(n=16))
        out = tmp_path / "o"
        code = (
            "import sys; from spdelab.cli import main; "
            f"code = main(['eigen', '--config', {str(p)!r}, '--out', {str(out)!r}]); "
            "sys.exit(code or 'scipy' in sys.modules)"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        subprocess.run([sys.executable, "-c", code], check=True, env=env, capture_output=True)
        man = json.loads((out / "eigen_manifest.json").read_text())
        assert man["scipy_version"] is None and man["normals_drawn"] is None
        assert man["numpy_version"] == np.__version__
        assert man["rng_scheme"] == "PCG64 default_rng([seed, path_index])"

    def test_dead_worker_exits_3_without_csv(self, tmp_path, capsys, monkeypatch):
        # a worker killed by a signal or by the OOM killer breaks the pool;
        # the forked workers inherit the patched kernel
        monkeypatch.setattr(blowup, "_advance_paths", _exit_worker)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a pool on any runner
        out = tmp_path / "o"
        p = write_cfg(tmp_path, self.cfg())
        assert main(["blowup", "--config", str(p), "--out", str(out), "--workers", "2"]) == 3
        assert capsys.readouterr().err.startswith("numerical failure: a worker process died:")
        assert not (out / "blowup.csv").exists()
        assert multiprocessing.active_children() == []

    def test_seed_override_recorded_and_deterministic(self, tmp_path):
        p = write_cfg(tmp_path, self.cfg())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["blowup", "--config", str(p), "--out", str(out1), "--seed", "99"]) == 0
        assert main(["blowup", "--config", str(p), "--out", str(out2), "--seed", "99"]) == 0
        assert json.loads((out1 / "blowup_manifest.json").read_text())["seed"] == 99
        assert (out1 / "blowup.csv").read_bytes() == (out2 / "blowup.csv").read_bytes()

    def test_noiseless_dichotomy_table(self, tmp_path):
        cfg = interval_cfg(
            n=32,
            model={"beta": 1.0, "kappa": 0.0},
            sim={"dt": 0.01, "horizon": 1.0, "v0psi_sweep": [0.5, 2.0]},
        )
        out = tmp_path / "out"
        p = write_cfg(tmp_path, cfg)
        assert main(["blowup", "--config", str(p), "--out", str(out)]) == 0
        rows = read_csv(out / "dichotomy.csv")
        assert [r["verdict"] for r in rows] == ["tau_infinite", "blowup_certified"]
        assert abs(float(rows[0]["threshold"]) - 1.0) < 1e-3

    def test_noiseless_dichotomy_reads_the_lower_constant(self, tmp_path):
        # G = z^2/2 (C = Lambda = 1/2): the lower solution blows up only above
        # (lam1/C)^(1/beta) = 2 lam1, so mass 1.5 > lam1 = 0.99924 decays
        cfg = interval_cfg(
            n=32,
            model={"beta": 1.0, "kappa": 0.0, "C": 0.5, "Lambda": 0.5},
            sim={"dt": 0.01, "horizon": 1.0, "v0psi_sweep": [1.5]},
        )
        out = tmp_path / "out"
        assert main(["blowup", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 0
        [row] = read_csv(out / "dichotomy.csv")
        assert row == {
            "mass": "1.5",
            "threshold": repr(0.999244978322859 / 0.5),
            "verdict": "tau_infinite",
        }

    def test_overflowing_dichotomy_threshold_is_infinite(self, tmp_path):
        # (lam1/C)^(1/beta) = (lam1 1e300)^2 overflows: float ** raised
        # OverflowError, and blowup exited 1; no mass reaches the threshold
        cfg = interval_cfg(
            n=32,
            model={"beta": 0.5, "kappa": 0.0, "C": 1e-300},
            sim={"dt": 0.01, "horizon": 1.0, "v0psi_sweep": [1e300]},
        )
        out = tmp_path / "out"
        assert main(["blowup", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 0
        [row] = read_csv(out / "dichotomy.csv")
        assert row == {"mass": "1e+300", "threshold": "inf", "verdict": "tau_infinite"}

    @pytest.mark.parametrize("v0psi", [1e200, math.inf, math.nan], ids=["underflow", "inf", "nan"])
    def test_sweep_entry_without_positive_x_star_exits_2(self, tmp_path, v0psi):
        # at beta = 2, x* = v0psi^(-2)/2 underflows to 0 for 1e200 and inf,
        # and is nan for nan; json writes the last two as Infinity and NaN
        cfg = self.cfg(v0psi_sweep=[0.5, v0psi])
        cfg["model"] = {"beta": 2.0, "kappa": 1.0}
        out = tmp_path / "out"
        assert main(["blowup", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 2
        assert not (out / "blowup.csv").exists()

    @pytest.mark.parametrize(
        "kappa, sweep",
        [(1e-200, [0.5]), (1e-160, [0.5]), (1e-100, [1e150])],
        ids=["kappa-squared-underflows", "alpha-overflows", "level-underflows"],
    )
    def test_tiny_kappa_exits_2_naming_kappa(self, tmp_path, capsys, kappa, sweep):
        # alpha = (2 lam1 + kappa^2)/(kappa^2 beta) overflows at 1e-160 and
        # 1e-200; at 1e-100 it is finite, but kappa^2 beta^2 x* = 1e-350 is 0
        cfg = self.cfg(v0psi_sweep=sweep)
        cfg["model"] = {"beta": 1.0, "kappa": kappa}
        out = tmp_path / "out"
        assert main(["blowup", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 2
        assert f"kappa={kappa!r}" in capsys.readouterr().err
        assert not (out / "blowup.csv").exists()

    def test_tiny_mass_is_an_infinite_level(self, tmp_path):
        # at beta = 2, 1e-320^(-2) overflows a float: x* is +inf, no path
        # reaches it, and the entry leaves the other row's bytes alone
        cfg = self.cfg(v0psi_sweep=[1e-320, 0.5])
        cfg["model"] = {"beta": 2.0, "kappa": 1.0}
        out = tmp_path / "out"
        assert main(["blowup", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 0
        tiny, other = read_csv(out / "blowup.csv")
        assert (tiny["x_star"], tiny["z_star"], tiny["p_analytic_blowup"]) == ("inf", "0.0", "0.0")
        assert (tiny["p_hat"], tiny["truncation_allowance"]) == ("0.0", "0.0")
        cfg["sim"]["v0psi_sweep"] = [0.5]
        alone = tmp_path / "alone"
        assert main(["blowup", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(alone)]) == 0
        assert read_csv(alone / "blowup.csv") == [other]

    def test_level_reads_the_lower_constant(self, tmp_path):
        # G = z^2/2 (C = Lambda = 1/2): x* = v0psi^(-beta)/(C beta) = 2 at
        # v0psi = 1, so z* = 2/(kappa^2 beta^2 x*) = 1, and the paths are
        # counted against that level
        cfg = self.cfg(v0psi_sweep=[1.0])
        cfg["model"] = {**MODEL, "C": 0.5, "Lambda": 0.5}
        out = tmp_path / "out"
        assert main(["blowup", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 0
        [row] = read_csv(out / "blowup.csv")
        assert (row["x_star"], row["z_star"]) == ("2.0", "1.0")
        p_ref = float(row["p_analytic_blowup"])
        assert p_ref == pytest.approx(0.0805, abs=1e-4)
        assert abs(float(row["p_hat"]) - p_ref) <= 3.0 * float(row["stderr"]) + 0.005

    def test_missing_sweep_exits_2(self, tmp_path):
        cfg = interval_cfg(n=32, model=MODEL, sim={"dt": 0.01, "horizon": 1.0, "n_paths": 1000})
        p = write_cfg(tmp_path, cfg)
        assert main(["blowup", "--config", str(p), "--out", str(tmp_path / "o")]) == 2

    def test_horizon_only_caps_the_run(self, tmp_path):
        # every path stops by the gamma rule long before T = 50, so a horizon
        # of 1e12 (1e15 steps), or one no path array could hold, changes no
        # byte and allocates nothing per step
        outs = {}
        for horizon in (50.0, 1e12, 1e300):
            sim = {"dt": 1e-3, "horizon": horizon, "n_paths": 1000, "seed": 4}
            cfg = interval_cfg(n=32, model=MODEL, sim={**sim, "v0psi_sweep": [0.25, 1.0]})
            p = write_cfg(tmp_path, cfg)
            out = tmp_path / f"T{horizon:g}"
            assert main(["blowup", "--config", str(p), "--out", str(out)]) == 0
            outs[horizon] = (out / "blowup.csv").read_bytes()
        assert outs[1e12] == outs[1e300] == outs[50.0]


class TestNoLowerSolution:
    """The lower solution divides by C beta: where that is not > 0, blowup
    exits 4 and simulate leaves the lower-solution cells empty. Both once
    exited 1 with a ZeroDivisionError when C beta underflowed."""

    # C beta = 1e-330 underflows to 0
    UNDERFLOW = {"beta": 1e-10, "kappa": 1.0, "C": 1e-320}

    @pytest.mark.parametrize(
        "model", [UNDERFLOW, {**UNDERFLOW, "kappa": 0.0}], ids=["monte-carlo", "dichotomy"]
    )
    def test_blowup_exits_4_without_a_csv(self, tmp_path, capsys, model):
        cfg = interval_cfg(
            model=model, sim={"dt": 0.01, "horizon": 3.0, "v0psi_sweep": [2.0], "n_paths": 1000}
        )
        out = tmp_path / "out"
        assert main(["blowup", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 4
        assert "the lower solution needs C beta > 0" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))

    def test_simulate_leaves_the_lower_solution_cells_empty(self, tmp_path):
        cfg = interval_cfg(
            model=self.UNDERFLOW,
            initial={"mode": "eigen-multiple", "a": 0.5},
            sim={"dt": 0.01, "horizon": 1.0, "seed": 0},
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 0
        [traj] = read_csv(out / "trajectories.csv")
        [cons] = read_csv(out / "consistency.csv")
        assert traj["outcome"] == "completed_horizon"
        assert traj["tau_analytic"] == cons["mass_over_lower_min"] == ""


class TestLinearEquation:
    """Lambda = C = 0, the linear equation, end to end with warnings as
    errors: it integrates and certifies, and has no lower solution."""

    def run(self, tmp_path, command, kappa=1.0, Cstar=None, **sections):
        model = {"beta": 1.0, "kappa": kappa, "C": 0.0, "Lambda": 0.0}
        if Cstar is not None:
            model["Cstar"] = Cstar
        cfg = interval_cfg(model=model, **sections)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)])
        return code, out

    @pytest.mark.parametrize("kappa", [1.0, 0.0], ids=["noise", "no-noise"])
    def test_simulate_mass_decays_at_the_linear_rate(self, tmp_path, kappa):
        # v = e^{-kappa W} u solves dv/dt = (Delta - kappa^2/2) v whatever
        # the path: each backward Euler step divides the psi-mass by
        # 1 + dt (lam1 + kappa^2/2), lam1 the grid's
        dt, horizon = 0.01, 2.0
        code, out = self.run(
            tmp_path, "simulate", kappa,
            initial={"mode": "eigen-multiple", "a": 0.5},
            sim={"dt": dt, "horizon": horizon, "n_paths": 2, "seed": 5},
        )
        assert code == 0
        lam1 = solve_eigenpairs(build_grid(DomainSpec(kind="interval", lengths=(math.pi,)), 32), 2).lam1
        rate = lam1 + 0.5 * kappa**2
        for traj in read_csv(out / "trajectories.csv"):
            assert traj["outcome"] == "completed_horizon"
            assert traj["tau_analytic"] == ""
            mass = np.array([float(r["mass"]) for r in read_csv(out / traj["mass_series_file"])])
            assert np.allclose(mass[1:] / mass[:-1], 1.0 / (1.0 + dt * rate), rtol=1e-12, atol=0)
            observed = -math.log(mass[-1] / mass[0]) / horizon
            assert observed == pytest.approx(rate, rel=dt * rate)

    def test_certify_integral_is_zero_and_certified(self, tmp_path):
        code, out = self.run(
            tmp_path, "certify",
            initial={"mode": "eigen-multiple", "a": 0.5},
            sim={"dt": 0.01, "horizon": 5.0, "seed": 3},
            certificate={"kinds": ["integral"]},
        )
        assert code == 0
        [row] = read_csv(out / "certificates.csv")
        assert (row["kind"], row["J"], row["verdict"]) == ("integral", "0.0", "certified")

    def test_certify_saturation_is_zero_and_certified(self, tmp_path):
        # no reaction: the sup bound is Cstar (1 - J) = Cstar
        code, out = self.run(
            tmp_path, "certify", Cstar=1.0,
            initial={"mode": "eigen-multiple", "a": 0.5},
            sim={"dt": 0.01, "horizon": 5.0, "seed": 3},
            certificate={"kinds": ["saturation"]},
        )
        assert code == 0
        [row] = read_csv(out / "certificates.csv")
        assert (row["kind"], row["J"], row["threshold"], row["verdict"]) == (
            "saturation", "0.0", "1.0", "certified"
        )

    @pytest.mark.parametrize("analytic", [False, True], ids=["path", "analytic"])
    def test_certify_heat_kernel_threshold_is_infinite(self, tmp_path, analytic):
        # the denominator Lambda beta (...)^beta is 0: every path stays under
        # the threshold, so the gamma law gives probability 1
        code, out = self.run(
            tmp_path, "certify",
            initial={"mode": "eigen-multiple", "a": 0.5},
            sim={"dt": 0.01, "horizon": 5.0, "seed": 3},
            certificate={"kinds": ["heat_kernel"], "K": 5.0, "c": 1.0, "analytic": analytic},
        )
        assert code == 0
        [row] = read_csv(out / "certificates.csv")
        assert row["threshold"] == "inf"
        if analytic:
            assert (row["verdict"], row["probability_certified"]) == ("", "1.0")
        else:
            assert (row["verdict"], row["probability_certified"]) == ("certified", "")

    @pytest.mark.parametrize("kappa", [1.0, 0.0], ids=["monte-carlo", "dichotomy"])
    def test_blowup_exits_4_without_a_csv(self, tmp_path, capsys, kappa):
        code, out = self.run(
            tmp_path, "blowup", kappa, sim={"dt": 0.01, "horizon": 3.0, "v0psi_sweep": [2.0]}
        )
        assert code == 4
        assert "the lower solution needs C beta > 0" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))


class TestSimulateCommand:
    def test_transform_gap_matches_reconstruct_u(self):
        # the consistency row's EM gap is the relative sup gap between the
        # Euler-Maruyama run and the reconstruct_u trajectory
        grid = build_grid(DomainSpec(kind="interval", lengths=(math.pi,)), 32)
        eig = solve_eigenpairs(grid, 12)
        params = ModelParams(beta=1.0, kappa=1.0)
        path = sample_brownian(2.0, 1e-2, 3, 0)
        f = 0.5 * eig.psi
        traj = simulate_paths(f, [path], params, eig, 1e8)[0]
        traj_em = simulate_paths(f, [path], params, eig, 1e8, variable="u", max_snapshots=2)[0]
        row = _consistency_row(traj, traj_em, path, params, None, None)
        em_diff = row["em_transform_rel_diff"]
        u_sup = reconstruct_u(traj, path, params.kappa).sup
        k = min(len(u_sup), len(traj_em.sup))
        gap = np.abs(traj_em.sup[:k] - u_sup[:k]) / np.maximum(np.abs(u_sup[:k]), 1e-300)
        assert em_diff == float(np.max(gap)) > 0.0

    def test_low_cutoff_refines_every_crossing(self, tmp_path):
        # at cutoff 2 the Euler-Maruyama run of paths 0, 7 and 14 once left
        # its crossing step while refining and exited 2
        cfg = interval_cfg(
            n=32, model=MODEL, initial={"mode": "eigen-multiple", "a": 3.0},
            sim={"dt": 0.01, "horizon": 3.0, "n_paths": 16, "seed": 0, "cutoff": 2.0},
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 0
        rows = read_csv(out / "trajectories.csv")
        assert len(rows) == 16
        assert {row["outcome"] for row in rows} == {"numerical_blowup", "completed_horizon"}

    def test_euler_maruyama_brackets_reach_the_consistency_table(self, tmp_path):
        # the refined u-route bracket of each Euler-Maruyama blowup is written,
        # and it lies inside the crossing step
        out = tmp_path / "out"
        config = CONFIGS / "simulate_low_cutoff.json"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        rows = read_csv(out / "consistency.csv")
        cfg = load_config(config)
        grid = build_grid(cfg.domain, cfg.domain.n)
        eig = solve_eigenpairs(grid, 12)
        paths = [sample_brownian(cfg.sim.horizon, cfg.sim.dt, cfg.sim.seed, i)
                 for i in range(cfg.sim.n_paths)]
        trajs = simulate_paths(cfg.initial.a * eig.psi, paths, cfg.model, eig, cfg.sim.cutoff, "u")
        assert any(t.t_blowup is not None for t in trajs)
        assert any(t.t_blowup is None for t in trajs)
        for row, traj in zip(rows, trajs):
            if traj.t_blowup is None:
                assert row["t_blowup_em"] == row["t_last_stable_em"] == ""
                continue
            lo, hi = float(row["t_last_stable_em"]), float(row["t_blowup_em"])
            assert (lo, hi) == (traj.t_last_stable, traj.t_blowup)
            t_k = 0.0  # the engine's clock at the last stable step
            for _ in range(len(traj.times) - 1):
                t_k += cfg.sim.dt
            assert t_k <= lo <= hi <= t_k + cfg.sim.dt

    def test_initial_sup_not_below_the_cutoff_exits_2(self, tmp_path, capsys):
        # sup f = 49.9 against cutoff 2 once gave every path a blowup bracket
        # of (0, dt / 2^10)
        cfg = interval_cfg(
            n=16, model=MODEL, initial={"mode": "eigen-multiple", "a": 100.0},
            sim={"dt": 0.01, "horizon": 0.5, "n_paths": 2, "seed": 0, "cutoff": 2.0},
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 2
        assert "is not below the cutoff 2.0" in capsys.readouterr().err
        assert not (out / "trajectories.csv").exists()

    def test_deterministic_blowup(self, tmp_path):
        # kappa=0, mass 2 > lam1: blows up at ln 2; transform is the identity
        dom = build_grid(__import__("spdelab.domain", fromlist=["DomainSpec"]).DomainSpec(
            kind="interval", lengths=(math.pi,)), 32)
        eig = solve_eigenpairs(dom, 4)
        a = 2.0 / weighted_inner(dom, eig.psi, eig.psi)
        cfg = interval_cfg(
            n=32,
            model={"beta": 1.0, "kappa": 0.0},
            initial={"mode": "eigen-multiple", "a": a},
            sim={"dt": 1e-3, "horizon": 10.0, "seed": 0},
        )
        out = tmp_path / "out"
        p = write_cfg(tmp_path, cfg)
        assert main(["simulate", "--config", str(p), "--out", str(out)]) == 0
        rows = read_csv(out / "trajectories.csv")
        assert len(rows) == 1
        row = rows[0]
        assert row["outcome"] == "numerical_blowup"
        assert float(row["t_blowup"]) < 10.0
        assert abs(float(row["tau_analytic"]) - math.log(2.0)) < 1e-3
        assert abs(float(row["mass_initial"]) - 2.0) < 1e-12
        cons = read_csv(out / "consistency.csv")[0]
        assert float(cons["em_transform_rel_diff"]) == 0.0  # exp(0) multiplication is exact
        assert float(cons["mass_over_lower_min"]) > 0.97
        # the raw residual tracks the diverging field; only finiteness is
        # meaningful on a blowup trajectory
        assert math.isfinite(float(cons["weak_residual_max"]))
        series = read_csv(out / row["mass_series_file"])
        assert set(series[0]) == {"t", "mass", "sup"}
        assert float(series[0]["mass"]) == pytest.approx(2.0, rel=1e-12)

    def test_time_column_is_formatted_as_far_as_written(self, tmp_path, monkeypatch):
        # one path per block, of unequal lengths: blocks whose series run
        # longer extend the shared time cells, and each file holds its prefix
        monkeypatch.setattr(cli, "BLOCK_PATHS", 1)
        cfg = interval_cfg(
            n=16,
            model=MODEL,
            initial={"mode": "eigen-multiple", "a": 4.0},
            sim={"dt": 0.01, "horizon": 2.0, "n_paths": 6, "seed": 5, "cutoff": 1e6},
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 0
        grid_times = [repr(t) for t in BrownianPath.frozen_zero(2.0, 0.01).times.tolist()]
        lengths = []
        for row in read_csv(out / "trajectories.csv"):
            series = read_csv(out / row["mass_series_file"])
            assert [r["t"] for r in series] == grid_times[: len(series)]
            lengths.append(len(series))
        assert len(set(lengths)) > 1 and max(lengths) == len(grid_times)

    def test_censored_run_decays(self, tmp_path):
        cfg = interval_cfg(
            n=32,
            model={"beta": 1.0, "kappa": 0.0},
            initial={"mode": "eigen-multiple", "a": 0.5},
            sim={"dt": 0.01, "horizon": 2.0},
        )
        out = tmp_path / "out"
        p = write_cfg(tmp_path, cfg)
        assert main(["simulate", "--config", str(p), "--out", str(out)]) == 0
        row = read_csv(out / "trajectories.csv")[0]
        assert row["outcome"] == "completed_horizon"
        assert row["tau_analytic"] == ""
        series = read_csv(out / "mass_series_0000.csv")
        sup = np.array([float(r["sup"]) for r in series])
        assert np.all(np.diff(sup) < 0)

    def test_lower_solution_reads_the_lower_constant(self, tmp_path):
        # G = z^2/2 (C = Lambda = 1/2), no noise, psi-mass 1.97: the bracket
        # 1/1.97 - (1 - e^{-lam1 t})/(2 lam1) stays positive, so the lower
        # solution is finite for all time and the simulated mass dominates it
        cfg = interval_cfg(
            n=32,
            model={"beta": 1.0, "kappa": 0.0, "C": 0.5, "Lambda": 0.5},
            initial={"mode": "eigen-multiple", "a": 5.0},
            sim={"dt": 1e-3, "horizon": 5.0},
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 0
        [row] = read_csv(out / "trajectories.csv")
        [cons] = read_csv(out / "consistency.csv")
        assert row["tau_analytic"] == ""
        assert float(cons["mass_over_lower_min"]) == pytest.approx(1.0, abs=1e-12)

    def test_tiny_mass_has_no_blowup_time(self, tmp_path):
        # at beta = 2 a psi-mass of about 4e-201 overflows v0psi^(-2): x* is
        # +inf, the lower solution never reaches it and tau stays empty
        cfg = interval_cfg(
            n=16,
            model={"beta": 2.0, "kappa": 1.0},
            initial={"mode": "eigen-multiple", "a": 1e-200},
            sim={"dt": 0.01, "horizon": 1.0, "n_paths": 2, "seed": 1},
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 0
        rows = read_csv(out / "trajectories.csv")
        assert [(r["outcome"], r["tau_analytic"]) for r in rows] == [("completed_horizon", "")] * 2

    def test_stochastic_paths(self, tmp_path):
        cfg = interval_cfg(
            n=16,
            model={"beta": 1.0, "kappa": 0.5},
            initial={"mode": "eigen-multiple", "a": 0.3},
            sim={"dt": 0.01, "horizon": 1.0, "n_paths": 2, "seed": 11},
        )
        out = tmp_path / "out"
        p = write_cfg(tmp_path, cfg)
        assert main(["simulate", "--config", str(p), "--out", str(out)]) == 0
        rows = read_csv(out / "trajectories.csv")
        assert [r["path_index"] for r in rows] == ["0", "1"]
        for r in read_csv(out / "consistency.csv"):
            assert float(r["em_transform_rel_diff"]) < 1.0
            assert float(r["weak_residual_max"]) < 1.0
            assert float(r["mild_residual_max"]) < 1.0

    def test_residual_columns_are_mode_residuals(self, tmp_path):
        # each consistency row carries max() of its path's two residual
        # series, bitwise; a = 3 makes some of the paths blow up
        n, a, kappa, dt, horizon, seed = 32, 3.0, 1.0, 1e-2, 3.0, 1
        cfg = interval_cfg(
            n=n,
            model={"beta": 1.0, "kappa": kappa},
            initial={"mode": "eigen-multiple", "a": a},
            sim={"dt": dt, "horizon": horizon, "n_paths": 4, "seed": seed},
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 0
        grid = build_grid(DomainSpec(kind="interval", lengths=(math.pi,)), n)
        eig = solve_eigenpairs(grid, 12)
        params = ModelParams(beta=1.0, kappa=kappa)
        rows = read_csv(out / "consistency.csv")
        assert {r["outcome"] for r in rows} == {"completed_horizon", "numerical_blowup"}
        for row in rows:
            path = sample_brownian(horizon, dt, seed, int(row["path_index"]))
            traj = simulate_paths(a * eig.psi, [path], params, eig, 1e8)[0]
            _, weak, mild = mode_residuals(traj, params, eig)
            assert float(row["weak_residual_max"]) == float(np.max(weak))
            assert float(row["mild_residual_max"]) == float(np.max(mild))

    # weak_residual_max and mild_residual_max of the shipped configs' paths,
    # all of which complete; a reaction projected with another step's noise
    # factor moves them by far more than the rel 1e-10 allowed here
    PINNED_RESIDUALS = {
        "simulate_stochastic.json": [
            (0.00034440980766015095, 0.00012803312526749028),
            (0.0003591488467546977, 0.00014311260394219428),
            (0.00033725780871590727, 0.00014011964698525518),
            (0.00031485768133954206, 0.00011713610368464958),
        ],
        "simulate_rectangle.json": [
            (0.0016373568599512556, 0.0006617893598983463),
            (0.0016041788321372596, 0.0006461123938160117),
            (0.0016153532587876995, 0.0006197378094083749),
        ],
    }

    @pytest.mark.parametrize("name", sorted(PINNED_RESIDUALS))
    def test_shipped_config_residuals_are_pinned(self, tmp_path, name):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(CONFIGS / name), "--out", str(out)]) == 0
        rows = read_csv(out / "consistency.csv")
        assert {r["outcome"] for r in rows} == {"completed_horizon"}
        got = [float(r[col]) for r in rows for col in ("weak_residual_max", "mild_residual_max")]
        pinned = [x for pair in self.PINNED_RESIDUALS[name] for x in pair]
        assert got == pytest.approx(pinned, rel=1e-10, abs=0.0)
        # the initial eigen-mass is the first row of every mass series, to the bit
        for row in read_csv(out / "trajectories.csv"):
            series = read_csv(out / row["mass_series_file"])
            assert row["mass_initial"] == series[0]["mass"]

    def test_one_exp_functional_pass_per_path(self, tmp_path, monkeypatch):
        # the lower solution and its blowup time come from one A(t) pass
        calls = []
        exp_functional = blowup.exp_functional
        monkeypatch.setattr(
            blowup, "exp_functional", lambda *args: calls.append(args) or exp_functional(*args)
        )
        cfg = interval_cfg(
            n=16,
            model=MODEL,
            initial={"mode": "eigen-multiple", "a": 0.3},
            sim={"dt": 0.01, "horizon": 1.0, "n_paths": 4, "seed": 11},
        )
        p = write_cfg(tmp_path, cfg)
        assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == 0
        assert len(read_csv(tmp_path / "o" / "trajectories.csv")) == 4
        assert len(calls) == 4

    def test_outputs_do_not_depend_on_block_width(self, tmp_path, monkeypatch):
        # 16 paths in 16, 3 and 1 blocks; a = 3 makes some of them blow up
        cfg = interval_cfg(
            n=32,
            model=MODEL,
            initial={"mode": "eigen-multiple", "a": 3.0},
            sim={"dt": 1e-2, "horizon": 3.0, "n_paths": 16, "seed": 1},
        )
        p = write_cfg(tmp_path, cfg)
        calls = []
        simulate = cli.simulate_paths
        monkeypatch.setattr(
            cli, "simulate_paths", lambda *a, **k: calls.append(len(a[1])) or simulate(*a, **k)
        )
        outputs = {}
        for width, widths in ((1, [1] * 16), (6, [6, 6, 4]), (16, [16])):
            monkeypatch.setattr(cli, "BLOCK_PATHS", width)
            calls.clear()
            out = tmp_path / f"out{width}"
            assert main(["simulate", "--config", str(p), "--out", str(out)]) == 0
            # each block runs v, then u
            assert calls == [w for w in widths for _ in "vu"]
            # the manifest carries the only timestamps
            files = [f for f in out.iterdir() if not f.name.endswith("manifest.json")]
            outputs[width] = {f.name: f.read_bytes() for f in files}
        first, *rest = outputs.values()
        assert len(first) == 18
        assert {r["outcome"] for r in read_csv(out / "trajectories.csv")} == {
            "completed_horizon",
            "numerical_blowup",
        }
        for other in rest:
            assert other == first

    def test_trajectories_shape_runs_one_block(self, tmp_path, monkeypatch):
        # the benchmark's shape: 16 paths at n = 64, T = 5, dt = 1e-3
        schemes = []
        simulate = cli.simulate_paths
        monkeypatch.setattr(
            cli,
            "simulate_paths",
            lambda *a, **k: schemes.append((len(a[1]), k["variable"])) or simulate(*a, **k),
        )
        cfg = interval_cfg(
            n=64,
            model=MODEL,
            initial={"mode": "eigen-multiple", "a": 3.0},
            sim={"dt": 1e-3, "horizon": 5.0, "n_paths": 16, "seed": 7},
        )
        p = write_cfg(tmp_path, cfg)
        assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == 0
        assert schemes == [(16, "v"), (16, "u")]

    def test_euler_maruyama_run_keeps_two_rows(self, tmp_path, monkeypatch):
        # the u run is compared through its sup series and bracket only, so
        # it keeps 2 rows a path; the v run, whose residuals are written,
        # keeps simulate_paths' default; both stop at sim.cutoff
        calls = []
        simulate = cli.simulate_paths

        def recorded(*args, **kwargs):
            bound = inspect.signature(simulate).bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append({k: bound.arguments[k] for k in ("variable", "cutoff", "max_snapshots")})
            return simulate(*args, **kwargs)

        monkeypatch.setattr(cli, "simulate_paths", recorded)
        cfg = interval_cfg(
            n=16,
            model=MODEL,
            initial={"mode": "eigen-multiple", "a": 0.3},
            sim={"dt": 0.01, "horizon": 0.5, "n_paths": 2, "seed": 1, "cutoff": 50.0},
        )
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 0
        default = inspect.signature(simulate).parameters["max_snapshots"].default
        assert default == 1000
        assert calls == [
            {"variable": "v", "cutoff": 50.0, "max_snapshots": default},
            {"variable": "u", "cutoff": 50.0, "max_snapshots": 2},
        ]

    def test_noiseless_run_integrates_once(self, tmp_path, monkeypatch):
        # at kappa = 0 the v run is the Euler-Maruyama run, so it is not
        # integrated again; a noisy run integrates both, as
        # test_trajectories_shape_runs_one_block records
        schemes = []
        simulate = cli.simulate_paths
        monkeypatch.setattr(
            cli,
            "simulate_paths",
            lambda *a, **k: schemes.append((len(a[1]), k["variable"])) or simulate(*a, **k),
        )
        cfg = interval_cfg(
            n=32,
            model={"beta": 1.0, "kappa": 0.0},
            initial={"mode": "eigen-multiple", "a": 3.0},
            sim={"dt": 1e-2, "horizon": 2.0, "n_paths": 16, "seed": 7},
        )
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 0
        assert schemes == [(1, "v")]
        (traj,), (cons,) = read_csv(out / "trajectories.csv"), read_csv(out / "consistency.csv")
        assert traj["outcome"] == "numerical_blowup"
        assert (cons["t_blowup_em"], cons["t_last_stable_em"]) == (
            traj["t_blowup"], traj["t_last_stable"]
        )
        assert float(cons["em_transform_rel_diff"]) == 0.0

    @pytest.mark.parametrize("seed", [7, 1, 2, 3])
    def test_lower_solution_blowup_forces_numerical_blowup(self, tmp_path, seed):
        # the mass dominates the lower solution, so a path whose lower
        # solution blows up at tau blows up numerically by tau + dt
        dt = 1e-3
        cfg = interval_cfg(
            n=64,
            model=MODEL,
            initial={"mode": "eigen-multiple", "a": 3.0},
            sim={"dt": dt, "horizon": 5.0, "n_paths": 16, "seed": seed},
        )
        out = tmp_path / "out"
        p = write_cfg(tmp_path, cfg)
        assert main(["simulate", "--config", str(p), "--out", str(out)]) == 0
        rows = [r for r in read_csv(out / "trajectories.csv") if r["tau_analytic"]]
        assert rows
        for row in rows:
            assert row["outcome"] == "numerical_blowup"
            assert float(row["t_blowup"]) <= float(row["tau_analytic"]) + dt

    def test_tabulated_initial_data(self, tmp_path):
        dom_mod = __import__("spdelab.domain", fromlist=["DomainSpec"])
        grid = build_grid(dom_mod.DomainSpec(kind="interval", lengths=(math.pi,)), 16)
        x = grid.axes[0]
        table = tmp_path / "f.csv"
        table.write_text("value\n" + "\n".join(repr(float(v)) for v in 0.2 * np.sin(x)) + "\n")
        cfg = interval_cfg(
            n=16,
            model={"beta": 1.0, "kappa": 0.0},
            initial={"mode": "tabulated", "file": str(table)},
            sim={"dt": 0.01, "horizon": 0.5},
        )
        out = tmp_path / "out"
        p = write_cfg(tmp_path, cfg)
        assert main(["simulate", "--config", str(p), "--out", str(out)]) == 0
        assert read_csv(out / "trajectories.csv")[0]["outcome"] == "completed_horizon"

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_tabulated_exits_2_naming_the_node(self, tmp_path, capsys, bad):
        cfg = interval_cfg(
            n=16,
            model={"beta": 1.0, "kappa": 0.5},
            initial={"mode": "tabulated", "file": str(nonfinite_table(tmp_path, bad))},
            sim={"dt": 0.01, "horizon": 0.5, "seed": 1},
        )
        p = write_cfg(tmp_path, cfg)
        assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert f"not finite at node 5: f={bad}" in capsys.readouterr().err

    def test_euler_maruyama_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        # a failing u run fails the command like any other numerical failure,
        # and blanks no rows
        def simulate(*args, variable="v", **kwargs):
            if variable == "u":
                raise NumericalFailure("linear solve failed: injected")
            return simulate_paths(*args, variable=variable, **kwargs)

        monkeypatch.setattr(cli, "simulate_paths", simulate)
        cfg = interval_cfg(
            n=16,
            model=MODEL,
            initial={"mode": "eigen-multiple", "a": 0.3},
            sim={"dt": 0.01, "horizon": 0.5, "n_paths": 2, "seed": 1},
        )
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 3
        assert capsys.readouterr().err == "numerical failure: linear solve failed: injected\n"
        assert not any(out.iterdir())

    def test_unallocatable_run_exits_3(self, tmp_path, capsys):
        # 1e15 steps: numpy refuses the 7.11 PiB noise path at once, without
        # touching memory
        cfg = interval_cfg(
            n=64,
            model=MODEL,
            initial={"mode": "eigen-multiple", "a": 0.8},
            sim={"dt": 1e-3, "horizon": 1e12, "n_paths": 4, "seed": 7},
        )
        p = write_cfg(tmp_path, cfg)
        assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == 3
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("numerical failure: out of memory:")
        assert "(1000000000000000,)" in line

    def test_wrong_length_tabulated_exits_2(self, tmp_path):
        table = tmp_path / "f.csv"
        table.write_text("value\n1.0\n2.0\n")
        cfg = interval_cfg(
            n=16,
            model={"beta": 1.0, "kappa": 0.0},
            initial={"mode": "tabulated", "file": str(table)},
            sim={"dt": 0.01, "horizon": 0.5},
        )
        p = write_cfg(tmp_path, cfg)
        assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == 2


class TestCertifyCommand:
    # (J, threshold, tail, envelope_max) of each kind in the shipped configs'
    # certificates.csv; None is an empty cell. The sup-norm series drops modal
    # terms below 2^-1000, which must leave every figure here unmoved
    PINNED_CERTIFICATES = {
        "certify_frozen.json": {
            "integral": (
                0.06666671389149288, 1.0, 9.358222506624883e-15, 1.0714286256407364
            ),
            "saturation": (
                0.06666671389149288, 1.8666665722170142, 9.358222506624883e-15,
                1.0714286256407364,
            ),
            "heat_kernel": (0.6666681806644144, 1.0631306824755542, 9.358237129999827e-14, None),
        },
        "certify_sampled.json": {
            "integral": (
                0.07284588895566993, 1.0, 1.8133764081558952e-06, 1.0785672330409501
            ),
            "saturation": (
                0.037753695777259295, 1.9244926084454814, 2.90570056081972e-10,
                1.0392349602275526,
            ),
            "heat_kernel": (0.9713025221245574, 1.0637343913995263, 2.417894961615269e-05, None),
        },
    }

    def test_one_eigen_solve_serves_the_certificates_and_the_fit(self, tmp_path, monkeypatch):
        # certify_frozen fits c on 120 modes and certifies on the leading 48
        calls, solve = [], cli.solve_eigenpairs
        monkeypatch.setattr(
            cli, "solve_eigenpairs", lambda grid, m: calls.append(m) or solve(grid, m)
        )
        config = str(CONFIGS / "certify_frozen.json")
        assert main(["certify", "--config", config, "--out", str(tmp_path / "out")]) == 0
        assert calls == [120]

    @pytest.mark.parametrize("name", sorted(PINNED_CERTIFICATES))
    def test_shipped_config_certificates_are_pinned(self, tmp_path, name):
        out = tmp_path / "out"
        assert main(["certify", "--config", str(CONFIGS / name), "--out", str(out)]) == 0
        rows = read_csv(out / "certificates.csv")
        pinned = self.PINNED_CERTIFICATES[name]
        assert [r["kind"] for r in rows] == list(pinned)
        for row in rows:
            cells = [row[col] for col in ("J", "threshold", "tail", "envelope_max")]
            got = [float(c) if c else None for c in cells]
            assert got == pytest.approx(pinned[row["kind"]], rel=1e-12, abs=0.0), row["kind"]

    def base_cfg(self, **cert):
        certificate = {"kinds": ["integral"], "frozen_zero_path": True}
        certificate.update(cert)
        return interval_cfg(
            n=64,
            model=MODEL,
            initial={"mode": "eigen-multiple", "a": 1.0},
            sim={"dt": 0.01, "horizon": 12.0, "seed": 3},
            certificate=certificate,
        )

    def test_integral_frozen_path(self, tmp_path):
        out = tmp_path / "out"
        p = write_cfg(tmp_path, self.base_cfg())
        assert main(["certify", "--config", str(p), "--out", str(out)]) == 0
        row = read_csv(out / "certificates.csv")[0]
        assert row["kind"] == "integral" and row["verdict"] == "certified"
        dom_mod = __import__("spdelab.domain", fromlist=["DomainSpec"])
        grid = build_grid(dom_mod.DomainSpec(kind="interval", lengths=(math.pi,)), 64)
        eig = solve_eigenpairs(grid, 4)
        expected = float(np.max(eig.psi)) / (eig.lam1 + 0.5)
        assert float(row["J"]) == pytest.approx(expected, rel=2e-3)
        assert float(row["envelope_max"]) > 1.0
        assert float(row["threshold"]) == 1.0
        assert row["probability_certified"] == ""

    def test_saturation_row(self, tmp_path):
        cfg = self.base_cfg(kinds=["integral", "saturation"])
        cfg["model"] = {**MODEL, "Cstar": 2.0}
        out = tmp_path / "out"
        p = write_cfg(tmp_path, cfg)
        assert main(["certify", "--config", str(p), "--out", str(out)]) == 0
        rows = {r["kind"]: r for r in read_csv(out / "certificates.csv")}
        assert rows["saturation"]["verdict"] == "certified"
        # beta=1 on the zero path: the two integrals coincide, and the sup
        # bound is Cstar (1 - J)
        j = float(rows["integral"]["J"])
        assert float(rows["saturation"]["J"]) == pytest.approx(j, rel=1e-10)
        assert float(rows["saturation"]["threshold"]) == pytest.approx(2.0 * (1 - j), rel=1e-10)

    def test_one_series_serves_every_sup_norm_kind(self, tmp_path, monkeypatch):
        cfg = self.base_cfg(kinds=["integral", "saturation", "heat_kernel"], K=0.5, c=0.25)
        cfg["model"] = {**MODEL, "Cstar": 2.0}
        cfg["initial"]["a"] = 0.2
        calls = []
        series = certificates.sup_norm_decay
        monkeypatch.setattr(
            certificates, "sup_norm_decay", lambda *args: calls.append(args) or series(*args)
        )
        out = tmp_path / "out"
        p = write_cfg(tmp_path, cfg)
        assert main(["certify", "--config", str(p), "--out", str(out)]) == 0
        assert len(calls) == 1
        rows = read_csv(out / "certificates.csv")
        assert [r["kind"] for r in rows] == ["integral", "saturation", "heat_kernel"]
        assert {r["verdict"] for r in rows} == {"certified"}

    def test_tail_and_reason_columns(self, tmp_path):
        cfg = self.base_cfg()
        cfg["initial"]["a"] = 4.0
        out = tmp_path / "out"
        p = write_cfg(tmp_path, cfg)
        assert main(["certify", "--config", str(p), "--out", str(out)]) == 0
        with open(out / "certificates.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert header == [
            "kind", "J", "threshold", "verdict", "envelope_max", "probability_certified",
            "tail", "reason",
        ]
        row = read_csv(out / "certificates.csv")[0]
        assert row["verdict"] == "not_certified"
        assert 0.0 < float(row["tail"]) < float(row["J"])
        assert "not below one" in row["reason"]

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_tabulated_never_certified(self, tmp_path, capsys, bad):
        cfg = interval_cfg(
            n=16,
            model=MODEL,
            initial={"mode": "tabulated", "file": str(nonfinite_table(tmp_path, bad))},
            sim={"dt": 0.01, "horizon": 12.0, "seed": 3},
            certificate={"kinds": ["integral"], "frozen_zero_path": True},
        )
        out = tmp_path / "out"
        p = write_cfg(tmp_path, cfg)
        assert main(["certify", "--config", str(p), "--out", str(out)]) == 2
        assert f"not finite at node 5: f={bad}" in capsys.readouterr().err
        assert not (out / "certificates.csv").exists()

    def test_heat_kernel_analytic(self, tmp_path):
        cfg = self.base_cfg(kinds=["heat_kernel"], K=0.1, eta=1.0, c=0.25, analytic=True)
        del cfg["initial"]
        out = tmp_path / "out"
        p = write_cfg(tmp_path, cfg)
        assert main(["certify", "--config", str(p), "--out", str(out)]) == 0
        row = read_csv(out / "certificates.csv")[0]
        assert row["J"] == "" and row["verdict"] == ""
        assert row["tail"] == "" and row["reason"] == ""
        assert 0.0 < float(row["probability_certified"]) <= 1.0

    def test_analytic_heat_kernel_draws_no_path(self, tmp_path):
        # no path array could hold T = 1e300 at dt = 0.01, and the analytic
        # kind reads none; a path-mode kind refuses that horizon, see
        # test_array_numpy_cannot_hold_exits_2_without_files
        outs = {}
        for horizon in (20.0, 1e300):
            cfg = self.base_cfg(kinds=["heat_kernel"], K=0.2, c=4.0, analytic=True)
            del cfg["initial"]
            cfg["sim"]["horizon"] = horizon
            out = tmp_path / f"T{horizon:g}"
            assert main(["certify", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 0
            outs[horizon] = (out / "certificates.csv").read_bytes()
        assert outs[1e300] == outs[20.0]

    def test_analytic_heat_kernel_needs_no_sim_section(self, tmp_path, capsys):
        # the analytic kind reads no path, so nothing of sim; a kind that
        # reads the path still demands the section
        shipped = json.loads((CONFIGS / "certify_analytic.json").read_text())
        assert main(["certify", "--config", str(CONFIGS / "certify_analytic.json"),
                     "--out", str(tmp_path / "shipped")]) == 0
        cfg = {k: v for k, v in shipped.items() if k != "sim"}
        p = write_cfg(tmp_path, cfg)
        assert main(["certify", "--config", str(p), "--out", str(tmp_path / "no_sim")]) == 0
        table = "certificates.csv"
        assert (tmp_path / "no_sim" / table).read_bytes() == (tmp_path / "shipped" / table).read_bytes()
        capsys.readouterr()
        cfg["certificate"] = {**cfg["certificate"], "analytic": False}
        out = tmp_path / "path_mode"
        assert main(["certify", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 2
        assert "config section 'sim' is required" in capsys.readouterr().err
        assert not (out / table).exists()

    @pytest.mark.parametrize("K, beta", [(1e308, 1.0), (1e200, 2.0)])
    def test_heat_kernel_analytic_huge_K_exits_2(self, tmp_path, capsys, K, beta):
        # [K (1+c) (sup psi)^2 int psi]^beta overflows, the threshold is 0 and
        # the gamma-law argument 2/(kappa^2 beta^2 threshold) is infinite
        cfg = self.base_cfg(kinds=["heat_kernel"], K=K, eta=1.0, c=1.0, analytic=True)
        cfg["model"] = {**MODEL, "beta": beta}
        del cfg["initial"]
        p = write_cfg(tmp_path, cfg)
        assert main(["certify", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert f"K={K!r}" in capsys.readouterr().err

    def test_heat_kernel_analytic_tiny_K_certifies(self, tmp_path):
        # [K (1+c) (sup psi)^2 int psi]^beta underflows to 0 at K = 1e-300
        # and beta = 2: the threshold is +inf, which no path reaches
        cfg = self.base_cfg(kinds=["heat_kernel"], K=1e-300, eta=1.0, c=1.0, analytic=True)
        cfg["model"] = {**MODEL, "beta": 2.0}
        del cfg["initial"]
        out = tmp_path / "out"
        assert main(["certify", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 0
        [row] = read_csv(out / "certificates.csv")
        assert (row["threshold"], row["probability_certified"]) == ("inf", "1.0")

    def test_heat_kernel_analytic_tiny_kappa_exits_2(self, tmp_path, capsys):
        # alpha overflows at kappa = 1e-200 while the threshold stays finite
        # and positive, so the message names kappa and does not blame K
        cfg = self.base_cfg(kinds=["heat_kernel"], K=0.2, eta=1.0, c=1.0, analytic=True)
        cfg["model"] = {**MODEL, "kappa": 1e-200}
        del cfg["initial"]
        out = tmp_path / "out"
        assert main(["certify", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "kappa=1e-200" in err and "too large" not in err
        assert not (out / "certificates.csv").exists()

    def test_repeated_kind_exits_2_without_files(self, tmp_path, capsys):
        out = tmp_path / "out"
        p = write_cfg(tmp_path, self.base_cfg(kinds=["integral", "saturation", "integral"]))
        assert main(["certify", "--config", str(p), "--out", str(out)]) == 2
        assert "'integral' more than once" in capsys.readouterr().err
        assert not (out / "certificates.csv").exists()

    def test_heat_kernel_needs_K(self, tmp_path):
        cfg = self.base_cfg(kinds=["heat_kernel"], analytic=True)
        p = write_cfg(tmp_path, cfg)
        assert main(["certify", "--config", str(p), "--out", str(tmp_path / "o")]) == 2

    def test_inadmissible_initial_exits_4(self, tmp_path):
        cfg = self.base_cfg(kinds=["heat_kernel"], K=1e-6, eta=1.0, c=0.25)
        cfg["initial"] = {"mode": "eigen-multiple", "a": 5.0}
        p = write_cfg(tmp_path, cfg)
        assert main(["certify", "--config", str(p), "--out", str(tmp_path / "o")]) == 4

    # each config has two faults in different kinds: every kind's checks run
    # in the listed order before any series, so the first listed is reported
    @pytest.mark.parametrize(
        "kinds, model, cert, negative_f, code, message",
        [
            (["saturation"], {}, {}, True, 2, "needs Cstar"),
            (["saturation", "integral"], {"kappa": 0.0}, {}, False, 2, "needs Cstar"),
            (
                ["integral", "heat_kernel", "saturation"],
                {},
                {"K": 1e-6, "eta": 1.0, "c": 0.25},
                False,
                4,
                "exceeds K S_eta psi",
            ),
            (["heat_kernel", "saturation", "integral"], {}, {}, False, 2, "needs certificate.K"),
        ],
        ids=["negative-f", "kappa-zero", "above-K", "no-K"],
    )
    def test_first_listed_fault_is_reported(
        self, tmp_path, capsys, kinds, model, cert, negative_f, code, message
    ):
        cfg = self.base_cfg(kinds=kinds, **cert)
        cfg["model"] = {**MODEL, **model}
        if negative_f:
            table = nonfinite_table(tmp_path, "-0.1", n=64)
            cfg["initial"] = {"mode": "tabulated", "file": str(table)}
        out = tmp_path / "out"
        p = write_cfg(tmp_path, cfg)
        assert main(["certify", "--config", str(p), "--out", str(out)]) == code
        assert message in capsys.readouterr().err
        assert not (out / "certificates.csv").exists()


class TestHorizonPastTheGrid:
    @pytest.mark.parametrize("command", ["certify", "simulate"])
    def test_outputs_equal_those_at_the_last_grid_time(self, tmp_path, command):
        # floor(1.0099 / 0.01) = 100 steps, as at horizon 1.0: a run covers
        # its path grid, which ends at t = 1.0 in both
        outs = {}
        for horizon in (1.0, 1.0099):
            cfg = interval_cfg(
                n=32,
                model={**MODEL, "Cstar": 2.0},
                initial={"mode": "eigen-multiple", "a": 0.15},
                sim={"dt": 0.01, "horizon": horizon, "n_paths": 2, "seed": 3},
                certificate={"kinds": ["integral", "saturation", "heat_kernel"], "K": 0.5, "c": 4.0},
            )
            out = tmp_path / f"T{horizon}"
            assert main([command, "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 0
            outs[horizon] = {f.name: f.read_bytes() for f in sorted(out.glob("*.csv"))}
        assert outs[1.0] and outs[1.0099] == outs[1.0]


class TestHeatKernelCommand:
    def test_sandwich_table(self, tmp_path):
        cfg = interval_cfg(
            n=48, heat_kernel={"n_modes": 60, "t_start": 0.1, "t_stop": 5.0, "t_num": 8}
        )
        out = tmp_path / "out"
        p = write_cfg(tmp_path, cfg)
        assert main(["heat-kernel", "--config", str(p), "--out", str(out)]) == 0
        rows = read_csv(out / "heatkernel.csv")
        assert len(rows) == 8
        for r in rows:
            assert float(r["ratio"]) >= 1.0
            assert r["pass"] == "true"
            assert float(r["lower_bound"]) <= float(r["ratio"]) <= float(r["upper_bound_with_fitted_c"])
        summary = json.loads((out / "heatkernel_summary.json").read_text())
        assert math.isfinite(summary["c"]) and summary["c"] > 0
        assert summary["dimension"] == 1

    @pytest.mark.parametrize("command", ["heat-kernel", "certify"])
    def test_infinite_constant_exits_2_without_files(self, tmp_path, capsys, command):
        # t^(-3/2) overflows at t = 1e-250, so the fitted c is infinite: it
        # was written as "c": Infinity, which is not JSON, beside nan lower
        # bounds; certify with c "fit" takes the same constant
        cfg = interval_cfg(
            n=64, heat_kernel={"n_modes": 40, "t_start": 1e-250, "t_stop": 10.0, "t_num": 20}
        )
        if command == "certify":
            cfg.update(
                model=MODEL,
                sim={"dt": 0.01, "horizon": 1.0, "seed": 3},
                certificate={"kinds": ["heat_kernel"], "K": 0.5, "c": "fit", "analytic": True},
            )
        out = tmp_path / "out"
        p = write_cfg(tmp_path, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([command, "--config", str(p), "--out", str(out)]) == 2
        assert "kernel-ratio constant is not finite" in capsys.readouterr().err
        assert list(out.iterdir()) == []


class TestWriteCsv:
    def test_mass_series_matches_cell_formatting(self, tmp_path):
        # the mass-series writer and write_csv's per-cell path write the same
        # bytes; a time column longer than the series is cut to its length
        rng = np.random.default_rng(0)
        rows = 10.0 ** rng.uniform(-300.0, 300.0, size=(5001, 3))
        rows *= rng.choice([-1.0, 1.0], size=rows.shape)
        rows[0] = [-0.0, np.nan, np.inf]
        rows[1] = [5e-324, -np.inf, 0.0]
        t_cells = [repr(t) for t in rows[:, 0].tolist()] + ["1.0"]
        columns = {"t": t_cells, "mass": rows[:, 1], "sup": rows[:, 2]}
        fast = write_columns(tmp_path / "fast.csv", columns)
        mapped = [{"t": t, "mass": m, "sup": s} for t, m, s in rows.tolist()]
        cells = write_csv(tmp_path / "cells.csv", mapped)
        assert fast.read_bytes() == cells.read_bytes()
        lines = fast.read_text().splitlines()
        assert lines[1:3] == ["-0.0,nan,inf", "5e-324,-inf,0.0"]


SCIPY_PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import spdelab.cli as cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

cli.load_config(sys.argv[2])
seen = {"import": [0, scipy_modules()]}
for label, argv in json.loads(sys.argv[3]):
    with contextlib.redirect_stdout(io.StringIO()):
        seen[label] = [cli.main(argv), scipy_modules()]
print(json.dumps(seen))
"""


class TestImports:
    def test_scipy_loads_only_where_it_is_used(self, tmp_path):
        # one process, so each step sees what the steps before it loaded:
        # the import and the light commands load no scipy module, the gamma
        # law loads scipy.special, only simulate loads scipy.linalg for its
        # factorization, and no command loads scipy.sparse
        configs = Path(__file__).resolve().parents[1] / "configs"
        mc = interval_cfg(
            n=16, model=MODEL, sim={"dt": 0.01, "horizon": 1.0, "n_paths": 1000, "seed": 1,
                                    "v0psi_sweep": [0.5]}
        )
        sim = interval_cfg(
            n=16, model=MODEL, initial={"mode": "eigen-multiple", "a": 0.3},
            sim={"dt": 0.01, "horizon": 0.5, "n_paths": 2, "seed": 1},
        )
        runs = [
            ("eigen", "eigen", configs / "eigen_interval.json"),
            ("certify", "certify", configs / "certify_frozen.json"),
            ("heat-kernel", "heat-kernel", configs / "heat_kernel.json"),
            ("blowup kappa=0", "blowup", configs / "blowup_dichotomy.json"),
            ("blowup kappa>0", "blowup", write_cfg(tmp_path, mc, "mc.json")),
            ("simulate", "simulate", write_cfg(tmp_path, sim, "sim.json")),
        ]
        argvs = [
            (label, [command, "--config", str(cfg), "--out", str(tmp_path / str(i))])
            for i, (label, command, cfg) in enumerate(runs)
        ]
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", SCIPY_PROBE, src, str(runs[0][2]), json.dumps(argvs)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout)
        assert [code for code, _ in seen.values()] == [0] * 7
        for label in ("import", "eigen", "certify", "heat-kernel", "blowup kappa=0"):
            assert seen[label][1] == [], label
        after_mc = seen["blowup kappa>0"][1]
        assert "scipy.special" in after_mc and "scipy.sparse" not in after_mc
        after_simulate = seen["simulate"][1]
        assert "scipy.linalg" in after_simulate
        assert not any(name.startswith("scipy.sparse") for name in after_simulate)

    def test_import_loads_no_process_pool(self):
        # the Monte Carlo pool is imported on first use; at module level
        # concurrent.futures.process alone costs about 22 ms of set-up
        probe = (
            "import json, sys; sys.path.insert(0, sys.argv[1]); import spdelab.cli; "
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == "
            "'multiprocessing' or m.startswith('concurrent.futures.process'))))"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", probe, src], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []


class TestOutputRouting:
    def test_out_flag_is_the_one_source(self, tmp_path, monkeypatch, capsys):
        # --out names the directory, the working one by default; the
        # environment is not read and a config has no outputs section
        env_dir, cli_dir, cwd = tmp_path / "from_env", tmp_path / "from_cli", tmp_path / "cwd"
        cwd.mkdir()
        p = write_cfg(tmp_path, interval_cfg(n=16))
        monkeypatch.setenv("SPDELAB_OUT", str(env_dir))
        monkeypatch.chdir(cwd)

        assert main(["eigen", "--config", str(p), "--out", str(cli_dir)]) == 0
        assert (cli_dir / "eigenvalues.json").exists()

        assert main(["eigen", "--config", str(p)]) == 0
        assert (cwd / "eigenvalues.json").exists()
        assert not env_dir.exists()

        capsys.readouterr()
        refused = tmp_path / "refused"
        q = write_cfg(tmp_path, interval_cfg(n=16, outputs={"directory": str(refused)}), "o.json")
        assert main(["eigen", "--config", str(q), "--out", str(refused)]) == 2
        assert "unknown keys ['outputs']" in capsys.readouterr().err
        assert not refused.exists()

    def test_output_error_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        p = write_cfg(tmp_path, interval_cfg(n=16))
        assert main(["eigen", "--config", str(p), "--out", str(blocker / "sub")]) == 2
        assert "output error" in capsys.readouterr().err

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "out"
        p = write_cfg(tmp_path, interval_cfg(n=16))
        proc = subprocess.run(
            [sys.executable, "-m", "spdelab.cli", "eigen", "--config", str(p), "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "eigenvalues.json" in proc.stdout
        assert (out / "eigen_manifest.json").exists()
