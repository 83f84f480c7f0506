import functools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from spdelab import domain
from conftest import _heat_semigroup, _laplacian
from spdelab.domain import (
    DomainSpec,
    GridSpec,
    build_grid,
    heat_kernel_ratio_report,
    richardson_extrapolate,
    solve_eigenpairs,
    sup_norm_decay,
    weighted_inner,
)
from spdelab.errors import ConfigurationError
from spdelab.stochastic import BrownianPath

PI = np.pi


def block_width(eig):
    """sup_norm_decay's times per block: its decay and buffer hold m floats
    per time each, 1360 times at 48 modes."""
    return 16 * max(1, domain.SUP_NORM_BLOCK_BYTES // (16 * 16 * eig.m))


def all_node_series(f, times, kappa, eig):
    """Blocks of 1 MiB of node fields each, sup_norm_decay's kept modes and
    floor, with every node multiplied in every block. The blocks need not be
    sup_norm_decay's: any block keeps the same nonzero terms at each time,
    those at least the floor in size there."""
    coeff = eig.project(f)
    lam, modes = eig.eigenvalues, eig.modes
    sup_modes = np.max(np.abs(modes), axis=0)
    width = 16 * max(1, domain.SUP_NORM_BLOCK_BYTES // (16 * 8 * eig.grid.npoints))
    out = np.empty(times.size)
    for lo in range(0, times.size, width):
        chunk = times[lo : lo + width]
        first = np.abs(np.exp(-lam * np.min(chunk)) * coeff) * sup_modes
        kept = np.flatnonzero(first >= domain.SUP_NORM_FLOOR)
        k = int(kept[-1]) + 1 if kept.size else 0
        decay = np.exp(-np.outer(lam[:k], chunk)) * coeff[:k, None]
        decay[np.abs(decay) * sup_modes[:k, None] < domain.SUP_NORM_FLOOR] = 0.0
        out[lo : lo + width] = np.max(np.abs(modes[:, :k] @ decay), axis=0)
    return out * np.exp(-0.5 * kappa**2 * times)


class TestDomainAndGrid:
    def test_domain_validation(self):
        with pytest.raises(ConfigurationError):
            DomainSpec("disk", (1.0,))
        with pytest.raises(ConfigurationError):
            DomainSpec("interval", (1.0, 2.0))
        with pytest.raises(ConfigurationError):
            DomainSpec("rectangle", (1.0,))
        with pytest.raises(ConfigurationError):
            DomainSpec("interval", (-1.0,))

    def test_grid_too_coarse(self):
        dom = DomainSpec("interval", (PI,))
        with pytest.raises(ConfigurationError):
            build_grid(dom, 7)
        grid = build_grid(dom, 8)
        assert grid.npoints == 8

    def test_grid_geometry(self):
        dom = DomainSpec("interval", (PI,))
        grid = build_grid(dom, 16)
        h = PI / 17
        assert_allclose(grid.h[0], h)
        assert_allclose(grid.axes[0][0], h)
        assert_allclose(grid.axes[0][-1], PI - h, rtol=1e-14)
        assert np.all(grid.weights > 0)

    def test_quadrature_second_order_on_boundary_compatible_function(self):
        # trapezoid with implicit boundary zeros: errors shrink like n^-2
        dom = DomainSpec("interval", (PI,))
        errs = []
        for n in (128, 256):
            grid = build_grid(dom, n)
            errs.append(abs(weighted_inner(grid, np.ones(n), np.sin(grid.axes[0])) - 2.0))
        assert errs[1] < errs[0]
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)


def unretained_remainder(grid, m, t):
    """The kernel ratio's terms from the modes past the first m at time t,
    summed in the full basis, max over the nodes."""
    full = solve_eigenpairs(grid, grid.npoints)
    gaps = full.eigenvalues[m:] - full.lam1
    rest = (full.modes[:, m:] / full.modes[:, [0]]) ** 2 @ np.exp(-gaps * t)
    return float(np.max(rest, initial=0.0))


class TestLaplacian:
    def test_three_node_stencil(self):
        h = PI / 4
        # below the grid floor of 8 nodes, so built by hand
        axis = h * np.arange(1, 4)
        grid = GridSpec(DomainSpec("interval", (PI,)), 3, (axis,), (h,), np.full(3, h))
        mat = _laplacian(grid).toarray()
        expected = np.array([[-2.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -2.0]]) / h**2
        assert_allclose(mat, expected, rtol=0, atol=0)

    def test_applied_to_sine(self):
        dom = DomainSpec("interval", (PI,))
        grid = build_grid(dom, 512)
        s = np.sin(grid.axes[0])
        assert np.max(np.abs(_laplacian(grid) @ s + s)) < 1e-5

    def test_rectangle_separable(self, rect_32):
        dom, grid, lap, _ = rect_32
        x, y = grid.nodes()
        f = np.sin(x) * np.sin(y)
        assert np.max(np.abs(lap @ f + 2.0 * f)) < 5e-3

    def test_symmetric_negative_definite(self, interval_48):
        _, _, lap, _ = interval_48
        a = lap.toarray()
        assert_allclose(a, a.T, rtol=0, atol=0)
        rng = np.random.default_rng(3)
        for _ in range(5):
            v = rng.standard_normal(a.shape[0])
            assert v @ (a @ v) < 0


class TestEigenpairs:
    def test_interval_eigenvalues(self, interval_512):
        _, _, _, eig = interval_512
        assert abs(eig.lam1 - 1.0) < 1e-5
        assert abs(eig.lam2 - 4.0) < 1e-4
        assert eig.lam1 < eig.lam2
        assert np.all(np.diff(eig.eigenvalues) > 0)

    def test_psi_is_normalized_sine(self, interval_512):
        _, grid, _, eig = interval_512
        assert np.max(np.abs(eig.psi - np.sin(grid.axes[0]) / 2.0)) < 1e-5

    def test_psi_positive_unit_mass(self, interval_512):
        _, grid, _, eig = interval_512
        assert np.all(eig.psi > 0)
        assert abs(np.dot(grid.weights, eig.psi) - 1.0) <= 1e-12

    def test_rayleigh_residual_within_tolerance(self, interval_512):
        _, _, lap, eig = interval_512
        a = -lap
        for k in range(5):
            v = eig.modes[:, k]
            theta = float(v @ (a @ v)) / float(v @ v)
            res = np.linalg.norm(a @ v - theta * v) / (theta * np.linalg.norm(v))
            assert res <= 2e-10

    def test_modes_orthonormal_in_weighted_inner(self, interval_48):
        _, grid, _, eig = interval_48
        gram = eig.modes.T @ (grid.weights[:, None] * eig.modes)
        assert np.max(np.abs(gram - np.eye(eig.m))) < 1e-12

    def test_rectangle_eigenpairs(self, rect_32):
        _, grid, _, eig = rect_32
        assert abs(eig.lam1 - 2.0) < 2e-3
        assert abs(eig.lam2 - 5.0) < 2e-2
        x, y = grid.nodes()
        assert np.max(np.abs(eig.psi - np.sin(x) * np.sin(y) / 4.0)) < 1e-3

    def test_convergence_rate_and_richardson(self):
        dom = DomainSpec("interval", (PI,))
        errs = {}
        lams = {}
        for n in (128, 256):
            eig = solve_eigenpairs(build_grid(dom, n), 2)
            lams[n] = eig.lam1
            errs[n] = abs(eig.lam1 - 1.0)
        assert errs[128] / errs[256] == pytest.approx(4.0, rel=0.05)
        ratio = ((PI / 129) / (PI / 257)) ** 2
        extrap = richardson_extrapolate(lams[128], lams[256], ratio)
        assert abs(extrap - 1.0) <= errs[256] / 4.0

    @pytest.mark.parametrize(
        "kind, lengths, n_max",
        [("interval", (PI,), 64), ("rectangle", (PI, PI), 16), ("rectangle", (1.0, 2.5), 16)],
    )
    @settings(max_examples=15)
    @given(data=st.data())
    def test_closed_form_is_the_stencil_spectrum(self, kind, lengths, n_max, data):
        n = data.draw(st.integers(8, n_max), label="n")
        dom = DomainSpec(kind, lengths)
        grid = build_grid(dom, n)
        m = data.draw(st.integers(2, grid.npoints), label="m")
        eig = solve_eigenpairs(grid, m)
        a = -_laplacian(grid)
        for k in range(eig.m):
            v, lam = eig.modes[:, k], eig.eigenvalues[k]
            assert np.linalg.norm(a @ v - lam * v) <= 1e-10 * lam * np.linalg.norm(v)
        dense = np.linalg.eigvalsh(a.toarray())[:m]
        assert_allclose(eig.eigenvalues, dense, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kind, lengths", [("interval", (PI,)), ("rectangle", (1.0, 2.5))])
    def test_spectrum_belongs_to_each_tensor_sine_mode(self, kind, lengths):
        # entry [i, j] of the grid's spectrum is the eigenvalue of the tensor
        # product of the axes' sine modes i and j, the basis the integrator
        # solves rectangles in; unequal spacings catch swapped axes
        grid = build_grid(DomainSpec(kind, lengths), 12)
        lam = domain._spectrum(grid)
        assert lam.shape == (grid.n,) * len(lengths)
        sines = domain._sine_vectors(grid.n, np.arange(1, grid.n + 1))
        modes = functools.reduce(np.kron, [sines] * len(lengths))
        residual = -_laplacian(grid) @ modes - modes * lam.ravel()
        assert np.max(np.abs(residual)) <= 1e-12 * np.max(lam)

    def test_tied_modes_split_in_row_major_order(self):
        # on a square the modes (1, 2) and (2, 1) tie: the basis keeps (1, 2),
        # the first in row-major order, and the tail bound starts at (2, 1)
        grid = build_grid(DomainSpec("rectangle", (PI, PI)), 8)
        eig = solve_eigenpairs(grid, 2)
        sines = domain._sine_vectors(grid.n, np.array([1, 2]))
        tensor = np.kron(sines[:, 0], sines[:, 1]) / grid.h[0]
        assert eig.modes[:, 1].tobytes() == tensor.tobytes()
        t = 0.05
        lam = domain._spectrum(grid)
        term = 4.0 * math.exp(-(lam[1, 0] - lam[0, 0]) * t)  # weight (2 * 1)^2
        split = domain._spectral_tail_bound(eig, t) - domain._spectral_tail_bound(
            solve_eigenpairs(grid, 3), t
        )
        assert split == pytest.approx(term, rel=1e-11)

    @pytest.mark.parametrize(
        "kind, lengths, n", [("interval", (PI,), 512), ("rectangle", (PI, 2.0), 16)]
    )
    def test_leading_modes_are_the_smaller_solve_bitwise(self, kind, lengths, n):
        # certify fits c on 120 modes and certifies on the leading 48
        grid = build_grid(DomainSpec(kind, lengths), n)
        lead, want = solve_eigenpairs(grid, 120).leading(48), solve_eigenpairs(grid, 48)
        for name in ("eigenvalues", "modes", "psi"):
            assert getattr(lead, name).tobytes() == getattr(want, name).tobytes()
        assert lead.modes.flags.c_contiguous
        assert want.leading(48) is want and want.leading(60) is want

    def test_mode_count_guards(self, interval_48):
        _, grid, _, _ = interval_48
        with pytest.raises(ConfigurationError):
            solve_eigenpairs(grid, 1)
        with pytest.raises(ConfigurationError):
            solve_eigenpairs(grid, 10_000)

    def test_richardson_exact_on_quadratic_model(self):
        lam = lambda h: 1.0 + 2.0 * h**2
        assert richardson_extrapolate(lam(0.2), lam(0.1), 4.0) == pytest.approx(1.0, abs=1e-14)


class TestHeatSemigroup:
    def test_sup_norm_decay_eigenmode_value(self, interval_512):
        _, _, _, eig = interval_512
        # e^{-1/2} * e^{-1} * sup(psi) with sup(psi) = 1/2 on [0, pi]
        val = sup_norm_decay(eig.psi, 1.0, 1.0, eig)
        assert val == pytest.approx(0.5 * math.exp(-1.5), rel=1e-4)

    def test_sup_norm_decay_at_zero(self, interval_48):
        _, _, _, eig = interval_48
        f = 3.0 * eig.psi
        assert sup_norm_decay(f, 0.0, 2.0, eig) == pytest.approx(float(np.max(f)), rel=1e-12)

    def test_sup_norm_decay_array_matches_scalar_calls(self, interval_512, monkeypatch):
        # no byte budget forces the minimum width of 16 times, so the array
        # path crosses several block boundaries
        monkeypatch.setattr(domain, "SUP_NORM_BLOCK_BYTES", 0)
        _, _, _, eig = interval_512
        f = eig.psi + 0.3 * eig.modes[:, 3] + 0.1 * eig.modes[:, 10]
        times = np.linspace(0.0, 6.0, 40).reshape(8, 5)
        series = sup_norm_decay(f, times, 0.8, eig)
        assert series.shape == times.shape
        scalars = np.array([sup_norm_decay(f, t, 0.8, eig) for t in times.ravel()])
        assert_allclose(series.ravel(), scalars, rtol=1e-14, atol=0)
        reference = [
            math.exp(-0.32 * t) * np.max(np.abs(_heat_semigroup(f, t, eig)))
            for t in times.ravel()
        ]
        assert_allclose(scalars, reference, rtol=1e-12, atol=0)
        with pytest.raises(ConfigurationError):
            sup_norm_decay(f, np.array([0.5, -0.1]), 0.8, eig)

    @pytest.mark.parametrize("n", [512, 100])
    def test_sup_norm_decay_blocks_match_one_block(self, monkeypatch, n):
        # the default byte budget gives 1360 times per block at 48 modes,
        # whatever the grid, so 4001 times take three blocks
        grid = build_grid(DomainSpec("interval", (PI,)), n)
        eig = solve_eigenpairs(grid, 48)
        f = np.abs(eig.modes @ np.random.default_rng(0).standard_normal(48))
        times = np.linspace(0.0, 20.0, 4001)
        blocked = sup_norm_decay(f, times, 1.0, eig)
        # a budget of 16 times the whole series: one block of all the times
        monkeypatch.setattr(domain, "SUP_NORM_BLOCK_BYTES", 16 * 8 * grid.npoints * times.size)
        assert_allclose(blocked, sup_norm_decay(f, times, 1.0, eig), rtol=1e-14, atol=0)

    def test_sup_norm_decay_memory_does_not_grow_with_times(self, interval_512):
        # certify's shape: 512 nodes, 48 modes, 20,001 path times; the whole
        # series at once would take 82 MB of fields
        _, grid, _, _ = interval_512
        eig = solve_eigenpairs(grid, 48)
        f = eig.psi + 0.3 * eig.modes[:, 3]
        times = np.linspace(0.0, 20.0, 20_001)
        tracemalloc.start()
        try:
            sup_norm_decay(f, times, 1.0, eig)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20
        # one reused buffer: the 1 MiB block is never alive twice
        assert peak <= 1.6 * 2**20

    @pytest.mark.parametrize("t", [math.nan, [0.5, math.nan], -0.1])
    def test_sup_norm_decay_refuses_negative_and_nan_times(self, interval_48, t):
        _, _, _, eig = interval_48
        with pytest.raises(ConfigurationError):
            sup_norm_decay(eig.psi, np.asarray(t), 1.0, eig)

    # no node of the 16x16 rectangle lies under the narrow bump
    @pytest.mark.parametrize(
        "shape, data",
        [(s, d) for s in ("512", "100", "64", "short") for d in ("random", "bump")]
        + [("16x16", "random")],
    )
    def test_sup_norm_decay_matches_full_basis(self, shape, data):
        # the full-basis series: every mode in every block, no floor
        def full_series(f, times, kappa, eig):
            coeff = eig.project(f)
            decay = np.exp(-np.outer(eig.eigenvalues, times)) * coeff[:, None]
            fields = eig.modes @ decay
            return np.max(np.abs(fields), axis=0) * np.exp(-0.5 * kappa**2 * times)

        if shape == "16x16":
            grid = build_grid(DomainSpec("rectangle", (PI, 2.0)), 16)
            x = np.repeat(grid.axes[0], 16)
        else:
            # a 1e-6-long interval has lam_1 near 1e13 and sup |phi_k| near 1400
            length, n = (1e-6, 64) if shape == "short" else (PI, int(shape))
            grid = build_grid(DomainSpec("interval", (length,)), n)
            x = grid.axes[0] / length
        eig = solve_eigenpairs(grid, 48)
        if data == "random":
            f = np.abs(np.random.default_rng(5).standard_normal(grid.npoints))
        else:
            f = 37.9653 * np.maximum(0.0, 1.0 - np.abs(x - 1.0) / 0.05)
        assert np.max(f) > 0.0
        # unsorted times out to 200, several blocks of them
        times = np.concatenate([np.linspace(0.0, 20.0, 601), np.linspace(20.0, 200.0, 400)])
        times = np.random.default_rng(6).permutation(times)
        if shape == "short":
            times = times * 1e-12
        atol = eig.m * 2.0**-1000
        got = sup_norm_decay(f, times, 1.0, eig)
        assert_allclose(got, full_series(f, times, 1.0, eig), rtol=1e-14, atol=atol)
        # every term underflows: both sides are exactly zero
        far = np.array([1e4, 2e4]) * (1e-12 if shape == "short" else 1.0)
        assert np.all(sup_norm_decay(f, far, 1.0, eig) == 0.0)
        assert np.all(full_series(f, far, 1.0, eig) == 0.0)

    def test_sup_norm_decay_multiplies_few_modes_at_certify_shape(self, interval_512, monkeypatch):
        # certify's shape: 512 nodes, 48 modes, 20,001 path times on [0, 20];
        # most terms are below the floor, and the block products skip them
        _, grid, _, _ = interval_512
        eig = solve_eigenpairs(grid, 48)
        times = np.linspace(0.0, 20.0, 20_001)
        inner, matmul = [], np.matmul
        monkeypatch.setattr(
            np, "matmul", lambda a, b, **kw: inner.append(a.shape[1]) or matmul(a, b, **kw)
        )
        sup_norm_decay(0.2 * eig.psi, times, 1.0, eig)
        blocks = math.ceil(times.size / block_width(eig))
        assert len(inner) == blocks
        assert sum(inner) <= 0.25 * eig.m * blocks

    # the sup of the two-peak data sits on two mirror nodes at once; blocks
    # of 16 times, the fewest, let the small grids prune as well
    @pytest.mark.parametrize("budget", ["default", "16 times"])
    @pytest.mark.parametrize(
        "shape, data",
        [
            (s, d)
            for s in ("512", "100", "16", "short", "16x16")
            for d in ("random", "bump", "twin")
        ],
    )
    def test_sup_norm_decay_pruning_matches_all_nodes(self, shape, data, budget, monkeypatch):
        if budget == "16 times":
            monkeypatch.setattr(domain, "SUP_NORM_BLOCK_BYTES", 0)
        if shape == "16x16":
            grid = build_grid(DomainSpec("rectangle", (PI, 2.0)), 16)
            y = np.repeat(grid.axes[0], 16) / PI
        else:
            # a 1e-6-long interval has lam_1 near 1e13
            length, n = (1e-6, 64) if shape == "short" else (PI, int(shape))
            grid = build_grid(DomainSpec("interval", (length,)), n)
            y = grid.axes[0] / length
        eig = solve_eigenpairs(grid, min(48, grid.npoints))

        def bump(centre, half_width):
            return np.maximum(0.0, 1.0 - np.abs(y - centre) / half_width)

        if data == "random":
            f = np.abs(np.random.default_rng(7).standard_normal(grid.npoints))
        elif data == "bump":
            f = 37.9653 * bump(0.3, 0.05)
        else:
            # mirrored node for node: each mirror pair holds the same bits
            half = bump(0.25, 0.15).reshape(grid.n, -1)
            f = (half + half[::-1]).ravel()
            assert np.array_equal(f.reshape(grid.n, -1), f.reshape(grid.n, -1)[::-1])
        assert np.max(f) > 0.0
        # times out to 200 with repeats, unsorted and sorted
        times = np.concatenate([np.linspace(0.0, 20.0, 601), np.linspace(20.0, 200.0, 400)])
        times = np.concatenate([times, times[::7], np.zeros(3)])
        times = np.random.default_rng(8).permutation(times)
        scale = 1e-12 if shape == "short" else 1.0
        atol = eig.m * 2.0**-1000
        for t in (times * scale, np.sort(times) * scale):
            want = all_node_series(f, t, 1.0, eig)
            assert_allclose(sup_norm_decay(f, t, 1.0, eig), want, rtol=1e-14, atol=atol)
        # every term underflows: both sides are exactly zero
        far = np.array([1e4, 2e4, 1e4]) * scale
        assert np.all(sup_norm_decay(f, far, 1.0, eig) == 0.0)
        assert np.all(all_node_series(f, far, 1.0, eig) == 0.0)
        # an infinite time bounds no node in its block
        mixed = np.array([0.5, np.inf, 0.0]) * scale
        assert_allclose(sup_norm_decay(f, mixed, 1.0, eig), all_node_series(f, mixed, 1.0, eig))

    # certify_frozen and certify_sampled: their initial data, grids and path times
    @pytest.mark.parametrize("n, a, horizon", [(512, 0.2, 20.0), (128, 0.15, 10.0)])
    def test_sup_norm_decay_pruning_is_bitwise_at_shipped_shapes(self, n, a, horizon):
        eig = solve_eigenpairs(build_grid(DomainSpec("interval", (PI,)), n), 48)
        times = BrownianPath.frozen_zero(horizon, 1e-3).times
        got = sup_norm_decay(a * eig.psi, times, 1.0, eig)
        assert got.tobytes() == all_node_series(a * eig.psi, times, 1.0, eig).tobytes()

    def test_sup_norm_decay_multiplies_few_nodes_at_certify_shape(self, interval_512, monkeypatch):
        # certify's shape: 512 nodes, 48 modes, 20,001 path times on [0, 20];
        # the sup of 0.2 psi sits on the two middle nodes, and once the
        # other modes have decayed no other node can reach it
        _, grid, _, _ = interval_512
        eig = solve_eigenpairs(grid, 48)
        times = np.linspace(0.0, 20.0, 20_001)
        rows, matmul = [], np.matmul
        monkeypatch.setattr(
            np, "matmul", lambda a, b, **kw: rows.append(a.shape[0]) or matmul(a, b, **kw)
        )
        sup_norm_decay(0.2 * eig.psi, times, 1.0, eig)
        blocks = math.ceil(times.size / block_width(eig))
        assert len(rows) == blocks
        assert sum(rows) <= 0.01 * grid.npoints * blocks

    def test_sup_norm_decay_cuts_nodes_beside_underflowed_times(self, monkeypatch):
        # unsorted times on the 1e-6-long interval, 16 to a block: most
        # blocks hold a time where every term is below the floor and the
        # probe's row is 0; such a time bounds no node, and the cut holds
        monkeypatch.setattr(domain, "SUP_NORM_BLOCK_BYTES", 0)
        grid = build_grid(DomainSpec("interval", (1e-6,)), 64)
        eig = solve_eigenpairs(grid, 48)
        f = np.abs(np.random.default_rng(7).standard_normal(grid.npoints))
        times = np.concatenate([np.linspace(0.0, 20.0, 601), np.linspace(20.0, 200.0, 400)])
        times = np.concatenate([times, times[::7], np.zeros(3)])
        times = np.random.default_rng(8).permutation(times) * 1e-12
        rows, matmul = [], np.matmul
        monkeypatch.setattr(
            np, "matmul", lambda a, b, **kw: rows.append(a.shape[0]) or matmul(a, b, **kw)
        )
        got = sup_norm_decay(f, times, 1.0, eig)
        # every node of every block of 16 times: 4,608 rows
        assert 0 < sum(rows) < 0.25 * grid.npoints * math.ceil(times.size / 16)
        want = all_node_series(f, times, 1.0, eig)
        assert_allclose(got, want, rtol=1e-14, atol=eig.m * 2.0**-1000)

    def test_contraction_without_noise(self, interval_512):
        _, _, _, eig = interval_512
        f = eig.psi + 0.3 * eig.modes[:, 3]
        base = float(np.max(np.abs(f)))
        for t in (0.1, 0.5, 2.0):
            assert sup_norm_decay(f, t, 0.0, eig) <= base + 1e-12


@functools.cache
def long_range():
    """The n = 64 interval with 40 modes, and ten times out to 1e4, where
    e^{gap t} overflows at the times whose ratio is exactly one."""
    eig = solve_eigenpairs(build_grid(DomainSpec("interval", (PI,)), 64), 40)
    return eig, np.logspace(math.log10(0.05), 4.0, 10)


class TestHeatKernelRatio:
    def test_sandwich_on_log_grid(self, interval_512):
        dom, grid, _, eig = interval_512
        times = np.logspace(-2, 1, 25)
        rep = heat_kernel_ratio_report(eig, times)
        assert np.all(rep.ratios >= 1.0)
        assert rep.passed.all()
        assert math.isfinite(rep.c) and rep.c > 0
        # sandwich re-checked directly with the fitted constant
        p = 1.5
        lower = np.maximum(1.0, times**-p / rep.c)
        upper = 1.0 + rep.c * np.minimum(times, 1.0) ** -p * np.exp(-(eig.lam2 - eig.lam1) * times)
        assert np.all(rep.ratios >= lower * (1 - 1e-12))
        assert np.all(rep.ratios <= upper + 1e-12)

    def test_ratio_monotone_to_one(self, interval_512):
        dom, grid, _, eig = interval_512
        times = np.linspace(1.0, 8.0, 15)
        rep = heat_kernel_ratio_report(eig, times)
        assert np.all(np.diff(rep.ratios) <= 1e-12)
        assert rep.ratios[-1] == pytest.approx(1.0, abs=1e-6)

    def test_long_time_ratio_near_one(self, interval_512):
        dom, grid, _, eig = interval_512
        rep = heat_kernel_ratio_report(eig, [5.0])
        assert abs(rep.ratios[0] - 1.0) < 1e-3

    def test_short_time_regression_value(self, interval_512):
        dom, grid, _, eig = interval_512
        rep = heat_kernel_ratio_report(eig, [0.1])
        assert rep.ratios[0] == pytest.approx(15.48528294103079, rel=1e-8)

    def test_truncation_warning_fires_on_small_basis(self, interval_48):
        dom, grid, _, eig = interval_48
        rep = heat_kernel_ratio_report(eig, [1e-3, 1.0])
        assert rep.truncation_warning
        assert rep.truncation_estimate > 0

    @pytest.mark.parametrize(
        "kind, lengths, n_max",
        [("interval", (PI,), 64), ("rectangle", (PI, 2.0), 16), ("rectangle", (1.0, 2.5), 12)],
    )
    @settings(max_examples=15)
    @given(data=st.data())
    def test_truncation_estimate_bounds_the_unretained_modes(self, kind, lengths, n_max, data):
        # the Weyl heuristic once read 1.78e-15 against 2.92e-15 on a 64-node
        # interval with 30 modes, and 7.55 against 64.8 on a 16 x 16 grid
        n_min = 30 if kind == "interval" else 8
        n = data.draw(st.integers(n_min, n_max), label="n")
        grid = build_grid(DomainSpec(kind, lengths), n)
        m = data.draw(st.integers(30, grid.npoints), label="m")
        t = data.draw(st.sampled_from([1e-3, 1e-2, 0.05, 0.2, 1.0]), label="t")
        bound = heat_kernel_ratio_report(solve_eigenpairs(grid, m), [t, 1.0]).truncation_estimate
        assert bound >= unretained_remainder(grid, m, t)

    @pytest.mark.parametrize(
        "kind, lengths, n, m", [("interval", (PI,), 64, 30), ("rectangle", (PI, 2.0), 16, 40)]
    )
    def test_truncation_estimate_bounds_the_named_cases(self, kind, lengths, n, m):
        grid = build_grid(DomainSpec(kind, lengths), n)
        bound = heat_kernel_ratio_report(solve_eigenpairs(grid, m), [0.05]).truncation_estimate
        assert bound >= unretained_remainder(grid, m, 0.05)

    def test_input_guards(self, interval_512, interval_48):
        dom, grid, _, eig = interval_512
        with pytest.raises(ConfigurationError):
            heat_kernel_ratio_report(eig, [0.0, 1.0])
        dom48, grid48, _, _ = interval_48
        small = solve_eigenpairs(grid48, 10)
        with pytest.raises(ConfigurationError):
            heat_kernel_ratio_report(small, [1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_time_refused_up_front(self, bad):
        # named before any evaluation: nan was blamed on an overflow, and inf
        # warned in the sums and then blamed t=0.5
        eig, _ = long_range()
        with pytest.raises(ConfigurationError, match=re.escape(f"finite times, got t={bad}")):
            heat_kernel_ratio_report(eig, [0.5, bad, 2.0])

    @given(keep=st.lists(st.booleans(), min_size=10, max_size=10).filter(any))
    @example(keep=[True] * 4 + [False] * 6)
    def test_c_over_a_time_grid_bounds_c_over_any_subset(self, keep):
        # the constraints on c only add up as times are added; a nan from
        # 0 * inf at the long times once dropped every upper constraint, and
        # c read 2.164 instead of 3.991
        eig, times = long_range()
        c = heat_kernel_ratio_report(eig, times).c
        assert c >= heat_kernel_ratio_report(eig, times[np.array(keep)]).c

    @pytest.mark.parametrize("budget", ["default", "one time per block"])
    @pytest.mark.parametrize("order", ["sorted", "unsorted", "repeated"])
    @pytest.mark.parametrize("shape", ["interval", "rectangle"])
    def test_batched_ratios_match_per_time_matvec(
        self, shape, order, budget, interval_512, rect_32, monkeypatch
    ):
        if budget == "one time per block":
            monkeypatch.setattr(domain, "SUP_NORM_BLOCK_BYTES", 0)
        eig = (interval_512 if shape == "interval" else rect_32)[3]
        times = np.logspace(-2, 1, 25)
        if order == "unsorted":
            times = np.random.default_rng(9).permutation(times)
        elif order == "repeated":
            times = np.concatenate([times, times[::3], times[:2]])
        R2 = (eig.modes / eig.modes[:, [0]]) ** 2
        gaps = eig.eigenvalues - eig.eigenvalues[0]
        want = np.array([np.max(R2 @ np.exp(-gaps * t)) for t in times])
        got = heat_kernel_ratio_report(eig, times).ratios
        assert_allclose(got, want, rtol=1e-14, atol=0)

    def test_rectangle_report_runs(self, rect_32):
        dom, grid, _, eig = rect_32
        rep = heat_kernel_ratio_report(eig, [0.5, 1.0, 5.0])
        assert np.all(rep.ratios >= 1.0)
        assert rep.passed.all()
