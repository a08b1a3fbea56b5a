"""Frozen-ensemble finite-difference checks and the chain oracle."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pathgrad._wavefront import record_of_paths
from pathgrad.materials import GradientVector
from pathgrad.path_engine import (TerminalKind, backward_pass,
                                  cost_and_adjoint, forward_pass,
                                  trace_pixel_sample)
from pathgrad.scene_io import build_cornell_box, parse_scene
from pathgrad.validation import (ABS_FLOOR, EPS_LADDER, REL_TOL, FdReport,
                                 FdRow, FrozenEnsemble, analytic_geometric,
                                 build_chain_path, build_lattice_ensemble,
                                 chain_theta,
                                 compare_gradients, ensemble_cost,
                                 ensemble_cost_and_grad, fd_gradient_frozen)
from test_wavefront import OPEN_SCENE


def test_analytic_geometric_golden():
    cost, radiance, g_d, g_e = analytic_geometric(3, 0.5, 2.0)
    assert (cost, radiance, g_d, g_e) == (0.125, 0.5, 1.0, 0.125)
    # single segment: just the emitter, no reflection sensitivity
    cost, radiance, g_d, g_e = analytic_geometric(1, 0.3, 1.5)
    assert (radiance, g_d) == (1.5, 0.0)
    assert_allclose(g_e, 1.5, rtol=1e-15)  # residual times unit base emission


def test_chain_ensemble_passes_fd_ladder():
    paths = [build_chain_path(n) for n in range(1, 6)]
    ensemble = FrozenEnsemble(paths, np.zeros(5), label="chains")
    theta = chain_theta(0.6, 1.7)
    report = compare_gradients(ensemble, theta, controls=(1, 2))
    assert report.all_pass
    # cost is the mean of the per-path closed forms
    want = np.mean([analytic_geometric(n, 0.6, 1.7)[0] for n in range(1, 6)])
    assert_allclose(report.cost, want, rtol=1e-14)


def test_ensemble_cost_and_grad_match_closed_form():
    paths = [build_chain_path(n) for n in (2, 4)]
    targets = np.array([0.1, 0.3])
    ensemble = FrozenEnsemble(paths, targets)
    theta = chain_theta(0.5, 2.0)
    cost, grad = ensemble_cost_and_grad(ensemble, theta)
    refs = [analytic_geometric(n, 0.5, 2.0, target=t)
            for n, t in zip((2, 4), targets)]
    assert_allclose(cost, np.mean([r[0] for r in refs]), rtol=1e-14)
    assert_allclose(grad.control(1), np.mean([r[2] for r in refs]), rtol=1e-13)
    assert_allclose(grad.control(2), np.mean([r[3] for r in refs]), rtol=1e-13)
    assert ensemble_cost(ensemble, theta) == cost


def test_fd_gradient_frozen_returns_one_sided_costs():
    ensemble = FrozenEnsemble([build_chain_path(2)], np.zeros(1))
    theta = chain_theta(0.5, 1.0)
    slope, j_plus, j_minus = fd_gradient_frozen(ensemble, theta, 1, 1e-4)
    assert j_plus > j_minus  # cost increases with the diffuse control here
    _, want_rad, want_gd, _ = analytic_geometric(2, 0.5, 1.0)
    assert_allclose(slope, want_gd, rtol=1e-7)


def test_cornell_lattice_all_controls_pass_at_decisive_step():
    scene, theta = build_cornell_box(64, 64)
    ensemble = build_lattice_ensemble(scene, theta, seed=42, grid=4)
    assert ensemble.n_paths == 16
    report = compare_gradients(ensemble, theta, eps_list=(1e-4,))
    assert report.rows_at(1e-4)
    assert report.all_pass, report.to_text()


def test_ensemble_sweeps_match_scalar_passes():
    # the shipped sweeps replay frozen paths like the scalar passes, up to
    # rounding (summation order, array pow/log)
    scene, theta = build_cornell_box(64, 64)
    # the 8 x 8 lattice, frozen here so the scalar passes can read the paths
    paths = [trace_pixel_sample(scene, theta, (8 * j + 4) * 64 + 8 * i + 4, 0, 4, 4)
             for j in range(8) for i in range(8)]
    ensemble = FrozenEnsemble(paths, np.linspace(0.0, 0.5, 64))
    assert {p.terminal_kind for p in paths} == {
        TerminalKind.ABSORBED, TerminalKind.EMITTER, TerminalKind.BELOW_HORIZON,
        TerminalKind.MAX_DEPTH}
    n = ensemble.n_paths
    want_cost = 0.0
    want_grad = GradientVector()
    for path, target in zip(paths, ensemble.targets):
        cost, adj = cost_and_adjoint(forward_pass(path, theta), target)
        want_cost += cost / n
        backward_pass(path, adj / n, theta, want_grad)
    cost, grad = ensemble_cost_and_grad(ensemble, theta)
    assert_allclose(cost, want_cost, rtol=1e-12)
    assert_allclose(grad.as_array(), want_grad.as_array(), rtol=1e-12)
    assert all(g != 0.0 for g in grad.as_tuple())
    lattice = build_lattice_ensemble(scene, theta, seed=4, grid=8, max_depth=4,
                                     targets=np.linspace(0.0, 0.5, 64))
    lattice_cost, lattice_grad = ensemble_cost_and_grad(lattice, theta)
    assert (lattice_cost, lattice_grad.as_tuple()) == (cost, grad.as_tuple())


def _open_scene():
    scene = parse_scene(OPEN_SCENE)
    return scene, scene.theta


@pytest.mark.parametrize("make_scene, grid, seed, max_depth", [
    (lambda: build_cornell_box(16, 16), 16, 5, 16),
    (lambda: build_cornell_box(24, 16), 9, 2, 3),   # most paths meet the depth cap
    (_open_scene, 12, 9, 16),                       # many lanes escape
])
def test_lattice_record_matches_the_scalar_freeze(make_scene, grid, seed, max_depth):
    # the scalar engine stays validate's reference: the record trace_lanes
    # freezes equals, lane for lane, the one read from make_path's Paths
    scene, theta = make_scene()
    cam = scene.camera
    lattice = [int((j + 0.5) * cam.height / grid) * cam.width + int((i + 0.5) * cam.width / grid)
               for j in range(grid) for i in range(grid)]
    paths = [trace_pixel_sample(scene, theta, p, 0, seed, max_depth) for p in lattice]
    want_materials, want = record_of_paths(paths)
    ensemble = build_lattice_ensemble(scene, theta, seed=seed, grid=grid, max_depth=max_depth)
    got = ensemble.record

    def same_materials(ids, materials, want_ids):
        return len(ids) == len(want_ids) and all(
            materials[i] is want_materials[j] for i, j in zip(ids, want_ids))

    assert got.n_lanes == want.n_lanes == grid * grid
    assert len(got.rows) == len(want.rows)
    for row, want_row in zip(got.rows, want.rows):
        assert [g[0] for g in row] == [g[0] for g in want_row]
        for (_, lanes, mat, u1), (_, want_lanes, want_mat, want_u1) in zip(row, want_row):
            assert np.array_equal(lanes, want_lanes)
            assert same_materials(mat, ensemble.materials, want_mat)
            assert (u1 is None) == (want_u1 is None)
            assert u1 is None or np.array_equal(u1, want_u1)
    assert np.array_equal(got.emitters, want.emitters)
    assert same_materials(got.emitter_mat, ensemble.materials, want.emitter_mat)
    kinds = {p.terminal_kind for p in paths}
    assert TerminalKind.EMITTER in kinds and TerminalKind.ABSORBED in kinds
    if make_scene is _open_scene:
        assert TerminalKind.ESCAPED in kinds
    elif max_depth == 3:
        assert TerminalKind.MAX_DEPTH in kinds


def test_grid_one_ensemble_center_pixel():
    scene, theta = build_cornell_box(32, 32)
    ensemble = build_lattice_ensemble(scene, theta, seed=7, grid=1, targets=[0.25])
    assert ensemble.n_paths == 1
    assert ensemble.label == "lattice"
    assert ensemble.targets[0] == 0.25
    cost = ensemble_cost(ensemble, theta)
    assert np.isfinite(cost) and cost >= 0.0
    center = FrozenEnsemble([trace_pixel_sample(scene, theta, 16 * 32 + 16, 0, 7)], [0.25])
    assert ensemble_cost(center, theta) == cost


def test_ensemble_keeps_the_record_and_no_path():
    scene, theta = build_cornell_box(16, 16)
    ensemble = build_lattice_ensemble(scene, theta, seed=3, grid=4)
    assert set(vars(ensemble)) == {"materials", "record", "targets", "label"}
    assert ensemble.n_paths == ensemble.record.n_lanes == 16
    # any iterable of paths, read once
    chains = FrozenEnsemble((build_chain_path(n) for n in (2, 3)), [0.0, 0.1])
    assert chains.n_paths == 2


def test_lattice_freeze_holds_no_path_copies():
    # the record costs a few hundred bytes per path; holding the traced
    # Paths (hits, points, normals, directions) as well would cost ~2.5 KB
    scene, theta = build_cornell_box(128, 128)
    build_lattice_ensemble(scene, theta, seed=7, grid=2)  # imports _wavefront untraced
    tracemalloc.start()
    try:
        ensemble = build_lattice_ensemble(scene, theta, seed=7, grid=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ensemble.n_paths == 4096
    assert peak / ensemble.n_paths <= 600, f"{peak / ensemble.n_paths:.0f} B per path"


def test_fd_row_pass_logic():
    ok = FdRow(control=1, eps=1e-4, analytic=1.0, fd=1.0 + 5e-4,
               cost_plus=0.0, cost_minus=0.0)
    assert ok.passed and ok.rel_err < REL_TOL
    bad = FdRow(control=1, eps=1e-4, analytic=1.0, fd=1.01,
                cost_plus=0.0, cost_minus=0.0)
    assert not bad.passed
    # both sides below the absolute floor count as agreement
    tiny = FdRow(control=1, eps=1e-4, analytic=ABS_FLOOR / 2, fd=0.0,
                 cost_plus=0.0, cost_minus=0.0)
    assert tiny.passed and tiny.rel_err == 1.0
    zero = FdRow(control=1, eps=1e-4, analytic=0.0, fd=0.0,
                 cost_plus=0.0, cost_minus=0.0)
    assert zero.rel_err == 0.0 and zero.passed


def test_fd_row_with_a_non_finite_value_fails():
    # max(0.0, nan) is 0.0, which once read as a relative error of 0
    nan_fd = FdRow(control=1, eps=1e-4, analytic=0.0, fd=float("nan"),
                   cost_plus=0, cost_minus=0)
    inf_fd = FdRow(control=1, eps=1e-4, analytic=1.0, fd=float("inf"),
                   cost_plus=0, cost_minus=0)
    nan_analytic = FdRow(control=1, eps=1e-4, analytic=float("nan"), fd=0.0,
                         cost_plus=0, cost_minus=0)
    assert not (nan_fd.passed or inf_fd.passed or nan_analytic.passed)
    ok = FdRow(control=2, eps=1e-4, analytic=1.0, fd=1.0, cost_plus=1.0, cost_minus=1.0)
    report = FdReport(cost=0.5, rows=[ok, nan_fd])
    assert not report.all_pass
    assert "RESULT: FAIL" in report.to_text()


def test_non_finite_cost_or_gradient_raises_and_fd_rows_mismatch():
    ensemble = FrozenEnsemble([build_chain_path(3)], np.zeros(1))
    # (1e200)^2 overflows the radiance: no warning, a named error
    with pytest.raises(ValueError, match="non-finite cost at theta"):
        ensemble_cost_and_grad(ensemble, chain_theta(1e200, 1.0))
    assert ensemble_cost(ensemble, chain_theta(1e200, 1.0)) == math.inf
    # finite at theta, overflowing at theta + eps: that row is a MISMATCH
    ensemble = FrozenEnsemble([build_chain_path(2)], np.zeros(1))
    report = compare_gradients(ensemble, chain_theta(1e154, 1.0), eps_list=(1e154,),
                               controls=(1,), decisive_eps=1e154)
    (row,) = report.rows
    assert row.cost_plus == math.inf and not row.passed
    assert "RESULT: FAIL" in report.to_text()


def test_fd_report_text_and_decisive_gating():
    row_ok = FdRow(control=2, eps=1e-4, analytic=1.0, fd=1.0,
                   cost_plus=1.0, cost_minus=1.0)
    row_diag = FdRow(control=2, eps=1e-1, analytic=1.0, fd=2.0,
                     cost_plus=1.0, cost_minus=1.0)
    report = FdReport(cost=0.5, rows=[row_diag, row_ok])
    # the sloppy large-step row is diagnostic only
    assert report.all_pass
    text = report.to_text()
    assert "RESULT: PASS" in text
    assert "(diagnostic)" in text
    report_fail = FdReport(cost=0.5, rows=[FdRow(
        control=1, eps=1e-4, analytic=1.0, fd=2.0, cost_plus=0, cost_minus=0)])
    assert not report_fail.all_pass
    assert "RESULT: FAIL" in report_fail.to_text()
    report_only = FdReport(cost=0.5, rows=[row_diag])
    assert report_only.all_pass  # vacuous: decisive step never exercised
    assert "REPORT-ONLY" in report_only.to_text()


def test_eps_ladder_error_ordering_on_chain():
    # central-difference error shrinks from 1e-1 to 1e-4 on a cubic-in-theta
    # cost, then cancellation takes over at the bottom of the ladder
    ensemble = FrozenEnsemble([build_chain_path(4)], np.zeros(1))
    theta = chain_theta(0.7, 1.3)
    report = compare_gradients(ensemble, theta, controls=(1,))
    errs = {r.eps: r.rel_err for r in report.rows}
    assert errs[1e-1] > errs[1e-4]
    assert errs[1e-4] <= REL_TOL
    assert set(errs) == set(EPS_LADDER)


def test_lattice_and_fd_step_reject_empty_input():
    scene, theta = build_cornell_box(4, 4)
    for grid in (0, -3):
        with pytest.raises(ValueError, match="grid"):
            build_lattice_ensemble(scene, theta, seed=1, grid=grid)
    assert build_lattice_ensemble(scene, theta, seed=1, grid=4).n_paths == 16
    # a grid finer than the image would freeze some pixels twice
    wide, _ = build_cornell_box(8, 4)
    for grid in (5, 20):
        with pytest.raises(ValueError, match="exceeds the 8x4 image"):
            build_lattice_ensemble(wide, theta, seed=1, grid=grid)
    for max_depth in (0, -2):  # no vertex to freeze
        with pytest.raises(ValueError, match="max_depth must be >= 1"):
            build_lattice_ensemble(scene, theta, seed=1, grid=4, max_depth=max_depth)
    ensemble = build_lattice_ensemble(scene, theta, seed=1, grid=1)
    for eps in (0.0, -1e-4, math.nan, math.inf):
        with pytest.raises(ValueError, match="step"):
            fd_gradient_frozen(ensemble, theta, 7, eps)


def test_frozen_ensemble_validates_targets():
    with pytest.raises(ValueError):
        FrozenEnsemble([build_chain_path(2)], np.zeros(2))


def test_build_chain_path_rejects_empty():
    with pytest.raises(ValueError):
        build_chain_path(0)
