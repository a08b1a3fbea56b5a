"""Frozen-ensemble finite-difference checks and the chain oracle."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pathgrad.materials import GradientVector
from pathgrad.path_engine import (TerminalKind, backward_pass,
                                  cost_and_adjoint, forward_pass)
from pathgrad.scene_io import build_cornell_box
from pathgrad.validation import (ABS_FLOOR, EPS_LADDER, REL_TOL, FdReport,
                                 FdRow, FrozenEnsemble, analytic_geometric,
                                 build_chain_path, build_lattice_ensemble,
                                 build_single_path_ensemble, chain_theta,
                                 compare_gradients, ensemble_cost,
                                 ensemble_cost_and_grad, fd_gradient_frozen)


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
    ensemble = build_lattice_ensemble(scene, theta, seed=4, grid=8, max_depth=4,
                                      targets=np.linspace(0.0, 0.5, 64))
    assert {p.terminal_kind for p in ensemble.paths} == {
        TerminalKind.ABSORBED, TerminalKind.EMITTER, TerminalKind.BELOW_HORIZON,
        TerminalKind.MAX_DEPTH}
    n = ensemble.n_paths
    want_cost = 0.0
    want_grad = GradientVector()
    for path, target in zip(ensemble.paths, ensemble.targets):
        cost, adj = cost_and_adjoint(forward_pass(path, theta), target)
        want_cost += cost / n
        backward_pass(path, adj / n, theta, want_grad)
    cost, grad = ensemble_cost_and_grad(ensemble, theta)
    assert_allclose(cost, want_cost, rtol=1e-12)
    assert_allclose(grad.as_array(), want_grad.as_array(), rtol=1e-12)
    assert all(g != 0.0 for g in grad.as_tuple())


def test_single_path_ensemble_center_pixel():
    scene, theta = build_cornell_box(32, 32)
    ensemble = build_single_path_ensemble(scene, theta, seed=7, target=0.25)
    assert ensemble.n_paths == 1
    assert ensemble.label == "single-path"
    assert ensemble.targets[0] == 0.25
    cost = ensemble_cost(ensemble, theta)
    assert np.isfinite(cost) and cost >= 0.0


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


def test_frozen_ensemble_validates_targets():
    with pytest.raises(ValueError):
        FrozenEnsemble([build_chain_path(2)], np.zeros(2))


def test_build_chain_path_rejects_empty():
    with pytest.raises(ValueError):
        build_chain_path(0)
