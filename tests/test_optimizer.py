"""Projected gradient descent over the controls."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pathgrad.materials import ControlVector, N_CONTROLS
from pathgrad.optimizer import (DEFAULT_LOWER, DEFAULT_UPPER, DivergenceError,
                                OptimConfig, OptimRecord, OptimTrajectory,
                                gd_step, optimize, project,
                                total_cost_and_grad)
from pathgrad._wavefront import Session
from pathgrad.path_engine import trace_image
from pathgrad.scene_io import ScalarImage, build_cornell_box


def test_gd_step_moves_against_gradient():
    theta = ControlVector.of(*(1.0,) * N_CONTROLS)
    cfg = OptimConfig(learning_rate=0.1)
    out = gd_step(theta, np.ones(N_CONTROLS), cfg)
    assert_allclose(out.as_array(), np.full(N_CONTROLS, 0.9), rtol=1e-15)
    # negative results clamp at the lower bound
    out = gd_step(theta, np.full(N_CONTROLS, 100.0), cfg)
    assert out.values == (0.0,) * N_CONTROLS


def test_project_clamps_exponent_upper_bound():
    cfg = OptimConfig()
    vals = np.array([1, 1, 1, 1, 5e3, 1, 1], dtype=float)
    clipped = project(vals, cfg)
    assert clipped[4] == DEFAULT_UPPER[4] == 1e3
    assert np.all(clipped >= np.asarray(DEFAULT_LOWER))


def test_with_frozen_pins_all_but_free_controls():
    theta = ControlVector.of(1.0, 0.1, 0.6, 0.4, 20.0, 0.1, 0.7)
    cfg = OptimConfig(learning_rate=0.42, spp=3).with_frozen(theta, {7})
    for k in range(1, N_CONTROLS):
        assert cfg.lower[k - 1] == cfg.upper[k - 1] == theta.control(k)
    assert cfg.lower[6] == 0.0 and cfg.upper[6] == math.inf
    # unrelated settings carry over
    assert cfg.learning_rate == 0.42 and cfg.spp == 3


def test_trajectory_csv_format():
    traj = OptimTrajectory(records=[
        OptimRecord(0, 1.5, 0.25, (1.0,) * N_CONTROLS),
        OptimRecord(1, 0.75, 0.125, (0.5,) * N_CONTROLS)])
    text = traj.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == ("iteration,cost,grad_norm,"
                        "theta1,theta2,theta3,theta4,theta5,theta6,theta7")
    assert len(lines) == 3
    cells = lines[1].split(",")
    assert cells[0] == "0"
    assert float(cells[1]) == 1.5
    assert len(cells) == 3 + N_CONTROLS
    assert traj.final_cost == 0.75
    assert traj.final_theta.control(1) == 0.5


def test_self_target_converges_at_iteration_zero():
    # rendering the target at identical settings leaves an exactly-zero cost,
    # so the run stops before taking a single step
    scene, theta = build_cornell_box(16, 16)
    target = trace_image(scene, theta, spp=4, seed=42).image
    cfg = OptimConfig(n_iterations=10, spp=4, seed=42)
    traj = optimize(scene, theta, target, cfg)
    assert traj.converged
    assert "cost" in traj.reason
    assert len(traj.records) == 1
    assert traj.records[0].cost == 0.0


def test_recovers_single_control():
    scene, theta = build_cornell_box(16, 16)
    target = trace_image(scene, theta, spp=4, seed=42).image
    cfg = OptimConfig(learning_rate=2e-4, n_iterations=120, spp=4,
                      seed=42).with_frozen(theta, {7})
    seen = []
    traj = optimize(scene, theta.with_control(7, 0.55), target, cfg,
                    callback=seen.append)
    assert traj.converged, traj.reason
    assert abs(traj.final_theta.control(7) - 0.7) < 1e-3
    # frozen controls never move
    for r in traj.records:
        assert r.theta[:6] == theta.values[:6]
    # costs decrease monotonically on this convex-enough slice
    costs = [r.cost for r in traj.records]
    assert all(b <= a for a, b in zip(costs, costs[1:]))
    assert [r.iteration for r in seen] == list(range(len(traj.records)))


def test_regularization_enters_cost_and_grad():
    scene, theta = build_cornell_box(8, 8)
    target = trace_image(scene, theta, spp=2, seed=1).image
    plain = OptimConfig(spp=2, seed=1)
    reg = OptimConfig(spp=2, seed=1, regularization=0.5)
    with Session(scene, spp=2, seed=1, threads=1, max_depth=plain.max_depth) as session:
        rows = session.target_rows(target)
        c0, g0 = total_cost_and_grad(session, theta, rows, plain)
        c1, g1 = total_cost_and_grad(session, theta, rows, reg)
    t = theta.as_array()
    assert_allclose(c1 - c0, 0.25 * float(t @ t), rtol=1e-12)
    assert_allclose(g1 - g0, 0.5 * t, rtol=1e-12)


def test_divergence_raises():
    scene, theta = build_cornell_box(8, 8)
    # an absurd target makes the first step overshoot into overflow
    target = ScalarImage(8, 8, np.full((8, 8), 1e38, dtype=np.float32))
    cfg = OptimConfig(learning_rate=1.0, n_iterations=5, spp=2, seed=42)
    with pytest.raises(DivergenceError, match="non-finite"):
        optimize(scene, theta, target, cfg)


def test_non_finite_step_raises_divergence():
    # the sweeps reject non-finite controls as bad input; a step that makes
    # them is a divergence of the run instead
    scene, theta = build_cornell_box(4, 4)
    target = ScalarImage.zeros(4, 4)
    cfg = OptimConfig(learning_rate=math.nan, n_iterations=3, spp=1, seed=1)
    with pytest.raises(DivergenceError, match="non-finite"):
        optimize(scene, theta, target, cfg)


def test_initial_point_is_projected():
    scene, theta = build_cornell_box(8, 8)
    target = trace_image(scene, theta, spp=1, seed=2).image
    cfg = OptimConfig(n_iterations=0, spp=1, seed=2)
    start = theta.with_control(5, 7e3)  # beyond the exponent cap
    traj = optimize(scene, start, target, cfg)
    assert traj.records[0].theta[4] == 1e3
