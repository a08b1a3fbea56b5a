"""Forward/backward pass consistency on frozen paths."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pathgrad.geometry import Quad, Ray, Vec3
from pathgrad.materials import (Binding, ControlVector, GradientVector,
                                LobeTag, Material, N_CONTROLS, Q_LOBE)
from pathgrad.path_engine import (DEFAULT_MAX_DEPTH, Path, TerminalKind,
                                  backward_pass, cost_and_adjoint,
                                  forward_pass, make_path, trace_pixel_sample)
from pathgrad.scene_io import build_cornell_box
from pathgrad.validation import (analytic_geometric, build_chain_path,
                                 chain_theta)


class ScriptedStream:
    """Stands in for RngStream; pops preset uniforms and counts usage."""

    def __init__(self, values):
        self.values = list(values)
        self.used = 0

    def next(self):
        self.used += 1
        return self.values.pop(0)


def _floor(material_index=0):
    # z = 0 plane spanning [-5, 5]^2
    return Quad(Vec3(-5, -5, 0), Vec3(10, 0, 0), Vec3(0, 10, 0),
                material=material_index)


def _mini_scene(materials, primitives):
    return SimpleNamespace(materials=materials, primitives=primitives)


ONES = ControlVector.of(*(1.0,) * N_CONTROLS)


# ---------------------------------------------------------------------------
# geometric-series chains with closed-form radiance and gradients
# ---------------------------------------------------------------------------

def test_chain_golden_values():
    # three segments, diffuse 0.5, emission 2, unit base emission:
    # radiance 0.5^2 * 2 = 0.5, cost 0.125, dJ/d(diffuse) = 1, dJ/d(emission) = 0.125
    path = build_chain_path(3)
    theta = chain_theta(0.5, 2.0)
    radiance = forward_pass(path, theta)
    cost, seed = cost_and_adjoint(radiance, 0.0)
    grad = backward_pass(path, seed, theta)
    assert_allclose(radiance, 0.5, rtol=1e-15)
    assert_allclose(cost, 0.125, rtol=1e-15)
    assert_allclose(grad.control(1), 1.0, rtol=1e-15)
    assert_allclose(grad.control(2), 0.125, rtol=1e-15)
    assert all(grad.control(k) == 0.0 for k in range(3, N_CONTROLS + 1))


def test_chain_matches_closed_form_randomized():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(1, 11))
        theta_d = float(rng.uniform(0.1, 0.95))
        theta_e = float(rng.uniform(0.25, 3.0))
        target = float(rng.uniform(-1.0, 1.0))
        want_cost, want_rad, want_gd, want_ge = analytic_geometric(
            n, theta_d, theta_e, target=target)
        path = build_chain_path(n)
        theta = chain_theta(theta_d, theta_e)
        radiance = forward_pass(path, theta)
        cost, seed = cost_and_adjoint(radiance, target)
        grad = backward_pass(path, seed, theta)
        assert_allclose(radiance, want_rad, rtol=1e-12)
        assert_allclose(cost, want_cost, rtol=1e-12)
        assert_allclose(grad.control(1), want_gd, rtol=1e-12, atol=1e-15)
        assert_allclose(grad.control(2), want_ge, rtol=1e-12)


def test_backward_seed_linearity_is_exact():
    path = build_chain_path(5)
    theta = chain_theta(0.7, 1.3)
    forward_pass(path, theta)
    g1 = backward_pass(path, 0.37, theta)
    g2 = backward_pass(path, 0.74, theta)
    # doubling the seed scales by a power of two; every product and sum
    # rounds identically, so the match is bit-exact
    assert g2.as_tuple() == tuple(2.0 * x for x in g1.as_tuple())


# ---------------------------------------------------------------------------
# termination kinds on tiny scripted scenes
# ---------------------------------------------------------------------------

def test_escaped_empty_scene():
    scene = _mini_scene([], [])
    path = make_path(Ray(Vec3(0, 0, 1), Vec3(0, 0, -1.0).normalized()),
                     scene, ONES, ScriptedStream([]))
    assert path.terminal_kind is TerminalKind.ESCAPED
    assert path.vertices == []
    assert path.continuation_count == 0
    assert forward_pass(path, ONES) == 0.0


def test_absorbed_on_reflector():
    lam = Material.lambert("mat", ambient=Binding.const(0.25),
                           diffuse=Binding.const(0.5), absorb=0.6)
    scene = _mini_scene([lam], [_floor()])
    rng = ScriptedStream([0.1])  # below absorb: roulette ends the path
    path = make_path(Ray(Vec3(0, 0, 1), Vec3(0, 0, -1.0)), scene, ONES, rng)
    assert path.terminal_kind is TerminalKind.ABSORBED
    assert len(path.vertices) == 1
    assert path.vertices[0].dir_out is None
    assert path.continuation_count == 0
    assert rng.used == 1
    assert forward_pass(path, ONES) == 0.0


def test_emitter_terminal_radiance():
    em = Material.emitter("light", emission=Binding.ctl(2), base_emission=3.0)
    scene = _mini_scene([em], [_floor()])
    theta = ONES.with_control(2, 2.0)
    rng = ScriptedStream([0.999])  # any draw < absorb = 1 terminates
    path = make_path(Ray(Vec3(0, 0, 1), Vec3(0, 0, -1.0)), scene, theta, rng)
    assert path.terminal_kind is TerminalKind.EMITTER
    assert rng.used == 1
    assert_allclose(forward_pass(path, theta), 2.0 * 3.0, rtol=1e-15)
    grad = backward_pass(path, 1.0, theta)
    assert_allclose(grad.control(2), 3.0, rtol=1e-15)


def test_max_depth_vertex_draws_only_roulette():
    lam = Material.lambert("mat", ambient=Binding.const(0.25),
                           diffuse=Binding.const(0.5), absorb=0.0)
    scene = _mini_scene([lam], [_floor()])
    rng = ScriptedStream([0.5])
    path = make_path(Ray(Vec3(0, 0, 1), Vec3(0, 0, -1.0)), scene, ONES, rng,
                     max_depth=1)
    assert path.terminal_kind is TerminalKind.MAX_DEPTH
    assert rng.used == 1  # no lobe pick, no u1/u2 at the cap
    assert path.vertices[0].dir_out is None
    assert forward_pass(path, ONES) == 0.0


def test_below_horizon_terminal():
    ph = Material.phong_blinn("ball", ambient=Binding.const(0.1),
                              diffuse=Binding.const(0.3),
                              specular=Binding.const(0.4),
                              exponent=Binding.const(0.0), absorb=0.0)
    scene = _mini_scene([ph], [_floor()])
    # 45-degree incidence; a grazing half-vector (u1 = 0.01) reflects below
    # the surface for every azimuth
    ray = Ray(Vec3(-1, 0, 1), Vec3(1, 0, -1.0).normalized())
    rng = ScriptedStream([0.9, 0.0, 0.01, 0.3])
    path = make_path(ray, scene, ONES, rng, max_depth=8)
    assert path.terminal_kind is TerminalKind.BELOW_HORIZON
    assert rng.used == 4
    v = path.vertices[0]
    assert v.dir_out is None
    assert v.tag is LobeTag.SPECULAR
    assert v.u1 == 0.01
    # zero-throughput sample: contributes nothing, not even ambient
    assert forward_pass(path, ONES) == 0.0
    assert backward_pass(path, 1.0, ONES).as_tuple() == (0.0,) * N_CONTROLS


def test_single_bounce_escape_collects_ambient():
    lam = Material.lambert("mat", ambient=Binding.const(0.25),
                           diffuse=Binding.const(0.5), absorb=0.0)
    scene = _mini_scene([lam], [_floor()])
    rng = ScriptedStream([0.9, 0.64, 0.25])  # roulette, u1, u2
    path = make_path(Ray(Vec3(0, 0, 1), Vec3(0, 0, -1.0)), scene, ONES, rng)
    assert path.terminal_kind is TerminalKind.ESCAPED
    assert rng.used == 3
    assert path.continuation_count == 1
    v = path.vertices[0]
    assert v.tag is LobeTag.LAMBERT_ONLY
    assert v.dir_out.dot(v.hit.normal) > 0.0
    assert_allclose(forward_pass(path, ONES), 0.25, rtol=1e-15)


def test_glossy_vertex_draw_order_then_escape():
    ph = Material.phong_blinn("ball", ambient=Binding.const(0.0),
                              diffuse=Binding.const(0.3),
                              specular=Binding.const(0.4),
                              exponent=Binding.const(2.0), absorb=0.0)
    scene = _mini_scene([ph], [_floor()])
    rng = ScriptedStream([0.9, Q_LOBE + 0.2, 0.5, 0.5])
    path = make_path(Ray(Vec3(0, 0, 1), Vec3(0, 0, -1.0)), scene, ONES, rng)
    assert path.terminal_kind is TerminalKind.ESCAPED
    assert rng.used == 4  # roulette, lobe pick, u1, u2
    assert path.vertices[0].tag is LobeTag.DIFFUSE


def test_roulette_compensation_in_both_passes():
    # absorb = 0.5 doubles the reflected radiance and the transported adjoint
    em = Material.emitter("light", emission=Binding.ctl(2), base_emission=1.0)
    for absorb in (0.0, 0.5):
        lam = Material.lambert("mat", ambient=Binding.const(0.0),
                               diffuse=Binding.ctl(1), absorb=absorb)
        scene = _mini_scene(
            [lam, em],
            [_floor(0), Quad(Vec3(-5, -5, 4), Vec3(10, 0, 0), Vec3(0, 10, 0),
                             material=1)])
        theta = ControlVector.of(0.5, 2.0, 1, 1, 1, 1, 1)
        # survive roulette, bounce straight up via u1 ~ 1 (near-normal lobe),
        # then terminate on the emitter
        rng = ScriptedStream([absorb + 0.1, 1.0 - 1e-12, 0.125, 0.0])
        path = make_path(Ray(Vec3(0, 0, 1), Vec3(0, 0, -1.0)), scene, theta, rng)
        assert path.terminal_kind is TerminalKind.EMITTER
        assert len(path.vertices) == 2
        w = 1.0 / (1.0 - absorb)
        # L = diffuse * w * emission * base / 1.0
        assert_allclose(forward_pass(path, theta), 0.5 * w * 2.0, rtol=1e-14)
        grad = backward_pass(path, 1.0, theta)
        assert_allclose(grad.control(1), 2.0 * w, rtol=1e-14)
        assert_allclose(grad.control(2), 0.5 * w, rtol=1e-14)


# ---------------------------------------------------------------------------
# frozen-path finite differences on the built-in box
# ---------------------------------------------------------------------------

def _frozen_cost(path, theta, target):
    return 0.5 * (forward_pass(path, theta) - target) ** 2


def test_frozen_path_fd_matches_backward():
    scene, theta = build_cornell_box(32, 32)
    target = 0.3
    checked = 0
    for pixel in (32 * 16 + 16, 32 * 8 + 10, 32 * 24 + 20, 32 * 4 + 28):
        path = trace_pixel_sample(scene, theta, pixel, 0, seed=3)
        radiance = forward_pass(path, theta)
        grad = backward_pass(path, radiance - target, theta)
        for k in range(1, N_CONTROLS + 1):
            g = grad.control(k)
            if abs(g) <= 1e-9:
                continue
            eps = 1e-5 * max(1.0, abs(theta.control(k)))
            j_plus = _frozen_cost(path, theta.with_control(
                k, theta.control(k) + eps), target)
            j_minus = _frozen_cost(path, theta.with_control(
                k, theta.control(k) - eps), target)
            fd = (j_plus - j_minus) / (2.0 * eps)
            assert_allclose(g, fd, rtol=1e-5, atol=1e-9)
            checked += 1
    assert checked >= 8  # the pixel set must exercise several controls


# ---------------------------------------------------------------------------
# pixel-sample replay
# ---------------------------------------------------------------------------

def test_trace_pixel_sample_replays_identically():
    scene, theta = build_cornell_box(32, 32)
    pixel = 32 * 16 + 16
    a = trace_pixel_sample(scene, theta, pixel, 0, seed=42)
    b = trace_pixel_sample(scene, theta, pixel, 0, seed=42)
    assert a.terminal_kind is b.terminal_kind
    assert len(a.vertices) == len(b.vertices)
    for va, vb in zip(a.vertices, b.vertices):
        assert va.material.name == vb.material.name
        assert (va.u1, va.u2) == (vb.u1, vb.u2)
        assert va.hit.point.x == vb.hit.point.x
    assert forward_pass(a, theta) == forward_pass(b, theta)


def test_depth_below_one_raises():
    # a path has at least one vertex; the image API rejects depth 0 alike
    scene, theta = build_cornell_box(4, 4)
    with pytest.raises(ValueError, match="max_depth must be >= 1"):
        trace_pixel_sample(scene, theta, 5, 0, seed=1, max_depth=0)
    with pytest.raises(ValueError, match="max_depth must be >= 1"):
        make_path(Ray(Vec3(0, 0, 1), Vec3(0, 0, -1.0)),
                  _mini_scene([], [_floor()]), ONES, ScriptedStream([]), max_depth=0)


def test_trace_pixel_sample_decorrelates_across_samples():
    scene, theta = build_cornell_box(32, 32)
    pixel = 32 * 16 + 16
    a = trace_pixel_sample(scene, theta, pixel, 0, seed=42)
    c = trace_pixel_sample(scene, theta, pixel, 1, seed=42)
    pa, pc = a.vertices[0].hit.point, c.vertices[0].hit.point
    assert (pa.x, pa.y, pa.z) != (pc.x, pc.y, pc.z)  # jitter differs


def test_cost_and_adjoint_quadratic():
    cost, seed = cost_and_adjoint(3.0, 1.0)
    assert (cost, seed) == (2.0, 2.0)
    assert cost_and_adjoint(1.5, 1.5) == (0.0, 0.0)


def test_continuation_count_by_kind():
    assert Path([], TerminalKind.ESCAPED).continuation_count == 0
    assert Path([], TerminalKind.ABSORBED).continuation_count == 0
    scene, theta = build_cornell_box(32, 32)
    path = trace_pixel_sample(scene, theta, 32 * 16 + 16, 0, seed=42)
    if path.terminal_kind is TerminalKind.ESCAPED:
        assert path.continuation_count == len(path.vertices)
    else:
        assert path.continuation_count == len(path.vertices) - 1
