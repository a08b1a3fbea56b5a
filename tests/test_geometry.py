"""Primitive intersection, normal orientation, and tangent frames."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pathgrad.geometry import (FRAME_DEGENERATE_EPS, T_MIN, Quad, Ray, Sphere,
                               Vec3, intersect_quad, intersect_sphere,
                               intersect_scene, make_frame)
from pathgrad.scene_io import Scene


class _Prims:
    """Minimal stand-in: intersect_scene only touches .primitives."""

    def __init__(self, prims):
        self.primitives = prims


def test_vec3_algebra():
    a = Vec3(1.0, 2.0, 3.0)
    b = Vec3(-2.0, 0.5, 4.0)
    assert (a + b).as_tuple() == (-1.0, 2.5, 7.0)
    assert (a - b).as_tuple() == (3.0, 1.5, -1.0)
    assert (a * 2.0).as_tuple() == (2.0, 4.0, 6.0)
    assert (2.0 * a).as_tuple() == (2.0, 4.0, 6.0)
    assert (a / 2.0).as_tuple() == (0.5, 1.0, 1.5)
    assert (-a).as_tuple() == (-1.0, -2.0, -3.0)
    assert a.dot(b) == -2.0 + 1.0 + 12.0
    assert a.cross(b).as_tuple() == (2.0 * 4.0 - 3.0 * 0.5,
                                     3.0 * -2.0 - 1.0 * 4.0,
                                     1.0 * 0.5 - 2.0 * -2.0)
    assert_allclose(Vec3(3.0, 4.0, 0.0).norm(), 5.0, rtol=0)
    assert_allclose(Vec3(0.0, 0.0, 9.0).normalized().as_tuple(), (0, 0, 1))


def test_sphere_hit_front():
    ray = Ray(Vec3(0, 0, -5), Vec3(0, 0, 1))
    h = intersect_sphere(ray, Vec3(0, 0, 0), 1.0)
    assert h is not None
    assert_allclose(h.t, 4.0, rtol=1e-15)
    assert_allclose(h.point.as_tuple(), (0, 0, -1), atol=1e-12)
    # normal faces the ray origin
    assert h.normal.dot(ray.dir) < 0.0
    assert_allclose(h.normal.as_tuple(), (0, 0, -1), atol=1e-12)


def test_sphere_inside_takes_far_root():
    ray = Ray(Vec3(0, 0, 0), Vec3(0, 0, 1))
    h = intersect_sphere(ray, Vec3(0, 0, 0), 1.0)
    assert h is not None
    assert_allclose(h.t, 1.0, rtol=1e-15)
    # hit from inside: geometric normal points away from origin, flipped back
    assert h.normal.dot(ray.dir) < 0.0


def test_sphere_miss_and_behind():
    assert intersect_sphere(Ray(Vec3(0, 5, -5), Vec3(0, 0, 1)), Vec3(0, 0, 0), 1.0) is None
    assert intersect_sphere(Ray(Vec3(0, 0, 5), Vec3(0, 0, 1)), Vec3(0, 0, 0), 1.0) is None


def test_sphere_t_min_guard():
    # origin exactly on the surface: near root is ~0 and must be rejected
    ray = Ray(Vec3(0, 0, -1), Vec3(0, 0, 1))
    h = intersect_sphere(ray, Vec3(0, 0, 0), 1.0)
    assert h is not None
    assert_allclose(h.t, 2.0, rtol=1e-12)


def test_quad_hit_and_bounds():
    corner, eu, ev = Vec3(0, 0, 5), Vec3(2, 0, 0), Vec3(0, 3, 0)
    h = intersect_quad(Ray(Vec3(1, 1, 0), Vec3(0, 0, 1)), corner, eu, ev)
    assert h is not None
    assert_allclose(h.t, 5.0, rtol=1e-15)
    assert h.normal.dot(Vec3(0, 0, 1)) < 0.0
    # just outside each parallelogram edge
    for origin in (Vec3(-0.01, 1, 0), Vec3(2.01, 1, 0),
                   Vec3(1, -0.01, 0), Vec3(1, 3.01, 0)):
        assert intersect_quad(Ray(origin, Vec3(0, 0, 1)), corner, eu, ev) is None


def test_quad_parallel_ray():
    corner, eu, ev = Vec3(0, 0, 5), Vec3(1, 0, 0), Vec3(0, 1, 0)
    assert intersect_quad(Ray(Vec3(0, 0, 0), Vec3(1, 0, 0)), corner, eu, ev) is None


def test_quad_skewed_edges():
    # non-axis-aligned parallelogram still contains its center point
    corner, eu, ev = Vec3(1, 1, 4), Vec3(2, 1, 0), Vec3(-1, 2, 0)
    center = corner + eu * 0.5 + ev * 0.5
    ray = Ray(Vec3(center.x, center.y, 0), Vec3(0, 0, 1))
    h = intersect_quad(ray, corner, eu, ev)
    assert h is not None
    assert_allclose(h.point.as_tuple(), center.as_tuple(), atol=1e-12)


def test_intersect_scene_nearest_and_tie():
    far = Quad(Vec3(-5, -5, 10), Vec3(10, 0, 0), Vec3(0, 10, 0), material=0)
    near = Sphere(Vec3(0, 0, 5), 1.0, material=1)
    h = intersect_scene(Ray(Vec3(0, 0, 0), Vec3(0, 0, 1)), _Prims([far, near]))
    assert h.material_id == 1
    assert_allclose(h.t, 4.0, rtol=1e-14)
    # exact tie keeps the first-declared primitive
    a = Quad(Vec3(-1, -1, 3), Vec3(2, 0, 0), Vec3(0, 2, 0), material=7)
    b = Quad(Vec3(-1, -1, 3), Vec3(2, 0, 0), Vec3(0, 2, 0), material=8)
    h = intersect_scene(Ray(Vec3(0, 0, 0), Vec3(0, 0, 1)), _Prims([a, b]))
    assert h.material_id == 7


def test_intersect_scene_miss_returns_none():
    s = Scene(camera=None, materials=[], primitives=[])
    assert intersect_scene(Ray(Vec3(0, 0, 0), Vec3(0, 0, 1)), s) is None


def test_t_min_positive():
    assert 0.0 < T_MIN < 1e-2


def _check_frame(f):
    for v in (f.x_axis, f.y_axis, f.z_axis):
        assert_allclose(v.norm(), 1.0, rtol=1e-12)
    assert abs(f.x_axis.dot(f.y_axis)) < 1e-12
    assert abs(f.y_axis.dot(f.z_axis)) < 1e-12
    assert abs(f.z_axis.dot(f.x_axis)) < 1e-12
    # right-handed: x cross y == z
    assert_allclose(f.x_axis.cross(f.y_axis).as_tuple(), f.z_axis.as_tuple(),
                    atol=1e-12)


def test_make_frame_orthonormal_random():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = Vec3(*rng.standard_normal(3)).normalized()
        f = make_frame(n)
        assert f.z_axis == n
        _check_frame(f)


def test_make_frame_degenerate_fallback():
    # normal anti-parallel to the helper offset: z x (z + h) ~ 0
    n = Vec3(0.1, 0.2, 0.3).normalized()
    assert n.cross(n + Vec3(0.1, 0.2, 0.3)).norm() < FRAME_DEGENERATE_EPS
    for sign in (1.0, -1.0):
        f = make_frame(n * sign)
        _check_frame(f)


def test_frame_to_world_roundtrip():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = Vec3(*rng.standard_normal(3)).normalized()
        f = make_frame(n)
        a, b, c = rng.standard_normal(3)
        v = f.to_world(a, b, c)
        assert_allclose((v.dot(f.x_axis), v.dot(f.y_axis), v.dot(f.z_axis)),
                        (a, b, c), atol=1e-12)
