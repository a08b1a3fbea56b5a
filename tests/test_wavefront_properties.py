"""Property tests: on random small scenes the vectorized tracer matches the
scalar engine draw for draw, including lanes that escape, end below the
horizon or hit the depth cap at different depths; on random frozen records
the shipped adjoint sweep matches central differences of the forward one."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from pathgrad import _wavefront  # noqa: E402
from pathgrad.geometry import Quad, Sphere, Vec3  # noqa: E402
from pathgrad.materials import (Binding, ControlVector, LobeTag, Material,  # noqa: E402
                                N_CONTROLS)
from pathgrad.path_engine import trace_image, trace_pixel_sample  # noqa: E402
from pathgrad.scene_io import Camera, ScalarImage, Scene  # noqa: E402
from test_wavefront import _scalar_reference  # noqa: E402

PROPERTY = settings(derandomize=True, deadline=None, max_examples=200)

UNIT = st.floats(min_value=-1.0, max_value=1.0)
ABSORB = st.floats(min_value=0.1, max_value=0.9)
WALL = 6.0  # half size of the optional enclosing box; the camera sits inside it


def _vec(draw, scale=1.0):
    return Vec3(draw(UNIT) * scale, draw(UNIT) * scale, draw(UNIT) * scale)


def _box(mat):
    lo, size = -WALL, 2.0 * WALL
    x, y, z = Vec3(size, 0, 0), Vec3(0, size, 0), Vec3(0, 0, size)
    return [Quad(Vec3(lo, lo, lo), x, z, mat), Quad(Vec3(lo, -lo, lo), x, z, mat),
            Quad(Vec3(lo, lo, lo), x, y, mat), Quad(Vec3(lo, lo, -lo), x, y, mat),
            Quad(Vec3(lo, lo, lo), y, z, mat), Quad(Vec3(-lo, lo, lo), y, z, mat)]


def _materials(draw):
    """One material of every kind, bound to the seven controls like the box."""
    return [
        Material.emitter("lamp", Binding.ctl(1), draw(st.floats(1.0, 20.0))),
        Material.phong_blinn("gloss", Binding.ctl(2), Binding.ctl(3), Binding.ctl(4),
                             Binding.ctl(5), draw(ABSORB)),
        Material.lambert("matte", Binding.ctl(6), Binding.ctl(7), draw(ABSORB)),
    ]


@st.composite
def cases(draw):
    """(scene, theta, spp, seed, max_depth) for a small random scene."""
    materials = _materials(draw)
    theta = ControlVector((draw(st.floats(0.5, 2.0)), draw(st.floats(0.0, 0.3)),
                           draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0)),
                           draw(st.floats(0.0, 200.0)), draw(st.floats(0.0, 0.3)),
                           draw(st.floats(0.0, 1.0))))
    primitives = []
    for _ in range(draw(st.integers(1, 4))):
        mat = draw(st.integers(0, len(materials) - 1))
        if draw(st.booleans()):
            u, v = _vec(draw, 2.0), _vec(draw, 2.0)
            n = u.cross(v)
            assume(n.dot(n) > 1e-3)
            primitives.append(Quad(_vec(draw), u, v, mat))
        else:
            primitives.append(Sphere(_vec(draw), draw(st.floats(0.1, 0.8)), mat))
    if draw(st.integers(0, 2)) == 0:  # most scenes stay open to the sky
        primitives += _box(draw(st.integers(0, len(materials) - 1)))
    direction = _vec(draw)
    assume(direction.norm() > 0.3)
    eye = direction.normalized() * draw(st.floats(2.5, 5.0))
    try:
        camera = Camera(eye, _vec(draw, 0.5), Vec3(0, 1, 0), draw(st.floats(30.0, 90.0)),
                        draw(st.integers(2, 5)), draw(st.integers(2, 5)))
    except ValueError:
        assume(False)
    return (Scene(camera, materials, primitives, theta), theta, draw(st.integers(1, 2)),
            draw(st.integers(0, 2**31 - 1)), draw(st.integers(1, 6)))


@PROPERTY
@given(cases())
def test_random_scenes_match_scalar_engine_draw_for_draw(case):
    scene, theta, spp, seed, max_depth = case
    w, h = scene.camera.width, scene.camera.height
    target = ScalarImage(w, h, np.full((h, w), 0.25, dtype=np.float32))
    out = trace_image(scene, theta, spp=spp, seed=seed, target=target,
                      compute_gradients=True, max_depth=max_depth)
    mean32, cost, grad, _ = _scalar_reference(scene, theta, spp, seed, target,
                                              max_depth=max_depth)
    # same draws, same paths; only summation association differs
    assert_allclose(out.image.data.reshape(-1).astype(np.float64), mean32,
                    rtol=1e-6, atol=1e-9)  # float32 storage on both sides
    assert_allclose(out.cost, cost, rtol=1e-12)
    assert_allclose(out.grad.as_array(), grad, rtol=1e-12, atol=1e-15)
    vertices = sum(len(trace_pixel_sample(scene, theta, p, s, seed, max_depth).vertices)
                   for p in range(w * h) for s in range(spp))
    assert out.mean_depth == vertices / (w * h * spp)


@st.composite
def frozen_records(draw):
    """(materials, record, per-lane targets, theta) for random frozen paths.

    Continuation vertices sit on the glossy (either lobe) or the matte
    material; a path ends on the lamp or elsewhere.  u1 stays clear of 1,
    where the exponent derivative clamps the lobe sine.
    """
    materials = _materials(draw)
    n_cont = draw(st.lists(st.integers(0, 5), min_size=1, max_size=6))
    # per lane, (material id, tag, u1) of each continuation vertex
    vertices = [[(*draw(st.sampled_from([(1, LobeTag.SPECULAR), (1, LobeTag.DIFFUSE),
                                         (2, LobeTag.LAMBERT_ONLY)])),
                  draw(st.floats(0.01, 0.95))) for _ in range(n)] for n in n_cont]
    ids = _wavefront._id_dtype(len(materials))
    rows = []
    for d in range(max(n_cont)):
        lanes = np.array([lane for lane, n in enumerate(n_cont) if n > d])
        mat, tag, u1 = (np.array(c) for c in zip(*(vertices[lane][d] for lane in lanes)))
        rows.append(_wavefront._lobe_groups(lanes, mat.astype(ids), tag, u1))
    emitters = np.flatnonzero([draw(st.sampled_from([0, -1])) == 0 for _ in n_cont])
    record = _wavefront.PathRecord(len(n_cont), rows, emitters,
                                   np.zeros(emitters.size, dtype=ids))
    targets = np.array([draw(st.floats(0.0, 1.0)) for _ in n_cont])
    theta = ControlVector((draw(st.floats(0.5, 2.0)), draw(st.floats(0.0, 0.3)),
                           draw(st.floats(0.1, 1.0)), draw(st.floats(0.1, 1.0)),
                           draw(st.floats(1.0, 200.0)), draw(st.floats(0.0, 0.3)),
                           draw(st.floats(0.1, 1.0))))
    return materials, record, targets, theta


@settings(PROPERTY, max_examples=60)
@given(frozen_records())
def test_adjoint_sweep_matches_central_differences_on_frozen_records(case):
    materials, record, targets, theta = case

    def cost(t):
        radiance, cache = _wavefront.forward(record, _wavefront.material_table(materials, t))
        return 0.5 * float(np.sum((radiance - targets) ** 2)), radiance - targets, cache

    _, resid, cache = cost(theta)
    grad = _wavefront.backward(record, cache, resid).sum(axis=1)
    fd = np.empty(N_CONTROLS)
    for k in range(1, N_CONTROLS + 1):
        h = 1e-6 * max(1.0, abs(theta.control(k)))
        up = cost(theta.with_control(k, theta.control(k) + h))[0]
        down = cost(theta.with_control(k, theta.control(k) - h))[0]
        fd[k - 1] = (up - down) / (2.0 * h)
    assert_allclose(fd, grad, rtol=1e-5, atol=1e-7 * float(np.max(np.abs(grad))) + 1e-12)
