"""Vectorized tracer vs the scalar engine, draw for draw."""

import multiprocessing
import os
import signal
import tracemalloc
from types import SimpleNamespace

import numpy as np
from numpy.testing import assert_allclose
import pytest

from pathgrad import _wavefront
from pathgrad.geometry import (FRAME_DEGENERATE_EPS, FRAME_HELPER, T_MIN, Quad, Ray, Sphere,
                               Vec3, intersect_scene, make_frame)
from pathgrad.materials import GradientVector, LobeTag, N_CONTROLS
from pathgrad.optimizer import DivergenceError, OptimConfig, optimize
from pathgrad.path_engine import (TerminalKind, backward_pass, forward_pass,
                                  trace_image, trace_pixel_sample)
from pathgrad.sampling import _MASK64, _mix64, stream_key, uniform
from pathgrad.scene_io import ScalarImage, build_cornell_box, parse_scene

# sphere, floor and lamp under an open sky: many lanes escape
OPEN_SCENE = """\
camera eye 0 150 -500 look 0 80 0 up 0 1 0 fov 60 res 12 12
material lamp emitter emission @1 base 15.0 absorb 1.0
material floor lambert ambient @6 diffuse @7 absorb 0.3
material ball phong ambient @2 diffuse @3 specular @4 exponent @5 absorb 0.3
quad p -400 0 -400 u 800 0 0 v 0 0 800 mat floor
quad p -100 400 -100 u 200 0 0 v 0 0 200 mat lamp
sphere c 0 80 0 r 80 mat ball
theta 1.0 0.1 0.6 0.4 20.0 0.1 0.7
"""


def _open_scene():
    scene = parse_scene(OPEN_SCENE)
    return scene, scene.theta


def test_mix64_vector_matches_scalar():
    # the one splitmix64 implementation wraps uint64 lanes like 64-bit ints
    values = [0, 1, 2, 0x9E3779B97F4A7C15, 2**63, 2**64 - 1, 42]
    rng = np.random.default_rng(5)
    values += [int(v) for v in rng.integers(0, 2**63, size=50)]
    batch = _mix64(np.array(values, dtype=np.uint64))
    assert batch.dtype == np.uint64
    for v, got in zip(values, batch):
        assert int(got) == _mix64(v & _MASK64)


def test_stream_keys_match_scalar():
    pixels = np.array([0, 1, 17, 255, 65535], dtype=np.uint64)
    samples = np.array([0, 3, 1, 0, 7], dtype=np.uint64)
    keys = stream_key(42, pixels, samples)
    assert keys.dtype == np.uint64
    for p, s, got in zip(pixels, samples, keys):
        assert int(got) == stream_key(42, int(p), int(s))
    counters = np.array([1, 2, 9, 1, 2**40], dtype=np.uint64)
    draws = uniform(keys, counters)
    for k, c, got in zip(keys, counters, draws):
        assert got == uniform(int(k), int(c))


def _unit(*v):
    v = np.array(v, dtype=np.float64)
    return tuple(v / np.sqrt(v @ v))


def _square(z, material):
    """The 2x2 square x, y in [-1, 1] at height z; edge coordinates a = (x+1)/2, b = (y+1)/2."""
    return Quad(Vec3(-1, -1, z), Vec3(2, 0, 0), Vec3(0, 2, 0), material)


_EDGE_XY = [(x, y) for x in (-1.0, 0.0, 1.0) for y in (-1.0, 0.0, 1.0)]
_OUTSIDE_XY = [(1.0 + 2.0**-51, 0.0), (0.0, -1.0 - 2.0**-52)]  # an edge coordinate just past 1 / 0

# (primitives, rays as (origin, direction)) the nearest-hit search must get
# right ray by ray; a primitive's material is its index, so the scalar hit's
# material_id names the primitive it hit
_HIT_CASES = {
    "coincident quads": ([_square(1.0, 0), _square(1.0, 1)],
                         [((0, 0, 0), d) for d in [(0, 0, 1), _unit(0.3, 0.2, 1), (0, 0, -1)]]),
    "parallel in plane": ([_square(1.0, 0)],
                          [((0, 0, 1), d) for d in [(1, 0, 0), (0, 1, 0), (0.6, 0.8, 0),
                                                    (0, 0, 1)]]),
    "parallel off plane": ([_square(0.01, 0)],
                           [((0, 0, 0), d) for d in [(1, 0, 0), (0, -1, 0), (0, 0, 1)]]),
    "tangent sphere": ([Sphere(Vec3(0, 0, 5), 1.0, 0)],
                       [((1, 0, 0), d) for d in [(0, 0, 1), (0, 0, -1), (1, 0, 0)]]),
    "origin inside sphere": ([Sphere(Vec3(0, 0, 0), 2.0, 0)],
                             [((0, 0, 0), d) for d in [(0, 0, 1), (1, 0, 0),
                                                       _unit(1, 1, 1)]]),
    "origin on sphere": ([Sphere(Vec3(0, 0, 1), 1.0, 0)],
                         [((0, 0, 0), d) for d in [(0, 0, 1), (0, 0, -1), _unit(0, 1, 1)]]),
    "hits at and below T_MIN": ([_square(T_MIN / 2, 0), _square(T_MIN, 1),
                                 _square(2 * T_MIN, 2)],
                                [((0, 0, 0), (0, 0, 1))]),
    # centre and radius picked so that the near root rounds to T_MIN exactly
    "sphere root at T_MIN": ([Sphere(Vec3(0, 0, 0.00019999999999999963),
                                     9.999999999999961e-05, 0)],
                             [((0, 0, 0), (0, 0, 1))]),
    "edges and corners": ([_square(1.0, 0)],
                          [((x, y, 0), (0, 0, 1)) for x, y in _EDGE_XY + _OUTSIDE_XY]),
    "corners from one origin": ([_square(1.0, 0), Sphere(Vec3(3, 0, 2), 1.0, 1)],
                                [((0, 0, 0), _unit(x, y, 1)) for x, y in _EDGE_XY]
                                + [((0, 0, 0), _unit(3, 0, 2)), ((0, 0, 0), _unit(2, 3, 2))]),
}


def _reference_hits(prims, rays):
    scene = SimpleNamespace(primitives=prims)
    hits = [intersect_scene(Ray(Vec3(*o), Vec3(*d)), scene) for o, d in rays]
    return (np.array([np.inf if h is None else h.t for h in hits]),
            np.array([-1 if h is None else h.material_id for h in hits]))


def _check_nearest_hits(prims, rays):
    """_nearest_hits matches intersect_scene exactly, with per-ray and shared origins."""
    flat = _wavefront._flat_prims(SimpleNamespace(primitives=prims))
    O = np.array([o for o, _ in rays], dtype=np.float64)
    D = np.array([d for _, d in rays], dtype=np.float64)
    t, prim = _wavefront._nearest_hits(flat, tuple(O.T.copy()), *D.T.copy())
    want_t, want_prim = _reference_hits(prims, rays)
    assert np.array_equal(t, want_t)
    assert np.array_equal(prim, want_prim)
    if np.all(O == O[0]):
        shared_t, shared_prim = _wavefront._nearest_hits(flat, tuple(O[0].tolist()),
                                                         *D.T.copy())
        assert np.array_equal(shared_t, t) and np.array_equal(shared_prim, prim)
    return t, prim


@pytest.mark.parametrize("case", list(_HIT_CASES))
def test_nearest_hits_match_scalar_intersection(case):
    prims, rays = _HIT_CASES[case]
    t, prim = _check_nearest_hits(prims, rays)
    # each case reaches the boundary it is named after
    expected = {
        "coincident quads": ([1.0, None, np.inf], [0, 0, -1]),
        "parallel in plane": ([np.inf] * 4, [-1] * 4),
        "parallel off plane": ([np.inf, np.inf, 0.01], [-1, -1, 0]),
        "tangent sphere": ([5.0, np.inf, np.inf], [0, -1, -1]),
        "origin inside sphere": ([2.0, 2.0, 2.0], [0, 0, 0]),
        "origin on sphere": ([2.0, np.inf, None], [0, -1, 0]),
        "hits at and below T_MIN": ([2 * T_MIN], [2]),
        "sphere root at T_MIN": ([0.00029999999999999927], [0]),
        "edges and corners": ([1.0] * 9 + [np.inf] * 2, [0] * 9 + [-1] * 2),
        "corners from one origin": ([None] * 11, [0] * 9 + [1, -1]),
    }[case]
    for got, want in zip(t, expected[0]):
        if want is not None:
            assert got == want
    assert prim.tolist() == expected[1]


def test_nearest_hits_match_scalar_intersection_on_random_rays():
    rng = np.random.default_rng(8)
    prims = []
    for i in range(6):
        c = Vec3(*rng.uniform(-3, 3, 3))
        if i % 2:
            prims.append(Sphere(c, float(rng.uniform(0.3, 1.5)), i))
        else:
            prims.append(Quad(c, Vec3(*rng.uniform(-2, 2, 3)), Vec3(*rng.uniform(-2, 2, 3)), i))
    dirs = rng.normal(size=(400, 3))
    dirs /= np.sqrt((dirs * dirs).sum(axis=1))[:, None]
    eye = tuple(rng.uniform(-4, 4, 3))
    _, shared = _check_nearest_hits(prims, [(eye, tuple(d)) for d in dirs])
    origins = rng.uniform(-4, 4, size=(400, 3))
    _, own = _check_nearest_hits(prims, [(tuple(o), tuple(d)) for o, d in zip(origins, dirs)])
    assert len(set(shared.tolist())) > 3 and len(set(own.tolist())) > 3


def test_column_frames_match_make_frame_on_the_degenerate_fallback_too():
    h = Vec3(*FRAME_HELPER).normalized()
    rng = np.random.default_rng(3)
    normals = [h, -h] + [Vec3(*v).normalized() for v in rng.standard_normal((200, 3))]
    # +-h are (anti)parallel to the helper offset, so make_frame falls back there only
    fallback = [n.cross(n + Vec3(*FRAME_HELPER)).norm() < FRAME_DEGENERATE_EPS
                for n in normals]
    assert fallback[:2] == [True, True] and not any(fallback[2:])
    x, y = _wavefront._frames([np.array([getattr(n, c) for n in normals]) for c in "xyz"])
    for i, n in enumerate(normals):
        f = make_frame(n)
        assert (x[0][i], x[1][i], x[2][i]) == f.x_axis.as_tuple()
        assert (y[0][i], y[1][i], y[2][i]) == f.y_axis.as_tuple()


def _scalar_reference(scene, theta, spp, seed, target, max_depth=16):
    """Per-path scalar replay of the exact cost/gradient trace_image computes."""
    cam = scene.camera
    npix = cam.width * cam.height
    sums = np.zeros(npix)
    paths = []
    kinds = set()
    for pixel in range(npix):
        per_pixel = []
        for s in range(spp):
            path = trace_pixel_sample(scene, theta, pixel, s, seed,
                                      max_depth=max_depth)
            per_pixel.append(path)
            kinds.add(path.terminal_kind)
            sums[pixel] += forward_pass(path, theta)
        paths.append(per_pixel)
    # image pixels are stored float32, so the cost quantizes the means first
    mean32 = (sums / spp).astype(np.float32).astype(np.float64)
    resid = mean32 - target.data.astype(np.float64).reshape(-1)
    cost = float(0.5 * (resid @ resid))
    grad = GradientVector()
    for pixel in range(npix):
        for path in paths[pixel]:
            forward_pass(path, theta)
            backward_pass(path, resid[pixel] / spp, theta, grad)
    return mean32, cost, grad.as_array(), kinds


@pytest.mark.parametrize("make_scene", [lambda: build_cornell_box(12, 12),
                                        _open_scene], ids=["cornell", "open"])
def test_batch_matches_scalar_engine(make_scene):
    scene, theta = make_scene()
    spp, seed = 2, 9
    target = ScalarImage(12, 12, np.full((12, 12), 0.25, dtype=np.float32))
    out = trace_image(scene, theta, spp=spp, seed=seed, target=target,
                      compute_gradients=True)
    mean32, cost, grad, kinds = _scalar_reference(scene, theta, spp, seed, target)
    assert (TerminalKind.ESCAPED in kinds) == (make_scene is _open_scene)
    # same draws, same paths; only summation association differs
    assert_allclose(out.image.data.reshape(-1).astype(np.float64), mean32,
                    rtol=1e-6, atol=1e-9)  # float32 storage on both sides
    assert_allclose(out.cost, cost, rtol=1e-12)
    assert_allclose(out.grad.as_array(), grad, rtol=1e-12, atol=1e-15)
    assert out.sample_count == 12 * 12 * spp


def test_batch_image_bitwise_stable_per_pixel():
    # per-pixel values must not depend on how many pixels render alongside
    scene, theta = build_cornell_box(8, 8)
    full = trace_image(scene, theta, spp=3, seed=11)
    half_scene, _ = build_cornell_box(8, 8)
    again = trace_image(half_scene, theta, spp=3, seed=11)
    assert np.array_equal(full.image.data, again.image.data)


def test_thread_count_does_not_change_pixels():
    scene, theta = build_cornell_box(16, 16)
    target = trace_image(scene, theta, spp=2, seed=4).image
    one = trace_image(scene, theta, spp=2, seed=4, target=target,
                      compute_gradients=True, threads=1)
    four = trace_image(scene, theta, spp=2, seed=4, target=target,
                       compute_gradients=True, threads=4)
    assert np.array_equal(one.image.data, four.image.data)
    assert one.mean_depth == four.mean_depth
    # reductions merge in chunk order; only association differs
    assert_allclose(four.cost, one.cost, rtol=1e-12, atol=1e-18)
    assert_allclose(four.grad.as_array(), one.grad.as_array(),
                    rtol=1e-12, atol=1e-15)


def test_grad_images_decompose_total_gradient():
    scene, theta = build_cornell_box(12, 12)
    target = ScalarImage.zeros(12, 12)
    out = trace_image(scene, theta, spp=2, seed=6, target=target,
                      compute_gradients=True, want_grad_images=True)
    assert out.grad_images.shape == (N_CONTROLS, 12, 12)
    assert_allclose(out.grad_images.sum(axis=(1, 2)), out.grad.as_array(),
                    rtol=1e-10, atol=1e-15)


def test_self_target_gives_exact_zero_cost_and_gradient():
    scene, theta = build_cornell_box(16, 16)
    target = trace_image(scene, theta, spp=4, seed=42).image
    out = trace_image(scene, theta, spp=4, seed=42, target=target,
                      compute_gradients=True)
    assert out.cost == 0.0
    assert out.grad.as_tuple() == (0.0,) * N_CONTROLS


def test_trace_image_target_validation():
    scene, theta = build_cornell_box(8, 8)
    with pytest.raises(ValueError, match="requires a target"):
        trace_image(scene, theta, spp=1, seed=0, compute_gradients=True)
    with pytest.raises(ValueError, match="does not match"):
        trace_image(scene, theta, spp=1, seed=0,
                    target=ScalarImage.zeros(4, 4), compute_gradients=True)
    data = np.zeros((8, 8), dtype=np.float32)
    data[1, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        trace_image(scene, theta, spp=1, seed=0, target=ScalarImage(8, 8, data),
                    compute_gradients=True)


@pytest.mark.parametrize("name, value", [("spp", 0), ("spp", -2), ("max_depth", 0),
                                         ("threads", 0)])
def test_trace_image_rejects_counts_below_one(name, value):
    scene, theta = build_cornell_box(4, 4)
    with pytest.raises(ValueError, match=f"{name} must be >= 1, got {value}"):
        trace_image(scene, theta, **{"spp": 1, "seed": 0, name: value})


@pytest.mark.parametrize("control, value", [(1, np.nan), (7, np.inf), (5, -1.0)])
def test_trace_image_rejects_theta_outside_domain(control, value):
    # rejected whether or not a lane samples the bad binding (2x2x1: few do)
    scene, theta = build_cornell_box(2, 2)
    with pytest.raises(ValueError, match="must be finite"):
        trace_image(scene, theta.with_control(control, value), spp=1, seed=0)


def test_mean_depth_and_outputs_sane():
    scene, theta = build_cornell_box(8, 8)
    out = trace_image(scene, theta, spp=4, seed=0)
    assert 1.0 <= out.mean_depth <= 16.0  # closed box: every ray hits
    assert np.all(np.isfinite(out.image.data))
    assert np.all(out.image.data >= 0.0)
    assert out.cost == 0.0  # no target requested


def _lanes_record(scene, theta, spp, seed, max_depth):
    """trace_lanes on every (pixel, sample) lane of the image, pixel-major."""
    npix = scene.camera.width * scene.camera.height
    pix = np.repeat(np.arange(npix, dtype=np.int64), spp)
    smp = np.tile(np.arange(spp, dtype=np.int64), npix)
    mats = _wavefront.material_table(scene.materials, theta)
    return _wavefront.trace_lanes(_wavefront._flat_prims(scene), scene.camera, mats.kind,
                                  mats.absorb, mats.value["exponent"], seed, pix, smp,
                                  max_depth)


def test_camera_facing_away_escapes_every_lane_at_the_first_step():
    scene = parse_scene(OPEN_SCENE.replace("look 0 80 0", "look 0 150 -1000"))
    record, n_vertices = _lanes_record(scene, scene.theta, 2, 9, 16)
    assert n_vertices == 0
    assert record.n_lanes == 288 and record.rows == [] and record.emitters.size == 0
    target = ScalarImage(12, 12, np.full((12, 12), 0.25, dtype=np.float32))
    out = trace_image(scene, scene.theta, spp=2, seed=9, target=target,
                      compute_gradients=True)
    assert not out.image.data.any()
    assert out.mean_depth == 0.0
    assert out.grad.as_tuple() == (0.0,) * N_CONTROLS


@pytest.mark.parametrize("make_scene", [lambda: build_cornell_box(12, 12),
                                        _open_scene], ids=["cornell", "open"])
def test_depth_cap_of_one_matches_scalar_engine(make_scene):
    scene, theta = make_scene()
    target = ScalarImage(12, 12, np.full((12, 12), 0.25, dtype=np.float32))
    out = trace_image(scene, theta, spp=2, seed=9, target=target,
                      compute_gradients=True, max_depth=1)
    mean32, cost, grad, _ = _scalar_reference(scene, theta, 2, 9, target, max_depth=1)
    assert_allclose(out.image.data.reshape(-1).astype(np.float64), mean32,
                    rtol=1e-6, atol=1e-9)
    assert_allclose(out.cost, cost, rtol=1e-12)
    assert_allclose(out.grad.as_array(), grad, rtol=1e-12, atol=1e-15)
    assert 0.0 < out.mean_depth <= 1.0
    record, _ = _lanes_record(scene, theta, 2, 9, 1)
    assert record.rows == [] and record.emitters.size == 0


def test_lanes_ending_below_the_horizon_match_make_path_lane_by_lane():
    # a wide lobe (theta5 = 1) on the ball sends some specular samples under
    # the surface while neighbouring lanes bounce on
    scene, theta = _open_scene()
    theta = theta.with_control(5, 1.0)
    spp, seed = 2, 9
    record, _ = _lanes_record(scene, theta, spp, seed, 16)
    got = []  # per depth: lane -> (material id, tag, u1 or None)
    for row in record.rows:
        got.append({})
        for tag, lanes, mat, u1 in row:
            assert np.all(np.diff(lanes) > 0)
            for i, lane in enumerate(lanes.tolist()):
                assert lane not in got[-1]  # one vertex per lane and depth
                got[-1][lane] = (int(mat[i]), tag, None if u1 is None else float(u1[i]))
    want, emitters, below_at = [], {}, []
    for lane in range(record.n_lanes):
        path = trace_pixel_sample(scene, theta, lane // spp, lane % spp, seed)
        if path.terminal_kind is TerminalKind.EMITTER:
            emitters[lane] = path.vertices[-1].hit.material_id
        if path.terminal_kind is TerminalKind.BELOW_HORIZON:
            below_at.append(len(path.vertices) - 1)
        # continuation vertices only: a below-horizon vertex is in no row
        for d, v in enumerate(path.vertices[:path.continuation_count]):
            want += [{} for _ in range(d + 1 - len(want))]
            want[d][lane] = (v.hit.material_id, v.tag,
                             v.u1 if v.tag is LobeTag.SPECULAR else None)
    assert below_at and any(d < len(want) and want[d] for d in below_at)
    assert got == want
    assert np.all(np.diff(record.emitters) > 0)
    assert dict(zip(record.emitters.tolist(), record.emitter_mat.tolist())) == emitters


def _same_result(a, b):
    """Two TraceOutputs agree bit for bit."""
    assert a.image.data.tobytes() == b.image.data.tobytes()
    assert a.cost == b.cost and a.mean_depth == b.mean_depth
    assert a.grad.as_tuple() == b.grad.as_tuple()
    assert np.array_equal(a.grad_images, b.grad_images)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_session_replay_is_bit_identical_to_fresh_traces(threads):
    scene, theta = build_cornell_box(12, 10)
    rows = np.full((10, 12), 0.25)
    # theta7 leaves the paths alone; each theta5 change re-traces every chunk
    thetas = [theta, theta.with_control(7, 0.55), theta.with_control(5, 35.0), theta]
    expected_traces = [1, 1, 2, 3]
    with _wavefront.Session(scene, spp=2, seed=9, threads=threads, max_depth=16) as session:
        for t, traces in zip(thetas, expected_traces):
            got = session.evaluate(t, rows, want_grad=True, want_grad_images=True)
            fresh = _wavefront.trace(scene, t, 2, 9, rows, True, threads, 16, True)
            _same_result(got, fresh)
            assert session.traces == traces * threads


@pytest.mark.parametrize("free, retraces", [({7}, False), ({5}, True)])
def test_optimize_traces_again_only_when_an_exponent_moves(monkeypatch, free, retraces):
    scene, theta = build_cornell_box(8, 8)
    target = trace_image(scene, theta, spp=2, seed=3).image
    start = theta.with_control(7, 0.3).with_control(5, 35.0)
    config = OptimConfig(learning_rate=4e-5, n_iterations=4, spp=2, seed=3,
                         threads=2).with_frozen(start, free)
    sessions = []

    class Recording(_wavefront.Session):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sessions.append(self)

    monkeypatch.setattr(_wavefront, "Session", Recording)
    traj = optimize(scene, start, target, config)
    assert len(traj.records) == 5 and len(sessions) == 1
    assert len({r.theta[4] for r in traj.records}) == (5 if retraces else 1)
    assert sessions[0].traces == 2 * (len(traj.records) if retraces else 1)


@pytest.mark.parametrize("threads", [1, 2])
def test_optimize_renders_a_theta_target_in_its_own_session(monkeypatch, threads):
    scene, theta = build_cornell_box(8, 8)
    truth = theta.with_control(7, 0.7)
    start = theta.with_control(7, 0.3)
    config = OptimConfig(learning_rate=4e-5, n_iterations=3, spp=2, seed=3,
                         threads=threads).with_frozen(start, {7})
    image = trace_image(scene, truth, spp=2, seed=3, threads=threads).image
    want = optimize(scene, start, image, config).to_csv()
    sessions = []

    class Recording(_wavefront.Session):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sessions.append(self)

    monkeypatch.setattr(_wavefront, "Session", Recording)
    assert optimize(scene, start, truth, config).to_csv() == want
    # the target and every iterate share the exponents: one trace per chunk
    assert len(sessions) == 1 and sessions[0].traces == threads
    with pytest.raises(ValueError, match="must be finite"):
        optimize(scene, start, truth.with_control(1, np.nan), config)


@pytest.mark.parametrize("threads", [1, 2])
def test_session_checks_theta_on_a_cache_hit(threads):
    scene, theta = build_cornell_box(6, 6)
    rows = np.zeros((6, 6))
    with _wavefront.Session(scene, spp=1, seed=0, threads=threads, max_depth=16) as session:
        first = session.evaluate(theta, rows, True, False)
        # theta7 leaves the exponents, and so the cache key, as they were
        with pytest.raises(ValueError, match="must be finite"):
            session.evaluate(theta.with_control(7, np.nan), rows, True, False)
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            session.evaluate(theta.with_control(5, -1.0), rows, True, False)
        _same_result(session.evaluate(theta, rows, True, False), first)
        assert session.traces == threads


def test_no_worker_outlives_optimize():
    scene, theta = build_cornell_box(8, 8)
    target = trace_image(scene, theta, spp=2, seed=1).image
    config = OptimConfig(learning_rate=4e-5, n_iterations=2, spp=2, seed=1, threads=2)
    optimize(scene, theta.with_control(7, 0.3), target, config)
    assert multiprocessing.active_children() == []
    # an absurd target makes the first step overshoot into overflow
    huge = ScalarImage(8, 8, np.full((8, 8), 1e38, dtype=np.float32))
    config = OptimConfig(learning_rate=1.0, n_iterations=5, spp=2, seed=42, threads=2)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError):
            optimize(scene, theta, huge, config)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("threads", [1, 3])
def test_tiles_change_no_bit_and_replay_or_retrace_together(monkeypatch, threads):
    scene, theta = build_cornell_box(12, 10)
    rows = np.full((10, 12), 0.25)
    thetas = [theta, theta.with_control(7, 0.55), theta.with_control(5, 35.0)]
    with _wavefront.Session(scene, spp=3, seed=9, threads=threads, max_depth=16) as session:
        whole = [session.evaluate(t, rows, True, True) for t in thetas]
        assert all(len(chunk.tiles) == 1 for chunk in session._chunks)
    # 40 lanes hold 13 pixels of 3 samples: 10 tiles of one 120-pixel chunk,
    # the last of 3 pixels, or 4 per 40-pixel chunk, the last of 1
    monkeypatch.setattr(_wavefront, "TILE_LANES", 40)
    with _wavefront.Session(scene, spp=3, seed=9, threads=threads, max_depth=16) as session:
        sizes = [[t.stop - t.start for t in chunk.tiles] for chunk in session._chunks]
        last = 120 // threads - 13 * (len(sizes[0]) - 1)
        assert all(s == [13] * (len(s) - 1) + [last] for s in sizes) and 0 < last < 13
        records = []
        for t, want, traces in zip(thetas, whole, [1, 1, 2]):
            _same_result(session.evaluate(t, rows, True, True), want)
            # theta7 replays every tile, theta5 traces every tile again
            assert session.traces == traces * threads
            if threads == 1:  # the chunk lives in this process
                records.append([rec for rec, _ in session._chunks[0].traced])
    if threads == 1:
        assert all(a is b for a, b in zip(records[0], records[1]))
        assert not any(a is b for a, b in zip(records[1], records[2]))


def _transient_bytes(res):
    """tracemalloc peak minus what stays held, of one render evaluation at res^2 x 16."""
    # framed on the floor, so tiles at either size see alike sky, floor and ball: a
    # tile's transients follow how many of its lanes hit, and this compares sizes
    scene = parse_scene(OPEN_SCENE.replace("camera eye 0 150 -500 look 0 80 0",
                                           "camera eye 0 400 -300 look 0 0 0")
                        .replace("res 12 12", f"res {res} {res}"))
    with _wavefront.Session(scene, spp=16, seed=3, threads=1, max_depth=16) as session:
        tracemalloc.start()
        try:
            out = session.evaluate(scene.theta, None, False, False)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert 0.0 < out.mean_depth and np.any(out.image.data == 0.0)  # some lanes escape
    return peak - held


def test_transient_memory_does_not_grow_with_the_image():
    # 64^2 x 16 is one tile; 256^2 x 16 traces 16 tiles of it, keeping each record
    small, large = _transient_bytes(64), _transient_bytes(256)
    assert large <= 1.5 * small, (small, large)


def _record_bytes(record):
    arrays = [record.emitters, record.emitter_mat]
    arrays += [a for row in record.rows for _, lanes, mat, u1 in row for a in (lanes, mat, u1)
               if a is not None]
    return sum(a.nbytes for a in arrays)


def test_records_keep_only_what_the_sweeps_read():
    scene, theta = build_cornell_box(64, 64)
    with _wavefront.Session(scene, spp=16, seed=3, threads=1, max_depth=16) as session:
        session.evaluate(theta, np.full((64, 64), 0.25), True, False)
        records = [rec for rec, _ in session._chunks[0].traced]
    groups = [group for rec in records for row in rec.rows for group in row]
    assert {tag for tag, *_ in groups} == {LobeTag.LAMBERT_ONLY, LobeTag.DIFFUSE,
                                           LobeTag.SPECULAR}
    assert all((u1 is None) == (tag != LobeTag.SPECULAR) for tag, _, _, u1 in groups)
    # dense (depth x lanes) rows padded to the deepest path took 191 B per lane
    assert sum(map(_record_bytes, records)) / (64 * 64 * 16) <= 40.0


def test_a_worker_dying_in_an_evaluation_raises_a_named_error(monkeypatch):
    scene, theta = build_cornell_box(8, 8)
    rows = np.full((8, 8), 0.25)
    with _wavefront.Session(scene, spp=2, seed=9, threads=2, max_depth=16) as session:
        with monkeypatch.context() as patched:
            # the workers, forked at this evaluation, inherit the patch
            patched.setattr(_wavefront._Chunk, "evaluate", lambda *args: os._exit(3))
            with pytest.raises(ChildProcessError, match=r"exit code 3\b"):
                session.evaluate(theta, rows, True, True)
        assert multiprocessing.active_children() == []
        _same_result(session.evaluate(theta, rows, True, True),
                     _wavefront.trace(scene, theta, 2, 9, rows, True, 2, 16, True))
    assert multiprocessing.active_children() == []


def test_a_worker_killed_between_evaluations_raises_a_named_error():
    scene, theta = build_cornell_box(8, 8)
    rows = np.full((8, 8), 0.25)
    with _wavefront.Session(scene, spp=2, seed=9, threads=2, max_depth=16) as session:
        first = session.evaluate(theta, rows, True, True)
        worker = session._workers[0][0]
        os.kill(worker.pid, signal.SIGKILL)
        worker.join(timeout=10)
        assert not worker.is_alive()
        with pytest.raises(ChildProcessError, match=rf"worker 0 .*exit code {-signal.SIGKILL}\b"):
            session.evaluate(theta, rows, True, True)
        assert multiprocessing.active_children() == []
        _same_result(session.evaluate(theta, rows, True, True), first)
    assert multiprocessing.active_children() == []
