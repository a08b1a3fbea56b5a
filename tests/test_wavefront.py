"""Vectorized tracer vs the scalar engine, draw for draw."""

import numpy as np
from numpy.testing import assert_allclose
import pytest

from pathgrad.materials import GradientVector, N_CONTROLS
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
