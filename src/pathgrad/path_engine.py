"""Path construction plus the forward radiance and backward adjoint passes.

A path is built once per sample and then treated as frozen: the forward pass
walks it from the terminal vertex toward the camera accumulating radiance,
and the backward pass walks it in the opposite order transporting the cost
sensitivity (the adjoint) through the same per-vertex factors.  Because both
passes reuse the identical stored throughput factors, the backward gradient
is the exact derivative of the forward radiance as a function of the controls
with the geometry and uniforms held fixed.

Russian roulette uses one termination draw per vertex (u < absorb ends the
path; emitters have absorb = 1 so they always terminate) and the surviving
radiance is compensated by 1 / (1 - absorb) symmetrically in both passes.

This is the scalar reference engine, which tests hold the shipped tracer to
and dump-path prints.  _wavefront owns the PathRecord, the TraceOutput and the
target check; trace_image stays here as the entry point perfbench imports by
name, and loads _wavefront on its first call, not on `import pathgrad`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .geometry import Hit, Ray, intersect_scene
from .materials import (GradientVector, LobeTag, Material, MaterialKind, accumulate_gradients,
                        ambient_of, bsdf_d_pdf, emitted, roulette_weight, sample_direction)
from .sampling import RngStream

DEFAULT_MAX_DEPTH = 16


class TerminalKind(Enum):
    EMITTER = "emitter"            # roulette ended the path on a light
    ABSORBED = "absorbed"          # roulette ended the path on a reflector
    ESCAPED = "escaped"            # ray left the scene
    MAX_DEPTH = "max_depth"        # depth cap reached before sampling a bounce
    BELOW_HORIZON = "below_horizon"  # specular sample fell under the surface


@dataclass(slots=True)
class PathVertex:
    hit: Hit
    material: Material
    dir_in: object            # unit vector toward the previous vertex
    dir_out: object = None    # None on terminal vertices
    tag: LobeTag = LobeTag.NONE
    u1: float = 0.0
    u2: float = 0.0
    stored_radiance: float = 0.0  # downstream radiance set by forward_pass


@dataclass(slots=True)
class Path:
    vertices: list
    terminal_kind: TerminalKind

    @property
    def continuation_count(self):
        """Vertices with an outgoing direction (every vertex when escaped)."""
        n = len(self.vertices)
        if self.terminal_kind is TerminalKind.ESCAPED:
            return n
        return n - 1 if n else 0


def _check_at_least_one(**counts):
    for name, value in counts.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


def make_path(primary_ray, scene, theta, rng, max_depth=DEFAULT_MAX_DEPTH):
    """Trace a full light path starting at ``primary_ray``.

    Draw order per vertex: roulette draw first, then (for a surviving glossy
    vertex) the lobe pick, then u1, u2.  The vertex at the depth cap draws
    only roulette; it never samples a continuation, so every non-escaped
    path ends with a vertex that has no outgoing direction.
    """
    _check_at_least_one(max_depth=max_depth)
    vertices = []
    ray = primary_ray
    while True:
        hit = intersect_scene(ray, scene)
        if hit is None:
            return Path(vertices, TerminalKind.ESCAPED)
        material = scene.materials[hit.material_id]
        dir_in = -ray.dir
        u_rr = rng.next()
        if u_rr < material.absorb:
            vertices.append(PathVertex(hit, material, dir_in))
            kind = (TerminalKind.EMITTER if material.kind is MaterialKind.EMITTER
                    else TerminalKind.ABSORBED)
            return Path(vertices, kind)
        if ray.depth + 1 >= max_depth:
            vertices.append(PathVertex(hit, material, dir_in))
            return Path(vertices, TerminalKind.MAX_DEPTH)
        dir_out, tag, u1, u2 = sample_direction(material, hit.normal, dir_in, rng, theta)
        if dir_out is None:
            vertices.append(PathVertex(hit, material, dir_in, None, tag, u1, u2))
            return Path(vertices, TerminalKind.BELOW_HORIZON)
        vertices.append(PathVertex(hit, material, dir_in, dir_out, tag, u1, u2))
        ray = Ray(hit.point, dir_out, ray.depth + 1)


def forward_pass(path, theta):
    """Radiance arriving at the camera along the frozen path.

    Terminal radiance is the emitter radiance on an emitter and zero
    otherwise; each continuation vertex k then applies
        L <- ambient_k + throughput_k * L * roulette_weight(absorb_k)
    while recording the pre-update L as its stored downstream radiance.
    """
    n_cont = path.continuation_count
    if path.terminal_kind is TerminalKind.EMITTER:
        radiance = emitted(path.vertices[-1].material, theta)
    else:
        radiance = 0.0
    for k in range(n_cont - 1, -1, -1):
        v = path.vertices[k]
        v.stored_radiance = radiance
        w = roulette_weight(v.material.absorb)
        f = bsdf_d_pdf(v.material, v.tag, v.u1, theta)
        radiance = ambient_of(v.material, theta) + f * radiance * w
    return radiance


def backward_pass(path, adjoint_seed, theta, grad=None):
    """Transport the cost sensitivity along the path and accumulate gradients.

    Requires forward_pass to have populated stored_radiance.  The adjoint
    starts at the camera-side seed and is multiplied by the same
    throughput * roulette factors the forward pass used, in reverse order;
    each vertex contributes through the rules in accumulate_gradients.
    """
    if grad is None:
        grad = GradientVector()
    p = adjoint_seed
    for k in range(path.continuation_count):
        v = path.vertices[k]
        w = roulette_weight(v.material.absorb)
        accumulate_gradients(v.material, v.tag, v.u1, v.stored_radiance * w, p, theta, grad)
        f = bsdf_d_pdf(v.material, v.tag, v.u1, theta)
        p = f * w * p
    if path.terminal_kind is TerminalKind.EMITTER:
        v = path.vertices[-1]
        accumulate_gradients(v.material, LobeTag.NONE, 0.0, 0.0, p, theta, grad)
    return grad


def cost_and_adjoint(radiance, target):
    """Quadratic cost of one radiance estimate and its adjoint seed."""
    diff = radiance - target
    return 0.5 * diff * diff, diff


def trace_pixel_sample(scene, theta, pixel_index, sample_index, seed,
                       max_depth=DEFAULT_MAX_DEPTH):
    """Re-traceable single sample: jitter draws come first from the stream."""
    rng = RngStream.for_sample(seed, pixel_index, sample_index)
    jx = rng.next()
    jy = rng.next()
    x = pixel_index % scene.camera.width
    y = pixel_index // scene.camera.width
    ray = scene.camera.generate_ray(x, y, jx, jy)
    return make_path(ray, scene, theta, rng, max_depth)


def trace_image(scene, theta, spp, seed, target=None, compute_gradients=False,
                threads=1, max_depth=DEFAULT_MAX_DEPTH, want_grad_images=False):
    """Render the scene; optionally differentiate a quadratic image cost.

    The image stores per-pixel mean radiance over spp jittered samples.  With
    gradients requested, each pixel contributes 0.5 * (mean - target)^2 to the
    cost and every sample's backward pass is seeded with the per-pixel
    adjoint (mean - target) / spp, the exact derivative of that cost with
    respect to the sample's radiance.  ``target`` is an image, or controls
    to render it from; the trace session resolves it (_wavefront.Session).
    ``threads`` caps the worker processes; no output bit depends on it.
    Returns a _wavefront.TraceOutput.  Raises ValueError for what Session,
    Session.target_rows or Session.evaluate reject.
    """
    from . import _wavefront

    return _wavefront.trace(scene, theta, spp, seed, target, compute_gradients,
                            threads, max_depth, want_grad_images)
