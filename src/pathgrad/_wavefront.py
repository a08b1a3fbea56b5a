"""Vectorized tracer and the radiance/adjoint sweeps, used by trace_image.

``trace_lanes`` traces all (pixel, sample) lanes of an image chunk in
lockstep with numpy into a ``PathRecord`` and is draw-for-draw equivalent
to the scalar engine in path_engine/make_path: every lane owns the same
keyed counter stream, and draws advance only on lanes that would draw in
the scalar code.  ``forward``/``backward`` sweep a record; validation
replays frozen scalar paths through them too.  Tests assert the equivalence
with the scalar engine.  Formulas on floats or arrays live once and are
called by both engines: the streams and the lobe height in sampling, the
per-vertex rules, roulette weight and emitter radiance in materials.  Only
the Vec3 geometry (intersection, frames, lobe directions) stays twinned
here on (N, 3) arrays; geometry says why.

Parallelism splits the pixel range into per-worker chunks merged in chunk
order, so per-pixel outputs never depend on the worker count and reductions
are bit-stable for a fixed count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .geometry import (FRAME_DEGENERATE_EPS, FRAME_HELPER,
                       FRAME_HELPER_FALLBACK, Sphere, T_MIN)
from .materials import (LobeTag, MaterialKind, N_CONTROLS, Q_LOBE, emission_partial,
                        emitter_radiance, roulette_weight, throughput, throughput_partials)
from .sampling import lobe_t, stream_key, uniform

_BINDINGS = ("emission", "ambient", "diffuse", "specular", "exponent")


@dataclass
class MaterialTable:
    """Per-material arrays resolved at one theta, indexed by material id."""

    materials: list
    kind: np.ndarray           # MaterialKind codes
    absorb: np.ndarray
    weight: np.ndarray         # roulette weight 1 / (1 - absorb), 0 for emitters
    base_emission: np.ndarray
    value: dict                # binding name -> resolved value per material
    control: dict              # binding name -> 0-based control index or -1


def material_table(materials, theta):
    """Resolve every material at theta, for all lanes of every sweep.

    Raises ValueError when a binding resolves to a non-finite value or an
    exponent to a negative one, whichever lanes would have sampled it.
    """
    def per_material(f, dtype=np.float64):
        return np.array([f(m) for m in materials], dtype=dtype)

    value = {n: per_material(lambda m: getattr(m, n).resolve(theta)) for n in _BINDINGS}
    for name, v in value.items():
        bad = ~np.isfinite(v) | ((v < 0.0) & (name == "exponent"))
        if np.any(bad):
            i = int(np.argmax(bad))
            need = "finite and >= 0" if name == "exponent" else "finite"
            raise ValueError(f"material {materials[i].name!r}: {name} must be {need}, "
                             f"got {v[i]}")
    absorb = per_material(lambda m: m.absorb)
    return MaterialTable(
        materials=list(materials), kind=per_material(lambda m: m.kind, np.int64),
        absorb=absorb, weight=roulette_weight(absorb),
        base_emission=per_material(lambda m: m.base_emission), value=value,
        control={n: per_material(lambda m: (getattr(m, n).control or 0) - 1, np.int64)
                 for n in _BINDINGS})


@dataclass
class PathRecord:
    """What the sweeps need of a set of paths, one lane per path.

    Row d of the per-depth arrays describes each lane's d-th continuation
    vertex (valid where d < n_cont): material id, LobeTag code and the u1
    that sampled the bounce.  Directions and hit points are not kept; the
    throughput depends only on those three.
    """

    materials: list        # Material per id
    n_cont: np.ndarray     # (lanes,) continuation vertices per path
    term_mat: np.ndarray   # (lanes,) id of the emitter the path ended on, or -1
    v_mat: np.ndarray      # (depth, lanes)
    v_tag: np.ndarray      # (depth, lanes)
    v_u1: np.ndarray       # (depth, lanes)


@dataclass
class SweepCache:
    """Forward-sweep values the backward sweep reuses, one entry per depth."""

    mats: MaterialTable
    lanes: list          # lanes with a continuation vertex at that depth
    radiance_in: list    # radiance each of their vertices reflects, unweighted
    throughput: list


def _v3(v):
    return np.array([v.x, v.y, v.z], dtype=np.float64)


def _flat_prims(scene):
    """("quad", corner, eu, ev, n, nn, unit_n, mat) / ("sphere", c, r, mat) tuples."""
    prims = []
    for p in scene.primitives:
        if isinstance(p, Sphere):
            prims.append(("sphere", _v3(p.center), float(p.radius), p.material))
        else:
            c, eu, ev = _v3(p.corner), _v3(p.edge_u), _v3(p.edge_v)
            n = np.cross(eu, ev)
            nn = float(n @ n)
            prims.append(("quad", c, eu, ev, n, nn, n / np.sqrt(nn), p.material))
    return prims


def _dot(a, b):
    return a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1] + a[:, 2] * b[:, 2]


def _dotv(a, v):
    """Row-wise dot with a fixed vector, same term order as Vec3.dot."""
    return a[:, 0] * v[0] + a[:, 1] * v[1] + a[:, 2] * v[2]


def _cross(a, b):
    out = np.empty_like(a)
    out[:, 0] = a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1]
    out[:, 1] = a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2]
    out[:, 2] = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    return out


class _Lanes:
    """Per-lane stream keys and counters; draw() advances only where mask is set."""

    def __init__(self, seed, pixels, samples):
        self.key = stream_key(seed, pixels.astype(np.uint64), samples.astype(np.uint64))
        self.counter = np.zeros(pixels.shape, dtype=np.uint64)

    def draw(self, mask):
        self.counter = self.counter + mask.astype(np.uint64)
        return uniform(self.key, self.counter)


def _make_frames(normal):
    """Vectorized twin of geometry.make_frame."""
    z = normal
    helper = np.array(FRAME_HELPER, dtype=np.float64)
    c = _cross(z, z + helper[None, :])
    cn = np.sqrt(_dot(c, c))
    degenerate = cn < FRAME_DEGENERATE_EPS
    if np.any(degenerate):
        helper2 = np.array(FRAME_HELPER_FALLBACK, dtype=np.float64)
        c2 = _cross(z[degenerate], z[degenerate] + helper2[None, :])
        c[degenerate] = c2
        cn[degenerate] = np.sqrt(_dot(c2, c2))
    # dead lanes carry zero normals; give them a harmless unit divisor
    y = c / np.where(cn > 0.0, cn, 1.0)[:, None]
    x = _cross(y, z)
    xn = np.sqrt(_dot(x, x))
    x = x / np.where(xn > 0.0, xn, 1.0)[:, None]
    return x, y, z


def trace_lanes(prims, cam, mats, seed, pix, smp, max_depth):
    """Trace one lane per (pixel, sample); returns (PathRecord, vertex count).

    Mirrors make_path exactly, draw for draw.
    """
    n_lanes = pix.shape[0]
    lanes = _Lanes(seed, pix, smp)
    W, H = cam.width, cam.height
    all_mask = np.ones(n_lanes, dtype=bool)
    jx = lanes.draw(all_mask)
    jy = lanes.draw(all_mask)
    px = (pix % W).astype(np.float64)
    py = (pix // W).astype(np.float64)
    sx = (px + jx) / W * 2.0 - 1.0
    sy = 1.0 - (py + jy) / H * 2.0
    D = (_v3(cam.forward)[None, :]
         + _v3(cam.right)[None, :] * (sx * cam.half_w)[:, None]
         + _v3(cam.upv)[None, :] * (sy * cam.half_h)[:, None])
    D = D / np.sqrt(_dot(D, D))[:, None]
    O = np.broadcast_to(_v3(cam.eye), (n_lanes, 3)).copy()

    active = all_mask
    n_vertices = 0
    n_cont = np.zeros(n_lanes, dtype=np.int32)
    term_mat = np.full(n_lanes, -1, dtype=np.int64)
    v_mat = np.full((max_depth, n_lanes), -1, dtype=np.int64)
    v_tag = np.full((max_depth, n_lanes), LobeTag.NONE, dtype=np.int8)
    v_u1 = np.zeros((max_depth, n_lanes), dtype=np.float64)

    for d in range(max_depth):
        if not np.any(active):
            break
        best_t = np.full(n_lanes, np.inf)
        best_prim = np.full(n_lanes, -1, dtype=np.int64)
        for i, prim in enumerate(prims):
            if prim[0] == "sphere":
                _, c, r, _m = prim
                oc = O - c[None, :]
                b = _dot(oc, D)
                cq = _dot(oc, oc) - r * r
                disc = b * b - cq
                ok = active & (disc >= 0.0)
                s = np.sqrt(np.where(ok, disc, 0.0))
                t1 = -b - s
                t2 = -b + s
                t = np.where(t1 > T_MIN, t1, t2)
                ok &= t > T_MIN
            else:
                _, corner, eu, ev, nrm, nn, _un, _m = prim
                denom = _dotv(D, nrm)
                ok = active & (denom != 0.0)
                t = _dotv(corner[None, :] - O, nrm) / np.where(ok, denom, 1.0)
                ok &= t > T_MIN
                P = O + t[:, None] * D
                w = P - corner[None, :]
                a = _dotv(_cross(w, np.broadcast_to(ev, w.shape)), nrm) / nn
                bq = _dotv(_cross(np.broadcast_to(eu, w.shape), w), nrm) / nn
                ok &= (a >= 0.0) & (a <= 1.0) & (bq >= 0.0) & (bq <= 1.0)
            upd = ok & (t < best_t)
            best_t[upd] = t[upd]
            best_prim[upd] = i

        hit = active & (best_prim >= 0)  # the others escaped
        if not np.any(hit):
            break

        point = O + best_t[:, None] * D
        normal = np.zeros((n_lanes, 3))
        mat = np.full(n_lanes, -1, dtype=np.int64)
        for i, prim in enumerate(prims):
            sel = hit & (best_prim == i)
            if not np.any(sel):
                continue
            if prim[0] == "sphere":
                _, c, r, m = prim
                normal[sel] = (point[sel] - c[None, :]) / r
            else:
                m = prim[7]
                normal[sel] = prim[6][None, :]
            mat[sel] = m
        flip = hit & (_dot(normal, D) > 0.0)
        normal[flip] = -normal[flip]
        n_vertices += int(np.count_nonzero(hit))

        u_rr = lanes.draw(hit)
        terminal = hit & (u_rr < mats.absorb[np.where(hit, mat, 0)])
        is_em = terminal & (mats.kind[np.where(terminal, mat, 0)] == MaterialKind.EMITTER)
        term_mat[is_em] = mat[is_em]

        surviving = hit & ~terminal
        if d + 1 >= max_depth or not np.any(surviving):
            break  # the rest end here, at the depth cap or by roulette

        is_phong = surviving & (mats.kind[np.where(surviving, mat, 0)] == MaterialKind.PHONG)
        u_lobe = lanes.draw(is_phong)
        specular = is_phong & (u_lobe < Q_LOBE)
        u1 = lanes.draw(surviving)
        u2 = lanes.draw(surviving)

        fx, fy, fz = _make_frames(normal)
        alpha = np.where(specular, mats.value["exponent"][np.where(specular, mat, 0)], 0.0)
        t_pow = lobe_t(alpha, np.where(surviving, u1, 0.25))
        zloc = np.sqrt(t_pow)
        rloc = np.sqrt(1.0 - t_pow)
        phi = 2.0 * np.pi * u2
        a_loc = np.cos(phi) * rloc
        b_loc = np.sin(phi) * rloc
        m_dir = fx * a_loc[:, None] + fy * b_loc[:, None] + fz * zloc[:, None]

        dir_out = m_dir.copy()
        below = np.zeros(n_lanes, dtype=bool)
        if np.any(specular):
            inc = -D
            m_spec = m_dir.copy()
            mdot_in = _dot(m_spec, inc)
            flip_m = specular & (mdot_in < 0.0)
            if np.any(flip_m):
                mn = _dot(m_spec, normal)
                m_spec[flip_m] = (normal[flip_m] * (2.0 * mn[flip_m])[:, None]
                                  - m_spec[flip_m])
                mdot_in = _dot(m_spec, inc)
            out = m_spec * (2.0 * mdot_in)[:, None] - inc
            below = specular & (_dot(out, normal) <= 0.0)
            sel = specular & ~below
            dir_out[sel] = out[sel]

        v_mat[d, surviving] = mat[surviving]
        v_u1[d, surviving] = u1[surviving]
        tag = np.where(specular, LobeTag.SPECULAR,
                       np.where(is_phong, LobeTag.DIFFUSE, LobeTag.LAMBERT_ONLY))
        v_tag[d, surviving] = tag[surviving]

        active = surviving & ~below  # below-horizon samples end the path
        n_cont[active] = d + 1
        # keep retired lanes finite so unmasked arithmetic stays warning-free
        O = np.where(active[:, None], point, O)
        D = np.where(active[:, None], dir_out, D)

    depth = int(n_cont.max()) if n_lanes else 0
    record = PathRecord(materials=mats.materials, n_cont=n_cont, term_mat=term_mat,
                        v_mat=v_mat[:depth], v_tag=v_tag[:depth], v_u1=v_u1[:depth])
    return record, n_vertices


def _lobe_groups(record, d, lanes):
    """(tag, positions within ``lanes``) per lobe the depth-d vertices used."""
    tags = record.v_tag[d, lanes]
    for tag in LobeTag:  # continuation vertices never carry NONE
        sel = np.flatnonzero(tags == tag)
        if sel.size:
            yield tag, sel


def forward(record, mats):
    """Camera radiance per lane, plus the cache ``backward`` needs.

    Sweeps each path terminal -> camera like path_engine.forward_pass: an
    emitter terminal starts at its emitter radiance, then every continuation
    vertex applies  L <- ambient + throughput * L * weight.
    """
    depth, n_lanes = record.v_mat.shape
    radiance = np.zeros(n_lanes)
    em = np.flatnonzero(record.term_mat >= 0)
    m = record.term_mat[em]
    radiance[em] = emitter_radiance(mats.value["emission"][m], mats.base_emission[m],
                                    mats.absorb[m])
    cache = SweepCache(mats, [None] * depth, [None] * depth, [None] * depth)
    for d in range(depth - 1, -1, -1):
        lanes = np.flatnonzero(record.n_cont > d)
        mat = record.v_mat[d, lanes]
        f = np.empty(lanes.shape[0])
        for tag, sel in _lobe_groups(record, d, lanes):
            m = mat[sel]
            f[sel] = throughput(tag, mats.value["diffuse"][m], mats.value["specular"][m],
                                mats.value["exponent"][m], record.v_u1[d, lanes[sel]])
        r = radiance[lanes]
        cache.lanes[d], cache.radiance_in[d], cache.throughput[d] = lanes, r, f
        radiance[lanes] = mats.value["ambient"][mat] + f * r * mats.weight[mat]
    return radiance, cache


def _scatter(g, control, lanes, amount):
    """g[control[i], lanes[i]] += amount[i] wherever control[i] is bound."""
    bound = control >= 0
    g[control[bound], lanes[bound]] += amount[bound]


def backward(record, cache, adjoint):
    """Gradient contributions per lane, shape (N_CONTROLS, lanes).

    Sweeps each path camera -> terminal like path_engine.backward_pass,
    starting from the per-lane ``adjoint`` and carrying it through the
    forward sweep's throughput * weight factors.  Every vertex adds each
    binding partial into the control slot that binding is bound to.
    """
    mats = cache.mats
    g = np.zeros((N_CONTROLS, record.n_cont.shape[0]))
    p = np.array(adjoint, dtype=np.float64)
    for d, lanes in enumerate(cache.lanes):
        mat = record.v_mat[d, lanes]
        w = mats.weight[mat]
        rad_w = cache.radiance_in[d] * w
        p_d = p[lanes]
        _scatter(g, mats.control["ambient"][mat], lanes, p_d)
        for tag, sel in _lobe_groups(record, d, lanes):
            m = mat[sel]
            for name, amount in throughput_partials(
                    tag, mats.value["specular"][m], mats.value["exponent"][m],
                    record.v_u1[d, lanes[sel]], rad_w[sel], p_d[sel]):
                _scatter(g, mats.control[name][m], lanes[sel], amount)
        p[lanes] = cache.throughput[d] * w * p_d
    em = np.flatnonzero(record.term_mat >= 0)
    m = record.term_mat[em]
    _scatter(g, mats.control["emission"][m], em,
             emission_partial(mats.base_emission[m], mats.absorb[m], p[em]))
    return g


@dataclass
class _ChunkResult:
    pixel_sum: np.ndarray
    n_verts_total: int
    cost: float
    grad: np.ndarray
    grad_pixel: np.ndarray | None


def _trace_chunk(prims, cam, mats, pixel_indices, spp, seed, targets, want_grad,
                 want_grad_images, max_depth):
    npix = pixel_indices.shape[0]
    pix = np.repeat(pixel_indices, spp)
    smp = np.tile(np.arange(spp, dtype=np.int64), npix)
    record, n_vertices = trace_lanes(prims, cam, mats, seed, pix, smp, max_depth)
    radiance, cache = forward(record, mats)
    pixel_sum = radiance.reshape(npix, spp).sum(axis=1)

    cost = 0.0
    grad = np.zeros(N_CONTROLS)
    grad_pixel = None
    if want_grad:
        # the cost compares stored images, so quantize means to float32 first;
        # a target rendered at identical settings then has exactly zero residual
        mean32 = (pixel_sum / spp).astype(np.float32).astype(np.float64)
        resid = mean32 - targets
        cost = float(0.5 * (resid @ resid))
        g_lane = backward(record, cache, np.repeat(resid / spp, spp))
        grad_pixel_full = g_lane.reshape(N_CONTROLS, npix, spp).sum(axis=2)
        grad = grad_pixel_full.sum(axis=1)
        if want_grad_images:
            grad_pixel = grad_pixel_full

    return _ChunkResult(pixel_sum=pixel_sum, n_verts_total=n_vertices,
                        cost=cost, grad=grad, grad_pixel=grad_pixel)


@dataclass
class TraceResult:
    pixel_mean: np.ndarray  # (h, w)
    cost: float
    grad: np.ndarray        # (7,)
    mean_depth: float
    grad_images: np.ndarray | None


def trace(scene, theta, spp, seed, target_rows, want_grad, threads, max_depth,
          want_grad_images):
    prims = _flat_prims(scene)
    mats = material_table(scene.materials, theta)
    W, H = scene.camera.width, scene.camera.height
    npix = W * H
    all_pixels = np.arange(npix, dtype=np.int64)
    targets_flat = target_rows.reshape(-1) if target_rows is not None else None

    n_chunks = min(threads, npix)
    bounds = [(npix * i) // n_chunks for i in range(n_chunks + 1)]
    jobs = []
    for i in range(n_chunks):
        lo, hi = bounds[i], bounds[i + 1]
        tgt = targets_flat[lo:hi] if targets_flat is not None else None
        jobs.append((prims, scene.camera, mats, all_pixels[lo:hi], spp, seed, tgt, want_grad,
                     want_grad_images, max_depth))

    if n_chunks == 1:
        results = [_trace_chunk(*jobs[0])]
    else:
        # imported here so that `import pathgrad` does not pay for it
        from concurrent.futures import ProcessPoolExecutor
        ctx_workers = min(n_chunks, os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=ctx_workers) as pool:
            results = list(pool.map(_trace_chunk, *zip(*jobs)))

    pixel_sum = np.concatenate([r.pixel_sum for r in results])
    cost = 0.0
    grad = np.zeros(N_CONTROLS)
    for r in results:  # fixed chunk order -> bit-stable reduction
        cost += r.cost
        grad += r.grad
    grad_images = None
    if want_grad and want_grad_images:
        grad_images = np.concatenate([r.grad_pixel for r in results],
                                     axis=1).reshape(N_CONTROLS, H, W)
    total_verts = sum(r.n_verts_total for r in results)
    return TraceResult(pixel_mean=(pixel_sum / spp).reshape(H, W),
                       cost=cost, grad=grad,
                       mean_depth=total_verts / (npix * spp),
                       grad_images=grad_images)
