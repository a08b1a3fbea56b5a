"""Vectorized tracer, the radiance/adjoint sweeps and the trace session that
trace_image and the optimizer evaluate through.

``trace_lanes`` traces (pixel, sample) lanes with numpy into a ``PathRecord``,
draw for draw like the scalar engine's make_path.  All lane state is 1-D
x/y/z columns (structure of arrays, as in Laine, Karras & Aila, HPG 2013);
each depth step gathers the in-flight lanes and steps those alone, and each
primitive's intersection is finished only on the lanes a cheap first test
leaves.  Every expression keeps geometry's float association term for term,
and tests hold the two engines to the same paths.  A record keeps, per
depth and lobe, only the lanes, material ids and (specular) u1 draws that
``forward``/``backward`` read, in the groups they walk; validation builds
the same rows from frozen scalar paths and replays them through the same
sweeps.  Formulas on floats or arrays live once, in sampling and materials;
only the Vec3 geometry stays twinned here, for the reason geometry gives.

A ``Session`` cuts the image into fixed blocks, adds cost and gradient per
block and then in block order, so no output depends on the worker count.
Its chunks, and their tiles of at most ``TILE_LANES`` lanes, hold whole
blocks; tiles bound the lane temporaries whatever the image size.  A path
depends on theta only through the resolved lobe exponents, so each tile
keeps its record where it was traced and re-sweeps it while the exponents
stay the same (path replay, as in Vicini, Speierer & Jakob, SIGGRAPH 2021),
bit-identically to a fresh trace.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .geometry import FRAME_DEGENERATE_EPS, FRAME_HELPER, FRAME_HELPER_FALLBACK, Sphere, T_MIN
from .materials import (ControlVector, GradientVector, LobeTag, MaterialKind, N_CONTROLS,
                        Q_LOBE, emission_partial, emitter_radiance, roulette_weight, throughput,
                        throughput_partials)
from . import path_engine
from .path_engine import TraceOutput, _check_at_least_one
from .sampling import lobe_t, stream_key, uniform
from .scene_io import ScalarImage

_BINDINGS = ("emission", "ambient", "diffuse", "specular", "exponent")
# lanes a chunk traces and sweeps at a time: bounds the lane temporaries
TILE_LANES = 1 << 16
# lanes of a reduction block of whole pixels, whatever the chunks and tiles
BLOCK_LANES = 1 << 13
# most pixels a session takes (2048 x 2048): an evaluation's per-pixel arrays,
# 64 B a pixel with gradient images, then stay under 300 MB
MAX_PIXELS = 1 << 22


@dataclass
class MaterialTable:
    """Per-material arrays resolved at one theta, indexed by material id."""

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
        kind=per_material(lambda m: m.kind, np.int64),
        absorb=absorb, weight=roulette_weight(absorb),
        base_emission=per_material(lambda m: m.base_emission), value=value,
        control={n: per_material(lambda m: (getattr(m, n).control or 0) - 1, np.int64)
                 for n in _BINDINGS})


@dataclass
class PathRecord:
    """What the sweeps read of a set of paths, one lane per path, laid out as
    they read it.

    ``rows[d]`` holds the paths' d-th continuation vertices as ``lobe_groups``
    builds them: one (LobeTag, lanes, material ids, u1) group per lobe sampled
    at that depth, lanes ascending.  Only the specular throughput reads the
    u1 that sampled the bounce, so other groups keep None in its place.
    Directions and hit points are not kept.  Material ids are stored in
    ``id_dtype`` of the material count.
    """

    n_lanes: int
    rows: list               # per depth, the lobe groups of its vertices
    emitters: np.ndarray     # lanes that ended on an emitter, ascending
    emitter_mat: np.ndarray  # the id of that emitter


def id_dtype(n_materials):
    """Smallest signed integer type holding every material id and -1."""
    return np.min_scalar_type(-max(n_materials, 1))


def lobe_groups(lanes, mat, tag, u1):
    """One row of a PathRecord from the vertices of ``lanes`` (ascending) at one
    depth, with their material ids, LobeTag codes and u1 draws."""
    row = []
    for t in (LobeTag.LAMBERT_ONLY, LobeTag.DIFFUSE, LobeTag.SPECULAR):
        sel = np.flatnonzero(tag == t)
        if sel.size:
            row.append((t, lanes[sel], mat[sel], u1[sel] if t == LobeTag.SPECULAR else None))
    return row


@dataclass
class SweepCache:
    """Forward-sweep values the backward sweep reuses, per depth and lobe group."""

    mats: MaterialTable
    radiance_in: list    # radiance each group's vertices reflect, unweighted
    throughput: list


@dataclass
class _Prims:
    """A scene's primitive tables, indexed by primitive and built once per session."""

    shapes: list         # ("quad", corner, eu, ev, n, nn) / ("sphere", c, r)
    mat: np.ndarray      # material id
    normal: list         # x/y/z columns of the quad unit normals
    center: list         # x/y/z columns of the sphere centers
    radius: np.ndarray   # sphere radius (> 0, as scenes require), 0 for quads


def _flat_prims(scene):
    shapes, rows = [], []  # rows: quad unit normal, sphere center and radius
    for p in scene.primitives:
        if isinstance(p, Sphere):
            c = np.array(p.center.as_tuple())
            shapes.append(("sphere", c, float(p.radius)))
            rows.append([0.0, 0.0, 0.0, *c, p.radius])
        else:
            c, eu, ev = (np.array(v.as_tuple()) for v in (p.corner, p.edge_u, p.edge_v))
            n = np.cross(eu, ev)
            nn = float(n @ n)
            shapes.append(("quad", c, eu, ev, n, nn))
            rows.append([*(n / np.sqrt(nn)), 0.0, 0.0, 0.0, 0.0])
    cols = list(np.array(rows, dtype=np.float64).reshape(-1, 7).T.copy())
    return _Prims(shapes, np.array([p.material for p in scene.primitives], dtype=np.int64),
                  cols[:3], cols[3:6], cols[6])


# Vec3.dot and Vec3.cross on x/y/z column triples, term for term
def _dot3(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross3(a, b):
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def _take(columns, idx):
    return [c[idx] for c in columns]


def _frames(z):
    """Column twin of geometry.make_frame: the x and y axes around unit normals z."""
    y = _cross3(z, [zk + hk for zk, hk in zip(z, FRAME_HELPER)])
    cn = np.sqrt(_dot3(y, y))
    bad = np.flatnonzero(cn < FRAME_DEGENERATE_EPS)
    if bad.size:
        zb = _take(z, bad)
        c2 = _cross3(zb, [zk + hk for zk, hk in zip(zb, FRAME_HELPER_FALLBACK)])
        for yk, c2k in zip(y, c2):
            yk[bad] = c2k
        cn[bad] = np.sqrt(_dot3(c2, c2))
    y = [yk / cn for yk in y]
    x = _cross3(y, z)
    xn = np.sqrt(_dot3(x, x))
    return [xk / xn for xk in x], y


def _camera_rays(cam, pix, jx, jy):
    """x/y/z columns of the primary-ray directions, as Camera.generate_ray."""
    sx = (((pix % cam.width).astype(np.float64) + jx) / cam.width * 2.0 - 1.0) * cam.half_w
    sy = (1.0 - ((pix // cam.width).astype(np.float64) + jy) / cam.height * 2.0) * cam.half_h
    D = [f + r * sx + u * sy for f, r, u in zip(cam.forward.as_tuple(), cam.right.as_tuple(),
                                                 cam.upv.as_tuple())]
    norm = np.sqrt(_dot3(D, D))
    for c in D:
        c /= norm
    return D


def _lobe_dirs(z, alpha, u1, u2):
    """Cosine-power lobe samples around unit normals z, as sampling.sample_cosine_lobe."""
    x, y = _frames(z)
    t = lobe_t(alpha, u1)
    zl, r, phi = np.sqrt(t), np.sqrt(1.0 - t), 2.0 * np.pi * u2
    a, b = np.cos(phi) * r, np.sin(phi) * r
    return [xk * a + yk * b + zk * zl for xk, yk, zk in zip(x, y, z)]


def _reflect(out, inc, normal, spec):
    """sampling.sample_phong_reflection, in place, on the lanes ``spec`` of the lobe
    samples ``out``, incoming from ``inc``; True where they fell below the horizon."""
    nrm, m = _take(normal, spec), _take(out, spec)
    m_in = _dot3(m, inc)
    turn = m_in < 0.0  # m is turned into the incoming hemisphere
    if turn.any():
        mn = _dot3(m, nrm)
        m = [np.where(turn, nk * (2.0 * mn) - mk, mk) for mk, nk in zip(m, nrm)]
        m_in = _dot3(m, inc)
    refl = [mk * (2.0 * m_in) - ik for mk, ik in zip(m, inc)]
    for ok, rk in zip(out, refl):
        ok[spec] = rk  # a below-horizon lane's direction is never used
    return _dot3(refl, nrm) <= 0.0


def _draw(key, counter):
    """Next uniform of each lane's stream; advances ``counter`` in place."""
    counter += np.uint64(1)
    return uniform(key, counter)


def _sphere_hits(c, r, O, Dx, Dy, Dz, best_t):
    """Rays that hit sphere (c, r) nearer than ``best_t``, and their t."""
    ocx, ocy, ocz = O[0] - c[0], O[1] - c[1], O[2] - c[2]
    b = ocx * Dx + ocy * Dy + ocz * Dz
    disc = b * b - (ocx * ocx + ocy * ocy + ocz * ocz - r * r)
    idx = np.flatnonzero(disc >= 0.0)
    b = b[idx]
    s = np.sqrt(disc[idx])
    t1 = -b - s
    t = np.where(t1 > T_MIN, t1, -b + s)
    win = (t > T_MIN) & (t < best_t[idx])
    return idx[win], t[win]


def _quad_hits(corner, eu, ev, nrm, nn, O, Dx, Dy, Dz, best_t):
    """Rays that hit the quad nearer than ``best_t``, and their t."""
    (cx, cy, cz), (nx, ny, nz) = corner, nrm
    t = Dx * nx + Dy * ny + Dz * nz  # the denominator, divided into in place
    t[t == 0.0] = np.nan  # rays parallel to the plane miss it
    np.divide((cx - O[0]) * nx + (cy - O[1]) * ny + (cz - O[2]) * nz, t, out=t)
    idx = np.flatnonzero((t > T_MIN) & (t < best_t))
    t = t[idx]
    ox, oy, oz = O if np.ndim(O[0]) == 0 else _take(O, idx)
    wx = ox + t * Dx[idx] - cx  # w = hit point - corner
    wy = oy + t * Dy[idx] - cy
    wz = oz + t * Dz[idx] - cz
    # (w x e_v).n and (e_u x w).n, term for term as Vec3.cross then Vec3.dot
    (ux, uy, uz), (vx, vy, vz) = eu, ev
    a = ((wy * vz - wz * vy) * nx + (wz * vx - wx * vz) * ny + (wx * vy - wy * vx) * nz) / nn
    b = ((uy * wz - uz * wy) * nx + (uz * wx - ux * wz) * ny + (ux * wy - uy * wx) * nz) / nn
    win = (a >= 0.0) & (a <= 1.0) & (b >= 0.0) & (b <= 1.0)
    return idx[win], t[win]


def _nearest_hits(prims, O, Dx, Dy, Dz):
    """(t, primitive index or -1) of each ray's nearest hit, first-declared on ties.

    ``Dx, Dy, Dz`` are the directions' columns.  ``O`` is one origin every ray
    shares, three floats (the eye, at depth 0), which makes the origin-only
    terms one scalar per primitive; or one origin per ray, three columns.
    Each primitive finishes only the rays a cheap test leaves (sphere: the
    discriminant; quad: the plane distance, beyond T_MIN and nearer than the
    best hit so far), bit-identically to intersect_scene.
    """
    best_t = np.full(Dx.shape[0], np.inf)
    best_prim = np.full(Dx.shape[0], -1, dtype=np.int64)
    for i, (shape, *geometry) in enumerate(prims.shapes):
        hits = _sphere_hits if shape == "sphere" else _quad_hits
        idx, t = hits(*geometry, O, Dx, Dy, Dz, best_t)
        best_t[idx] = t
        best_prim[idx] = i
    return best_t, best_prim


def trace_lanes(prims, cam, kind, absorb, exponent, seed, pix, smp, max_depth):
    """Trace one lane per (pixel, sample); returns (PathRecord, vertex count).

    Mirrors make_path exactly, draw for draw.  Of the materials it reads only
    ``kind``, ``absorb`` and the resolved ``exponent`` per material id, and only
    the exponent depends on theta.  ``lane`` holds each in-flight lane's index;
    its key, counter, origin and direction columns are gathered alongside.
    """
    n_lanes = pix.shape[0]
    key = stream_key(seed, pix.astype(np.uint64), smp.astype(np.uint64))
    counter = np.zeros(n_lanes, dtype=np.uint64)
    D = _camera_rays(cam, pix, _draw(key, counter), _draw(key, counter))  # jitter x, then y
    O = cam.eye.as_tuple()  # every lane starts at the eye: one shared origin until depth 1
    lane = np.arange(n_lanes)
    n_vertices = 0
    ids = id_dtype(kind.shape[0])
    rows = []
    em_lane, em_mat = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]

    for d in range(max_depth):
        t, prim = _nearest_hits(prims, O, *D)
        idx = np.flatnonzero(prim >= 0)  # the others escaped
        if not idx.size:
            break
        lane, key, counter, t, prim = (a[idx] for a in (lane, key, counter, t, prim))
        D = _take(D, idx)
        if d:  # the shared eye needs no gather
            O = _take(O, idx)
        point = [o + t * c for o, c in zip(O, D)]
        normal = _take(prims.normal, prim)  # quads; each sphere lane gets (p - c) / r
        sph = np.flatnonzero(prims.radius[prim] > 0.0)
        ps = prim[sph]
        for nk, pk, ck in zip(normal, point, prims.center):
            nk[sph] = (pk[sph] - ck[ps]) / prims.radius[ps]
        flip = _dot3(normal, D) > 0.0  # turned toward the ray origin, as geometry does
        for nk in normal:
            np.negative(nk, out=nk, where=flip)
        mat = prims.mat[prim]
        n_vertices += lane.shape[0]

        terminal = _draw(key, counter) < absorb[mat]
        is_em = terminal & (kind[mat] == MaterialKind.EMITTER)
        em_lane.append(lane[is_em])
        em_mat.append(mat[is_em])

        idx = np.flatnonzero(~terminal)
        if d + 1 >= max_depth or not idx.size:
            break  # the rest end here, at the depth cap or by roulette
        lane, key, counter, mat = lane[idx], key[idx], counter[idx], mat[idx]
        for cols in (D, point, normal):
            cols[:] = _take(cols, idx)

        is_phong = kind[mat] == MaterialKind.PHONG
        counter += is_phong  # only glossy vertices draw the lobe pick
        specular = is_phong & (uniform(key, counter) < Q_LOBE)
        u1 = _draw(key, counter)
        u2 = _draw(key, counter)
        spec = np.flatnonzero(specular)
        inc = [-c[spec] for c in D]  # all the sampling reads of the incoming rays
        del D, t, prim, sph, ps, flip  # freed before the step's largest set of lane arrays
        O, D = point, _lobe_dirs(normal, np.where(specular, exponent[mat], 0.0), u1, u2)
        below = np.zeros(lane.shape[0], dtype=bool)
        below[spec] = _reflect(D, inc, normal, spec)

        tag = np.where(specular, LobeTag.SPECULAR,
                       np.where(is_phong, LobeTag.DIFFUSE, LobeTag.LAMBERT_ONLY))
        if below.any():  # below-horizon samples end the path
            idx = np.flatnonzero(~below)
            lane, key, counter, mat, tag, u1 = (
                a[idx] for a in (lane, key, counter, mat, tag, u1))
            for cols in (O, D):
                cols[:] = _take(cols, idx)
        rows.append(lobe_groups(lane, mat.astype(ids), tag, u1))

    em_lane = np.concatenate(em_lane)
    order = np.argsort(em_lane)  # lanes end at different depths
    return (PathRecord(n_lanes, rows, em_lane[order], np.concatenate(em_mat)[order].astype(ids)),
            n_vertices)


def forward(record, mats):
    """Camera radiance per lane, plus the cache ``backward`` needs.

    Sweeps each path terminal -> camera like path_engine.forward_pass: an
    emitter terminal starts at its emitter radiance, then every continuation
    vertex applies  L <- ambient + throughput * L * weight.
    """
    radiance = np.zeros(record.n_lanes)
    m = record.emitter_mat
    radiance[record.emitters] = emitter_radiance(mats.value["emission"][m],
                                                 mats.base_emission[m], mats.absorb[m])
    depth = len(record.rows)
    cache = SweepCache(mats, [None] * depth, [None] * depth)
    for d in range(depth - 1, -1, -1):
        cache.radiance_in[d], cache.throughput[d] = [], []
        for tag, lanes, mat, u1 in record.rows[d]:
            f = throughput(tag, mats.value["diffuse"][mat], mats.value["specular"][mat],
                           mats.value["exponent"][mat], u1)
            r = radiance[lanes]
            cache.radiance_in[d].append(r)
            cache.throughput[d].append(f)
            radiance[lanes] = mats.value["ambient"][mat] + f * r * mats.weight[mat]
    return radiance, cache


def backward(record, cache, adjoint):
    """Gradient contributions per lane, shape (N_CONTROLS, lanes).

    Sweeps each path camera -> terminal like path_engine.backward_pass,
    starting from the per-lane ``adjoint`` and carrying it through the
    forward sweep's throughput * weight factors.  Every vertex adds each
    binding partial into the control slot that binding is bound to; an
    unbound binding's -1 adds into a spare last row, which is dropped.
    """
    mats = cache.mats
    g = np.zeros((N_CONTROLS + 1, record.n_lanes))
    p = np.array(adjoint, dtype=np.float64)
    for row, radiance_in, throughputs in zip(record.rows, cache.radiance_in, cache.throughput):
        for (tag, lanes, mat, u1), r, f in zip(row, radiance_in, throughputs):
            w = mats.weight[mat]
            p_d = p[lanes]
            g[mats.control["ambient"][mat], lanes] += p_d
            for name, amount in throughput_partials(tag, mats.value["specular"][mat],
                                                    mats.value["exponent"][mat], u1, r * w, p_d):
                g[mats.control[name][mat], lanes] += amount
            p[lanes] = f * w * p_d
    em, m = record.emitters, record.emitter_mat
    g[mats.control["emission"][m], em] += emission_partial(mats.base_emission[m],
                                                           mats.absorb[m], p[em])
    return g[:N_CONTROLS]


class _Chunk:
    """Pixels [lo, hi), traced and swept in turn in tiles of whole ``block``-pixel
    blocks up to ``TILE_LANES`` lanes, and each tile's record.

    Lives in the process that traces it.  The records are keyed by the bytes
    of the exponents they were traced at (``kind`` and ``absorb`` are fixed by
    the scene): an evaluation at that key re-sweeps every tile's record, one
    at another key traces every tile again.
    """

    def __init__(self, prims, cam, lo, hi, block, spp, seed, max_depth):
        self.prims, self.cam, self.lo, self.block = prims, cam, lo, block
        self.spp, self.seed, self.max_depth = spp, seed, max_depth
        per = max(1, TILE_LANES // (block * spp)) * block
        self.tiles = [slice(a, min(a + per, hi - lo)) for a in range(0, hi - lo, per)]
        self.key, self.traced = None, []  # (record, vertex count) per tile

    def _sweep(self, record, tile, mats, targets, pixel_sum, partials, grad_pixel):
        """Writes one tile's pixel sums; with ``targets``, its (cost, grad) per block too."""
        spp = self.spp
        radiance, cache = forward(record, mats)
        pixel_sum[tile] = radiance.reshape(-1, spp).sum(axis=1)
        if targets is not None:
            # the cost compares stored images, so quantize means to float32 first;
            # a target rendered at identical settings then has exactly zero residual
            mean32 = (pixel_sum[tile] / spp).astype(np.float32).astype(np.float64)
            resid = mean32 - targets[tile]
            g_lane = backward(record, cache, np.repeat(resid / spp, spp))
            g_pixel = g_lane.reshape(N_CONTROLS, -1, spp).sum(axis=2)
            for a in range(0, resid.shape[0], self.block):
                r = resid[a:a + self.block]
                partials.append((float(0.5 * (r @ r)), g_pixel[:, a:a + self.block].sum(axis=1)))
            if grad_pixel is not None:
                grad_pixel[:, tile] = g_pixel

    def evaluate(self, mats, targets, want_grad_images):
        """(pixel sums, vertices, block partials, per-pixel grad or None, traced)."""
        key, spp = mats.value["exponent"].tobytes(), self.spp
        traced = key != self.key
        if traced:
            self.key, self.traced = None, []  # hold one set of records at a time
        npix = self.tiles[-1].stop
        pixel_sum, partials = np.empty(npix), []
        grad_pixel = (np.empty((N_CONTROLS, npix))
                      if targets is not None and want_grad_images else None)
        for i, tile in enumerate(self.tiles):
            if traced:
                pixels = np.arange(self.lo + tile.start, self.lo + tile.stop, dtype=np.int64)
                record, n_vertices = trace_lanes(
                    self.prims, self.cam, mats.kind, mats.absorb, mats.value["exponent"],
                    self.seed, np.repeat(pixels, spp),
                    np.tile(np.arange(spp, dtype=np.int64), pixels.shape[0]), self.max_depth)
                self.traced.append((record, n_vertices))
            with np.errstate(over="ignore", invalid="ignore"):  # Session.evaluate checks
                self._sweep(self.traced[i][0], tile, mats, targets, pixel_sum, partials, grad_pixel)
        self.key = key
        return pixel_sum, sum(n for _, n in self.traced), partials, grad_pixel, traced


def _serve(conn, chunk):
    """Worker loop: evaluate the owned chunk per job until None arrives."""
    try:
        while (job := conn.recv()) is not None:
            try:
                out = chunk.evaluate(*job)
            except Exception as exc:  # raised again by the session
                out = exc
            conn.send(out)
    except EOFError:  # the session's end of the pipe closed
        pass


class Session:
    """Evaluations of one scene at one spp, seed and depth cap, many thetas.

    The scene is flattened once into primitive tables and its pixels cut
    into blocks of max(1, BLOCK_LANES // spp) pixels and then into
    min(threads, blocks, cores) chunks of whole blocks, so ``threads``
    changes no output bit.  With more than one chunk the first evaluation
    starts one worker process per chunk, which owns it for the life of the
    session, so each tile's record stays in the process that traced it and
    only the resolved material table, the target slices and the results
    cross the pipes.  ``traces`` counts evaluations that traced; one whose
    exponents match the records replays them.  Use as a context manager, or
    call ``close``, to stop the workers.  A worker found dead surfaces as
    ChildProcessError (see ``_run``).  Raises ValueError for spp, max_depth
    or threads below 1, or an image of more than MAX_PIXELS.
    """

    def __init__(self, scene, spp, seed, threads, max_depth):
        _check_at_least_one(spp=spp, max_depth=max_depth, threads=threads)
        self.materials, self.camera = list(scene.materials), scene.camera
        self.width, self.height, self.spp = scene.camera.width, scene.camera.height, spp
        npix = self.width * self.height
        if npix > MAX_PIXELS:
            raise ValueError(f"image of {self.width}x{self.height} pixels is over the "
                             f"cap of {MAX_PIXELS} pixels")
        block = max(1, BLOCK_LANES // spp)
        n_blocks = -(-npix // block)
        n_chunks = min(threads, n_blocks, os.cpu_count() or 1)
        self._bounds = [min(npix, block * (n_blocks * i // n_chunks)) for i in range(n_chunks + 1)]
        prims = _flat_prims(scene)
        self._chunks = [_Chunk(prims, scene.camera, lo, hi, block, spp, seed, max_depth)
                        for lo, hi in zip(self._bounds, self._bounds[1:])]
        self._workers = []  # (process, connection) per chunk once started
        self.traces = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _start(self):
        # imported here so that `import pathgrad` does not pay for it
        import multiprocessing
        # fork, not spawn: the session's process starts no threads of its own, and a
        # spawned worker re-imports numpy and pathgrad: starting two took ~0.4 s on a
        # 2-core host against ~0.01 s forked, a cost every one-shot trace would pay
        ctx = multiprocessing.get_context("fork")
        for chunk in self._chunks:
            conn, child = ctx.Pipe()
            proc = ctx.Process(target=_serve, args=(child, chunk), daemon=True)
            proc.start()
            child.close()
            self._workers.append((proc, conn))

    def _run(self, jobs):
        """Per-chunk results of one job per chunk, in chunk order.

        Raises ChildProcessError, naming the worker and its exit code, when
        a worker's pipe is found closed; the next evaluation starts new
        workers, as after any failed one.
        """
        if len(self._chunks) == 1:
            return [self._chunks[0].evaluate(*jobs[0])]
        if not self._workers:
            self._start()
        replies = []
        try:
            for w, (_, conn) in enumerate(self._workers):
                conn.send(jobs[w])
            # every reply is read before any is raised, so the pipes stay in step
            for w, (_, conn) in enumerate(self._workers):
                replies.append(conn.recv())
        except (EOFError, OSError) as exc:  # worker w's end of its pipe is closed
            proc = self._workers[w][0]
            self.close()  # joins the worker, which sets its exit code
            raise ChildProcessError(
                f"trace worker {w} died (exit code {proc.exitcode})") from exc
        except BaseException:
            self.close()  # the pipes may hold unread replies; the next call restarts
            raise
        for reply in replies:
            if isinstance(reply, BaseException):
                raise reply
        return replies

    def target_rows(self, target):
        """The rows ``evaluate`` takes, from a target image checked by
        path_engine.target_rows, or from a ControlVector rendered in this
        session first (so an evaluation at its exponents replays its paths)."""
        if isinstance(target, ControlVector):
            target = self.evaluate(target).image
        return path_engine.target_rows(target, self.camera)

    def evaluate(self, theta, target_rows=None, want_grad_images=False):
        """Render at theta and, given ``target_rows``, differentiate the image cost.

        Returns a path_engine.TraceOutput, with per-pixel gradient images if
        also ``want_grad_images``.  ``target_rows`` come from ``target_rows``.
        Raises ValueError for controls outside the domain material_table
        accepts, on every call, or so large that the image or a gradient image
        (as float32), the cost or the gradient is not finite.
        """
        mats = material_table(self.materials, theta)
        flat = None if target_rows is None else target_rows.reshape(-1)
        jobs = [(mats, None if flat is None else flat[lo:hi], want_grad_images)
                for lo, hi in zip(self._bounds, self._bounds[1:])]
        pixel_sums, n_verts, partials, grad_pixels, traced = zip(*self._run(jobs))
        self.traces += any(traced)
        cost, grad = 0.0, np.zeros(N_CONTROLS)
        shape = (self.height, self.width)
        with np.errstate(over="ignore", invalid="ignore"):
            for c, g in (p for chunk in partials for p in chunk):  # in block order
                cost += c
                grad += g
            image = ScalarImage(self.width, self.height,
                                (np.concatenate(pixel_sums) / self.spp).reshape(shape))
        checks = [("image", image.data), ("cost", cost), ("gradient", grad)]
        grad_images = None
        if flat is not None and want_grad_images:
            grad_images = np.concatenate(grad_pixels, axis=1).reshape(N_CONTROLS, *shape)
            with np.errstate(over="ignore"):  # as the images are stored
                checks.append(("gradient image", grad_images.astype(np.float32)))
        for name, value in checks:
            if not np.all(np.isfinite(value)):
                raise ValueError(f"non-finite {name} at theta {theta.values}")
        n_samples = self._bounds[-1] * self.spp
        return TraceOutput(image=image, cost=cost, grad=GradientVector(grad),
                           sample_count=n_samples, mean_depth=sum(n_verts) / n_samples,
                           grad_images=grad_images)

    def close(self):
        """Stop the workers; a later evaluation starts new ones and traces again."""
        workers, self._workers = self._workers, []
        for _, conn in workers:
            try:
                conn.send(None)
            except OSError:  # the worker is gone already
                pass
        for proc, conn in workers:
            proc.join(timeout=5)
            if proc.is_alive():
                proc.terminate()
                proc.join()
            conn.close()


def trace(scene, theta, spp, seed, target, want_grad, threads, max_depth, want_grad_images):
    """One evaluation in a one-shot Session: with ``want_grad``, Session.evaluate
    against Session.target_rows(target); without, a render that ignores ``target``."""
    with Session(scene, spp, seed, threads, max_depth) as session:
        rows = session.target_rows(target) if want_grad else None
        return session.evaluate(theta, rows, want_grad_images)
