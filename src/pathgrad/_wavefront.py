"""Vectorized tracer, the radiance/adjoint sweeps and the trace session that
trace_image and the optimizer evaluate through.

``trace_lanes`` traces all (pixel, sample) lanes of an image chunk with
numpy into a ``PathRecord`` and is draw-for-draw equivalent to the scalar
engine in path_engine/make_path: every lane owns the same keyed counter
stream, and draws advance only on lanes that would draw in the scalar code.
Each depth step gathers the in-flight lanes (path compaction, as in Laine,
Karras & Aila, HPG 2013) and steps those alone, so ended lanes cost nothing.
The nearest-hit search reads the rays as x/y/z columns and, per primitive,
finishes the intersection only on the lanes a cheap first test leaves
(those that can still hit it nearer than their best hit so far); at depth 0
every lane starts at the eye, so the origin-only terms are one scalar per
primitive.  It keeps geometry's association term for term.
``forward``/``backward`` sweep a record along its ``SweepPlan``; validation
replays frozen scalar paths through them too.  Tests assert the equivalence
with the scalar engine.  Formulas on floats or arrays live once and are
called by both engines: the streams and the lobe height in sampling, the
per-vertex rules, roulette weight and emitter radiance in materials.  Only
the Vec3 geometry (intersection, frames, lobe directions) stays twinned
here on arrays; geometry says why.

A ``Session`` splits the pixel range into chunks merged in chunk order, so
per-pixel outputs never depend on the worker count and reductions are
bit-stable for a fixed count.  A path depends on theta only through the
resolved lobe exponents (roulette reads the fixed ``absorb``, the lobe pick
``Q_LOBE``), so each chunk keeps its last record and plan where it was
traced and re-sweeps them while the exponents stay the same (path replay,
as in Vicini, Speierer & Jakob, SIGGRAPH 2021).  Replay changes no
arithmetic: its outputs are bit-identical to a fresh trace.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .geometry import (FRAME_DEGENERATE_EPS, FRAME_HELPER,
                       FRAME_HELPER_FALLBACK, Sphere, T_MIN)
from .materials import (LobeTag, MaterialKind, N_CONTROLS, Q_LOBE, emission_partial,
                        emitter_radiance, roulette_weight, throughput, throughput_partials)
from .path_engine import _check_at_least_one
from .sampling import lobe_t, stream_key, uniform

_BINDINGS = ("emission", "ambient", "diffuse", "specular", "exponent")


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
    """What the sweeps need of a set of paths, one lane per path.

    Row d of the per-depth arrays describes each lane's d-th continuation
    vertex (valid where d < n_cont): material id, LobeTag code and the u1
    that sampled the bounce.  Directions and hit points are not kept; the
    throughput depends only on those three.  Material ids are stored in
    ``id_dtype`` of the material count.
    """

    n_cont: np.ndarray     # (lanes,) continuation vertices per path
    term_mat: np.ndarray   # (lanes,) id of the emitter the path ended on, or -1
    v_mat: np.ndarray      # (depth, lanes)
    v_tag: np.ndarray      # (depth, lanes)
    v_u1: np.ndarray       # (depth, lanes)


def id_dtype(n_materials):
    """Smallest signed integer type holding every material id and -1."""
    return np.min_scalar_type(-max(n_materials, 1))


@dataclass
class SweepPlan:
    """Where a record's vertices sit, per depth; theta never changes it."""

    lanes: list            # lanes with a continuation vertex at that depth
    groups: list           # (LobeTag, positions within lanes) per lobe used there
    emitters: np.ndarray   # lanes that ended on an emitter


def sweep_plan(record):
    """The lane lists and lobe groups both sweeps walk, built once per record."""
    lanes = [np.flatnonzero(record.n_cont > d) for d in range(record.v_mat.shape[0])]
    groups = []
    for d, ln in enumerate(lanes):
        tags = record.v_tag[d, ln]
        sels = [(tag, np.flatnonzero(tags == tag)) for tag in LobeTag]
        groups.append([(tag, sel) for tag, sel in sels if sel.size])
    return SweepPlan(lanes, groups, np.flatnonzero(record.term_mat >= 0))


@dataclass
class SweepCache:
    """Forward-sweep values the backward sweep reuses, one entry per depth."""

    mats: MaterialTable
    plan: SweepPlan
    radiance_in: list    # radiance each plan lane's vertex reflects, unweighted
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


def _cross(a, b):
    out = np.empty_like(a)
    out[:, 0] = a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1]
    out[:, 1] = a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2]
    out[:, 2] = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    return out


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
    y = c / cn[:, None]
    x = _cross(y, z)
    x = x / np.sqrt(_dot(x, x))[:, None]
    return x, y, z


def _draw(key, counter):
    """Next uniform of each lane's stream; advances ``counter`` in place."""
    counter += np.uint64(1)
    return uniform(key, counter)


def _nearest_hits(prims, O, D):
    """(t, primitive index or -1) of each ray's nearest hit, first-declared on ties.

    ``D`` holds one direction per ray, (N, 3).  ``O`` is either one origin
    shared by every ray, a (3,) vector (the camera eye, at depth 0), or one
    origin per ray, (N, 3); the caller says which by the shape it passes.
    A shared origin makes the origin-only terms (the sphere's ``oc`` and
    ``oc.oc - r^2``, the quad's ``(corner - O).n``) one scalar per
    primitive.  Rays are read as contiguous x/y/z columns.  Each primitive
    first runs a cheap test on every ray (sphere: the discriminant; quad:
    the plane distance, beyond T_MIN and nearer than the best hit so far),
    then finishes the survivors alone.  Every per-ray expression keeps the
    association of geometry.intersect_sphere / intersect_quad, so results
    are bit-identical to the scalar reference.
    """
    n = D.shape[0]
    Dx, Dy, Dz = np.ascontiguousarray(D.T)
    shared = O.ndim == 1
    if shared:
        Ox, Oy, Oz = (float(v) for v in O)
    else:
        Ox, Oy, Oz = np.ascontiguousarray(O.T)
    best_t = np.full(n, np.inf)
    best_prim = np.full(n, -1, dtype=np.int64)
    for i, prim in enumerate(prims):
        if prim[0] == "sphere":
            _, c, r, _m = prim
            ocx, ocy, ocz = Ox - c[0], Oy - c[1], Oz - c[2]
            b = ocx * Dx + ocy * Dy + ocz * Dz
            cq = ocx * ocx + ocy * ocy + ocz * ocz - r * r
            disc = b * b - cq
            idx = np.flatnonzero(disc >= 0.0)
            if not idx.size:
                continue
            b = b[idx]
            s = np.sqrt(disc[idx])
            t1 = -b - s
            t = np.where(t1 > T_MIN, t1, -b + s)
            win = (t > T_MIN) & (t < best_t[idx])
        else:
            _, corner, eu, ev, nrm, nn, _un, _m = prim
            cx, cy, cz = corner
            nx, ny, nz = nrm
            denom = Dx * nx + Dy * ny + Dz * nz
            ok = denom != 0.0  # rays parallel to the plane miss it
            num = (cx - Ox) * nx + (cy - Oy) * ny + (cz - Oz) * nz
            t = num / np.where(ok, denom, 1.0)
            idx = np.flatnonzero(ok & (t > T_MIN) & (t < best_t))
            if not idx.size:
                continue
            t = t[idx]
            ox, oy, oz = (Ox, Oy, Oz) if shared else (Ox[idx], Oy[idx], Oz[idx])
            wx = ox + t * Dx[idx] - cx  # w = hit point - corner
            wy = oy + t * Dy[idx] - cy
            wz = oz + t * Dz[idx] - cz
            # (w x e_v).n and (e_u x w).n, term for term as Vec3.cross then Vec3.dot
            ux, uy, uz = eu
            vx, vy, vz = ev
            a = ((wy * vz - wz * vy) * nx + (wz * vx - wx * vz) * ny
                 + (wx * vy - wy * vx) * nz) / nn
            bq = ((uy * wz - uz * wy) * nx + (uz * wx - ux * wz) * ny
                  + (ux * wy - uy * wx) * nz) / nn
            win = (a >= 0.0) & (a <= 1.0) & (bq >= 0.0) & (bq <= 1.0)
        best_t[idx[win]] = t[win]
        best_prim[idx[win]] = i
    return best_t, best_prim


def trace_lanes(prims, cam, kind, absorb, exponent, seed, pix, smp, max_depth):
    """Trace one lane per (pixel, sample); returns (PathRecord, vertex count).

    Mirrors make_path exactly, draw for draw.  Of the materials it reads
    only ``kind``, ``absorb`` and the resolved ``exponent`` per material id,
    and only the exponent depends on theta.  ``lane`` holds the global
    index of each in-flight lane; its origin, direction, stream key and
    counter are gathered alongside and its results scattered back by index.
    """
    n_lanes = pix.shape[0]
    key = stream_key(seed, pix.astype(np.uint64), smp.astype(np.uint64))
    counter = np.zeros(n_lanes, dtype=np.uint64)
    jx = _draw(key, counter)
    jy = _draw(key, counter)
    W, H = cam.width, cam.height
    px = (pix % W).astype(np.float64)
    py = (pix // W).astype(np.float64)
    sx = (px + jx) / W * 2.0 - 1.0
    sy = 1.0 - (py + jy) / H * 2.0
    D = (_v3(cam.forward)[None, :]
         + _v3(cam.right)[None, :] * (sx * cam.half_w)[:, None]
         + _v3(cam.upv)[None, :] * (sy * cam.half_h)[:, None])
    D = D / np.sqrt(_dot(D, D))[:, None]
    O = _v3(cam.eye)  # every lane starts at the eye: one shared origin until depth 1
    lane = np.arange(n_lanes)
    n_vertices = 0
    ids = id_dtype(kind.shape[0])
    n_cont = np.zeros(n_lanes, dtype=np.int32)
    term_mat = np.full(n_lanes, -1, dtype=ids)
    v_mat = np.full((max_depth, n_lanes), -1, dtype=ids)
    v_tag = np.full((max_depth, n_lanes), LobeTag.NONE, dtype=np.int8)
    v_u1 = np.zeros((max_depth, n_lanes), dtype=np.float64)

    for d in range(max_depth):
        best_t, best_prim = _nearest_hits(prims, O, D)
        hit = best_prim >= 0  # the others escaped
        if not np.any(hit):
            break
        lane, key, counter, D = lane[hit], key[hit], counter[hit], D[hit]
        best_prim = best_prim[hit]
        if O.ndim == 2:  # the shared eye needs no gather
            O = O[hit]

        point = O + best_t[hit][:, None] * D
        normal = np.empty_like(point)
        mat = np.empty(lane.shape[0], dtype=np.int64)
        for i, prim in enumerate(prims):
            sel = best_prim == i
            if not np.any(sel):
                continue
            if prim[0] == "sphere":
                _, c, r, m = prim
                normal[sel] = (point[sel] - c[None, :]) / r
            else:
                m = prim[7]
                normal[sel] = prim[6][None, :]
            mat[sel] = m
        flip = _dot(normal, D) > 0.0
        normal[flip] = -normal[flip]
        n_vertices += lane.shape[0]

        terminal = _draw(key, counter) < absorb[mat]
        is_em = terminal & (kind[mat] == MaterialKind.EMITTER)
        term_mat[lane[is_em]] = mat[is_em]

        surviving = ~terminal
        if d + 1 >= max_depth or not np.any(surviving):
            break  # the rest end here, at the depth cap or by roulette
        lane, key, counter, D = lane[surviving], key[surviving], counter[surviving], D[surviving]
        point, normal, mat = point[surviving], normal[surviving], mat[surviving]

        is_phong = kind[mat] == MaterialKind.PHONG
        counter += is_phong  # only glossy vertices draw the lobe pick
        specular = is_phong & (uniform(key, counter) < Q_LOBE)
        u1 = _draw(key, counter)
        u2 = _draw(key, counter)

        fx, fy, fz = _make_frames(normal)
        alpha = np.where(specular, exponent[mat], 0.0)
        t_pow = lobe_t(alpha, u1)
        zloc = np.sqrt(t_pow)
        rloc = np.sqrt(1.0 - t_pow)
        phi = 2.0 * np.pi * u2
        a_loc = np.cos(phi) * rloc
        b_loc = np.sin(phi) * rloc
        dir_out = fx * a_loc[:, None] + fy * b_loc[:, None] + fz * zloc[:, None]

        below = np.zeros(lane.shape[0], dtype=bool)
        if np.any(specular):
            inc = -D
            m_spec = dir_out.copy()
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

        v_mat[d, lane] = mat
        v_u1[d, lane] = u1
        v_tag[d, lane] = np.where(specular, LobeTag.SPECULAR,
                                  np.where(is_phong, LobeTag.DIFFUSE, LobeTag.LAMBERT_ONLY))

        cont = ~below  # below-horizon samples end the path
        lane, key, counter = lane[cont], key[cont], counter[cont]
        O, D = point[cont], dir_out[cont]
        n_cont[lane] = d + 1

    depth = int(n_cont.max()) if n_lanes else 0
    record = PathRecord(n_cont=n_cont, term_mat=term_mat, v_mat=v_mat[:depth],
                        v_tag=v_tag[:depth], v_u1=v_u1[:depth])
    return record, n_vertices


def forward(record, mats, plan):
    """Camera radiance per lane, plus the cache ``backward`` needs.

    Sweeps each path terminal -> camera like path_engine.forward_pass: an
    emitter terminal starts at its emitter radiance, then every continuation
    vertex applies  L <- ambient + throughput * L * weight.  ``plan`` is
    ``sweep_plan(record)``.
    """
    depth, n_lanes = record.v_mat.shape
    radiance = np.zeros(n_lanes)
    em = plan.emitters
    m = record.term_mat[em]
    radiance[em] = emitter_radiance(mats.value["emission"][m], mats.base_emission[m],
                                    mats.absorb[m])
    cache = SweepCache(mats, plan, [None] * depth, [None] * depth)
    for d in range(depth - 1, -1, -1):
        lanes = plan.lanes[d]
        mat = record.v_mat[d, lanes]
        f = np.empty(lanes.shape[0])
        for tag, sel in plan.groups[d]:
            m = mat[sel]
            f[sel] = throughput(tag, mats.value["diffuse"][m], mats.value["specular"][m],
                                mats.value["exponent"][m], record.v_u1[d, lanes[sel]])
        r = radiance[lanes]
        cache.radiance_in[d], cache.throughput[d] = r, f
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
    mats, plan = cache.mats, cache.plan
    g = np.zeros((N_CONTROLS, record.n_cont.shape[0]))
    p = np.array(adjoint, dtype=np.float64)
    for d, lanes in enumerate(plan.lanes):
        mat = record.v_mat[d, lanes]
        w = mats.weight[mat]
        rad_w = cache.radiance_in[d] * w
        p_d = p[lanes]
        _scatter(g, mats.control["ambient"][mat], lanes, p_d)
        for tag, sel in plan.groups[d]:
            m = mat[sel]
            for name, amount in throughput_partials(
                    tag, mats.value["specular"][m], mats.value["exponent"][m],
                    record.v_u1[d, lanes[sel]], rad_w[sel], p_d[sel]):
                _scatter(g, mats.control[name][m], lanes[sel], amount)
        p[lanes] = cache.throughput[d] * w * p_d
    em = plan.emitters
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
    traced: bool           # False when the chunk replayed its cached record


class _Chunk:
    """One pixel range: what tracing it takes, and its last record and plan.

    Lives in the process that traces it.  The record is keyed by the bytes
    of the exponents it was traced at; ``kind`` and ``absorb`` are fixed by
    the scene, so an evaluation at the same key re-sweeps the record and
    one at another key traces the chunk again and replaces it.
    """

    def __init__(self, prims, cam, pixels, spp, seed, max_depth):
        self.prims, self.cam, self.pixels = prims, cam, pixels
        self.spp, self.seed, self.max_depth = spp, seed, max_depth
        self.key = self.record = self.plan = None
        self.n_vertices = 0

    def evaluate(self, mats, targets, want_grad, want_grad_images):
        npix, spp = self.pixels.shape[0], self.spp
        exponent = mats.value["exponent"]
        traced = exponent.tobytes() != self.key
        if traced:
            self.key = self.record = self.plan = None  # hold one record at a time
            pix = np.repeat(self.pixels, spp)
            smp = np.tile(np.arange(spp, dtype=np.int64), npix)
            self.record, self.n_vertices = trace_lanes(
                self.prims, self.cam, mats.kind, mats.absorb, exponent, self.seed,
                pix, smp, self.max_depth)
            self.plan = sweep_plan(self.record)
            self.key = exponent.tobytes()
        radiance, cache = forward(self.record, mats, self.plan)
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
            g_lane = backward(self.record, cache, np.repeat(resid / spp, spp))
            grad_pixel_full = g_lane.reshape(N_CONTROLS, npix, spp).sum(axis=2)
            grad = grad_pixel_full.sum(axis=1)
            if want_grad_images:
                grad_pixel = grad_pixel_full

        return _ChunkResult(pixel_sum=pixel_sum, n_verts_total=self.n_vertices,
                            cost=cost, grad=grad, grad_pixel=grad_pixel, traced=traced)


def _serve(conn, chunks):
    """Worker loop: evaluate the owned chunks per job list until None arrives."""
    try:
        while (jobs := conn.recv()) is not None:
            try:
                out = [chunk.evaluate(*job) for chunk, job in zip(chunks, jobs)]
            except Exception as exc:  # raised again by the session
                out = exc
            conn.send(out)
    except EOFError:  # the session's end of the pipe closed
        pass


@dataclass
class TraceResult:
    pixel_mean: np.ndarray  # (h, w)
    cost: float
    grad: np.ndarray        # (7,)
    mean_depth: float
    grad_images: np.ndarray | None


class Session:
    """Evaluations of one scene at one spp, seed and depth cap, many thetas.

    The scene is flattened once and its pixel range split into
    min(threads, pixels) chunks.  With more than one chunk the first
    evaluation starts one worker process per pool slot, and worker ``w``
    owns chunks ``w, w + n, ...`` for the life of the session, so each
    chunk's record stays in the process that traced it and only the
    resolved material table, the target slices and the results cross the
    pipes.  ``traces`` counts chunk traces; an evaluation whose exponents
    match a chunk's record replays it instead.  Use as a context manager,
    or call ``close``, to stop the workers.
    """

    def __init__(self, scene, spp, seed, threads, max_depth):
        _check_at_least_one(spp=spp, max_depth=max_depth, threads=threads)
        self.materials = list(scene.materials)
        self.width, self.height, self.spp = scene.camera.width, scene.camera.height, spp
        npix = self.width * self.height
        n_chunks = min(threads, npix)
        self._bounds = [(npix * i) // n_chunks for i in range(n_chunks + 1)]
        prims = _flat_prims(scene)
        self._chunks = [_Chunk(prims, scene.camera, np.arange(lo, hi, dtype=np.int64),
                               spp, seed, max_depth)
                        for lo, hi in zip(self._bounds, self._bounds[1:])]
        self._n_workers = 0 if n_chunks == 1 else min(n_chunks, os.cpu_count() or 1)
        self._workers = []  # (process, connection) per pool slot once started
        self.traces = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _start(self):
        # imported here so that `import pathgrad` does not pay for it
        import multiprocessing
        # fork, not spawn: the session's process starts no threads of its own,
        # and a spawned worker re-imports numpy and pathgrad: starting two took
        # ~0.4 s on a 2-core host against ~0.01 s forked, a cost every one-shot
        # trace with workers would pay
        ctx = multiprocessing.get_context("fork")
        n = self._n_workers
        for w in range(n):
            conn, child = ctx.Pipe()
            proc = ctx.Process(target=_serve, args=(child, self._chunks[w::n]), daemon=True)
            proc.start()
            child.close()
            self._workers.append((proc, conn))

    def _run(self, jobs):
        """Per-chunk results, in chunk order."""
        if not self._n_workers:
            return [chunk.evaluate(*job) for chunk, job in zip(self._chunks, jobs)]
        if not self._workers:
            self._start()
        n = len(self._workers)
        try:
            for w, (_, conn) in enumerate(self._workers):
                conn.send(jobs[w::n])
            # every reply is read before any is raised, so the pipes stay in step
            replies = [conn.recv() for _, conn in self._workers]
        except BaseException:
            self.close()  # the pipes may hold unread replies; the next call restarts
            raise
        results = [None] * len(jobs)
        for w, reply in enumerate(replies):
            if isinstance(reply, BaseException):
                raise reply
            results[w::n] = reply
        return results

    def evaluate(self, theta, target_rows, want_grad, want_grad_images):
        """Render at theta and, with ``want_grad``, differentiate the image cost.

        Returns a TraceResult.  ``target_rows`` is the (height, width) float64
        target, or None without gradients.  Raises ValueError for controls
        outside the domain material_table accepts, on every call.
        """
        mats = material_table(self.materials, theta)
        flat = target_rows.reshape(-1) if target_rows is not None else None
        jobs = [(mats, flat[lo:hi] if flat is not None else None, want_grad,
                 want_grad_images) for lo, hi in zip(self._bounds, self._bounds[1:])]
        results = self._run(jobs)
        self.traces += sum(r.traced for r in results)

        pixel_sum = np.concatenate([r.pixel_sum for r in results])
        cost = 0.0
        grad = np.zeros(N_CONTROLS)
        for r in results:  # fixed chunk order -> bit-stable reduction
            cost += r.cost
            grad += r.grad
        grad_images = None
        if want_grad and want_grad_images:
            grad_images = np.concatenate([r.grad_pixel for r in results],
                                         axis=1).reshape(N_CONTROLS, self.height, self.width)
        total_verts = sum(r.n_verts_total for r in results)
        return TraceResult(pixel_mean=(pixel_sum / self.spp).reshape(self.height, self.width),
                           cost=cost, grad=grad,
                           mean_depth=total_verts / (self._bounds[-1] * self.spp),
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


def trace(scene, theta, spp, seed, target_rows, want_grad, threads, max_depth,
          want_grad_images):
    """One evaluation in a one-shot Session; see Session.evaluate."""
    with Session(scene, spp, seed, threads, max_depth) as session:
        return session.evaluate(theta, target_rows, want_grad, want_grad_images)
