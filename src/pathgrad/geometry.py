"""3-vectors, rays, primitive intersection and tangent-frame construction,
each in two forms.

The Vec3 form is plain float math on small objects, the scalar engine's.
The lane form evaluates the same formulas, term for term, on x/y/z columns
of numpy lanes (structure of arrays) for the tracer in ``_wavefront``:
``prim_table`` flattens a scene once, ``nearest_hits`` intersects every ray
with it, ``hit_normals`` shades the hits and ``frames`` builds tangent
frames.  Each lane kernel sits below the Vec3 formula it twins.  The twins
stay on purpose, unlike the float-or-array formulas in sampling and
materials: the Vec3 form is the tests' independent reference, which holds
the lane form to the same hits and frames, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Hits closer than this along the ray are rejected (self-intersection guard).
T_MIN = 1e-4

# Offset vector used to build a tangent frame around a normal, and the
# substitute used when the normal is (anti)parallel to the first choice.
FRAME_HELPER = (0.1, 0.2, 0.3)
FRAME_HELPER_FALLBACK = (0.3, 0.1, 0.2)
FRAME_DEGENERATE_EPS = 1e-8


class Vec3:
    """Cartesian 3-vector of floats."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x=0.0, y=0.0, z=0.0):
        self.x = float(x)
        self.y = float(y)
        self.z = float(z)

    def __add__(self, other):
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other):
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self):
        return Vec3(-self.x, -self.y, -self.z)

    def __mul__(self, s):
        return Vec3(self.x * s, self.y * s, self.z * s)

    __rmul__ = __mul__

    def __truediv__(self, s):
        return Vec3(self.x / s, self.y / s, self.z / s)

    def __eq__(self, other):
        if not isinstance(other, Vec3):
            return NotImplemented
        return self.x == other.x and self.y == other.y and self.z == other.z

    def __repr__(self):
        return f"Vec3({self.x!r}, {self.y!r}, {self.z!r})"

    def dot(self, other):
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other):
        return Vec3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def norm(self):
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def normalized(self):
        n = self.norm()
        return Vec3(self.x / n, self.y / n, self.z / n)

    def as_tuple(self):
        return (self.x, self.y, self.z)


# Vec3.dot and Vec3.cross on x/y/z column triples, term for term
def dot3(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross3(a, b):
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def take(columns, idx):
    """The lanes ``idx`` of each column."""
    return [c[idx] for c in columns]


@dataclass(slots=True)
class Ray:
    origin: Vec3
    dir: Vec3  # unit length
    depth: int = 0


@dataclass(slots=True)
class Hit:
    """Nearest surface interaction along a ray.

    ``normal`` is unit length and oriented toward the ray origin
    (normal . ray.dir < 0), so two-sided primitives need no winding rules.
    """

    t: float
    point: Vec3
    normal: Vec3
    material_id: int = -1


@dataclass(slots=True)
class Frame:
    """Right-handed orthonormal basis with Z along the surface normal."""

    x_axis: Vec3
    y_axis: Vec3
    z_axis: Vec3

    def to_world(self, a, b, c):
        return Vec3(
            self.x_axis.x * a + self.y_axis.x * b + self.z_axis.x * c,
            self.x_axis.y * a + self.y_axis.y * b + self.z_axis.y * c,
            self.x_axis.z * a + self.y_axis.z * b + self.z_axis.z * c,
        )


@dataclass(slots=True)
class Sphere:
    center: Vec3
    radius: float
    material: int = -1


@dataclass(slots=True)
class Quad:
    """Parallelogram spanned by two edges from a corner point."""

    corner: Vec3
    edge_u: Vec3
    edge_v: Vec3
    material: int = -1


@dataclass
class PrimTable:
    """A scene's primitive tables for the lane kernels, indexed by primitive."""

    shapes: list         # ("quad", corner, eu, ev, n, nn) / ("sphere", c, r)
    mat: np.ndarray      # material id
    normal: list         # x/y/z columns of the quad unit normals
    center: list         # x/y/z columns of the sphere centers
    radius: np.ndarray   # sphere radius (> 0, as scenes require), 0 for quads


def prim_table(scene):
    """The PrimTable of scene.primitives, in declaration order."""
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
    return PrimTable(shapes, np.array([p.material for p in scene.primitives], dtype=np.int64),
                     cols[:3], cols[3:6], cols[6])


def _oriented(normal, ray_dir):
    return -normal if normal.dot(ray_dir) > 0.0 else normal


def intersect_sphere(ray, center, radius):
    """Nearest sphere hit beyond T_MIN, or None."""
    oc = ray.origin - center
    b = oc.dot(ray.dir)
    c = oc.dot(oc) - radius * radius
    disc = b * b - c
    if disc < 0.0:
        return None
    s = math.sqrt(disc)
    t = -b - s
    if t <= T_MIN:
        t = -b + s
        if t <= T_MIN:
            return None
    point = ray.origin + ray.dir * t
    normal = (point - center) / radius
    return Hit(t, point, _oriented(normal, ray.dir))


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


def intersect_quad(ray, corner, edge_u, edge_v):
    """Nearest parallelogram hit beyond T_MIN, or None."""
    n = edge_u.cross(edge_v)
    denom = n.dot(ray.dir)
    if denom == 0.0:  # ray parallel to the plane
        return None
    t = (corner - ray.origin).dot(n) / denom
    if t <= T_MIN:
        return None
    point = ray.origin + ray.dir * t
    w = point - corner
    nn = n.dot(n)
    a = w.cross(edge_v).dot(n) / nn
    if a < 0.0 or a > 1.0:
        return None
    b = edge_u.cross(w).dot(n) / nn
    if b < 0.0 or b > 1.0:
        return None
    normal = n / math.sqrt(nn)
    return Hit(t, point, _oriented(normal, ray.dir))


def _quad_hits(corner, eu, ev, nrm, nn, O, Dx, Dy, Dz, best_t):
    """Rays that hit the quad nearer than ``best_t``, and their t."""
    (cx, cy, cz), (nx, ny, nz) = corner, nrm
    t = Dx * nx + Dy * ny + Dz * nz  # the denominator, divided into in place
    t[t == 0.0] = np.nan  # rays parallel to the plane miss it
    np.divide((cx - O[0]) * nx + (cy - O[1]) * ny + (cz - O[2]) * nz, t, out=t)
    idx = np.flatnonzero((t > T_MIN) & (t < best_t))
    t = t[idx]
    ox, oy, oz = O if np.ndim(O[0]) == 0 else take(O, idx)
    wx = ox + t * Dx[idx] - cx  # w = hit point - corner
    wy = oy + t * Dy[idx] - cy
    wz = oz + t * Dz[idx] - cz
    # (w x e_v).n and (e_u x w).n, term for term as Vec3.cross then Vec3.dot
    (ux, uy, uz), (vx, vy, vz) = eu, ev
    a = ((wy * vz - wz * vy) * nx + (wz * vx - wx * vz) * ny + (wx * vy - wy * vx) * nz) / nn
    b = ((uy * wz - uz * wy) * nx + (uz * wx - ux * wz) * ny + (ux * wy - uy * wx) * nz) / nn
    win = (a >= 0.0) & (a <= 1.0) & (b >= 0.0) & (b <= 1.0)
    return idx[win], t[win]


def intersect_scene(ray, scene):
    """Nearest hit over scene.primitives; ties keep the first-declared one."""
    best = None
    for prim in scene.primitives:
        if isinstance(prim, Sphere):
            h = intersect_sphere(ray, prim.center, prim.radius)
        else:
            h = intersect_quad(ray, prim.corner, prim.edge_u, prim.edge_v)
        if h is not None and (best is None or h.t < best.t):
            h.material_id = prim.material
            best = h
    return best


def nearest_hits(prims, O, Dx, Dy, Dz):
    """(t, primitive index or -1) of each ray's nearest hit, first-declared on ties.

    ``prims`` is a PrimTable and ``Dx, Dy, Dz`` are the directions' columns.
    ``O`` is one origin every ray shares, three floats (the eye, at depth 0),
    which makes the origin-only terms one scalar per primitive; or one origin
    per ray, three columns.  Each primitive finishes only the rays a cheap
    test leaves (sphere: the discriminant; quad: the plane distance, beyond
    T_MIN and nearer than the best hit so far), bit-identically to
    intersect_scene.
    """
    best_t = np.full(Dx.shape[0], np.inf)
    best_prim = np.full(Dx.shape[0], -1, dtype=np.int64)
    for i, (shape, *geometry) in enumerate(prims.shapes):
        hits = _sphere_hits if shape == "sphere" else _quad_hits
        idx, t = hits(*geometry, O, Dx, Dy, Dz, best_t)
        best_t[idx] = t
        best_prim[idx] = i
    return best_t, best_prim


def hit_normals(prims, prim, point, D):
    """x/y/z columns of the unit normals at the hit ``point``s on primitives
    ``prim``, turned toward the origin of the rays ``D``, as the Hits of
    intersect_sphere and intersect_quad."""
    normal = take(prims.normal, prim)  # quads; each sphere lane gets (p - c) / r
    sph = np.flatnonzero(prims.radius[prim] > 0.0)
    ps = prim[sph]
    for nk, pk, ck in zip(normal, point, prims.center):
        nk[sph] = (pk[sph] - ck[ps]) / prims.radius[ps]
    flip = dot3(normal, D) > 0.0  # turned toward the ray origin, as _oriented does
    for nk in normal:
        np.negative(nk, out=nk, where=flip)
    return normal


def make_frame(normal):
    """Orthonormal frame with z_axis == normal (assumed unit length)."""
    z = normal
    helper = Vec3(*FRAME_HELPER)
    c = z.cross(z + helper)
    if c.norm() < FRAME_DEGENERATE_EPS:
        helper = Vec3(*FRAME_HELPER_FALLBACK)
        c = z.cross(z + helper)
    y = c.normalized()
    x = y.cross(z).normalized()
    return Frame(x, y, z)


def frames(z):
    """Column twin of make_frame: the x and y axes around unit normals z."""
    y = _cross3(z, [zk + hk for zk, hk in zip(z, FRAME_HELPER)])
    cn = np.sqrt(dot3(y, y))
    bad = np.flatnonzero(cn < FRAME_DEGENERATE_EPS)
    if bad.size:
        zb = take(z, bad)
        c2 = _cross3(zb, [zk + hk for zk, hk in zip(zb, FRAME_HELPER_FALLBACK)])
        for yk, c2k in zip(y, c2):
            yk[bad] = c2k
        cn[bad] = np.sqrt(dot3(c2, c2))
    y = [yk / cn for yk in y]
    x = _cross3(y, z)
    xn = np.sqrt(dot3(x, x))
    return [xk / xn for xk in x], y
