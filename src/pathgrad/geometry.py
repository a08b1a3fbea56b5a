"""3-vectors, rays, primitive intersection and tangent-frame construction.

Everything here is plain float math on small objects.  It is the scalar
reference for the batched tracer in ``_wavefront``, which evaluates the same
intersection and frame formulas on numpy arrays; tests hold the two to the
same paths, draw for draw.  These formulas stay twinned on purpose, unlike
the float-or-array ones in sampling and materials: the reference must stay
independent of the code it checks, and Vec3 math on numpy scalars would
slow the scalar freeze of validation lattices, most of a `validate` run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
