"""Scene description text format, the built-in box scene, and image I/O.

Scene grammar (one directive per line, ``#`` starts a comment):

    camera eye X Y Z look X Y Z up X Y Z fov F res W H
    material NAME emitter emission V|@K base E absorb 1.0
    material NAME phong ambient V|@K diffuse V|@K specular V|@K exponent V|@K absorb A
    material NAME lambert ambient V|@K diffuse V|@K absorb A
    quad p X Y Z u X Y Z v X Y Z mat NAME
    sphere c X Y Z r R mat NAME
    theta V1 V2 V3 V4 V5 V6 V7

``@K`` binds a parameter to control K (1..7); each control may be bound at
most once per scene.  Every number must be finite, and so must what the
tracer derives from them (quad u x v and |u x v|^2, sphere r^2, the camera
basis); quad edges must not be parallel, and a scene has one camera line
and at most one theta line.  One field table (``_DIRECTIVES``,
``_MATERIAL_FIELDS``) drives both directions:
``parse_scene`` reads each line by walking it and ``serialize_scene`` writes
each object by walking it, so the two cannot drift apart.

Images are single-channel float rasters written as grayscale PFM (32-bit
little-endian, bottom row first) with 8-bit PPM previews.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .geometry import Quad, Ray, Sphere, Vec3
from .materials import Binding, ControlVector, Material, MaterialKind, N_CONTROLS


class SceneError(Exception):
    """Scene text rejected; ``line`` is 1-based."""

    def __init__(self, line, message):
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}")


class SceneSyntaxError(SceneError):
    pass


class SceneSemanticError(SceneError):
    pass


def _check_finite(what, value):
    """Reject a derived quantity that overflowed although its inputs are finite."""
    if not math.isfinite(value):
        raise ValueError(f"{what} overflows to {value}; scale the scene down")


@dataclass
class Camera:
    """Pinhole camera; pixel (0, 0) is the top-left corner of the image."""

    eye: Vec3
    look: Vec3
    up: Vec3
    fov_deg: float  # vertical field of view
    width: int
    height: int
    forward: Vec3 = field(init=False, repr=False)
    right: Vec3 = field(init=False, repr=False)
    upv: Vec3 = field(init=False, repr=False)
    half_w: float = field(init=False, repr=False)
    half_h: float = field(init=False, repr=False)

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("camera resolution must be at least 1x1")
        if not 0.0 < self.fov_deg < 180.0:
            raise ValueError("camera fov must lie in (0, 180) degrees")
        gaze = self.look - self.eye
        if gaze.norm() == 0.0:
            raise ValueError("camera look point coincides with eye")
        _check_finite("camera |look - eye|", gaze.norm())
        self.forward = gaze.normalized()
        r = self.forward.cross(self.up)
        if r.norm() < 1e-12:
            raise ValueError("camera up vector is parallel to the view direction")
        _check_finite("camera |forward x up|", r.norm())
        self.right = r.normalized()
        self.upv = self.right.cross(self.forward)
        self.half_h = math.tan(math.radians(self.fov_deg) / 2.0)
        self.half_w = self.half_h * self.width / self.height

    def with_resolution(self, width, height):
        return Camera(self.eye, self.look, self.up, self.fov_deg, width, height)

    def generate_ray(self, x, y, jx, jy):
        """Primary ray through pixel (x, y) jittered by (jx, jy) in [0, 1)."""
        sx = (x + jx) / self.width * 2.0 - 1.0
        sy = 1.0 - (y + jy) / self.height * 2.0
        d = (self.forward
             + self.right * (sx * self.half_w)
             + self.upv * (sy * self.half_h))
        return Ray(self.eye, d.normalized(), 0)


@dataclass
class Scene:
    camera: Camera
    materials: list
    primitives: list
    theta: ControlVector | None = None

    def material_index(self, name):
        for i, m in enumerate(self.materials):
            if m.name == name:
                return i
        raise KeyError(name)


# ---------------------------------------------------------------------------
# the grammar: one table read by parse_scene and written by serialize_scene

def _number(tok, line, kind=float):
    """The one reader of every number in scene text: finite values only."""
    try:
        x = kind(tok)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise SceneSyntaxError(line, f"expected {noun}, got {tok!r}") from None
    if not math.isfinite(x):
        raise SceneSyntaxError(line, f"expected a finite number, got {tok!r}")
    return x


def _read_binding(toks):
    tok = toks.take()
    if not tok.startswith("@"):
        return Binding.const(_number(tok, toks.line))
    k = _number(tok[1:], toks.line, int)
    if not 1 <= k <= N_CONTROLS:
        raise SceneSemanticError(toks.line, f"control index {k} outside 1..{N_CONTROLS}")
    if k in toks.bound:
        raise SceneSemanticError(toks.line, f"control {k} bound more than once")
    toks.bound.add(k)
    return Binding.ctl(k)


def _fmt(x):
    return repr(float(x))


class _Kind(NamedTuple):
    """How one field's value is read from tokens and written back."""

    read: Callable   # (_Tokens) -> value
    write: Callable  # (value, scene) -> list of tokens


_FLOAT = _Kind(lambda t: t.number(), lambda x, s: [_fmt(x)])
_INT = _Kind(lambda t: t.number(int), lambda n, s: [str(n)])
_VEC3 = _Kind(lambda t: Vec3(t.number(), t.number(), t.number()),
              lambda v, s: [_fmt(v.x), _fmt(v.y), _fmt(v.z)])
_CONTROLS = _Kind(lambda t: tuple(t.number() for _ in range(N_CONTROLS)),
                  lambda vals, s: [_fmt(x) for x in vals])
_BINDING = _Kind(_read_binding, lambda b, s: [b.serialize()])
# a primitive names its material; the object holds the material's index
_MAT = _Kind(lambda t: t.take(), lambda i, s: [s.materials[i].name])

# Directive -> (object type, fields in text order as (keyword, kind, attribute)).
# A field without keyword follows the previous one directly.
_DIRECTIVES = {
    "camera": (Camera, (("eye", _VEC3, "eye"), ("look", _VEC3, "look"),
                        ("up", _VEC3, "up"), ("fov", _FLOAT, "fov_deg"),
                        ("res", _INT, "width"), (None, _INT, "height"))),
    "material": (Material, ()),  # then NAME KIND and the kind's fields below
    "quad": (Quad, (("p", _VEC3, "corner"), ("u", _VEC3, "edge_u"),
                    ("v", _VEC3, "edge_v"), ("mat", _MAT, "material"))),
    "sphere": (Sphere, (("c", _VEC3, "center"), ("r", _FLOAT, "radius"),
                        ("mat", _MAT, "material"))),
    "theta": (ControlVector, ((None, _CONTROLS, "values"),)),
}
_DIRECTIVE_OF = {cls: word for word, (cls, _) in _DIRECTIVES.items()}

# Material kind (written as its lower-case name) -> fields after NAME KIND.
_MATERIAL_FIELDS = {
    MaterialKind.EMITTER: (("emission", _BINDING, "emission"),
                           ("base", _FLOAT, "base_emission"),
                           ("absorb", _FLOAT, "absorb")),
    MaterialKind.PHONG: (("ambient", _BINDING, "ambient"),
                         ("diffuse", _BINDING, "diffuse"),
                         ("specular", _BINDING, "specular"),
                         ("exponent", _BINDING, "exponent"),
                         ("absorb", _FLOAT, "absorb")),
    MaterialKind.LAMBERT: (("ambient", _BINDING, "ambient"),
                           ("diffuse", _BINDING, "diffuse"),
                           ("absorb", _FLOAT, "absorb")),
}
_KIND_OF_WORD = {kind.name.lower(): kind for kind in _MATERIAL_FIELDS}


class _Tokens:
    def __init__(self, tokens, line, bound):
        self.tokens = tokens
        self.line = line
        self.bound = bound  # controls bound so far in the scene
        self.pos = 0

    def take(self):
        if self.pos >= len(self.tokens):
            raise SceneSyntaxError(self.line, "unexpected end of line")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def number(self, kind=float):
        return _number(self.take(), self.line, kind)

    def fields(self, table):
        """Walk a field table: {attribute: value}, then the line must end."""
        values = {}
        for keyword, kind, attr in table:
            if keyword is not None:
                tok = self.take()
                if tok != keyword:
                    raise SceneSyntaxError(self.line, f"expected {keyword!r}, got {tok!r}")
            values[attr] = kind.read(self)
        if self.pos != len(self.tokens):
            raise SceneSyntaxError(
                self.line, f"trailing tokens: {' '.join(self.tokens[self.pos:])}")
        return values


def _write_fields(table, obj, scene):
    out = []
    for keyword, kind, attr in table:
        if keyword is not None:
            out.append(keyword)
        out.extend(kind.write(getattr(obj, attr), scene))
    return out


def parse_scene(text):
    """Parse scene text; raises SceneSyntaxError / SceneSemanticError."""
    camera = None
    materials = []
    mat_index = {}
    primitives = []
    theta = None
    bound_controls = set()
    n_lines = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        n_lines = lineno
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = _Tokens(line.split(), lineno, bound_controls)
        directive = toks.take()
        if directive not in _DIRECTIVES:
            raise SceneSyntaxError(lineno, f"unknown directive {directive!r}")
        cls, table = _DIRECTIVES[directive]

        if cls is Material:
            name = toks.take()
            if name in mat_index:
                raise SceneSemanticError(lineno, f"duplicate material name {name!r}")
            word = toks.take()
            if word not in _KIND_OF_WORD:
                raise SceneSyntaxError(lineno, f"unknown material kind {word!r}")
            kind = _KIND_OF_WORD[word]
            f = toks.fields(_MATERIAL_FIELDS[kind])
            if kind is MaterialKind.EMITTER:
                if f["absorb"] != 1.0:
                    raise SceneSemanticError(lineno, "emitter absorb must be 1.0")
            elif not 0.0 < f["absorb"] < 1.0:
                raise SceneSemanticError(
                    lineno, "reflective absorb must lie strictly in (0, 1)")
            mat_index[name] = len(materials)
            materials.append(Material(name=name, kind=kind, **f))
            continue

        f = toks.fields(table)
        if cls is Camera:
            try:
                cam = Camera(**f)
            except ValueError as exc:
                raise SceneSemanticError(lineno, str(exc)) from None
            if camera is not None:
                raise SceneSemanticError(lineno, "duplicate camera line")
            camera = cam
        elif cls is ControlVector:
            if theta is not None:
                raise SceneSemanticError(lineno, "duplicate theta line")
            theta = ControlVector(**f)
        else:
            try:
                if cls is Sphere:
                    if f["radius"] <= 0.0:
                        raise ValueError(f"sphere radius must be positive, got {f['radius']}")
                    _check_finite("sphere r^2", f["radius"] * f["radius"])
                else:
                    n = f["edge_u"].cross(f["edge_v"])
                    if n.dot(n) == 0.0:
                        raise ValueError("quad edges u and v are parallel")
                    _check_finite("quad |u x v|^2", n.dot(n))
            except ValueError as exc:
                raise SceneSemanticError(lineno, str(exc)) from None
            if f["material"] not in mat_index:
                raise SceneSemanticError(lineno, f"undefined material {f['material']!r}")
            f["material"] = mat_index[f["material"]]
            primitives.append(cls(**f))

    if camera is None:
        raise SceneSemanticError(max(n_lines, 1), "scene has no camera line")
    return Scene(camera, materials, primitives, theta)


def serialize_scene(scene):
    """Canonical scene text; parse_scene(serialize_scene(s)) is equivalent."""
    objs = [scene.camera, *scene.materials, *scene.primitives]
    if scene.theta is not None:
        objs.append(scene.theta)
    lines = []
    for obj in objs:
        words = [_DIRECTIVE_OF[type(obj)]]
        table = _DIRECTIVES[words[0]][1]
        if isinstance(obj, Material):
            words += [obj.name, obj.kind.name.lower()]
            table = _MATERIAL_FIELDS[obj.kind]
        lines.append(" ".join(words + _write_fields(table, obj, scene)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# built-in box scene

CORNELL_DEFAULT_THETA = (1.0, 0.1, 0.6, 0.4, 20.0, 0.1, 0.7)
CORNELL_REFLECTIVE_ABSORB = 0.3
CORNELL_BASE_EMISSION = 15.0


def build_cornell_box(width=64, height=64):
    """Closed box scene: six matte walls, one area light, one glossy sphere.

    Box interior spans [0,552] x [0,548] x [0,559]; the camera sits inside
    looking down +z.  All seven controls are bound exactly once.
    """
    theta = ControlVector(CORNELL_DEFAULT_THETA)
    wall = Material.lambert("wall", ambient=Binding.ctl(6), diffuse=Binding.ctl(7),
                            absorb=CORNELL_REFLECTIVE_ABSORB)
    light = Material.emitter("light", emission=Binding.ctl(1),
                             base_emission=CORNELL_BASE_EMISSION)
    ball = Material.phong_blinn("ball", ambient=Binding.ctl(2), diffuse=Binding.ctl(3),
                                specular=Binding.ctl(4), exponent=Binding.ctl(5),
                                absorb=CORNELL_REFLECTIVE_ABSORB)
    materials = [wall, light, ball]
    w_i, l_i, b_i = 0, 1, 2

    primitives = [
        # floor, ceiling, back, front, left, right
        Quad(Vec3(0, 0, 0), Vec3(552, 0, 0), Vec3(0, 0, 559), w_i),
        Quad(Vec3(0, 548, 0), Vec3(552, 0, 0), Vec3(0, 0, 559), w_i),
        Quad(Vec3(0, 0, 559), Vec3(552, 0, 0), Vec3(0, 548, 0), w_i),
        Quad(Vec3(0, 0, 0), Vec3(552, 0, 0), Vec3(0, 548, 0), w_i),
        Quad(Vec3(0, 0, 0), Vec3(0, 548, 0), Vec3(0, 0, 559), w_i),
        Quad(Vec3(552, 0, 0), Vec3(0, 548, 0), Vec3(0, 0, 559), w_i),
        # area light slightly below the ceiling
        Quad(Vec3(213, 547.2, 227), Vec3(130, 0, 0), Vec3(0, 0, 105), l_i),
        Sphere(Vec3(276, 274, 279.5), 110.0, b_i),
    ]
    camera = Camera(eye=Vec3(276, 274, 20), look=Vec3(276, 274, 559),
                    up=Vec3(0, 1, 0), fov_deg=60.0, width=width, height=height)
    scene = Scene(camera, materials, primitives, theta)
    return scene, theta


# ---------------------------------------------------------------------------
# images

@dataclass(eq=False)
class ScalarImage:
    """Single-channel float32 raster, row-major, top row first."""

    width: int
    height: int
    data: np.ndarray  # float32, shape (height, width)

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float32)
        if self.data.shape != (self.height, self.width):
            raise ValueError(
                f"data shape {self.data.shape} != (height={self.height}, width={self.width})")

    @classmethod
    def zeros(cls, width, height):
        return cls(width, height, np.zeros((height, width), dtype=np.float32))

    @classmethod
    def from_rows(cls, rows):
        arr = np.asarray(rows, dtype=np.float32)
        return cls(arr.shape[1], arr.shape[0], arr)


def write_pfm(image):
    """Grayscale PFM: 'Pf' header, -1.0 scale (little endian), bottom row first."""
    header = f"Pf\n{image.width} {image.height}\n-1.0\n".encode("ascii")
    body = np.flipud(image.data).astype("<f4").tobytes()
    return header + body


def read_pfm(data):
    """Inverse of write_pfm (grayscale, little- or big-endian)."""
    parts = data.split(b"\n", 3)
    if len(parts) < 4 or parts[0] != b"Pf":
        raise ValueError("not a grayscale PFM stream")
    try:
        w, h = (int(v) for v in parts[1].split())
        scale = float(parts[2])
    except ValueError:
        raise ValueError("malformed PFM header") from None
    endian = "<" if scale < 0 else ">"
    body = parts[3]
    expected = w * h * 4
    if len(body) < expected:
        raise ValueError(f"PFM body truncated: {len(body)} < {expected} bytes")
    arr = np.frombuffer(body[:expected], dtype=endian + "f4").reshape(h, w)
    return ScalarImage(w, h, np.flipud(arr).copy())


def _ppm_bytes(width, height, gray):
    """Wrap a uint8 (h, w) gray raster as binary P6 with equal channels."""
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    rgb = np.repeat(gray[:, :, None], 3, axis=2)
    return header + rgb.tobytes()


def write_ppm_preview(image, gamma=2.2):
    """8-bit preview: byte = round(255 * clamp(v, 0, 1)^(1/gamma))."""
    v = np.clip(image.data.astype(np.float64), 0.0, 1.0) ** (1.0 / gamma)
    gray = np.floor(255.0 * v + 0.5).astype(np.uint8)
    return _ppm_bytes(image.width, image.height, gray)


def gradient_preview(grad_image):
    """Signed preview: 128 is zero, 0/255 are -/+ the largest magnitude."""
    vals = grad_image.data.astype(np.float64)
    m = max(float(np.max(np.abs(vals))) if vals.size else 0.0, 1e-30)
    gray = np.floor(255.0 * (0.5 + 0.5 * vals / m) + 0.5)
    gray = np.clip(gray, 0.0, 255.0).astype(np.uint8)
    return _ppm_bytes(grad_image.width, grad_image.height, gray)
