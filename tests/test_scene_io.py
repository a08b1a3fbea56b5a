"""Scene text parsing/serialization and PFM/PPM byte formats."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pathgrad.geometry import Quad, Sphere, Vec3
from pathgrad.materials import MaterialKind
from pathgrad.scene_io import (Camera, ScalarImage, SceneSemanticError,
                               SceneSyntaxError, build_cornell_box,
                               gradient_preview, parse_scene, read_pfm,
                               serialize_scene, write_pfm, write_ppm_preview)

GOOD_SCENE = """\
# sample scene
camera eye 0 0 0 look 0 0 1 up 0 1 0 fov 60 res 8 4
material lamp emitter emission @1 base 5.0 absorb 1.0
material wall lambert ambient 0.05 diffuse @7 absorb 0.3
material ball phong ambient @2 diffuse @3 specular @4 exponent @5 absorb 0.25
quad p -1 -1 2 u 2 0 0 v 0 2 0 mat wall   # back wall
sphere c 0 0 1 r 0.25 mat ball
quad p -0.2 0.9 1 u 0.4 0 0 v 0 0 0.4 mat lamp
theta 1 0.1 0.6 0.4 20 0.1 0.7
"""


def test_parse_good_scene():
    scene = parse_scene(GOOD_SCENE)
    assert scene.camera.width == 8 and scene.camera.height == 4
    assert [m.name for m in scene.materials] == ["lamp", "wall", "ball"]
    assert scene.materials[0].kind is MaterialKind.EMITTER
    assert scene.materials[0].base_emission == 5.0
    assert isinstance(scene.primitives[0], Quad)
    assert isinstance(scene.primitives[1], Sphere)
    assert scene.primitives[1].material == scene.material_index("ball")
    assert scene.theta.values == (1.0, 0.1, 0.6, 0.4, 20.0, 0.1, 0.7)
    with pytest.raises(KeyError):
        scene.material_index("nope")


def test_parse_comments_and_blank_lines():
    scene = parse_scene("\n\n# nothing\ncamera eye 0 0 0 look 0 0 1 up 0 1 0 "
                        "fov 45 res 2 2\n   \n")
    assert scene.materials == [] and scene.theta is None


@pytest.mark.parametrize("text,line,err", [
    ("camera eye 0 0 0 look 0 0 1 up 0 1 0 fov 60 res 4", 1, SceneSyntaxError),
    ("camera eye 0 0 0 look 0 0 1 up 0 1 0 fov 60 res 4 4 junk", 1,
     SceneSyntaxError),
    ("warp drive", 1, SceneSyntaxError),
    ("camera eye 0 0 x look 0 0 1 up 0 1 0 fov 60 res 4 4", 1,
     SceneSyntaxError),
    ("# one\n# two\nmaterial m lambert ambient 0.1 diffuse q absorb 0.3", 3,
     SceneSyntaxError),
    ("material m velvet shine 1", 1, SceneSyntaxError),
    # a number that cannot render is rejected where it is read
    ("material lamp emitter emission 1 base nan absorb 1.0", 1, SceneSyntaxError),
    ("material lamp emitter emission 1 base inf absorb 1.0", 1, SceneSyntaxError),
    ("material m lambert ambient -inf diffuse 0.5 absorb 0.3", 1,
     SceneSyntaxError),
    ("# one\nsphere c 0 0 1 r nan mat ghost", 2, SceneSyntaxError),
    ("sphere c 0 0 1 r inf mat ghost", 1, SceneSyntaxError),
    ("quad p nan 0 0 u 1 0 0 v 0 1 0 mat ghost", 1, SceneSyntaxError),
    ("theta nan 1 1 1 1 1 1", 1, SceneSyntaxError),
    ("camera eye 0 0 0 look 0 0 1 up 0 1 0 fov nan res 4 4", 1,
     SceneSyntaxError),
])
def test_parse_syntax_errors_carry_line_numbers(text, line, err):
    with pytest.raises(err) as exc_info:
        parse_scene(text + "\ncamera eye 0 0 0 look 0 0 1 up 0 1 0 fov 60 res 2 2")
    assert exc_info.value.line == line
    assert f"line {line}:" in str(exc_info.value)


CAM = "camera eye 0 0 0 look 0 0 1 up 0 1 0 fov 60 res 2 2\n"


@pytest.mark.parametrize("text,phrase", [
    (CAM + "material m lambert ambient @1 diffuse @1 absorb 0.3",
     "bound more than once"),
    (CAM + "material m lambert ambient @0 diffuse 0.5 absorb 0.3",
     "outside 1..7"),
    (CAM + "material m lambert ambient @8 diffuse 0.5 absorb 0.3",
     "outside 1..7"),
    (CAM + "material m lambert ambient 0.1 diffuse 0.5 absorb 1.0",
     "strictly in (0, 1)"),
    (CAM + "material m lambert ambient 0.1 diffuse 0.5 absorb 0.0",
     "strictly in (0, 1)"),
    (CAM + "material m emitter emission 1 base 5 absorb 0.5",
     "emitter absorb must be 1.0"),
    (CAM + "material m lambert ambient 0.1 diffuse 0.5 absorb 0.3\n"
     "material m lambert ambient 0.1 diffuse 0.5 absorb 0.3",
     "duplicate material"),
    (CAM + "quad p 0 0 0 u 1 0 0 v 0 1 0 mat ghost", "undefined material"),
    (CAM + "sphere c 0 0 0 r -2 mat ghost", "radius must be positive"),
    (CAM + "theta 1 1 1 1 1 1 1\ntheta 1 1 1 1 1 1 1", "duplicate theta"),
    (CAM + "material m lambert ambient 0.1 diffuse 0.5 absorb 0.3\n"
     "quad p 0 0 0 u 4 0 0 v 8 0 0 mat m", "edges u and v are parallel"),
    (CAM + "material m lambert ambient 0.1 diffuse 0.5 absorb 0.3\n"
     "quad p 0 0 0 u 0 0 0 v 0 1 0 mat m", "edges u and v are parallel"),
    (CAM + CAM, "duplicate camera line"),
    ("material m lambert ambient 0.1 diffuse 0.5 absorb 0.3",
     "no camera"),
    (CAM + "camera eye 0 0 0 look 0 0 0 up 0 1 0 fov 60 res 2 2",
     "look point coincides"),
    (CAM + "camera eye 0 0 0 look 0 0 1 up 0 0 2 fov 60 res 2 2",
     "parallel to the view"),
    (CAM + "camera eye 0 0 0 look 0 0 1 up 0 1 0 fov 181 res 2 2",
     "fov must lie"),
    (CAM + "camera eye 0 0 0 look 0 0 1 up 0 1 0 fov 60 res 0 2",
     "at least 1x1"),
    # finite numbers whose derived values overflow
    (CAM + "material m lambert ambient 0.1 diffuse 0.5 absorb 0.3\n"
     "quad p 0 0 0 u 1e200 0 0 v 0 0 1e200 mat m", "quad |u x v|^2 overflows"),
    (CAM + "material m lambert ambient 0.1 diffuse 0.5 absorb 0.3\n"
     "quad p 0 0 0 u 1e155 1e155 0 v 0 1e155 1e155 mat m", "quad |u x v|^2 overflows"),
    (CAM + "material m lambert ambient 0.1 diffuse 0.5 absorb 0.3\n"
     "sphere c 0 0 0 r 1e200 mat m", "sphere r^2 overflows"),
    (CAM + "camera eye -1e200 0 0 look 1e200 0 0 up 0 1 0 fov 60 res 2 2",
     "camera |look - eye| overflows"),
    (CAM + "camera eye 0 0 0 look 0 0 1 up 1e200 1e200 0 fov 60 res 2 2",
     "camera |forward x up| overflows"),
])
def test_parse_semantic_errors(text, phrase):
    with pytest.raises(SceneSemanticError) as exc_info:
        parse_scene(text)
    assert phrase in str(exc_info.value)


def test_non_finite_number_message():
    with pytest.raises(SceneSyntaxError) as exc_info:
        parse_scene(CAM + "material lamp emitter emission 1 base nan absorb 1.0")
    assert str(exc_info.value) == "line 2: expected a finite number, got 'nan'"


def test_serialize_round_trip():
    scene = parse_scene(GOOD_SCENE)
    text = serialize_scene(scene)
    again = parse_scene(text)
    assert serialize_scene(again) == text  # canonical form is a fixed point
    assert again.theta.values == scene.theta.values
    assert len(again.primitives) == len(scene.primitives)
    s0, s1 = scene.primitives[1], again.primitives[1]
    assert (s1.center.x, s1.center.y, s1.center.z, s1.radius) == (
        s0.center.x, s0.center.y, s0.center.z, s0.radius)
    for m0, m1 in zip(scene.materials, again.materials):
        assert (m0.name, m0.kind, m0.absorb) == (m1.name, m1.kind, m1.absorb)
    # bindings survive: @7 stays a control reference, constants stay constants
    assert again.materials[1].diffuse.control == 7
    assert again.materials[1].ambient.control is None


def test_serialize_cornell_round_trip():
    scene, theta = build_cornell_box(32, 24)
    again = parse_scene(serialize_scene(scene))
    assert again.camera.width == 32 and again.camera.height == 24
    assert again.theta.values == theta.values
    assert len(again.primitives) == 8
    assert serialize_scene(again) == serialize_scene(scene)


def test_camera_generate_ray_geometry():
    cam = Camera(eye=Vec3(0, 0, 0), look=Vec3(0, 0, 9), up=Vec3(0, 1, 0),
                 fov_deg=90.0, width=4, height=4)
    center = cam.generate_ray(1, 1, 1.0, 1.0)  # lands exactly mid-image
    assert_allclose((center.dir.x, center.dir.y, center.dir.z), (0, 0, 1),
                    atol=1e-15)
    # top edge of a 90-degree vertical fov sits 45 degrees up
    top = cam.generate_ray(1, 0, 1.0, 0.0)
    assert_allclose(top.dir.y / top.dir.z, 1.0, rtol=1e-12)
    # x increases to the right of the gaze for this orientation
    right = cam.generate_ray(3, 1, 0.5, 1.0)
    assert right.dir.x * cam.right.x > 0
    assert center.depth == 0


def test_with_resolution_rescales_frustum():
    cam = Camera(Vec3(0, 0, 0), Vec3(0, 0, 1), Vec3(0, 1, 0), 60.0, 8, 4)
    wide = cam.with_resolution(16, 4)
    assert wide.half_h == cam.half_h
    assert_allclose(wide.half_w, 2 * cam.half_w, rtol=1e-15)


def test_scalar_image_shape_checks():
    img = ScalarImage.from_rows([[0.0, 1.0], [2.0, 3.0]])
    assert (img.width, img.height) == (2, 2)
    assert img.data.dtype == np.float32
    with pytest.raises(ValueError):
        ScalarImage(3, 2, np.zeros((2, 2), dtype=np.float32))
    z = ScalarImage.zeros(4, 3)
    assert z.data.shape == (3, 4)


def test_pfm_golden_bytes():
    # smallest possible image: exact expected byte stream
    assert write_pfm(ScalarImage.zeros(1, 1)) == (
        b"Pf\n1 1\n-1.0\n" + b"\x00\x00\x00\x00")
    img = ScalarImage.from_rows([[1.0, 2.0], [3.0, 4.0]])
    blob = write_pfm(img)
    assert blob.startswith(b"Pf\n2 2\n-1.0\n")
    body = blob[len(b"Pf\n2 2\n-1.0\n"):]
    # bottom row is stored first
    assert body == (np.float32(3).tobytes() + np.float32(4).tobytes()
                    + np.float32(1).tobytes() + np.float32(2).tobytes())


def test_pfm_round_trip_and_errors():
    rng = np.random.default_rng(0)
    img = ScalarImage.from_rows(rng.uniform(-2, 9, size=(5, 3)).astype(np.float32))
    back = read_pfm(write_pfm(img))
    assert np.array_equal(back.data, img.data)
    assert (back.width, back.height) == (3, 5)
    with pytest.raises(ValueError):
        read_pfm(b"P6\n1 1\n255\n\x00\x00\x00")
    with pytest.raises(ValueError):
        read_pfm(b"Pf\n2 2\n-1.0\n\x00\x00")  # truncated body
    with pytest.raises(ValueError):
        read_pfm(b"Pf\nx y\n-1.0\n" + b"\x00" * 16)
    # big-endian scale is honoured
    be = b"Pf\n1 1\n1.0\n" + np.array(2.5, dtype=">f4").tobytes()
    assert read_pfm(be).data[0, 0] == np.float32(2.5)


def test_ppm_preview_bytes():
    img = ScalarImage.from_rows([[0.0, 0.25], [1.0, 2.0]])
    blob = write_ppm_preview(img)
    assert blob.startswith(b"P6\n2 2\n255\n")
    pixels = blob[len(b"P6\n2 2\n255\n"):]
    # 0.25^(1/2.2) = 0.5326...; round(255 * that) = 136; >= 1 clamps to 255
    want = bytes([0, 0, 0, 136, 136, 136, 255, 255, 255, 255, 255, 255])
    assert pixels == want
    # negatives clamp to black
    neg = write_ppm_preview(ScalarImage.from_rows([[-3.0]]))
    assert neg.endswith(bytes([0, 0, 0]))


def test_gradient_preview_midpoint_and_extremes():
    img = ScalarImage.from_rows([[0.0, -2.0], [2.0, 1.0]])
    blob = gradient_preview(img)
    pixels = blob[len(b"P6\n2 2\n255\n"):]
    assert pixels[0:3] == bytes([128] * 3)    # zero maps to mid-gray
    assert pixels[3:6] == bytes([0] * 3)      # most negative maps to black
    assert pixels[6:9] == bytes([255] * 3)    # most positive maps to white
    assert pixels[9:12] == bytes([191] * 3)   # halfway up
    # an all-zero gradient image stays mid-gray rather than dividing by zero
    flat = gradient_preview(ScalarImage.zeros(2, 1))
    assert flat.endswith(bytes([128] * 6))


def test_cornell_box_structure():
    scene, theta = build_cornell_box()
    assert scene.camera.width == 64
    assert theta.values == (1.0, 0.1, 0.6, 0.4, 20.0, 0.1, 0.7)
    kinds = [m.kind for m in scene.materials]
    assert kinds == [MaterialKind.LAMBERT, MaterialKind.EMITTER,
                     MaterialKind.PHONG]
    # all seven controls bound exactly once across the materials
    bound = []
    for m in scene.materials:
        for attr in ("ambient", "diffuse", "specular", "exponent", "emission"):
            b = getattr(m, attr, None)
            if b is not None and b.control is not None:
                bound.append(b.control)
    assert sorted(bound) == [1, 2, 3, 4, 5, 6, 7]
    assert sum(isinstance(p, Sphere) for p in scene.primitives) == 1
    assert sum(isinstance(p, Quad) for p in scene.primitives) == 7
