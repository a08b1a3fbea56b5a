"""Property tests of the scene text format and the PFM image format: round
trips and finite numbers."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from pathgrad.geometry import Quad, Sphere, Vec3  # noqa: E402
from pathgrad.materials import (Binding, ControlVector, Material,  # noqa: E402
                                MaterialKind, N_CONTROLS)
from pathgrad.scene_io import (Camera, ScalarImage, SceneError,  # noqa: E402
                               parse_scene, read_pfm, serialize_scene, write_pfm)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)

COORD = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
# both spellings read back to the same double
NUMBER_TEXT = st.sampled_from([repr, lambda x: f"{x:.17g}"])


def _vec(draw):
    return Vec3(draw(COORD), draw(COORD), draw(COORD))


@st.composite
def scenes(draw):
    """(scene text, the objects it must parse to) for a random valid scene."""
    fmt = draw(NUMBER_TEXT)

    def vec_text(v):
        return f"{fmt(v.x)} {fmt(v.y)} {fmt(v.z)}"

    eye, look, up = _vec(draw), _vec(draw), _vec(draw)
    fov = draw(st.floats(min_value=1.0, max_value=179.0))
    width, height = draw(st.integers(1, 64)), draw(st.integers(1, 64))
    try:
        camera = Camera(eye, look, up, fov, width, height)
    except ValueError:
        assume(False)
    lines = [f"camera eye {vec_text(eye)} look {vec_text(look)} "
             f"up {vec_text(up)} fov {fmt(fov)} res {width} {height}"]

    free = list(range(1, N_CONTROLS + 1))

    def binding():
        if free and draw(st.booleans()):
            k = free.pop(draw(st.integers(0, len(free) - 1)))
            return Binding.ctl(k), f"@{k}"
        x = draw(COORD)
        return Binding.const(x), fmt(x)

    materials = []
    absorb = st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                       exclude_max=True)
    for kind in MaterialKind:
        for _ in range(draw(st.integers(1, 4))):
            name = f"m{len(materials)}"
            if kind is MaterialKind.EMITTER:
                (e, e_txt), base = binding(), draw(COORD)
                materials.append(Material.emitter(name, e, base))
                lines.append(f"material {name} emitter emission {e_txt} "
                             f"base {fmt(base)} absorb 1.0")
                continue
            a = draw(absorb)
            (amb, amb_txt), (dif, dif_txt) = binding(), binding()
            if kind is MaterialKind.LAMBERT:
                materials.append(Material.lambert(name, amb, dif, a))
                lines.append(f"material {name} lambert ambient {amb_txt} "
                             f"diffuse {dif_txt} absorb {fmt(a)}")
                continue
            (spe, spe_txt), (ex, ex_txt) = binding(), binding()
            materials.append(Material.phong_blinn(name, amb, dif, spe, ex, a))
            lines.append(f"material {name} phong ambient {amb_txt} "
                         f"diffuse {dif_txt} specular {spe_txt} "
                         f"exponent {ex_txt} absorb {fmt(a)}")

    primitives = []
    for _ in range(draw(st.integers(0, 4))):
        mat = draw(st.integers(0, len(materials) - 1))
        if draw(st.booleans()):
            p, u, v = _vec(draw), _vec(draw), _vec(draw)
            assume(u.cross(v).norm() > 0.0)
            primitives.append(Quad(p, u, v, mat))
            lines.append(f"quad p {vec_text(p)} u {vec_text(u)} "
                         f"v {vec_text(v)} mat m{mat}")
        else:
            c = _vec(draw)
            r = draw(st.floats(min_value=0.0, max_value=1e6, exclude_min=True))
            primitives.append(Sphere(c, r, mat))
            lines.append(f"sphere c {vec_text(c)} r {fmt(r)} mat m{mat}")

    theta = None
    if draw(st.booleans()):
        theta = ControlVector(tuple(draw(COORD) for _ in range(N_CONTROLS)))
        lines.append("theta " + " ".join(fmt(x) for x in theta.values))
    return "\n".join(lines) + "\n", (camera, materials, primitives, theta)


@PROPERTY
@given(scenes())
def test_parse_reproduces_fields_and_serialize_is_a_fixed_point(case):
    text, (camera, materials, primitives, theta) = case
    scene = parse_scene(text)
    assert scene.camera == camera
    assert scene.materials == materials
    assert scene.primitives == primitives
    assert scene.theta == theta
    canonical = serialize_scene(scene)
    again = parse_scene(canonical)
    assert serialize_scene(again) == canonical
    assert (again.camera, again.materials, again.primitives, again.theta) == (
        camera, materials, primitives, theta)


def _is_number(tok):
    try:
        float(tok)
    except ValueError:
        return False
    return True


@PROPERTY
@given(scenes(), st.data())
def test_any_non_finite_number_is_rejected_on_its_line(case, data):
    lines = case[0].splitlines()
    slots = [(i, j) for i, line in enumerate(lines)
             for j, tok in enumerate(line.split()) if _is_number(tok)]
    i, j = data.draw(st.sampled_from(slots))
    toks = lines[i].split()
    toks[j] = data.draw(st.sampled_from(["nan", "inf", "-inf", "NaN", "+Infinity"]))
    lines[i] = " ".join(toks)
    with pytest.raises(SceneError) as exc_info:
        parse_scene("\n".join(lines))
    assert exc_info.value.line == i + 1


@settings(PROPERTY, max_examples=50)
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_pfm_write_read_round_trip_is_a_fixed_point(width, height, data):
    # any float32, nan and infinities included, comes back bit for bit
    values = data.draw(st.lists(st.floats(width=32), min_size=width * height,
                                max_size=width * height))
    image = ScalarImage(width, height, np.array(values, dtype=np.float32).reshape(height, width))
    once = write_pfm(image)
    back = read_pfm(once)
    assert (back.width, back.height) == (width, height)
    assert np.array_equal(back.data.view(np.uint32), image.data.view(np.uint32))
    assert write_pfm(back) == once
