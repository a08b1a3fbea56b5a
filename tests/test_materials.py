"""Bindings, control vectors, per-vertex throughput and gradient rules."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pathgrad.geometry import Vec3
from pathgrad.materials import (Binding, ControlVector, GradientVector,
                                LobeTag, Material, MaterialKind, N_CONTROLS,
                                Q_LOBE, accumulate_gradients, ambient_of,
                                bsdf_d_pdf, emitted, sample_direction)
from pathgrad.sampling import dsin_dalpha, sin_m_of

THETA = ControlVector.of(1.5, 0.25, 0.6, 0.4, 20.0, 0.1, 0.7)


class ScriptedStream:
    """Feeds a fixed list of uniforms; records how many were consumed."""

    def __init__(self, values):
        self.values = list(values)
        self.used = 0

    def next(self):
        self.used += 1
        return self.values.pop(0)


def test_binding_resolution_and_serialization():
    assert Binding.const(0.3).resolve(THETA) == 0.3
    assert Binding.ctl(5).resolve(THETA) == 20.0
    assert Binding.ctl(5).serialize() == "@5"
    assert Binding.const(0.25).serialize() == "0.25"
    assert Binding.const(1.0).control is None
    with pytest.raises(ValueError):
        Binding.ctl(0)
    with pytest.raises(ValueError):
        Binding.ctl(8)


def test_control_vector_access():
    assert THETA.control(1) == 1.5
    assert THETA.control(7) == 0.7
    t2 = THETA.with_control(7, 0.9)
    assert t2.control(7) == 0.9 and THETA.control(7) == 0.7
    assert_allclose(ControlVector.from_array(THETA.as_array()).values, THETA.values)
    with pytest.raises(ValueError):
        ControlVector.of(1.0, 2.0)
    with pytest.raises(ValueError):
        THETA.control(0)
    with pytest.raises(ValueError):
        THETA.control(8)


def test_gradient_vector_accumulation():
    g = GradientVector()
    assert g.as_tuple() == (0.0,) * N_CONTROLS
    g.add(3, 1.5)
    g.add(3, 0.5)
    g.add(7, -1.0)
    assert g.control(3) == 2.0
    assert g.control(7) == -1.0
    assert_allclose(g.norm(), math.sqrt(4.0 + 1.0))
    with pytest.raises(ValueError):
        g.add(0, 1.0)


def _emitter(emission=Binding.ctl(1), base=15.0):
    return Material.emitter("light", emission=emission, base_emission=base)


def _phong():
    return Material.phong_blinn("ball", ambient=Binding.ctl(2),
                                diffuse=Binding.ctl(3), specular=Binding.ctl(4),
                                exponent=Binding.ctl(5), absorb=0.3)


def _lambert():
    return Material.lambert("wall", ambient=Binding.ctl(6),
                            diffuse=Binding.ctl(7), absorb=0.3)


def test_emitted_and_ambient_kind_guards():
    em = _emitter()
    assert emitted(em, THETA) == 1.5 * 15.0
    with pytest.raises(ValueError):
        ambient_of(em, THETA)
    lam = _lambert()
    assert ambient_of(lam, THETA) == 0.1
    with pytest.raises(ValueError):
        emitted(lam, THETA)
    assert em.absorb == 1.0  # emitters always terminate


def test_bsdf_d_pdf_values():
    lam, ph = _lambert(), _phong()
    assert bsdf_d_pdf(lam, LobeTag.LAMBERT_ONLY, 0.5, THETA) == 0.7
    assert_allclose(bsdf_d_pdf(ph, LobeTag.DIFFUSE, 0.5, THETA),
                    0.6 / (1.0 - Q_LOBE))
    expect = 0.4 * sin_m_of(20.0, 0.5) / Q_LOBE
    assert_allclose(bsdf_d_pdf(ph, LobeTag.SPECULAR, 0.5, THETA),
                    expect, rtol=1e-15)
    with pytest.raises(ValueError):
        bsdf_d_pdf(ph, LobeTag.NONE, 0.5, THETA)


def test_sample_direction_draw_order_lambert():
    lam = _lambert()
    rng = ScriptedStream([0.3, 0.8, 0.999])
    d, tag, u1, u2 = sample_direction(lam, Vec3(0, 0, 1), Vec3(0, 0, 1), rng, THETA)
    assert tag is LobeTag.LAMBERT_ONLY
    assert (u1, u2) == (0.3, 0.8)
    assert rng.used == 2  # exactly u1, u2
    assert d.z >= 0.0


def test_sample_direction_draw_order_phong():
    ph = _phong()
    n, inc = Vec3(0, 0, 1), Vec3(0.2, 0.1, 0.9).normalized()
    # pick < Q_LOBE selects the specular lobe; pick is drawn before u1, u2
    rng = ScriptedStream([Q_LOBE - 1e-9, 0.7, 0.2])
    d, tag, u1, u2 = sample_direction(ph, n, inc, rng, THETA)
    assert tag is LobeTag.SPECULAR
    assert (u1, u2) == (0.7, 0.2)
    assert rng.used == 3
    rng = ScriptedStream([Q_LOBE, 0.7, 0.2])  # boundary draw goes diffuse
    d, tag, u1, u2 = sample_direction(ph, n, inc, rng, THETA)
    assert tag is LobeTag.DIFFUSE
    assert rng.used == 3
    with pytest.raises(ValueError):
        sample_direction(_emitter(), n, inc, ScriptedStream([0.5]), THETA)


def test_sample_direction_below_horizon_returns_none():
    ph = _phong()
    n = Vec3(0, 0, 1)
    inc = Vec3(1.0, 0.0, 1.0).normalized()
    wide = THETA.with_control(5, 0.0)  # exponent 0: widest lobe
    # a grazing half-vector (small u1) reflects 45-degree incidence below the
    # horizon for every azimuth: 2 (m.inc) m_z < inc_z
    for u2 in np.linspace(0.0, 1.0, 41):
        d, tag, _, _ = sample_direction(
            ph, n, inc, ScriptedStream([0.0, 0.01, float(u2)]), wide)
        assert d is None
        assert tag is LobeTag.SPECULAR
    # steep half-vectors are accepted and stay above the horizon
    for u2 in np.linspace(0.0, 1.0, 41):
        d, tag, _, _ = sample_direction(
            ph, n, inc, ScriptedStream([0.0, 0.95, float(u2)]), wide)
        assert d is not None
        assert d.dot(n) > 0.0
        assert abs(d.norm() - 1.0) < 1e-12


def test_accumulate_emitter_terminal():
    g = GradientVector()
    em = _emitter()
    accumulate_gradients(em, LobeTag.NONE, 0.0, 0.0, 2.0, THETA, g)
    # d(emission * base / absorb)/d theta1 * adjoint
    assert_allclose(g.control(1), 15.0 * 2.0 / 1.0)
    assert all(g.control(k) == 0.0 for k in range(2, 8))
    # unbound emission contributes nothing
    g2 = GradientVector()
    accumulate_gradients(_emitter(emission=Binding.const(2.0)), LobeTag.NONE, 0.0, 0.0, 2.0,
                         THETA, g2)
    assert g2.as_tuple() == (0.0,) * N_CONTROLS


def test_accumulate_lambert_vertex():
    g = GradientVector()
    lam = _lambert()
    accumulate_gradients(lam, LobeTag.LAMBERT_ONLY, 0.4, 3.0, 0.5, THETA, g)
    assert g.control(6) == 0.5           # ambient: bare adjoint
    assert g.control(7) == 3.0 * 0.5     # diffuse: radiance * adjoint


def test_accumulate_phong_specular_vertex():
    g = GradientVector()
    ph = _phong()
    u1, rad, adj = 0.3, 2.0, 0.25
    accumulate_gradients(ph, LobeTag.SPECULAR, u1, rad, adj, THETA, g)
    assert g.control(2) == adj
    assert g.control(3) == 0.0  # diffuse untouched on the specular branch
    assert_allclose(g.control(4), sin_m_of(20.0, u1) * rad * adj / Q_LOBE)
    assert_allclose(g.control(5), 0.4 * dsin_dalpha(20.0, u1) * rad * adj / Q_LOBE)


def test_accumulate_phong_diffuse_vertex():
    g = GradientVector()
    accumulate_gradients(_phong(), LobeTag.DIFFUSE, 0.9, 2.0, 0.25, THETA, g)
    assert g.control(2) == 0.25
    assert_allclose(g.control(3), 2.0 * 0.25 / (1.0 - Q_LOBE))
    assert g.control(4) == 0.0 and g.control(5) == 0.0


def test_gradient_rules_match_throughput_derivative():
    # d bsdf_d_pdf / d theta_k via FD equals the accumulate increment per unit
    # radiance * adjoint, for every bound directional control
    ph = _phong()
    h = 1e-7
    for tag, u1 in ((LobeTag.DIFFUSE, 0.5), (LobeTag.SPECULAR, 0.35)):
        for k in (3, 4, 5):
            g = GradientVector()
            accumulate_gradients(ph, tag, u1, 1.0, 1.0, THETA, g)
            up = bsdf_d_pdf(ph, tag, u1, THETA.with_control(
                k, THETA.control(k) + h))
            dn = bsdf_d_pdf(ph, tag, u1, THETA.with_control(
                k, THETA.control(k) - h))
            assert_allclose(g.control(k), (up - dn) / (2.0 * h),
                            rtol=1e-6, atol=1e-9)


def test_material_kind_wiring():
    assert _emitter().kind is MaterialKind.EMITTER
    assert _phong().kind is MaterialKind.PHONG
    assert _lambert().kind is MaterialKind.LAMBERT
