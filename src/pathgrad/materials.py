"""Materials, the 7-entry control vector, and per-vertex gradient rules.

Material parameters are either plain constants or bound to one of seven
scalar controls:

    1 emitter emission scale      5 glossy lobe exponent
    2 glossy ambient              6 matte ambient
    3 glossy diffuse reflectance  7 matte diffuse reflectance

``throughput`` is the full throughput of a sampled bounce, BSDF times
cosine over the sampling PDF, including the lobe-selection weight, so the
forward radiance recursion is simply  L_out = ambient + throughput * L_in
(times ``roulette_weight``), starting from ``emitter_radiance`` on a light.
``throughput_partials`` and ``emission_partial`` are their exact partial
derivatives, which is what makes adjoint and finite-difference results
agree to machine precision on a frozen path.  Every rule takes floats or
per-lane arrays, so the scalar reference and the vectorized sweeps in
``_wavefront`` run the same code; enum values are the codes lanes store.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .sampling import dsin_dalpha, sample_cosine_lobe, sample_phong_reflection, sin_m_of
from .geometry import make_frame

N_CONTROLS = 7

# Probability of picking the specular lobe at a glossy vertex.
Q_LOBE = 0.5


def _check_control_index(k):
    if not 1 <= k <= N_CONTROLS:
        raise ValueError(f"control index must be in 1..{N_CONTROLS}, got {k}")


class MaterialKind(enum.IntEnum):
    EMITTER = 0
    PHONG = 1
    LAMBERT = 2


class LobeTag(enum.IntEnum):
    """Which lobe produced a vertex's outgoing direction."""

    NONE = 0           # terminal vertex, no outgoing direction
    LAMBERT_ONLY = 1   # matte material
    DIFFUSE = 2        # glossy material, diffuse lobe
    SPECULAR = 3       # glossy material, specular lobe


@dataclass(frozen=True, slots=True)
class Binding:
    """Scalar material parameter: a constant or a 1-based control index."""

    value: float = 0.0
    control: int | None = None

    @classmethod
    def const(cls, value):
        return cls(value=float(value))

    @classmethod
    def ctl(cls, control):
        if not 1 <= control <= N_CONTROLS:
            raise ValueError(f"control index must be in 1..{N_CONTROLS}, got {control}")
        return cls(control=control)

    def resolve(self, theta):
        if self.control is not None:
            return theta.values[self.control - 1]
        return self.value

    def serialize(self):
        return f"@{self.control}" if self.control is not None else repr(self.value)


@dataclass(frozen=True)
class ControlVector:
    """The 7 differentiable scene controls."""

    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != N_CONTROLS:
            raise ValueError(f"expected {N_CONTROLS} controls, got {len(self.values)}")
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    @classmethod
    def of(cls, *values):
        return cls(tuple(values))

    @classmethod
    def from_array(cls, arr):
        return cls(tuple(float(v) for v in arr))

    def control(self, k):
        """1-based accessor."""
        _check_control_index(k)
        return self.values[k - 1]

    def with_control(self, k, value):
        _check_control_index(k)
        vals = list(self.values)
        vals[k - 1] = float(value)
        return ControlVector(tuple(vals))

    def as_array(self):
        return np.asarray(self.values, dtype=np.float64)


class GradientVector:
    """Accumulator for d(cost)/d(control), one slot per control."""

    __slots__ = ("g",)

    def __init__(self, values=None):
        self.g = [0.0] * N_CONTROLS if values is None else [float(v) for v in values]
        if len(self.g) != N_CONTROLS:
            raise ValueError(f"expected {N_CONTROLS} entries, got {len(self.g)}")

    def add(self, control, amount):
        """Accumulate into the 1-based control slot."""
        _check_control_index(control)
        self.g[control - 1] += amount

    def control(self, k):
        _check_control_index(k)
        return self.g[k - 1]

    def as_tuple(self):
        return tuple(self.g)

    def as_array(self):
        return np.asarray(self.g, dtype=np.float64)

    def norm(self):
        return math.sqrt(sum(v * v for v in self.g))

    def __repr__(self):
        return f"GradientVector({self.g!r})"


@dataclass(frozen=True)
class Material:
    name: str
    kind: MaterialKind
    absorb: float  # roulette termination probability; 1.0 for emitters
    emission: Binding = field(default_factory=Binding)
    base_emission: float = 0.0
    ambient: Binding = field(default_factory=Binding)
    diffuse: Binding = field(default_factory=Binding)
    specular: Binding = field(default_factory=Binding)
    exponent: Binding = field(default_factory=Binding)

    @classmethod
    def emitter(cls, name, emission, base_emission, absorb=1.0):
        return cls(name=name, kind=MaterialKind.EMITTER, absorb=absorb,
                   emission=emission, base_emission=float(base_emission))

    @classmethod
    def phong_blinn(cls, name, ambient, diffuse, specular, exponent, absorb):
        return cls(name=name, kind=MaterialKind.PHONG, absorb=absorb,
                   ambient=ambient, diffuse=diffuse, specular=specular,
                   exponent=exponent)

    @classmethod
    def lambert(cls, name, ambient, diffuse, absorb):
        return cls(name=name, kind=MaterialKind.LAMBERT, absorb=absorb,
                   ambient=ambient, diffuse=diffuse)


def emitted(material, theta):
    """Radiance a path ending on this emitter starts from (``emitter_radiance``)."""
    if material.kind is not MaterialKind.EMITTER:
        raise ValueError(f"emitted() called on non-emitter material {material.name!r}")
    return emitter_radiance(material.emission.resolve(theta),
                            material.base_emission, material.absorb)


def ambient_of(material, theta):
    """Additive per-vertex ambient term of a reflective material."""
    if material.kind is MaterialKind.EMITTER:
        raise ValueError(f"ambient_of() called on emitter material {material.name!r}")
    return material.ambient.resolve(theta)


def sample_direction(material, normal, incoming, rng, theta):
    """Draw an outgoing direction at a reflective vertex.

    Returns (dir_out, tag, u1, u2); dir_out is None for a below-horizon
    specular sample (zero-throughput terminal vertex).  Draw order is fixed:
    glossy vertices draw the lobe pick first, then u1, u2.
    """
    if material.kind is MaterialKind.LAMBERT:
        u1 = rng.next()
        u2 = rng.next()
        lobe = sample_cosine_lobe(make_frame(normal), 0.0, u1, u2)
        return lobe.dir, LobeTag.LAMBERT_ONLY, u1, u2
    if material.kind is MaterialKind.PHONG:
        pick = rng.next()
        u1 = rng.next()
        u2 = rng.next()
        if pick < Q_LOBE:
            alpha = material.exponent.resolve(theta)
            out = sample_phong_reflection(normal, incoming, alpha, u1, u2)
            return out, LobeTag.SPECULAR, u1, u2
        lobe = sample_cosine_lobe(make_frame(normal), 0.0, u1, u2)
        return lobe.dir, LobeTag.DIFFUSE, u1, u2
    raise ValueError(f"sample_direction() called on emitter material {material.name!r}")


def throughput(tag, diffuse, specular, exponent, u1):
    """Throughput of a sampled bounce: BSDF * cosine / PDF, lobe pick included.

    Floats, or per-lane arrays of vertices that all carry ``tag``.  The
    specular factor is sin_m_of(exponent, u1), the sine the stored uniform
    realized, not the one recomputed from the directions.
    """
    if tag == LobeTag.LAMBERT_ONLY:
        return diffuse
    if tag == LobeTag.DIFFUSE:
        return diffuse / (1.0 - Q_LOBE)
    if tag == LobeTag.SPECULAR:
        return specular * sin_m_of(exponent, u1) / Q_LOBE
    raise ValueError(f"throughput needs a directional lobe tag, got {tag!r}")


def throughput_partials(tag, specular, exponent, u1, radiance, adjoint):
    """(binding name, d throughput / d binding * radiance * adjoint) pairs.

    One pair per parameter the throughput of a ``tag`` bounce depends on,
    in accumulation order; floats or per-lane arrays as in ``throughput``.
    """
    if tag == LobeTag.SPECULAR:
        return (("specular", sin_m_of(exponent, u1) * radiance * adjoint / Q_LOBE),
                ("exponent", specular * dsin_dalpha(exponent, u1)
                 * radiance * adjoint / Q_LOBE))
    if tag == LobeTag.DIFFUSE:
        return (("diffuse", radiance * adjoint / (1.0 - Q_LOBE)),)
    if tag == LobeTag.LAMBERT_ONLY:
        return (("diffuse", radiance * adjoint),)
    return ()


def roulette_weight(absorb):
    """Roulette survivor weight 1 / (1 - absorb); 0 for emitters (absorb = 1)."""
    return np.where(absorb < 1.0, 1.0 / (1.0 - np.where(absorb < 1.0, absorb, 0.0)), 0.0)[()]


def emitter_radiance(emission, base_emission, absorb):
    """Radiance a path ending on an emitter starts from, roulette-weighted."""
    return emission * base_emission / absorb


def emission_partial(base_emission, absorb, adjoint):
    """d emitter_radiance / d emission * adjoint."""
    return base_emission * adjoint / absorb


def bsdf_d_pdf(material, tag, u1, theta):
    """Throughput of one sampled bounce of ``material`` (see ``throughput``)."""
    return throughput(tag, material.diffuse.resolve(theta),
                      material.specular.resolve(theta),
                      material.exponent.resolve(theta), u1)


def accumulate_gradients(material, tag, u1, radiance, adjoint, theta, grad):
    """Add this vertex's gradient contributions for every bound control.

    ``radiance`` is the roulette-weighted radiance the vertex reflects and
    ``adjoint`` is the transported cost sensitivity at the vertex.  Each bound
    parameter p of the vertex throughput f contributes
    d f / d p * radiance * adjoint; the additive ambient contributes the bare
    adjoint; an emitter terminal contributes base_emission * adjoint / absorb.
    """
    if material.kind is MaterialKind.EMITTER:
        if material.emission.control is not None:
            grad.add(material.emission.control, emission_partial(
                material.base_emission, material.absorb, adjoint))
        return grad

    if material.ambient.control is not None:
        grad.add(material.ambient.control, adjoint)
    for name, amount in throughput_partials(
            tag, material.specular.resolve(theta),
            material.exponent.resolve(theta), u1, radiance, adjoint):
        control = getattr(material, name).control
        if control is not None:
            grad.add(control, amount)
    return grad
