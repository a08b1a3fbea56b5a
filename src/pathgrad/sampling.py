"""Counter-based uniform streams and cosine-power hemisphere sampling.

The random streams are keyed by (global_seed, pixel_index, sample_index) and
advance a 64-bit counter through a splitmix64 finalizer, so any draw is a pure
function of (key, counter).  That buys three things: runs are bit-identical
regardless of scheduling, any path can be replayed exactly from its key, and
the batched tracer draws the very same streams: ``stream_key`` and ``uniform``
take ints or uint64 lane arrays, whose products wrap like the 64-bit masks.

Direction sampling uses the closed-form inverse of the cosine-power CDF
    pdf(theta)  = (alpha + 2) / (2 pi) * cos(theta)^(alpha + 1)
    cdf(theta)  = 1 - cos(theta)^(alpha + 2)
drawn directly in Cartesian form: with t = lobe_t(alpha, u1) = u1^(2 / (alpha + 2))
the sampled direction has frame-local height z = sqrt(t) and tangential radius
sqrt(1 - t).  alpha = 0 is the Lambert (cosine) lobe.  ``lobe_t``, ``sin_m_of``
and ``dsin_dalpha`` take floats or per-lane arrays and are shared with
``_wavefront``; the Vec3 directions built from t stay twinned (see geometry).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Vec3, make_frame

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# sin(theta_m) is clamped away from zero in the exponent derivative so the
# reparameterized factor stays finite as u1 -> 1.
SIN_CLAMP = 1e-6


def _mix64(z):
    """splitmix64 finalizer on a 64-bit int or a uint64 array."""
    z = (z ^ (z >> 30)) * _MIX1 & _MASK64
    z = (z ^ (z >> 27)) * _MIX2 & _MASK64
    return z ^ (z >> 31)


def stream_key(global_seed, pixel_index, sample_index):
    """64-bit stream key; chained finalizers decorrelate the three indices."""
    h = _mix64((global_seed ^ _GOLDEN) & _MASK64)
    h = _mix64(h ^ (pixel_index & _MASK64))
    h = _mix64(h ^ (sample_index & _MASK64))
    return h


def uniform(key, counter):
    """Draw ``counter`` of stream ``key``: 53 bits of _mix64(key + counter * golden)."""
    return (_mix64((key + counter * _GOLDEN) & _MASK64) >> 11) * 2.0**-53


class RngStream:
    """Deterministic uniform stream: draw i is uniform(key, i), i = 1, 2, ..."""

    __slots__ = ("key", "counter")

    def __init__(self, key, counter=0):
        self.key = key & _MASK64
        self.counter = counter

    @classmethod
    def for_sample(cls, global_seed, pixel_index, sample_index):
        return cls(stream_key(global_seed, pixel_index, sample_index))

    def next(self):
        """Uniform double in [0, 1) with 53 random bits; advances the stream."""
        self.counter += 1
        return uniform(self.key, self.counter)


@dataclass(frozen=True, slots=True)
class LobeSample:
    """Sampled direction plus the uniforms that produced it (kept for replay)."""

    dir: Vec3
    u1: float
    u2: float


def cdf_inverse_phong(alpha, u):
    """Polar angle whose cosine-power CDF equals u: arccos((1-u)^(1/(a+2)))."""
    if alpha < 0.0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    if not 0.0 <= u < 1.0:
        raise ValueError(f"u must be in [0, 1), got {u}")
    return math.acos((1.0 - u) ** (1.0 / (alpha + 2.0)))


def lobe_t(alpha, u1):
    """Squared height (cos^2 of the polar angle) of the lobe sample drawn from u1."""
    return u1 ** (2.0 / (alpha + 2.0))


def sample_cosine_lobe(frame, alpha, u1, u2):
    """Direction on the cosine-power lobe around frame.z_axis."""
    if alpha < 0.0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    t = lobe_t(alpha, u1)
    z = math.sqrt(t)
    r = math.sqrt(1.0 - t)
    phi = 2.0 * math.pi * u2
    return LobeSample(frame.to_world(math.cos(phi) * r, math.sin(phi) * r, z), u1, u2)


def sample_phong_reflection(normal, incoming, alpha, u1, u2):
    """Reflect ``incoming`` about a sampled cosine-power half-vector.

    ``incoming`` points away from the surface (normal . incoming > 0).  The
    half-vector is flipped into the incoming hemisphere when needed; if the
    reflected direction still lies below the surface horizon the sample has
    zero throughput and None is returned.
    """
    frame = make_frame(normal)
    m = sample_cosine_lobe(frame, alpha, u1, u2).dir
    if m.dot(incoming) < 0.0:
        m = normal * (2.0 * m.dot(normal)) - m
    out = m * (2.0 * m.dot(incoming)) - incoming
    if out.dot(normal) <= 0.0:
        return None
    return out


def _check_lobe_args(alpha, u1):
    if np.any(alpha < 0.0):
        raise ValueError(f"alpha must be >= 0, got {np.min(alpha)}")
    if not np.all((0.0 <= u1) & (u1 < 1.0)):
        raise ValueError(f"u1 must be in [0, 1), got {u1}")


def sin_m_of(alpha, u1):
    """Sine of the sampled half-vector polar angle, recovered from u1.

    Equals sqrt(1 - u1^(2/(alpha+2))); the exact quantity the sampler realized,
    which keeps forward, backward and frozen-replay evaluations consistent.
    Takes floats or per-lane arrays.
    """
    _check_lobe_args(alpha, u1)
    return np.sqrt(np.maximum(0.0, 1.0 - lobe_t(alpha, u1)))


def dsin_dalpha(alpha, u1):
    """Exact derivative of sin_m_of with respect to the exponent.

    d/dalpha sqrt(1 - u1^(2/(a+2))) = cos^2(tm) * log(cos(tm)) / ((a+2) sin(tm))
    with cos(tm) = u1^(1/(a+2)).  Always <= 0: raising the exponent narrows
    the lobe.  sin(tm) is clamped to SIN_CLAMP near u1 -> 1, and u1 = 0 gives
    the continuous limit 0.  Takes floats or per-lane arrays.
    """
    _check_lobe_args(alpha, u1)
    drawn = u1 > 0.0
    cos_m = np.where(drawn, u1, 0.5) ** (1.0 / (alpha + 2.0))
    sin_m = np.maximum(np.sqrt(np.maximum(0.0, 1.0 - cos_m * cos_m)), SIN_CLAMP)
    out = cos_m * cos_m * np.log(cos_m) / ((alpha + 2.0) * sin_m)
    return np.where(drawn, out, 0.0)[()]
