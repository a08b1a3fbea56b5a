"""Finite-difference validation of backward-pass gradients on frozen paths.

The backward sweep claims to differentiate the cost of a *fixed* set of
light paths.  Freezing an ensemble of paths (materials hit, lobe choices and
the uniforms behind them) turns the renderer into an ordinary deterministic
function of the controls, which central differences can check to near
machine precision.  This module builds such ensembles, replays them at
perturbed controls, and reports per-control agreement across a ladder of
step sizes.  A lattice is frozen by the tracer trace_image ships
(_wavefront.trace_lanes) into the record its sweeps replay, so the check
certifies the very paths and sweeps that render, gradients and optimize run;
tests hold that record to the scalar engine's paths, lane for lane.  Paths
built by hand are read into a record by _wavefront.record_of_paths.

It also carries the closed-form chain model used as an exact oracle: a
straight run of N-1 identical reflections into an emissive cap has camera
radiance L0 = theta_d^(N-1) * theta_e with hand-computable derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Hit, Vec3, prim_table
from .materials import (Binding, ControlVector, GradientVector, LobeTag,
                        Material)
from .path_engine import (DEFAULT_MAX_DEPTH, Path, PathVertex, TerminalKind,
                          _check_at_least_one, cost_and_adjoint)

EPS_LADDER = (1e-1, 1e-4, 1e-7, 1e-10)
REL_TOL = 1e-3
ABS_FLOOR = 1e-9


class FrozenEnsemble:
    """The record of frozen paths, from any iterable of Paths (read once and
    not kept) or, by ``of_record``, as traced; plus per-path target
    radiances; replayable at any theta."""

    def __init__(self, paths, targets, label=""):
        from ._wavefront import record_of_paths  # loaded on first use
        self._hold(*record_of_paths(paths), targets, label)

    @classmethod
    def of_record(cls, materials, record, targets, label):
        """The ensemble of the paths in a PathRecord whose material ids index
        ``materials``."""
        ensemble = cls.__new__(cls)
        ensemble._hold(materials, record, targets, label)
        return ensemble

    def _hold(self, materials, record, targets, label):
        self.materials, self.record = materials, record
        self.targets = np.asarray(targets, dtype=np.float64)
        self.label = label
        if self.targets.shape != (self.n_paths,):
            raise ValueError("one target radiance per path required")

    @property
    def n_paths(self):
        return self.record.n_lanes


def build_lattice_ensemble(scene, theta, seed, grid=8, max_depth=DEFAULT_MAX_DEPTH,
                           targets=None):
    """Freeze sample 0 of one camera path per cell of a grid x grid pixel lattice.

    Raises ValueError for max_depth below 1, for controls material_table
    rejects, and unless 1 <= grid <= min(width, height): a finer grid would
    freeze some pixels twice and weight their paths double.
    """
    from ._wavefront import material_table, trace_lanes  # loaded on first use
    _check_at_least_one(max_depth=max_depth)
    cam = scene.camera
    if grid < 1:
        raise ValueError(f"lattice grid must be at least 1, got {grid}")
    if grid > min(cam.width, cam.height):
        raise ValueError(f"lattice grid {grid} exceeds the {cam.width}x{cam.height} image: "
                         f"at most {min(cam.width, cam.height)} cells per side")
    lattice = np.array([int((j + 0.5) * cam.height / grid) * cam.width
                        + int((i + 0.5) * cam.width / grid)
                        for j in range(grid) for i in range(grid)], dtype=np.int64)
    mats = material_table(scene.materials, theta)
    record, _ = trace_lanes(prim_table(scene), cam, mats.kind, mats.absorb,
                            mats.value["exponent"], seed, pix=lattice,
                            smp=np.zeros_like(lattice), max_depth=max_depth)
    if targets is None:
        targets = np.zeros(grid * grid)
    return FrozenEnsemble.of_record(list(scene.materials), record, targets, "lattice")


def _sweep(ensemble, theta):
    """Forward sweep at theta: residuals, mean quadratic cost (inf or nan on
    overflow, unwarned), sweep cache."""
    from ._wavefront import forward, material_table
    mats = material_table(ensemble.materials, theta)
    with np.errstate(over="ignore", invalid="ignore"):
        radiance, cache = forward(ensemble.record, mats)
        costs, resid = cost_and_adjoint(radiance, ensemble.targets)
        cost = float(np.sum(costs)) / ensemble.n_paths
    return resid, cost, cache


def ensemble_cost(ensemble, theta):
    """Mean quadratic cost of the frozen paths at the given controls."""
    return _sweep(ensemble, theta)[1]


def ensemble_cost_and_grad(ensemble, theta):
    """Cost plus its exact gradient from one backward sweep over the paths;
    ValueError names a cost or gradient that is not finite."""
    from ._wavefront import backward, check_finite
    resid, cost, cache = _sweep(ensemble, theta)
    with np.errstate(over="ignore", invalid="ignore"):
        grad = backward(ensemble.record, cache, resid / ensemble.n_paths).sum(axis=1)
    check_finite(theta, ("cost", cost), ("gradient", grad))
    return cost, GradientVector(grad)


def fd_gradient_frozen(ensemble, theta, control, eps):
    """Central difference over the frozen ensemble for one control.

    Returns (slope, cost_plus, cost_minus); the two one-sided costs are kept
    so callers can diagnose cancellation at very small steps.
    """
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"finite-difference step must be finite and positive, got {eps}")
    base = theta.control(control)
    j_plus = ensemble_cost(ensemble, theta.with_control(control, base + eps))
    j_minus = ensemble_cost(ensemble, theta.with_control(control, base - eps))
    return (j_plus - j_minus) / (2.0 * eps), j_plus, j_minus


@dataclass
class FdRow:
    control: int
    eps: float
    analytic: float
    fd: float
    cost_plus: float
    cost_minus: float

    @property
    def abs_err(self):
        return abs(self.fd - self.analytic)

    @property
    def rel_err(self):
        denom = max(abs(self.analytic), abs(self.fd))
        return 0.0 if denom == 0.0 else self.abs_err / denom

    @property
    def passed(self):
        if not (math.isfinite(self.analytic) and math.isfinite(self.fd)):
            return False
        if abs(self.analytic) <= ABS_FLOOR and abs(self.fd) <= ABS_FLOOR:
            return True
        return self.rel_err <= REL_TOL


@dataclass
class FdReport:
    cost: float
    rows: list = field(default_factory=list)
    decisive_eps: float = 1e-4

    def rows_at(self, eps):
        return [r for r in self.rows if r.eps == eps]

    @property
    def all_pass(self):
        """Agreement at the decisive step size; other steps are diagnostic.

        When the decisive step was not exercised at all the report is
        informational and does not count as a failure.
        """
        return all(r.passed for r in self.rows_at(self.decisive_eps))

    def to_text(self):
        lines = [f"frozen-ensemble cost J = {self.cost:.12e}",
                 f"{'ctl':>3} {'eps':>9} {'analytic':>24} {'fd':>24} "
                 f"{'rel_err':>12}  verdict"]
        for r in self.rows:
            mark = "ok" if r.passed else "MISMATCH"
            if r.eps != self.decisive_eps:
                mark += " (diagnostic)"
            lines.append(f"{r.control:>3} {r.eps:>9.0e} {r.analytic:>24.15e} "
                         f"{r.fd:>24.15e} {r.rel_err:>12.3e}  {mark}")
        if self.rows_at(self.decisive_eps):
            lines.append("RESULT: " + ("PASS" if self.all_pass else "FAIL")
                         + f" (decisive step {self.decisive_eps:.0e})")
        else:
            lines.append(f"RESULT: REPORT-ONLY (decisive step "
                         f"{self.decisive_eps:.0e} not exercised)")
        return "\n".join(lines)


def compare_gradients(ensemble, theta, eps_list=EPS_LADDER, controls=None,
                      decisive_eps=1e-4):
    """Backward-pass gradient vs central differences over a step ladder."""
    if controls is None:
        controls = range(1, 8)
    cost, grad = ensemble_cost_and_grad(ensemble, theta)
    report = FdReport(cost=cost, decisive_eps=decisive_eps)
    for control in controls:
        for eps in eps_list:
            fd, jp, jm = fd_gradient_frozen(ensemble, theta, control, eps)
            report.rows.append(FdRow(control=control, eps=eps,
                                     analytic=grad.control(control), fd=fd,
                                     cost_plus=jp, cost_minus=jm))
    return report


# ---------------------------------------------------------------------------
# closed-form chain oracle

def chain_materials():
    """A link material (pure reflection by theta_d, control 1) and an emissive
    cap (theta_e, control 2, base emission E = 1)."""
    link = Material.lambert(name="link", ambient=Binding.const(0.0),
                            diffuse=Binding.ctl(1), absorb=0.0)
    cap = Material.emitter(name="cap", emission=Binding.ctl(2), base_emission=1.0, absorb=1.0)
    return link, cap


def build_chain_path(n_segments):
    """Straight path with n_segments-1 identical reflections into an emitter.

    Camera radiance replays to theta_d^(n_segments-1) * theta_e; the
    geometry is immaterial because the reflection factor is direction-free.
    """
    if n_segments < 1:
        raise ValueError("need at least the emitter segment")
    link, cap = chain_materials()
    up = Vec3(0.0, 0.0, 1.0)
    down = Vec3(0.0, 0.0, -1.0)
    vertices = []
    for k in range(n_segments - 1):
        hit = Hit(t=1.0, point=Vec3(0.0, 0.0, float(k)), normal=up)
        vertices.append(PathVertex(hit=hit, material=link, dir_in=down,
                                   dir_out=up, tag=LobeTag.LAMBERT_ONLY,
                                   u1=0.5, u2=0.5))
    hit = Hit(t=1.0, point=Vec3(0.0, 0.0, float(n_segments - 1)), normal=down)
    vertices.append(PathVertex(hit=hit, material=cap, dir_in=up))
    return Path(vertices=vertices, terminal_kind=TerminalKind.EMITTER)


def analytic_geometric(n_segments, theta_d, theta_e, target=0.0):
    """Closed-form cost and gradient of the chain model.

    L0 = theta_d^(N-1) * theta_e,  J = 0.5 (L0 - target)^2,
    dJ/dtheta_d = (L0 - target)(N-1) theta_d^(N-2) theta_e,
    dJ/dtheta_e = (L0 - target) theta_d^(N-1).
    """
    n_refl = n_segments - 1
    radiance = theta_d ** n_refl * theta_e
    resid = radiance - target
    cost = 0.5 * resid * resid
    if n_refl == 0:
        g_d = 0.0
    else:
        g_d = resid * n_refl * theta_d ** (n_refl - 1) * theta_e
    g_e = resid * theta_d ** n_refl
    return cost, radiance, g_d, g_e


def chain_theta(theta_d, theta_e):
    """Control vector holding the two chain controls, ones elsewhere."""
    return ControlVector.of(theta_d, theta_e, *[1.0] * 5)
