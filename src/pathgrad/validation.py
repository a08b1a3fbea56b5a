"""Finite-difference validation of backward-pass gradients on frozen paths.

The backward sweep claims to differentiate the cost of a *fixed* set of
light paths.  Freezing an ensemble of paths (materials hit, lobe choices and
the uniforms behind them) turns the renderer into an ordinary deterministic
function of the controls, which central differences can check to near
machine precision.  This module builds such ensembles, replays them at
perturbed controls, and reports per-control agreement across a ladder of
step sizes.  The scalar tracer, the independent reference, freezes each path;
the ensemble reads it once into the record that trace_image's sweeps replay.

It also carries the closed-form chain model used as an exact oracle: a
straight run of N-1 identical reflections into an emissive cap has camera
radiance L0 = theta_d^(N-1) * theta_e * E with hand-computable derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Hit, Vec3
from .materials import (Binding, ControlVector, GradientVector, LobeTag,
                        Material)
from .path_engine import (DEFAULT_MAX_DEPTH, Path, PathVertex, TerminalKind,
                          cost_and_adjoint, trace_pixel_sample)

EPS_LADDER = (1e-1, 1e-4, 1e-7, 1e-10)
REL_TOL = 1e-3
ABS_FLOOR = 1e-9


class FrozenEnsemble:
    """The record of frozen paths (any iterable of Paths, read once and not
    kept), plus per-path target radiances; replayable at any theta."""

    def __init__(self, paths, targets, label=""):
        self.materials, self.record = _record_of(paths)
        self.targets = np.asarray(targets, dtype=np.float64)
        self.label = label
        if self.targets.shape != (self.n_paths,):
            raise ValueError("one target radiance per path required")

    @property
    def n_paths(self):
        return self.record.n_lanes


def _record_of(paths):
    """(materials by id, the sweeps' view of frozen paths, one lane per path),
    in one pass that appends each continuation vertex to its depth's columns."""
    # loaded on first use, not by `import pathgrad`
    from ._wavefront import PathRecord, id_dtype, lobe_groups
    ids = {}  # id(material) -> (material id, material)

    def mat_id(material):
        return ids.setdefault(id(material), (len(ids), material))[0]

    depths = []  # per depth: lanes, material ids, LobeTags, u1
    emitters = {}  # lane -> emitter material id
    n_lanes = 0
    for lane, path in enumerate(paths):
        n_lanes = lane + 1
        for d, v in enumerate(path.vertices[:path.continuation_count]):
            if d == len(depths):
                depths.append(([], [], [], []))
            for column, value in zip(depths[d], (lane, mat_id(v.material), v.tag, v.u1)):
                column.append(value)
        if path.terminal_kind is TerminalKind.EMITTER:
            emitters[lane] = mat_id(path.vertices[-1].material)
    dtype = id_dtype(len(ids))
    rows = [lobe_groups(np.array(lanes, dtype=np.int64), np.array(mats, dtype=dtype),
                        np.array(tags), np.array(u1))
            for lanes, mats, tags, u1 in depths]
    return ([m for _, m in ids.values()],
            PathRecord(n_lanes, rows, np.array(list(emitters), dtype=np.int64),
                       np.array(list(emitters.values()), dtype=dtype)))


def build_lattice_ensemble(scene, theta, seed, grid=8, sample_index=0,
                           max_depth=DEFAULT_MAX_DEPTH, targets=None,
                           label="lattice"):
    """Freeze one camera path per cell of a grid x grid pixel lattice.

    Each Path dies once read into the record.  Raises ValueError unless
    1 <= grid <= min(width, height): a finer grid would freeze some pixels
    twice and weight their paths double.
    """
    cam = scene.camera
    if grid < 1:
        raise ValueError(f"lattice grid must be at least 1, got {grid}")
    if grid > min(cam.width, cam.height):
        raise ValueError(f"lattice grid {grid} exceeds the {cam.width}x{cam.height} image: "
                         f"at most {min(cam.width, cam.height)} cells per side")
    pixels = (int((j + 0.5) * cam.height / grid) * cam.width + int((i + 0.5) * cam.width / grid)
              for j in range(grid) for i in range(grid))
    paths = (trace_pixel_sample(scene, theta, pixel, sample_index, seed, max_depth)
             for pixel in pixels)
    if targets is None:
        targets = np.zeros(grid * grid)
    return FrozenEnsemble(paths, targets, label=label)


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
    from ._wavefront import backward
    resid, cost, cache = _sweep(ensemble, theta)
    with np.errstate(over="ignore", invalid="ignore"):
        grad = backward(ensemble.record, cache, resid / ensemble.n_paths).sum(axis=1)
    for name, value in (("cost", cost), ("gradient", grad)):
        if not np.all(np.isfinite(value)):
            raise ValueError(f"non-finite {name} at theta {theta.values}")
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

def chain_materials(base_emission=1.0, diffuse_control=1, emission_control=2):
    """A link material (pure reflection by theta_d) and an emissive cap."""
    link = Material.lambert(name="link", ambient=Binding.const(0.0),
                            diffuse=Binding.ctl(diffuse_control), absorb=0.0)
    cap = Material.emitter(name="cap", emission=Binding.ctl(emission_control),
                           base_emission=base_emission, absorb=1.0)
    return link, cap


def build_chain_path(n_segments, base_emission=1.0, diffuse_control=1,
                     emission_control=2):
    """Straight path with n_segments-1 identical reflections into an emitter.

    Camera radiance replays to theta_d^(n_segments-1) * theta_e * E; the
    geometry is immaterial because the reflection factor is direction-free.
    """
    if n_segments < 1:
        raise ValueError("need at least the emitter segment")
    link, cap = chain_materials(base_emission, diffuse_control, emission_control)
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


def analytic_geometric(n_segments, theta_d, theta_e, base_emission=1.0,
                       target=0.0):
    """Closed-form cost and gradient of the chain model.

    L0 = theta_d^(N-1) * theta_e * E,  J = 0.5 (L0 - target)^2,
    dJ/dtheta_d = (L0 - target)(N-1) theta_d^(N-2) theta_e E,
    dJ/dtheta_e = (L0 - target) theta_d^(N-1) E.
    """
    n_refl = n_segments - 1
    radiance = theta_d ** n_refl * theta_e * base_emission
    resid = radiance - target
    cost = 0.5 * resid * resid
    if n_refl == 0:
        g_d = 0.0
    else:
        g_d = resid * n_refl * theta_d ** (n_refl - 1) * theta_e * base_emission
    g_e = resid * theta_d ** n_refl * base_emission
    return cost, radiance, g_d, g_e


def chain_theta(theta_d, theta_e, diffuse_control=1, emission_control=2):
    """Control vector holding the two chain controls, ones elsewhere."""
    values = [1.0] * 7
    values[diffuse_control - 1] = theta_d
    values[emission_control - 1] = theta_e
    return ControlVector.of(*values)
