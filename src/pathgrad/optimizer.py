"""Projected gradient descent over the seven scene controls.

Each iteration evaluates the image cost against a target and its gradient
by the backward pass, adds an optional Tikhonov term, takes a
steepest-descent step, and clamps the result to per-control bounds.  One
trace session serves the whole run at a fixed seed: its paths depend on the
controls only through the lobe exponents, so while those stay put each
iteration re-sweeps the paths the first one traced, bit-identically to a
fresh render.  Freezing a control is expressed by giving it equal
lower and upper bounds.  Non-finite costs, gradients or stepped controls
abort the run with DivergenceError rather than silently continuing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .materials import ControlVector, N_CONTROLS
from .path_engine import DEFAULT_MAX_DEPTH

DEFAULT_LOWER = (0.0,) * N_CONTROLS
# cosine-lobe exponents beyond this sample so tightly the estimator is useless
DEFAULT_UPPER = (math.inf, math.inf, math.inf, math.inf, 1e3, math.inf, math.inf)
# a run stops early once the cost or the gradient norm falls to these
COST_TOL = 1e-12
GRAD_TOL = 1e-9


class DivergenceError(RuntimeError):
    """Optimization produced a non-finite cost or gradient."""


@dataclass
class OptimConfig:
    learning_rate: float = 0.05
    n_iterations: int = 100
    regularization: float = 0.0
    spp: int = 16
    seed: int = 42
    max_depth: int = DEFAULT_MAX_DEPTH
    threads: int = 1
    lower: tuple = DEFAULT_LOWER
    upper: tuple = DEFAULT_UPPER

    def with_frozen(self, theta, free_controls):
        """Bounds that pin every control except the listed ones at theta."""
        lower = list(self.lower)
        upper = list(self.upper)
        for k in range(1, N_CONTROLS + 1):
            if k not in free_controls:
                lower[k - 1] = upper[k - 1] = theta.control(k)
        return OptimConfig(**{**self.__dict__, "lower": tuple(lower),
                              "upper": tuple(upper)})


@dataclass
class OptimRecord:
    iteration: int
    cost: float
    grad_norm: float
    theta: tuple


@dataclass
class OptimTrajectory:
    records: list = field(default_factory=list)
    converged: bool = False
    reason: str = "iteration budget exhausted"

    @property
    def final_theta(self):
        return ControlVector.of(*self.records[-1].theta)

    @property
    def final_cost(self):
        return self.records[-1].cost

    def to_csv(self):
        header = "iteration,cost,grad_norm," + ",".join(
            f"theta{k}" for k in range(1, N_CONTROLS + 1))
        lines = [header]
        for r in self.records:
            lines.append(f"{r.iteration},{r.cost:.12e},{r.grad_norm:.12e},"
                         + ",".join(f"{v:.12e}" for v in r.theta))
        return "\n".join(lines) + "\n"


def total_cost_and_grad(session, theta, target, config):
    """Image cost plus Tikhonov term, with matching gradient.

    ``session`` is a _wavefront.Session of the scene at the config's spp,
    seed, threads and depth cap; ``target`` holds the rows its target_rows
    returned.
    """
    out = session.evaluate(theta, target)
    cost = out.cost
    grad = out.grad.as_array()
    if config.regularization != 0.0:
        t = theta.as_array()
        with np.errstate(over="ignore", invalid="ignore"):  # optimize checks the sums
            cost += 0.5 * config.regularization * float(t @ t)
            grad = grad + config.regularization * t
    return cost, grad


def project(values, config):
    return np.clip(values, np.asarray(config.lower), np.asarray(config.upper))


def gd_step(theta, grad, config):
    """One projected steepest-descent update; ``optimize`` checks it is finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        stepped = theta.as_array() - config.learning_rate * np.asarray(grad)
    return ControlVector.from_array(project(stepped, config))


def optimize(scene, theta0, target, config=None, callback=None):
    """Run projected gradient descent; returns the full trajectory.

    ``target`` is the image to match, or a ControlVector to render it from;
    the run's session resolves either (Session.target_rows), and while the
    target's exponents equal the start's, the first iteration re-sweeps its
    paths.  The trajectory records cost/gradient at each visited iterate,
    including the final one (with its gradient evaluated but no step taken).
    Raises ValueError for the inputs trace_image rejects, and
    DivergenceError; either way the session's workers are stopped.
    """
    from ._wavefront import Session  # loaded on first use, not by `import pathgrad`

    config = config or OptimConfig()
    theta = ControlVector.from_array(project(theta0.as_array(), config))
    trajectory = OptimTrajectory()
    with Session(scene, config.spp, config.seed, config.threads, config.max_depth) as session:
        rows = session.target_rows(target)
        for it in range(config.n_iterations + 1):
            try:
                cost, grad = total_cost_and_grad(session, theta, rows, config)
            except ValueError as exc:  # bad input at the start, a divergence after a step
                if not it:
                    raise
                raise DivergenceError(f"iteration {it}: {exc}") from None
            with np.errstate(over="ignore"):  # a finite gradient's norm may overflow
                gnorm = float(np.linalg.norm(grad))
            if not (math.isfinite(cost) and math.isfinite(gnorm)):
                raise DivergenceError(
                    f"non-finite cost or gradient at iteration {it} "
                    f"(cost={cost!r}, |grad|={gnorm!r})")
            trajectory.records.append(OptimRecord(it, cost, gnorm,
                                                  theta.values))
            if callback is not None:
                callback(trajectory.records[-1])
            if cost <= COST_TOL:
                trajectory.converged = True
                trajectory.reason = f"cost {cost:.3e} below tolerance"
                break
            if gnorm <= GRAD_TOL:
                trajectory.converged = True
                trajectory.reason = f"gradient norm {gnorm:.3e} below tolerance"
                break
            if it == config.n_iterations:
                break
            theta = gd_step(theta, grad, config)
            if not np.all(np.isfinite(theta.as_array())):
                raise DivergenceError(f"step {it} left non-finite controls {theta.values!r}")
        return trajectory
