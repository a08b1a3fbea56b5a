"""Finite-dimensional transport algebra: weighted adjoints, Neumann series,
and adjoint-vs-direct gradient checks.

This is the small linear-algebra model of the renderer's gradient machinery.
State fields live on n abstract cells with strictly positive quadrature
weights w, inner product <f, g> = sum_i w_i f_i g_i.  A transport operator T
scatters a field once; the steady state solves u = T u + b, i.e.
u = (I - T)^-1 b, evaluated as the Neumann partial sum b + Tb + T^2 b + ...
for contractive T.  The adjoint of A under the weighted product is
A* = W^-1 A^T W, and a measurement <W1, u> can equivalently be computed by
transporting the measurement field backwards: <(I - T*)^-1 W1, b>.

For a quadratic data cost J = 0.5 <u - u_hat, u - u_hat>, the gradient with
respect to controls entering T and b is obtained from one extra adjoint
solve p = (I - T*)^-1 (u - u_hat):

    dJ/dtheta_k = <p, (dT/dtheta_k) u + db/dtheta_k>

which this module cross-checks against brute-force central differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-13
DEFAULT_MAX_TERMS = 1000


class ConvergenceError(RuntimeError):
    """Neumann partial sums failed to converge within max_terms."""


@dataclass
class DiscreteField:
    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.values.shape != self.weights.shape or self.values.ndim != 1:
            raise ValueError("field values and weights must be equal-length vectors")
        if np.any(self.weights <= 0.0):
            raise ValueError("quadrature weights must be strictly positive")

    def norm(self):
        return float(np.sqrt(inner_product(self, self)))


@dataclass
class DiscreteOperator:
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("operator matrix must be square")

    @property
    def dim(self):
        return self.matrix.shape[0]

    def apply(self, field):
        return DiscreteField(self.matrix @ field.values, field.weights)


def _check_weights(f, g):
    if f.weights.shape != g.weights.shape or not np.array_equal(f.weights, g.weights):
        raise ValueError("fields use different quadrature weights")


def inner_product(f, g):
    """Weighted inner product sum_i w_i f_i g_i."""
    _check_weights(f, g)
    return float(np.sum(f.weights * f.values * g.values))


def adjoint_of(op, weights):
    """Adjoint under the weighted product: W^-1 A^T W."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.shape[0] != op.dim:
        raise ValueError("weights length must match operator dimension")
    if np.any(w <= 0.0):
        raise ValueError("quadrature weights must be strictly positive")
    # (A*)_ij = w_j A_ji / w_i
    return DiscreteOperator(op.matrix.T * w[None, :] / w[:, None])


def neumann_solve(op, b, max_terms=DEFAULT_MAX_TERMS):
    """Solve (I - T) x = b by partial sums; raises ConvergenceError if stuck.

    Terms are added until the weighted norm of the latest term drops to
    DEFAULT_TOL * (1 + ||b||), which for spectral radius rho < 1 bounds the
    residual ||x - Tx - b|| by the same quantity.
    """
    if op.dim != b.values.shape[0]:
        raise ValueError("operator and field dimensions differ")
    threshold = DEFAULT_TOL * (1.0 + b.norm())
    term = b.values.copy()
    x = term.copy()
    for _ in range(max_terms):
        if float(np.sqrt(np.sum(b.weights * term * term))) <= threshold:
            return DiscreteField(x, b.weights)
        term = op.matrix @ term
        x = x + term
    rho = spectral_radius(op.matrix)
    cause = (f"transport operator is not contractive (rho ~ {rho:.6g} >= 1)" if rho >= 1.0
             else f"rho ~ {rho:.6g} < 1: the series converges, but needs more terms")
    raise ConvergenceError(
        f"Neumann series did not converge within {max_terms} terms "
        f"(last term norm {float(np.sqrt(np.sum(b.weights * term * term))):.3e}, "
        f"threshold {threshold:.3e}); {cause}")


def spectral_radius(matrix):
    """Largest eigenvalue magnitude, from a dense eigenvalue solve."""
    return float(np.max(np.abs(np.linalg.eigvals(matrix))))


def measurement_duality_check(op, source, measure):
    """Evaluate one measurement both ways.

    Forward: solve u = T u + source, return <measure, u>.
    Backward: solve v = T* v + measure, return <v, source>.
    The two agree up to series truncation.
    """
    _check_weights(source, measure)
    u = neumann_solve(op, source)
    i_fwd = inner_product(measure, u)
    op_adj = adjoint_of(op, source.weights)
    v = neumann_solve(op_adj, measure)
    i_bwd = inner_product(v, source)
    return i_fwd, i_bwd


@dataclass
class LinearStateProblem:
    """Steady state u = T(theta) u + b(theta) with a quadratic data cost.

    T and b are affine in the controls:
        T(theta) = t_base + sum_k theta_k dt[k]
        b(theta) = b_base + sum_k theta_k db[k]
    """

    t_base: np.ndarray            # (n, n)
    dt: np.ndarray                # (k, n, n)
    b_base: np.ndarray            # (n,)
    db: np.ndarray                # (k, n)
    target: np.ndarray            # (n,)
    weights: np.ndarray           # (n,)

    def __post_init__(self):
        self.t_base = np.asarray(self.t_base, dtype=np.float64)
        self.dt = np.asarray(self.dt, dtype=np.float64)
        self.b_base = np.asarray(self.b_base, dtype=np.float64)
        self.db = np.asarray(self.db, dtype=np.float64)
        self.target = np.asarray(self.target, dtype=np.float64)
        self.weights = np.asarray(self.weights, dtype=np.float64)

    @property
    def n_controls(self):
        return self.dt.shape[0]

    def transport(self, theta):
        m = self.t_base.copy()
        for k, v in enumerate(np.asarray(theta, dtype=np.float64)):
            m = m + v * self.dt[k]
        return DiscreteOperator(m)

    def source(self, theta):
        vec = self.b_base.copy()
        for k, v in enumerate(np.asarray(theta, dtype=np.float64)):
            vec = vec + v * self.db[k]
        return DiscreteField(vec, self.weights)

    def solve(self, theta):
        return neumann_solve(self.transport(theta), self.source(theta))

    def cost(self, theta):
        u = self.solve(theta)
        r = DiscreteField(u.values - self.target, self.weights)
        return 0.5 * inner_product(r, r)


def adjoint_gradient(problem, theta):
    """Cost and its exact gradient via one state solve plus one adjoint solve."""
    op = problem.transport(theta)
    u = problem.solve(theta)
    resid = DiscreteField(u.values - problem.target, problem.weights)
    cost = 0.5 * inner_product(resid, resid)
    op_adj = adjoint_of(op, problem.weights)
    p = neumann_solve(op_adj, resid)
    grad = np.empty(problem.n_controls)
    for k in range(problem.n_controls):
        dE = DiscreteField(problem.dt[k] @ u.values + problem.db[k], problem.weights)
        grad[k] = inner_product(p, dE)
    return cost, grad


def fd_gradient_oracle(problem, theta):
    """Brute-force central differences of the cost over full re-solves."""
    eps = 1e-5
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.empty(problem.n_controls)
    for k in range(problem.n_controls):
        tp = theta.copy()
        tp[k] += eps
        tm = theta.copy()
        tm[k] -= eps
        grad[k] = (problem.cost(tp) - problem.cost(tm)) / (2.0 * eps)
    return grad


# ---------------------------------------------------------------------------
# generators used by the self-check CLI and the test suite

def random_operator(rng, dim, rho):
    """Random dense operator rescaled to the requested spectral radius."""
    m = rng.standard_normal((dim, dim))
    r = spectral_radius(m)
    if r == 0.0:
        raise ValueError("degenerate random matrix")
    return DiscreteOperator(m * (rho / r))


def random_field(rng, dim, weights):
    return DiscreteField(rng.standard_normal(dim), weights)


def random_weights(rng, dim):
    return rng.uniform(0.2, 2.0, size=dim)


def random_problem(rng, dim, n_controls, rho=0.8):
    """Random contractive problem and an evaluation point for it."""
    theta = rng.uniform(0.5, 1.5, size=n_controls)
    t_base = rng.standard_normal((dim, dim))
    dt = rng.standard_normal((n_controls, dim, dim)) * 0.3
    assembled = t_base + np.tensordot(theta, dt, axes=1)
    scale = rho / spectral_radius(assembled)
    problem = LinearStateProblem(
        t_base=t_base * scale,
        dt=dt * scale,
        b_base=rng.standard_normal(dim),
        db=rng.standard_normal((n_controls, dim)) * 0.5,
        target=rng.standard_normal(dim),
        weights=random_weights(rng, dim),
    )
    return problem, theta
