"""Weighted adjoint algebra, Neumann solves, and gradient duality."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pathgrad.adjoint_algebra import (ConvergenceError, DiscreteField,
                                      DiscreteOperator, LinearStateProblem,
                                      adjoint_gradient, adjoint_of,
                                      fd_gradient_oracle, inner_product,
                                      measurement_duality_check,
                                      neumann_solve, random_field,
                                      random_operator, random_problem,
                                      random_weights)


def test_scalar_transport_oracle():
    # u = t u + b with t = 0.5, b = 1: u = 2, J = 0.5 u^2 = 2, p = 4,
    # dJ/dt = p u = 8, dJ/db = p = 4
    problem = LinearStateProblem(
        t_base=[[0.0]], dt=[[[1.0]], [[0.0]]],
        b_base=[0.0], db=[[0.0], [1.0]],
        target=[0.0], weights=[1.0])
    theta = [0.5, 1.0]
    u = problem.solve(theta)
    assert_allclose(u.values, [2.0], rtol=1e-12)
    cost, grad = adjoint_gradient(problem, theta)
    assert_allclose(cost, 2.0, rtol=1e-12)
    assert_allclose(grad, [8.0, 4.0], rtol=1e-11)


def test_inner_product_and_norm():
    w = [2.0, 3.0]
    f = DiscreteField([1.0, 2.0], w)
    g = DiscreteField([4.0, 5.0], w)
    assert inner_product(f, g) == 2 * 4 + 3 * 10
    assert_allclose(f.norm(), np.sqrt(2 + 12), rtol=1e-15)


def test_field_validation():
    with pytest.raises(ValueError):
        DiscreteField([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        DiscreteField([1.0], [0.0])
    with pytest.raises(ValueError):
        DiscreteField([1.0], [-1.0])
    with pytest.raises(ValueError):
        DiscreteField([[1.0]], [[1.0]])
    with pytest.raises(ValueError):
        inner_product(DiscreteField([1.0], [1.0]), DiscreteField([1.0], [2.0]))


def test_operator_validation():
    with pytest.raises(ValueError):
        DiscreteOperator(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        adjoint_of(DiscreteOperator(np.eye(3)), np.ones(2))
    with pytest.raises(ValueError):
        adjoint_of(DiscreteOperator(np.eye(2)), [1.0, 0.0])


def test_adjoint_identity_randomized():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 21))
        w = random_weights(rng, dim)
        op = random_operator(rng, dim, float(rng.uniform(0.2, 2.0)))
        f = random_field(rng, dim, w)
        g = random_field(rng, dim, w)
        lhs = inner_product(op.apply(f), g)
        rhs = inner_product(f, adjoint_of(op, w).apply(g))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    assert worst <= 1e-12


def test_adjoint_of_product_reverses_factors():
    rng = np.random.default_rng(12)
    for _ in range(25):
        dim = int(rng.integers(2, 12))
        w = random_weights(rng, dim)
        a = random_operator(rng, dim, 1.0)
        b = random_operator(rng, dim, 1.0)
        ab = DiscreteOperator(a.matrix @ b.matrix)
        lhs = adjoint_of(ab, w).matrix
        rhs = adjoint_of(b, w).matrix @ adjoint_of(a, w).matrix
        assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-13)
        # the adjoint is an involution
        assert_allclose(adjoint_of(adjoint_of(a, w), w).matrix, a.matrix,
                        rtol=1e-12, atol=1e-14)


def test_neumann_matches_dense_solve():
    rng = np.random.default_rng(13)
    for _ in range(25):
        dim = int(rng.integers(2, 24))
        w = random_weights(rng, dim)
        rho = float(rng.uniform(0.1, 0.8))
        op = random_operator(rng, dim, rho)
        b = random_field(rng, dim, w)
        x = neumann_solve(op, b)
        dense = np.linalg.solve(np.eye(dim) - op.matrix, b.values)
        diff = DiscreteField(x.values - dense, w).norm()
        assert diff <= 1e-11 * (1.0 + b.norm())


def test_neumann_zero_operator_returns_source_exactly():
    b = DiscreteField([1.5, -2.0, 0.25], [1.0, 2.0, 0.5])
    x = neumann_solve(DiscreteOperator(np.zeros((3, 3))), b)
    assert np.array_equal(x.values, b.values)


def test_neumann_raises_on_expanding_operator():
    rng = np.random.default_rng(14)
    op = random_operator(rng, 6, 1.5)
    b = random_field(rng, 6, np.ones(6))
    with pytest.raises(ConvergenceError, match="did not converge"):
        neumann_solve(op, b, max_terms=200)


@pytest.mark.parametrize("radius, cause", [
    (1.5, "transport operator is not contractive (rho ~ 1.5 >= 1)"),
    (0.999, "rho ~ 0.999 < 1: the series converges, but needs more terms"),
])
def test_neumann_failure_tells_slow_from_not_contractive(radius, cause):
    op = DiscreteOperator(np.diag([radius, 0.5]))
    b = DiscreteField([1.0, 1.0], [1.0, 1.0])
    with pytest.raises(ConvergenceError) as exc_info:
        neumann_solve(op, b, max_terms=50)
    message = str(exc_info.value)
    assert message.startswith("Neumann series did not converge within 50 terms")
    assert message.endswith(cause)


def test_neumann_dimension_mismatch():
    b = DiscreteField([1.0, 2.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        neumann_solve(DiscreteOperator(np.zeros((3, 3))), b)


def test_measurement_duality_randomized():
    rng = np.random.default_rng(16)
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 25))
        w = random_weights(rng, dim)
        op = random_operator(rng, dim, float(rng.uniform(0.1, 0.9)))
        source = random_field(rng, dim, w)
        measure = random_field(rng, dim, w)
        i_fwd, i_bwd = measurement_duality_check(op, source, measure)
        worst = max(worst, abs(i_fwd - i_bwd) / max(1.0, abs(i_fwd)))
    assert worst <= 1e-10


def test_adjoint_gradient_matches_fd_randomized():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(20):
        dim = int(rng.integers(2, 17))
        n_controls = int(rng.integers(1, 6))
        problem, theta = random_problem(rng, dim, n_controls)
        cost, grad = adjoint_gradient(problem, theta)
        assert cost >= 0.0
        fd = fd_gradient_oracle(problem, theta)
        rel = np.abs(grad - fd) / np.maximum(1.0, np.abs(grad))
        worst = max(worst, float(np.max(rel)))
    assert worst <= 1e-6


def test_problem_assembly_and_cost():
    problem = LinearStateProblem(
        t_base=np.diag([0.5, 0.25]), dt=np.zeros((1, 2, 2)),
        b_base=[1.0, 1.0], db=np.zeros((1, 2)),
        target=[0.0, 0.0], weights=[1.0, 2.0])
    theta = [0.7]
    assert_allclose(problem.transport(theta).matrix, np.diag([0.5, 0.25]))
    assert_allclose(problem.source(theta).values, [1.0, 1.0])
    # u = (2, 4/3); J = 0.5 (1 * 4 + 2 * 16/9)
    assert_allclose(problem.cost(theta), 2.0 + 16.0 / 9.0, rtol=1e-12)
    assert problem.n_controls == 1


def test_transport_affine_in_controls():
    rng = np.random.default_rng(18)
    problem, theta = random_problem(rng, 5, 3)
    m = problem.t_base + np.tensordot(theta, problem.dt, axes=1)
    assert_allclose(problem.transport(theta).matrix, m, rtol=1e-14)
    vec = problem.b_base + np.tensordot(theta, problem.db, axes=1)
    assert_allclose(problem.source(theta).values, vec, rtol=1e-14)
