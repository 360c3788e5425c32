"""Shape-function bases: Kronecker, partition of unity, completeness,
gradient consistency."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mesh.element import ElementType
from repro.mesh.quadrature import quadrature_for
from repro.mesh.shape_functions import reference_nodes, shape_functions_for

ALL_TYPES = list(ElementType)
QUADRATIC_TYPES = [ElementType.HEX20, ElementType.HEX27, ElementType.TET10]


def _interior_points(etype: ElementType, n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if etype.is_hex:
        return rng.uniform(-1.0, 1.0, size=(n, 3))
    bary = rng.dirichlet([1.0] * 4, size=n)
    return bary[:, 1:]


@pytest.mark.parametrize("etype", ALL_TYPES)
def test_kronecker_property(etype):
    sf = shape_functions_for(etype)
    N = sf.eval(reference_nodes(etype))
    np.testing.assert_allclose(N, np.eye(etype.n_nodes), atol=1e-12)


@pytest.mark.parametrize("etype", ALL_TYPES)
def test_partition_of_unity(etype):
    sf = shape_functions_for(etype)
    pts = _interior_points(etype, 40)
    np.testing.assert_allclose(sf.eval(pts).sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("etype", ALL_TYPES)
def test_gradient_partition_of_unity(etype):
    sf = shape_functions_for(etype)
    pts = _interior_points(etype, 40)
    np.testing.assert_allclose(sf.grad(pts).sum(axis=1), 0.0, atol=1e-12)


@pytest.mark.parametrize("etype", ALL_TYPES)
def test_linear_completeness(etype):
    """Sum N_i(x) f(node_i) == f(x) for affine f."""
    sf = shape_functions_for(etype)
    nodes = reference_nodes(etype)
    pts = _interior_points(etype, 25)
    f = lambda x: 1.0 + 2 * x[..., 0] - 3 * x[..., 1] + 0.5 * x[..., 2]
    np.testing.assert_allclose(sf.eval(pts) @ f(nodes), f(pts), atol=1e-12)


@pytest.mark.parametrize("etype", QUADRATIC_TYPES)
def test_quadratic_completeness(etype):
    sf = shape_functions_for(etype)
    nodes = reference_nodes(etype)
    pts = _interior_points(etype, 25)

    def f(x):
        return (
            x[..., 0] ** 2
            - 2 * x[..., 1] ** 2
            + x[..., 2] ** 2
            + x[..., 0] * x[..., 1]
            - x[..., 1] * x[..., 2]
            + 3 * x[..., 0]
        )

    np.testing.assert_allclose(sf.eval(pts) @ f(nodes), f(pts), atol=1e-11)


@pytest.mark.parametrize("etype", ALL_TYPES)
def test_gradients_match_finite_differences(etype):
    sf = shape_functions_for(etype)
    pts = _interior_points(etype, 8) * 0.8  # stay away from boundaries
    g = sf.grad(pts)
    eps = 1e-6
    for d in range(3):
        pp, pm = pts.copy(), pts.copy()
        pp[:, d] += eps
        pm[:, d] -= eps
        fd = (sf.eval(pp) - sf.eval(pm)) / (2 * eps)
        np.testing.assert_allclose(fd, g[:, :, d], atol=1e-7)


@pytest.mark.parametrize("etype", ALL_TYPES)
def test_quadrature_weights_positive_and_sum_to_volume(etype):
    q = quadrature_for(etype)
    assert (q.weights > 0).all()
    expected = 8.0 if etype.is_hex else 1.0 / 6.0
    np.testing.assert_allclose(q.weights.sum(), expected, rtol=1e-12)


@pytest.mark.parametrize("etype", ALL_TYPES)
@pytest.mark.parametrize("exponents", [(1, 0, 0), (2, 1, 0), (0, 2, 2)])
def test_quadrature_integrates_polynomials_exactly(etype, exponents):
    q = quadrature_for(etype)
    i, j, k = exponents
    if i + j + k > q.degree:
        pytest.skip("beyond rule degree")
    val = (
        q.weights
        * q.points[:, 0] ** i
        * q.points[:, 1] ** j
        * q.points[:, 2] ** k
    ).sum()
    if etype.is_hex:
        def m(e):  # int_{-1}^{1} x^e dx
            return 0.0 if e % 2 else 2.0 / (e + 1)
        expected = m(i) * m(j) * m(k)
    else:
        # int over unit tet of x^i y^j z^k = i! j! k! / (i+j+k+3)!
        from math import factorial
        expected = (
            factorial(i) * factorial(j) * factorial(k)
            / factorial(i + j + k + 3)
        )
    np.testing.assert_allclose(val, expected, atol=1e-13)


@given(st.integers(min_value=1, max_value=5))
def test_hex_rule_degree_scaling(n):
    from repro.mesh.quadrature import hex_rule

    q = hex_rule(n)
    assert q.n_points == n**3
    assert q.degree == 2 * n - 1
    # highest exactly-integrated even power
    e = 2 * n - 2
    val = (q.weights * q.points[:, 0] ** e).sum()
    np.testing.assert_allclose(val, 2.0 / (e + 1) * 4.0, rtol=1e-12)


@given(st.integers(min_value=1, max_value=5))
def test_tet_rule_positive_points_inside(n):
    from repro.mesh.quadrature import tet_rule

    q = tet_rule(n)
    assert (q.points >= 0).all()
    assert (q.points.sum(axis=1) <= 1.0 + 1e-14).all()
    assert (q.weights > 0).all()
