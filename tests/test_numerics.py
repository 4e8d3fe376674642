import numpy as np
import pytest

from dense_oracles import dense_of
from endiff.coupling import STATIC_FAMILIES, CouplingSpec, coupling_operator
from endiff.errors import ContractError, DimensionError
from endiff.graphs import Graph, er_graph, is_connected
from endiff.numerics import (NORM_EPS, finite_diff_grad, laplacian, laplacian_lambda_max,
                             row_l2_normalize)
from test_graphs import LONG_SLOT_GRAPHS


def test_row_l2_normalize_unit_rows():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((6, 4)) * 10
    out = row_l2_normalize(m)
    assert np.allclose(np.linalg.norm(out, axis=1), 1.0)


def test_row_l2_normalize_zero_row_uses_eps():
    m = np.zeros((2, 3))
    m[1] = [3.0, 0.0, 4.0]
    out = row_l2_normalize(m)
    # zero row divides by eps instead of blowing up
    assert np.all(np.isfinite(out))
    assert np.allclose(out[0], 0.0)
    assert np.allclose(out[1], [0.6, 0.0, 0.8])


def test_row_l2_normalize_preserves_direction():
    v = np.array([[2.0, 0.0], [0.0, -5.0]])
    out = row_l2_normalize(v)
    assert np.allclose(out, [[1.0, 0.0], [0.0, -1.0]])


def test_laplacian_rows_sum_to_zero():
    rng = np.random.default_rng(2)
    s = np.abs(rng.standard_normal((5, 5)))
    lap = laplacian(s)
    assert np.allclose(lap.sum(axis=1), 0.0)


@pytest.mark.parametrize("n", [5, 16, 74])
def test_spectral_bracket_matches_svd(n):
    # gcn_sym on the cycle C_n is A/2, so the Laplacian I - A/2 has the
    # singular values 1 - cos(2 pi k / n): 0, and 2 for even n or
    # 1 + cos(pi / n) for odd n
    g = Graph.from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])
    s = g.sym_operator.dense()
    top = 2.0 if n % 2 == 0 else 1.0 + np.cos(np.pi / n)
    assert laplacian_lambda_max(s) == pytest.approx(top, rel=1e-12)
    assert _lambda_min(s) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 9, 70])
def test_spectral_bracket_all_one(n):
    # ones/N: the Laplacian I - J/N projects out the all-ones vector
    s = dense_of(coupling_operator(CouplingSpec("all_one"), z=np.zeros((n, 1))))
    assert laplacian_lambda_max(s) == pytest.approx(1.0 if n > 1 else 0.0, abs=1e-12)
    assert _lambda_min(s) == pytest.approx(0.0, abs=1e-12)


def test_spectral_bracket_non_symmetric():
    # singular values of a non-symmetric Laplacian are the square roots of
    # the eigenvalues of its Gram matrix, not its own eigenvalues
    rng = np.random.default_rng(11)
    s = np.abs(rng.standard_normal((12, 12)))
    s /= s.sum(axis=1, keepdims=True)
    s[0] *= 3.0
    delta = laplacian(s)
    eigs = np.linalg.eigvalsh(delta.T @ delta)
    lam = laplacian_lambda_max(s)
    assert lam == pytest.approx(np.sqrt(eigs[-1]), rel=1e-12)
    # rows of the Laplacian sum to zero, so the smallest singular value is 0,
    # which the Gram route resolves only to about sqrt(machine epsilon)
    assert _lambda_min(s) == pytest.approx(0.0, abs=1e-12)
    assert lam > np.max(np.abs(np.linalg.eigvals(delta))) + 1e-3


def test_spectral_bracket_zero_min_on_row_sum_laplacian():
    # the Laplacian annihilates the all-ones vector, so lambda_min = 0
    rng = np.random.default_rng(7)
    s = np.abs(rng.standard_normal((10, 10)))
    assert _lambda_min(s) == pytest.approx(0.0, abs=1e-8)


def test_every_static_laplacian_sends_ones_to_zero():
    # lambda_min = 0, so Prop 1's upper factor (1 - tau lambda_min)^2 is 1
    # and the bound audit takes lambda_max alone. On prop1's instances the
    # smallest singular value of each connected graph's Laplacian is 0 up
    # to rounding
    connected = [g for g in (er_graph(16, 0.3, seed) for seed in range(100))
                 if is_connected(g)]
    assert len(connected) == 90
    assert max(_lambda_min(g.sym_operator.dense()) for g in connected) <= 1e-7
    # and L 1 = S 1 - S 1 = 0 for every static family, as each operator's
    # row sums are its product with ones: on isolated nodes, on long
    # neighbour slots, and on a stack of graphs
    isolated = Graph.from_edge_list(7, [(0, 1), (1, 2), (0, 2), (3, 4)])
    for g in (isolated, *LONG_SLOT_GRAPHS):
        for graphs in (g, [g, er_graph(g.n, 0.1, 1)]):
            for family in STATIC_FAMILIES:
                op = coupling_operator(CouplingSpec(family), g=graphs)
                sums = op.row_sums()
                ones = np.ones(sums.shape + (1,))
                assert np.max(np.abs(op.apply(ones)[..., 0] - sums)) <= (
                    1e-12 * np.max(np.abs(sums)))


def _lambda_min(s) -> float:
    """The smallest singular value of the Laplacian of s, from the SVD."""
    return float(np.linalg.svd(laplacian(s), compute_uv=False)[-1])


def test_finite_diff_grad_quadratic():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])

    def fn(stack):
        return np.sum(stack * stack, axis=(1, 2))

    g = finite_diff_grad(fn, a, 1e-5)
    assert np.allclose(g, 2 * a, atol=1e-8)


def _coupled(m):
    # non-separable: every entry's derivative depends on the others
    return np.log(np.sum(np.exp(m @ m.T))) + np.prod(np.sin(m)) * m[0, -1]


@pytest.mark.parametrize("shape", [(1, 1), (1, 4), (3, 2), (4, 4)])
def test_finite_diff_grad_stack_matches_per_entry_differences(shape):
    a = np.random.default_rng(sum(shape)).standard_normal(shape)
    h = 1e-5
    seen = []

    def fn(stack):
        seen.append(stack.shape)
        return [_coupled(m) for m in stack]

    got = finite_diff_grad(fn, a, h)
    want = np.zeros(shape)
    for i in range(shape[0]):
        for j in range(shape[1]):
            up, down = a.copy(), a.copy()
            up[i, j] += h
            down[i, j] -= h
            want[i, j] = (_coupled(up) - _coupled(down)) / (2.0 * h)
    assert seen == [(2 * a.size,) + shape]  # one call on the whole stack
    assert np.array_equal(got, want)


def test_finite_diff_grad_contract():
    a = np.ones((2, 3))
    with pytest.raises(ContractError):
        finite_diff_grad(lambda s: np.zeros(len(s)), a, 0.0)
    with pytest.raises(ContractError):
        finite_diff_grad(lambda s: np.zeros(len(s)), a, -1e-5)
    with pytest.raises(DimensionError):  # one value, not one per copy
        finite_diff_grad(lambda s: float(np.sum(s)), a, 1e-5)


def test_norm_eps_is_tiny():
    assert NORM_EPS == 1e-12
