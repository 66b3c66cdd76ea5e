"""Hopfield energy, damped retrieval update, and the two fusion schemes."""

import numpy as np
import pytest

from conftest import ref_op
from energyfuse.config import RunConfig
from energyfuse.fusion import (
    eb2f_apply,
    fuse,
    hopfield_energy,
    hopfield_gradient,
    hopfield_update,
)
from energyfuse.autodiff import grad_check, sum_all
from energyfuse.numeric import ColumnPass, ContractError

LN2 = 0.6931471805599453


def _pair(rng, d=None, n=None, m=None, unit_nu=False):
    d = d or int(rng.integers(2, 8))
    n = n or int(rng.integers(1, 9))
    m = m or int(rng.integers(1, 12))
    xi = rng.normal(size=(d, n))
    nu = rng.normal(size=(d, m))
    if unit_nu:
        nu = nu / np.linalg.norm(nu, axis=0, keepdims=True)
    return xi, nu


def test_energy_zero_input_is_minus_log_m():
    nu = np.array([[1.0, -2.0], [0.5, 0.3]])
    assert abs(hopfield_energy(np.zeros((2, 1)), nu) - (-LN2)) < 1e-15


def test_energy_single_unit_pattern():
    e1 = np.array([[1.0], [0.0]])
    assert abs(hopfield_energy(e1, e1) - (-0.5)) < 1e-15


def test_energy_invariant_under_stored_permutation():
    rng = np.random.default_rng(0)
    xi, nu = _pair(rng, d=5, n=1, m=7)
    perm = rng.permutation(7)
    assert abs(hopfield_energy(xi, nu) - hopfield_energy(xi, nu[:, perm])) < 1e-12


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    errors = []
    for _ in range(100):
        d = int(rng.integers(2, 9))
        m = int(rng.integers(1, 17))
        nu = rng.normal(size=(d, m))

        def f(x, nu=nu):
            quad = sum_all(ref_op("mul", x, x)) * 0.5
            lse = sum_all(ref_op("lse_cols", ref_op("matmul", nu.T, x)))
            return ref_op("sub", quad, lse)

        xi = rng.normal(size=(d, 1))
        fd = grad_check(f, xi)
        analytic = hopfield_gradient(xi, nu)
        errors.append(fd)
        # and the closed form agrees with the graph gradient route
        import energyfuse.autodiff as ad

        g = ad.DiffGraph()
        x = g.leaf(xi)
        gg = g.backward(f(x))[x.nid]
        np.testing.assert_allclose(np.ravel(analytic), gg.ravel(), atol=1e-12)
    assert np.max(errors) < 1e-6


def test_gradient_zero_at_fixed_point():
    """Iterate the full update until converged, then the gradient vanishes."""
    rng = np.random.default_rng(2)
    nu = rng.normal(size=(4, 6))
    nu = nu / np.linalg.norm(nu, axis=0, keepdims=True)
    xi = rng.normal(size=(4, 1))
    for _ in range(600):
        xi = nu @ ColumnPass(nu.T @ xi).prob
    g = hopfield_gradient(xi, nu)
    assert np.max(np.abs(g)) < 1e-9


def test_gradient_zero_by_symmetry():
    v = np.array([[0.8], [-0.6], [0.1]])
    nu = np.hstack([v, -v])
    g = hopfield_gradient(np.zeros((3, 1)), nu)
    np.testing.assert_allclose(g, 0.0, atol=1e-15)


def test_update_gamma_zero_returns_input_object_values():
    rng = np.random.default_rng(3)
    xi, nu = _pair(rng)
    out = hopfield_update(xi, nu, gamma=0.0, steps=5)
    np.testing.assert_array_equal(out, xi)


def test_update_steps_zero_returns_input():
    rng = np.random.default_rng(4)
    xi, nu = _pair(rng)
    out = hopfield_update(xi, nu, gamma=1.0, steps=0)
    np.testing.assert_array_equal(out, xi)


def test_update_identity_patterns_hand_value():
    """gamma=1, stored = I2, xi = e1: the update is softmax([1, 0])."""
    out = hopfield_update(np.array([[1.0], [0.0]]), np.eye(2), 1.0, 1)
    np.testing.assert_allclose(
        out, [[0.7310585786300049], [0.2689414213699951]], atol=1e-15
    )


def test_update_two_algebraic_forms_agree():
    """Gradient-step form vs convex-combination form, 1000 instances."""
    rng = np.random.default_rng(5)
    errors = []
    for _ in range(1000):
        xi, nu = _pair(rng)
        gamma = float(rng.uniform())
        a = hopfield_update(xi, nu, gamma, 1)
        grad = np.column_stack(
            [hopfield_gradient(xi[:, j : j + 1], nu).ravel() for j in range(xi.shape[1])]
        )
        b = xi - gamma * grad
        errors.append(np.max(np.abs(a - b)))
    assert np.max(errors) < 1e-12


def test_full_step_never_raises_energy():
    rng = np.random.default_rng(6)
    rises = []
    for _ in range(1000):
        xi, nu = _pair(rng, n=1)
        before = hopfield_energy(xi, nu)
        after = hopfield_energy(hopfield_update(xi, nu, 1.0, 1), nu)
        rises.append(after - before)
    assert np.max(rises) <= 1e-10


def test_damped_step_descends_under_unit_norm():
    rng = np.random.default_rng(7)
    for gamma in (0.25, 0.5, 1.0):
        rises = []
        for _ in range(300):
            xi, nu = _pair(rng, n=1, unit_nu=True)
            cur = xi
            for _ in range(5):
                nxt = hopfield_update(cur, nu, gamma, 1)
                rises.append(hopfield_energy(nxt, nu) - hopfield_energy(cur, nu))
                cur = nxt
        worst = np.max(rises)
        assert worst <= 1e-10, f"gamma={gamma}: {worst:.3e}"


def test_retrieval_converges_within_500_iterations():
    """d >= 3 keeps unit stored columns separated enough to settle fast;
    in d = 2 near-parallel columns can stretch convergence past any
    fixed budget, so the suite stays off that edge."""
    rng = np.random.default_rng(8)
    for _ in range(100):
        d = int(rng.integers(3, 9))
        m = int(rng.integers(2, 9))
        xi, nu = _pair(rng, d=d, n=1, m=m, unit_nu=True)
        prev_delta = np.inf
        cur = xi
        for it in range(500):
            nxt = hopfield_update(cur, nu, 1.0, 1)
            delta = float(np.linalg.norm(nxt - cur))
            assert delta <= prev_delta + 1e-12
            prev_delta = delta
            cur = nxt
            if delta < 1e-6:
                break
        assert prev_delta < 1e-6


def test_fuse_add_identities():
    xi = np.array([[1.0], [2.0]])
    nu = np.array([[3.0], [4.0]])
    np.testing.assert_array_equal(fuse(xi, np.zeros_like(xi)), xi)
    np.testing.assert_array_equal(fuse(xi, nu), [[4.0], [6.0]])


def test_fuse_gated_zero_gate_passes_stored():
    rng = np.random.default_rng(9)
    d, n = 4, 6
    xi = rng.normal(size=(d, n))
    nu = rng.normal(size=(d, n))
    gate = (np.zeros((d, d)), rng.normal(size=(d, d)))
    np.testing.assert_array_equal(fuse(xi, nu, gate), nu)


def test_gamma_out_of_range_rejected():
    """RunConfig is where the gamma/steps schedule is checked."""
    for gamma, steps in ((-0.1, 1), (1.1, 1), (0.5, -1)):
        with pytest.raises(ContractError):
            RunConfig(gamma=gamma, steps=steps)


def test_fractional_and_bool_steps_rejected():
    """steps must be a whole number, so 1.5, 2.0 and True fail with a
    ContractError naming steps, not later in numpy."""
    eye = np.eye(2)
    for steps in (1.5, 2.0, True):
        with pytest.raises(ContractError, match="steps must be an integer"):
            RunConfig(gamma=0.5, steps=steps)
    assert RunConfig(gamma=0.5, steps=np.int64(2)).steps == 2
    np.testing.assert_array_equal(
        hopfield_update(eye, eye, 0.5, np.int64(2)), hopfield_update(eye, eye, 0.5, 2)
    )


def test_eb2f_steps_zero_equals_plain_fuse():
    rng = np.random.default_rng(10)
    for scheme in ("add", "gated"):
        d, n = 5, 7
        query = rng.normal(size=(d, n))
        other = rng.normal(size=(d, n))
        gate = None
        if scheme == "gated":
            gate = (rng.normal(size=(d, d)), rng.normal(size=(d, d)))
        out = eb2f_apply(query, other, 1.0, 0, gate)
        np.testing.assert_array_equal(out, fuse(other, query, gate))


def test_eb2f_preserves_shape():
    rng = np.random.default_rng(11)
    for _ in range(20):
        d = int(rng.integers(2, 9))
        n = int(rng.integers(1, 33))
        query = rng.normal(size=(d, n))
        other = rng.normal(size=(d, n))
        assert eb2f_apply(query, other, 1.0, 2).shape == (d, n)


def test_eb2f_single_step_manual_composition():
    """steps=1, gamma=1, Add: output columns are nu + nu softmax(nu^T xi)."""
    rng = np.random.default_rng(12)
    d, n = 4, 5
    query = rng.normal(size=(d, n))
    other = rng.normal(size=(d, n))
    out = eb2f_apply(query, other, 1.0, 1)
    for j in range(n):
        attn = ColumnPass(query.T @ other[:, j : j + 1]).prob
        want = query[:, j] + (query @ attn).ravel()
        np.testing.assert_allclose(out[:, j], want, atol=1e-12)


def test_eb2f_shape_mismatch_rejected():
    with pytest.raises(ContractError):
        eb2f_apply(np.ones((3, 4)), np.ones((2, 4)), 1.0, 1)
