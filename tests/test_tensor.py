import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import entangler, final_state
from qgames import eisert, tensor
from qgames.eisert import D, Q, _strategy_operator
from qgames.errors import ConsistencyError

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
IZ = np.array([[1j, 0], [0, -1j]])

E00 = np.array([1, 0, 0, 0], dtype=complex)
E01 = np.array([0, 1, 0, 0], dtype=complex)


def raw_entangler(gamma):
    # same layout as entangler(), but without the domain check (negative gamma)
    c, s = math.cos(gamma / 2), math.sin(gamma / 2)
    return np.array(
        [[c, 0, 0, 1j * s], [0, c, -1j * s, 0], [0, -1j * s, c, 0], [1j * s, 0, 0, c]]
    )


def is_unitary(m):
    return np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) <= 1e-12


def test_kron_iz_with_flip_operator():
    # (iZ (x) O(pi,0)) |00> = -i |01>: hand expansion of the 4x4 product,
    # run through the circuit at gamma=0 where the entangler is the identity
    assert np.allclose(final_state(Q, D, 0.0), -1j * E01, atol=1e-12)


def test_apply_identity():
    v = np.array([0.5, 0.5j, -0.5, 0.5j])
    assert np.allclose(tensor.apply(I4, v), v, atol=1e-12)


def test_apply_entangler_to_00():
    gamma = 0.9
    out = tensor.apply(entangler(gamma), E00)
    expected = np.array([math.cos(gamma / 2), 0, 0, 1j * math.sin(gamma / 2)])
    assert np.allclose(out, expected, atol=1e-12)


def test_apply_round_trip_through_entangler():
    gamma = 1.1
    v = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
    lhat = entangler(gamma)
    back = tensor.apply(tensor.adjoint(lhat), tensor.apply(lhat, v))
    assert np.allclose(back, v, atol=1e-12)


def test_apply_broadcasts_stacks():
    gammas = np.array([0.0, 0.3, 1.2])
    states = np.array([E00, E01])
    out = tensor.apply(entangler(gammas)[:, None], states)
    assert out.shape == (3, 2, 4)
    for k, g in enumerate(gammas):
        for i, v in enumerate(states):
            assert np.array_equal(out[k, i], entangler(g) @ v)


def test_apply_flags_non_unitary_operator():
    # the circuit's end-to-end norm check catches an operator that is not
    # unitary, and names the gamma and the cell; the products go straight
    # in, so the cache of eisert._probs never holds them
    cells = np.broadcast_to(np.kron(2.0 * I2, 2.0 * I2), (2, 2, 4, 4))
    with pytest.raises(ConsistencyError, match=r"gamma=0\.5, cell \(0,0\)"):
        eisert._circuit(cells, np.array([0.5, 1.0]))


def test_adjoint_identity():
    assert np.array_equal(tensor.adjoint(I4), I4)


def test_adjoint_of_entangler_negates_angle():
    gamma = math.pi / 3
    assert np.allclose(tensor.adjoint(entangler(gamma)), raw_entangler(-gamma), atol=1e-12)


def test_adjoint_is_involution():
    m = entangler(0.4) @ np.kron(IZ, X)
    assert np.array_equal(tensor.adjoint(tensor.adjoint(m)), m)


def test_adjoint_of_a_stack_is_per_operator():
    gammas = np.linspace(0, math.pi / 2, 7)
    adj = tensor.adjoint(entangler(gammas))
    assert all(np.array_equal(adj[k], entangler(g).conj().T) for k, g in enumerate(gammas))


angles_theta = st.floats(min_value=0.0, max_value=math.pi)
angles_phi = st.floats(min_value=0.0, max_value=math.pi / 2)
angles_gamma = st.floats(min_value=0.0, max_value=math.pi / 2)


@settings(max_examples=60, deadline=None)
@given(theta=angles_theta, phi=angles_phi, gamma=angles_gamma)
def test_operators_are_unitary(theta, phi, gamma):
    assert is_unitary(_strategy_operator(theta, phi))
    assert is_unitary(entangler(gamma))


@settings(max_examples=60, deadline=None)
@given(theta=angles_theta, phi=angles_phi, gamma=angles_gamma)
def test_apply_preserves_norm(theta, phi, gamma):
    m = np.kron(_strategy_operator(theta, phi), IZ) @ entangler(gamma)
    v = np.array([0.5, -0.5j, 0.5, 0.5j])
    out = tensor.apply(m, v)
    assert abs(np.vdot(out, out).real - 1.0) <= 1e-12
