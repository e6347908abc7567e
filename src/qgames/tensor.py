"""Stacked complex linear algebra for the two-qubit game circuit.

Operators are (..., 4, 4) arrays and states (..., 4) arrays in the
computational basis ordered |00>, |01>, |10>, |11>.  Leading axes broadcast,
so one call runs the circuit for a whole gamma grid and every strategy pair.
"""

import numpy as np


def adjoint(m):
    """Conjugate transpose of each operator in a stack."""
    return np.conj(m).swapaxes(-1, -2)


def apply(m, v):
    """Apply a stack of operators to a stack of state vectors, broadcasting
    their leading axes."""
    return (m @ v[..., None])[..., 0]
