import json

import numpy as np
import pytest

from belldistill import DensityOperator, Ket


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_density(n_qubits: int, rng: np.random.Generator) -> DensityOperator:
    """Ginibre-random full-rank density operator on n_qubits qubits."""

    d = 2 ** n_qubits
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return DensityOperator(m / m.trace())


def kron_state(a, b):
    """Tensor product of two kets or two density operators, a's qubits first;
    the reference that states built on the copy-major register are checked
    against."""

    if isinstance(a, Ket):
        return Ket(np.kron(a.amplitudes, b.amplitudes))
    return DensityOperator(np.kron(a.matrix, b.matrix))


def dump_matrix(text: str) -> np.ndarray:
    """The matrix of a `dm_to_json` dump, read from its row-major [re, im]
    pairs."""

    return np.array([[complex(re, im) for re, im in row] for row in json.loads(text)["matrix"]])


def random_bell_diagonal(n: int, rng: np.random.Generator, support: int | None = None):
    """Random Bell-diagonal state; full support unless `support` is given."""

    from belldistill import BellDiagonalState

    strings = []
    for code in range(4 ** n):
        s, c = [], code
        for _ in range(n):
            s.append(c % 4 + 1)
            c //= 4
        strings.append(tuple(s))
    if support is not None:
        idx = rng.choice(len(strings), size=support, replace=False)
        strings = [strings[i] for i in idx]
    w = rng.dirichlet(np.ones(len(strings)))
    return BellDiagonalState(n, dict(zip(strings, w)))
