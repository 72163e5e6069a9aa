import json

import numpy as np
import pytest

from belldistill import bell_product_ket, dm_to_json, partial_trace
from belldistill.bell import bell_amplitudes
from belldistill.registers import check_dense_size


def test_bell_pairs_layout_is_copy_major():
    # axes 2j - 2 and 2j - 1 hold copy j's pair, Alice's qubit first
    s = (1, 3, 4)
    rho = bell_product_ket(s).to_dm()
    for j, i in enumerate(s):
        pair = partial_trace(rho, [2 * j, 2 * j + 1])
        phi = bell_amplitudes(i)
        assert np.allclose(pair.matrix, np.outer(phi, phi.conj()), atol=1e-15)
    qubits = json.loads(dm_to_json(rho))["qubits"]
    assert [q["label"] for q in qubits] == ["A1", "B1", "A2", "B2", "A3", "B3"]
    assert [q["owner"] for q in qubits] == ["alice", "bob"] * 3
    assert [q["copy"] for q in qubits] == [1, 1, 2, 2, 3, 3]


def test_dense_cap():
    check_dense_size(12)
    with pytest.raises(ValueError, match="Bell-diagonal"):
        check_dense_size(13)
