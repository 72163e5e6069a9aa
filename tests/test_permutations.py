import itertools

import numpy as np
import pytest

from belldistill import (
    ALL_PERMUTATIONS,
    LocalUnitaryPair,
    local_permutation_search,
    permutation_action,
    permutation_table,
)
from belldistill import permutations
from belldistill.permutations import H, I2, S, X, Z


def test_identity_pair_action():
    action = permutation_action(LocalUnitaryPair(I2, I2))
    assert action.perm == (1, 2, 3, 4)
    assert np.allclose(action.phases, [1, 1, 1, 1])


def test_phase_gate_pair_swaps_first_two():
    # S = diag(1, e^{i pi/2}) applied by both parties exchanges the first two
    # Bell states and fixes the last two up to a phase
    action = permutation_action(LocalUnitaryPair(S, S))
    assert action.perm == (2, 1, 3, 4)
    assert abs(abs(action.phases[2]) - 1) < 1e-12
    assert abs(abs(action.phases[3]) - 1) < 1e-12


def test_hadamard_one_sided_fails():
    assert permutation_action(LocalUnitaryPair(H, I2)) is None


def test_non_unitary_rejected():
    with pytest.raises(ValueError, match="unitary"):
        LocalUnitaryPair(np.array([[1, 0], [0, 2.0]]), I2)


@pytest.mark.parametrize("side", ["alice", "bob"])
@pytest.mark.parametrize("bad", [np.full((2, 2), np.nan), np.diag([1.0, np.nan]),
                                 np.array([[np.inf, 0], [0, 1]])])
def test_nan_operator_rejected(side, bad):
    # a comparison with NaN is False, so the check must fail unless it holds
    args = (bad, I2) if side == "alice" else (I2, bad)
    with pytest.raises(ValueError, match=f"{side} operator is not unitary \\(error nan\\)"), \
            np.errstate(invalid="ignore"):
        LocalUnitaryPair(*args)


def test_pauli_pairs_give_expected_permutations():
    assert permutation_action(LocalUnitaryPair(Z, I2)).perm == (2, 1, 4, 3)
    assert permutation_action(LocalUnitaryPair(X, I2)).perm == (3, 4, 1, 2)
    assert permutation_action(LocalUnitaryPair(X, X)).perm == (1, 2, 3, 4)
    assert permutation_action(LocalUnitaryPair(H, H)).perm == (1, 3, 2, 4)


def test_pair_tensors_match_np_kron_bit_for_bit():
    table = permutation_table()
    assert len(table) == 24
    for pair in table.values():
        assert pair.tensor().tobytes() == np.kron(pair.u_alice, pair.u_bob).tobytes()


def test_closure_reaches_exactly_24_permutations():
    table = permutation_table()
    assert len(table) == 24
    assert set(table) == set(ALL_PERMUTATIONS)


@pytest.mark.parametrize("perm", sorted(ALL_PERMUTATIONS))
def test_search_result_verified_by_action(perm):
    pair = local_permutation_search(perm)
    action = permutation_action(pair)
    assert action is not None
    assert action.perm == perm


def test_search_identity_is_identity_pair():
    pair = local_permutation_search((1, 2, 3, 4))
    assert np.allclose(pair.tensor(), np.eye(4))


def test_cold_build_checks_exactly_24_pairs(monkeypatch):
    # the table is built from its 4 x 6 group factors, one checked pair each
    calls = []
    action = permutations.permutation_action

    def counted(pair):
        calls.append(pair.name)
        return action(pair)

    monkeypatch.setattr(permutations, "permutation_action", counted)
    permutation_table.cache_clear()
    try:
        table = permutation_table()
    finally:
        permutation_table.cache_clear()
    assert len(calls) == 24 and len(set(calls)) == 24
    assert set(table) == set(ALL_PERMUTATIONS)


def test_group_property_composition():
    table = permutation_table()
    for a, b in itertools.islice(itertools.product(sorted(table), repeat=2), 0, 60):
        pair = LocalUnitaryPair(table[a].u_alice @ table[b].u_alice,
                                table[a].u_bob @ table[b].u_bob)
        composed = permutation_action(pair)
        expected = tuple(a[b[i] - 1] for i in range(4))
        assert composed is not None and composed.perm == expected
