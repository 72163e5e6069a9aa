import itertools

import numpy as np
import pytest
from click.testing import CliRunner

from belldistill import (
    ALL_PERMUTATIONS,
    LocalUnitaryPair,
    local_permutation_search,
    permutation_action,
    permutation_table,
)
from belldistill import permutations
from belldistill.bell import BELL_AMPLITUDES
from belldistill.cli import DENSE_TOL, _gate, main
from belldistill.permutations import _mul

# Gaussian-integer entries; H is sqrt(2) times the Hadamard gate
I2 = ((1, 0), (0, 1))
X = ((0, 1), (1, 0))
Z = ((1, 0), (0, -1))
S = ((1, 0), (0, 1j))
H = ((1, 1), (1, -1))


def test_identity_pair_action():
    action = permutation_action(LocalUnitaryPair(I2, I2))
    assert action == ((1, 2, 3, 4), (1, 1, 1, 1))


def test_phase_gate_pair_swaps_first_two():
    # S = diag(1, e^{i pi/2}) applied by both parties exchanges the first two
    # Bell states and fixes the last two up to the phase i
    action = permutation_action(LocalUnitaryPair(S, S))
    assert action == ((2, 1, 3, 4), (1, 1, 1j, 1j))


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
    with pytest.raises(ValueError, match=f"^{side} operator entry \\((nan|inf)\\+0j\\) "
                                         "is not a Gaussian integer$"):
        LocalUnitaryPair(*args)


@pytest.mark.parametrize("u, message", [
    (np.array([[1, 1], [1, -1]]) / np.sqrt(2),
     "entry (0.7071067811865475+0j) is not a Gaussian integer"),
    (((1, 0.5j), (0, 1)), "entry 0.5j is not a Gaussian integer"),
    (((1, 1), (1, 1)), "is not sqrt(2)^k times a unitary, k < 52"),
    (((3, 0), (0, 3)), "is not sqrt(2)^k times a unitary, k < 52"),  # 9 I
    (((2 ** 26, 0), (0, 2 ** 26)), "is not sqrt(2)^k times a unitary, k < 52"),
    (((1, 0, 0), (0, 1, 0)), "must be 2x2"),
    (((1, 0),), "must be 2x2"),
])
def test_exact_rejection(u, message):
    # only Gaussian integers over sqrt(2)^k are kept, so a float unitary is refused
    for args, side in (((u, I2), "alice"), ((I2, u), "bob")):
        with pytest.raises(ValueError) as err:
            LocalUnitaryPair(*args)
        assert str(err.value).startswith(f"{side} operator ") and str(err.value).endswith(message)
        assert "\n" not in str(err.value)


def test_scale_exponent_is_read_from_the_entries():
    pair = LocalUnitaryPair(((1 + 1j, 0), (0, 1 + 1j)), ((2 ** 25, 0), (0, -(2 ** 25))))
    assert (pair.k_alice, pair.k_bob) == (1, 50)
    assert pair.u_alice == ((1 + 1j, 0), (0, 1 + 1j))
    assert all(type(z) is complex for row in pair.u_bob for z in row)
    # (1 + i) / sqrt(2) is a unit phase, so the Bell states stay in place
    action = permutation_action(LocalUnitaryPair(pair.u_alice, I2))
    assert action.perm == (1, 2, 3, 4)
    assert all(abs(p - (1 + 1j) / np.sqrt(2)) < 1e-15 for p in action.phases)


def test_pauli_pairs_give_expected_permutations():
    assert permutation_action(LocalUnitaryPair(Z, I2)).perm == (2, 1, 4, 3)
    assert permutation_action(LocalUnitaryPair(X, I2)).perm == (3, 4, 1, 2)
    assert permutation_action(LocalUnitaryPair(X, X)).perm == (1, 2, 3, 4)
    assert permutation_action(LocalUnitaryPair(H, H)).perm == (1, 3, 2, 4)


def test_every_table_phase_is_exactly_a_fourth_root_of_unity():
    # each phase is complex(1, 0), complex(-1, 0), complex(0, 1) or complex(0, -1),
    # with no -0.0 part: `-1j` has one, and the payloads would print it
    phases = [p for _, action in permutations._realizations().values() for p in action.phases]
    assert len(phases) == 96
    assert {repr(p) for p in phases} == {"(1+0j)", "(-1+0j)", "1j", "-1j"}
    assert all(type(p) is complex for p in phases)


def test_dense_gates_realize_each_permutation_within_dense_tol():
    # sigma-equiv's complex gates, made from each pair's exact entries
    for perm, (pair, action) in permutations._realizations().items():
        u = np.kron(_gate(pair.u_alice, pair.k_alice), _gate(pair.u_bob, pair.k_bob))
        assert np.max(np.abs(u @ u.conj().T - np.eye(4))) <= DENSE_TOL
        for i, phase in enumerate(action.phases):
            image = u @ BELL_AMPLITUDES[i]
            assert np.max(np.abs(image - phase * BELL_AMPLITUDES[perm[i] - 1])) <= DENSE_TOL


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
    assert pair.u_alice == pair.u_bob == I2 and pair.k_alice == pair.k_bob == 0


def test_cold_build_checks_exactly_24_pairs(monkeypatch):
    # the table is built from its 4 x 6 group factors, one checked pair each,
    # and the permutations command reads the actions of that check
    calls = []
    action = permutations.permutation_action

    def counted(pair):
        calls.append(pair.name)
        return action(pair)

    monkeypatch.setattr(permutations, "permutation_action", counted)
    permutations._realizations.cache_clear()
    try:
        table = permutation_table()
        for fmt in ("table", "json"):
            assert CliRunner().invoke(main, ["permutations", "--format", fmt]).exit_code == 0
    finally:
        permutations._realizations.cache_clear()
    assert len(calls) == 24 and len(set(calls)) == 24
    assert set(table) == set(ALL_PERMUTATIONS)


def test_group_property_composition():
    table = permutation_table()
    for a, b in itertools.islice(itertools.product(sorted(table), repeat=2), 0, 60):
        pair = LocalUnitaryPair(_mul(table[a].u_alice, table[b].u_alice),
                                _mul(table[a].u_bob, table[b].u_bob))
        composed = permutation_action(pair)
        expected = tuple(a[b[i] - 1] for i in range(4))
        assert composed is not None and composed.perm == expected
