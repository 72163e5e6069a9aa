import functools
import hashlib
import itertools
import json
import math
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from belldistill import (
    BellDiagonalState,
    bell_diagonal_kl,
    bell_product_ket,
    dm_from_ensemble,
    invert_permutation,
    local_permutation_search,
    partial_trace,
    relative_entropy,
    reorder,
    rho2_power,
    rho_n,
    sample_pairwise_separable,
    sample_separable,
    sigma_n,
    smolin_flip_check,
    to_dense,
    von_neumann_entropy,
)
from belldistill import bell
from belldistill.bell import (BELL_AMPLITUDES, bell_bits, bell_index, check_permutation,
                              is_pair_constant)

from conftest import SRC, kron_state, random_bell_diagonal, traced_peak_kib

SQ2 = 1 / math.sqrt(2)


def test_bell_ket_amplitude_vectors():
    assert np.allclose(bell_product_ket((1,)).amplitudes, [SQ2, 0, 0, SQ2])
    assert np.allclose(bell_product_ket((2,)).amplitudes, [SQ2, 0, 0, -SQ2])
    assert np.allclose(bell_product_ket((3,)).amplitudes, [0, SQ2, SQ2, 0])
    assert np.allclose(bell_product_ket((4,)).amplitudes, [0, SQ2, -SQ2, 0])


def test_bell_kets_orthonormal():
    for i in range(1, 5):
        for j in range(1, 5):
            ov = np.vdot(bell_product_ket((i,)).amplitudes, bell_product_ket((j,)).amplitudes)
            assert abs(ov - (1.0 if i == j else 0.0)) < 1e-15


def test_bell_index_range_checked():
    with pytest.raises(ValueError, match="1..4"):
        bell_product_ket((5,))


def test_rho_n_dense_n1_is_maximally_mixed():
    assert np.allclose(to_dense(rho_n(1)).matrix, np.eye(4) / 4, atol=1e-14)
    marginal = partial_trace(to_dense(rho_n(1)), [0])
    assert np.allclose(marginal.matrix, np.eye(2) / 2, atol=1e-14)


def test_rho_n_structured_weights():
    state = rho_n(2)
    assert state.weights == {f"{i}{i}": 0.25 for i in (1, 2, 3, 4)}


def test_rho_n_entropy_two_bits():
    for n in (1, 2, 3):
        assert von_neumann_entropy(to_dense(rho_n(n))) == pytest.approx(2.0, abs=1e-12)
    for n in (1, 2, 5, 9):
        assert rho_n(n).entropy_bits() == pytest.approx(2.0, abs=1e-12)


def test_rho_n_dense_rejects_oversize():
    with pytest.raises(ValueError, match="Bell-diagonal"):
        to_dense(rho_n(7))


def test_rho_n_refuses_copy_counts_past_the_limit():
    # the largest accepted count builds (four strings of 10^6 digits); the next
    # is refused before anything is built
    limit = bell.MAX_COPIES
    assert len(rho_n(limit).weights) == 4
    with pytest.raises(ValueError) as err:
        rho_n(limit + 1)
    assert str(err.value) == f"copy count {limit + 1} > {limit}, the most rho_n builds"


def test_rho2_power_structure():
    assert rho2_power(1).weights == rho_n(2).weights
    m2 = rho2_power(2)
    assert len(m2.weights) == 16
    assert all(w == pytest.approx(1 / 16) for w in m2.weights.values())
    assert all(is_pair_constant(s) for s in m2.weights)


def test_is_pair_constant_matches_the_pairwise_definition():
    def pairwise(s):
        return len(s) % 2 == 0 and all(s[2 * j] == s[2 * j + 1] for j in range(len(s) // 2))

    for n in range(7):  # odd lengths, and n = 0 with no pair at all
        for s in itertools.product((1, 2, 3, 4), repeat=n):
            text = "".join(map(str, s))
            assert is_pair_constant(s) is is_pair_constant(list(s)) is pairwise(s), s
            assert is_pair_constant(text) is pairwise(s), s


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_rho_n_support_inside_rho2_power(m):
    p = rho_n(2 * m)
    q = rho2_power(m)
    assert all(q.weight(s) > 0 for s in p.weights)


def test_sigma_n_identity_perms_is_rho_n():
    assert sigma_n(["1234"] * 3).weights == rho_n(3).weights


def test_sigma_n_swap_example():
    state = sigma_n(["2134", "1234"])
    assert state.weights == {"21": 0.25, "12": 0.25, "33": 0.25, "44": 0.25}


def test_sigma_n_entropy_independent_of_perms(rng):
    for _ in range(5):
        perms = ["".join(str(d) for d in rng.permutation([1, 2, 3, 4])) for _ in range(4)]
        assert sigma_n(perms).entropy_bits() == pytest.approx(2.0, abs=1e-12)


def test_sigma_n_rejects_empty():
    with pytest.raises(ValueError, match=r"^need at least one permutation \(one per copy\)$"):
        sigma_n([])


def test_sigma_n_error_messages():
    # permute_per_copy reads each permutation with check_permutation, which
    # names the value as it was given
    for perms, message in ((["1234", "2133"], "not a permutation of 1..4: '2133'"),
                           (["1234", "213"], "not a permutation of 1..4: '213'"),
                           (["1234", ""], "not a permutation of 1..4: ''"),
                           ([(1, 2, 3, 4), (1, 1, 2, 3)], "not a permutation of 1..4: (1, 1, 2, 3)")):
        with pytest.raises(ValueError) as info:
            sigma_n(perms)
        assert str(info.value) == message


def _sigma_by_index(perms):
    """sigma_n as built index by index: weight 1/4 on (pi_1(i), ..., pi_n(i))."""

    weights = {}
    for i in (1, 2, 3, 4):
        s = "".join(str(p[i - 1]) for p in perms)
        weights[s] = weights.get(s, 0.0) + 0.25
    return weights


def test_sigma_n_is_rho_n_relabelled(rng):
    for n in range(1, 7):
        for _ in range(5):
            perms = [tuple(int(d) for d in rng.permutation([1, 2, 3, 4])) for _ in range(n)]
            expected = _sigma_by_index(perms)
            for given in (perms, ["".join(map(str, p)) for p in perms]):
                state = sigma_n(given)
                assert state.n == n
                assert list(state.weights.items()) == list(expected.items())


def test_bell_diagonal_kl_examples():
    p = rho_n(3)
    assert bell_diagonal_kl(p, p) == pytest.approx(0.0, abs=1e-15)
    for m in (*range(1, 11), 511):
        val = bell_diagonal_kl(rho_n(2 * m), rho2_power(m))
        assert val == pytest.approx(2 * m - 2, abs=1e-12)
    # 4^-512 is below the smallest normal float
    with pytest.raises(ValueError, match="511"):
        rho2_power(512)


def test_bell_diagonal_kl_infinite_off_support():
    p = BellDiagonalState(1, {(1,): 1.0})
    q = BellDiagonalState(1, {(2,): 1.0})
    assert math.isinf(bell_diagonal_kl(p, q))


def test_bell_diagonal_kl_is_finite_against_a_subnormal_weight():
    # w / qs overflows for the subnormal q weight 1e-160 * 1e-160, while the
    # divergence is log2(1 / qs), about 1063.017 bits
    s = BellDiagonalState(1, {"1": 1 - 1e-160, "2": 1e-160})
    q = s.tensor(s)
    assert 0.0 < q.weight("22") < sys.float_info.min
    value = bell_diagonal_kl(BellDiagonalState(2, {"22": 1.0}), q)
    assert value == -math.log2(q.weight("22")) == pytest.approx(1063.017, abs=1e-3)


def test_bell_diagonal_kl_rejects_length_mismatch():
    with pytest.raises(ValueError, match="copy count"):
        bell_diagonal_kl(rho_n(2), rho_n(3))


def test_to_dense_matches_direct_ensemble():
    direct = dm_from_ensemble(
        [(0.25, bell_product_ket((i, i))) for i in (1, 2, 3, 4)])
    assert to_dense(rho_n(2)).matrix.tobytes() == direct.matrix.tobytes()
    assert to_dense(rho2_power(1)).matrix.tobytes() == direct.matrix.tobytes()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_to_dense_random_is_valid_state(seed):
    gen = np.random.default_rng(seed)
    state = random_bell_diagonal(2, gen)
    dense = to_dense(state)  # construction enforces trace-1 and PSD
    assert abs(np.trace(dense.matrix).real - 1.0) < 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.sampled_from([1, 2]))
def test_dense_and_structured_divergences_agree(seed, n):
    gen = np.random.default_rng(seed)
    p = random_bell_diagonal(n, gen)
    q = random_bell_diagonal(n, gen)
    structured = bell_diagonal_kl(p, q)
    dense = relative_entropy(to_dense(p), to_dense(q))
    assert dense == pytest.approx(structured, abs=1e-8)


def test_dense_structured_agreement_named_states():
    pairs = [
        (rho_n(2), rho2_power(1)),
        (rho_n(3), sigma_n(["2134", "3412", "1234"])),
        (sigma_n(["4321", "1234"]), rho_n(2)),
    ]
    for p, q in pairs:
        structured = bell_diagonal_kl(p, q)
        dense = relative_entropy(to_dense(p), to_dense(q))
        if math.isinf(structured):
            assert math.isinf(dense)
        else:
            assert dense == pytest.approx(structured, abs=1e-8)


def test_serialization_roundtrip():
    state = sigma_n(["2134", "1342"])
    again = BellDiagonalState.from_json(state.to_json())
    assert again.n == state.n
    assert again.weights == pytest.approx(state.weights)


def test_weights_validation():
    with pytest.raises(ValueError, match="sum"):
        BellDiagonalState(1, {(1,): 0.7})
    with pytest.raises(ValueError, match="negative"):
        BellDiagonalState(1, {(1,): 1.5, (2,): -0.5})
    with pytest.raises(ValueError, match="length"):
        BellDiagonalState(2, {(1,): 1.0})
    with pytest.raises(ValueError, match=r"^weights sum to nan, expected 1$"):
        BellDiagonalState(1, {(1,): float("nan")})


def test_copy_count_is_an_integer():
    for n in (2.0, 2.5, "2", None, 0, -1):
        for build, what in ((lambda n: BellDiagonalState(n, {(1, 1): 1.0}), "copy count"),
                            (rho_n, "copy count"), (rho2_power, "block count")):
            with pytest.raises(ValueError, match=f"^{what} must be an integer >= 1, got "):
                build(n)
    # a bool is an int; the state keeps the plain int, which to_json writes as a number
    state = BellDiagonalState(True, {(1,): 1.0})
    assert type(state.n) is int and state.to_json() == _reference_json(state)
    assert BellDiagonalState.from_json(state.to_json()) == state


def test_every_count_follows_the_copy_count_rule():
    # the bounds, the samplers, the search and the protocol read their counts
    # through the rule above, so a message names the value the caller passed
    # (the bounds once reported er_bound_even(2.0) as "got 4.0", distill(3.0, 4)
    # ran, and er_search(3, restarts=1.5) raised a TypeError)
    from belldistill.locc import _draws, discrimination_rate, distill, distill_exact_branches
    from belldistill.measures import (er_bound_even, er_bound_odd_doubled, er_bound_pair,
                                      er_search)

    rng = np.random.default_rng(0)
    counted = [(er_bound_even, "block count"), (er_bound_pair, "copy count"),
               (er_bound_odd_doubled, "block count"),
               (lambda m: sample_pairwise_separable(m, rng), "block count"),
               (lambda n: distill(n, 4), "copy count"), (lambda s: distill(3, s), "shot count"),
               (discrimination_rate, "copy count"), (distill_exact_branches, "copy count"),
               (lambda s: _draws(0, 0, s), "shot count"),
               (lambda n: er_search(n, restarts=1, budget=10), "copy count"),
               (lambda r: er_search(3, restarts=r), "restart count"),
               (lambda b: er_search(3, budget=b), "budget"),
               (lambda n: sample_separable(n, 1), "copy count"),
               (lambda t: sample_separable(2, t), "term count")]
    for value in (2.0, 1.5, 2.5, "2", None, 0, -1):
        for call, what in counted:
            message = f"^{what} must be an integer >= 1, got {re.escape(repr(value))}$"
            if what == "shot count" and isinstance(value, int):
                # the protocol names an integer shot count below 1 in its own words
                message = f"^shots must be >= 1, got {value}$"
            with pytest.raises(ValueError, match=message):
                call(value)
    # a count that would pass the branch analysis's own bound but is no integer
    for value in ("3", 3.0, 3.5):
        with pytest.raises(ValueError, match=f"^copy count must be an integer >= 1, got "
                                             f"{re.escape(repr(value))}$"):
            distill_exact_branches(value)
    for n in (1, 2, True):
        with pytest.raises(ValueError, match=r"^branch analysis needs n >= 3$"):
            distill_exact_branches(n)
    assert type(distill_exact_branches(np.int64(3)).n) is int
    # an integer of another type is read as the plain int
    report = distill(np.int64(3), np.int64(4))
    assert (type(report.n), type(report.shots)) == (int, int)
    assert er_bound_even(np.int64(1)) == er_bound_even(1)

def test_bell_string_messages():
    cases = [((1, 2, 3), "Bell string has length 3, expected 4"),
             ((1, 0, 2, 5), "Bell index must be in 1..4, got 0"),
             ((1, 2, 5, 3), "Bell index must be in 1..4, got 5"),
             ("12a4", "invalid literal for int() with base 10: 'a'")]
    for indices, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            bell.check_bell_string(indices, 4)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BellDiagonalState.from_json(json.dumps({"n": 4, "weights": {
                "".join(map(str, indices)): 1.0}}))
    assert bell.check_bell_string("1234", 4) == (1, 2, 3, 4)
    # an index is never truncated to an integer
    for indices, message in [((2.9, True), "Bell index must be an integer, got 2.9"),
                             ((1, 7.5), "Bell index must be an integer, got 7.5"),
                             ((math.inf, 1), "cannot convert float infinity to integer")]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            bell.check_bell_string(indices, 2)
    with pytest.raises(ValueError, match="^Bell index must be an integer, got 1.7$"):
        BellDiagonalState(1, {(1.7,): 0.5, (1,): 0.5})
    assert bell.check_bell_string((2.0, True), 2) == (2, 1)


def test_permutation_parsing():
    # one-line notation is read by the same rule as any other spelling
    assert check_permutation("2134") == (2, 1, 3, 4)
    assert invert_permutation((2, 3, 4, 1)) == (4, 1, 2, 3)
    for bad in ("2133", "213", "21345", "", "2 34", "1123", (1, 2, 3), "12 34", (1, 2, 3, 4.5),
                (1, 2, math.nan, 4)):
        for read in (check_permutation, invert_permutation):
            with pytest.raises(ValueError,
                               match=f"^not a permutation of 1..4: {re.escape(repr(bad))}$"):
                read(bad)
    # the canonical tuples and strings are a table lookup; other spellings of
    # the same permutation take the rule, and every one gives the same ints
    for p in itertools.permutations((1, 2, 3, 4)):
        inverse = tuple(p.index(i) + 1 for i in (1, 2, 3, 4))
        for spelling in (p, "".join(map(str, p)), list(p), tuple(map(float, p)),
                         tuple(True if i == 1 else i for i in p)):
            t = check_permutation(spelling)
            assert t == p and all(type(i) is int for i in t), spelling
            assert invert_permutation(spelling) == inverse, spelling
    # only a str or a tuple of ints is looked up: a complex entry equal to 1
    # reaches int() whatever the other entries are, as it did before the table
    for bad in ((1 + 0j, 2, 3, 4), (1 + 0j, "2", 3, 4)):
        for read in (check_permutation, invert_permutation):
            with pytest.raises(TypeError, match="not 'complex'$"):
                read(bad)
    # entries must be integral, as Bell indices must: none is truncated
    assert check_permutation((2.0, 1, "3", 4)) == (2, 1, 3, 4)
    assert invert_permutation((2.0, "3", 4, 1)) == (4, 1, 2, 3)
    for bad in ((2.9, 1, 3, 4), (2.2, 1, 3, 4), (1, 2, 3, math.inf), (math.nan, 1, 3, 4),
                (1, 2, 3, "x"), (1, 1, 2, 3), (1, 2, 3, 5)):
        for build in (check_permutation, lambda p: sigma_n([p]), local_permutation_search,
                      invert_permutation):
            with pytest.raises(ValueError, match="not a permutation of 1..4"):
                build(bad)


def test_canonical_permutations_never_reach_the_general_rule(monkeypatch):
    def refuse(*args):
        raise AssertionError("a canonical permutation went through _integers")

    monkeypatch.setattr(bell, "_integers", refuse)
    perms = ["2134", "3412", "4321", "1234"]
    sigma = sigma_n(perms)
    assert sigma.weights == {"2341": 0.25, "1432": 0.25, "3123": 0.25, "4214": 0.25}
    back = sigma.permute_per_copy([invert_permutation(p) for p in perms])
    assert back.weights == {i * 4: 0.25 for i in "1234"}
    assert rho2_power(2).permute_per_copy(perms).weights == rho2_power(2).permute_per_copy(
        [tuple(map(int, p)) for p in perms]).weights
    # every inverse is one lookup, and composes with its permutation to the identity
    for p in itertools.permutations((1, 2, 3, 4)):
        for spelling in (p, "".join(map(str, p))):
            inv = invert_permutation(spelling)
            assert tuple(p[i - 1] for i in inv) == tuple(inv[i - 1] for i in p) == (1, 2, 3, 4)


def test_bell_bits_are_the_parities_of_the_library_amplitudes():
    z = np.diag([1.0, -1.0])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    for i in (1, 2, 3, 4):
        psi = BELL_AMPLITUDES[i - 1]  # the library table, not a test copy
        zz, xx = (np.real(np.vdot(psi, np.kron(p, p) @ psi)) for p in (z, x))
        assert abs(zz) == pytest.approx(1.0, abs=1e-12)
        assert abs(xx) == pytest.approx(1.0, abs=1e-12)
        assert bell_bits(i) == (int(zz < 0), int(xx < 0))
    for bits in itertools.product((0, 1), repeat=2):
        assert bell_bits(bell_index(*bits)) == bits
    for bits in ((2, 0), (0, -1), (0.5, 1)):
        with pytest.raises(ValueError, match="^parity bits must be 0 or 1, got "):
            bell_index(*bits)


@pytest.mark.parametrize("indices, expected", [
    ((1.0,), (1,)),
    ((2.0, 1), (2, 1)),
    (("1",), (1,)),
    ((True, "4"), (1, 4)),
    ((2.9,), "Bell index must be an integer, got 2.9"),
    ((5,), "Bell index must be in 1..4, got 5"),
    ((1, 0.0), "Bell index must be in 1..4, got 0"),
    ((math.nan,), "cannot convert float NaN to integer"),
    ((math.inf,), "cannot convert float infinity to integer"),
    (("a",), "invalid literal for int() with base 10: 'a'"),
])
def test_one_rule_for_bell_indices(indices, expected):
    # every index-taking function accepts and rejects what check_bell_string
    # does, with the same one-line message
    single = [bell_bits] if len(indices) == 1 else []
    if isinstance(expected, str):
        for check in (lambda: bell.check_bell_string(indices, len(indices)),
                      lambda: bell_product_ket(indices),
                      *(lambda f=f: f(indices[0]) for f in single)):
            with pytest.raises(ValueError) as info:
                check()
            assert str(info.value) == expected
        return
    assert bell.check_bell_string(indices, len(indices)) == expected
    assert np.array_equal(bell_product_ket(indices).amplitudes,
                          bell_product_ket(expected).amplitudes)
    if single:
        assert bell_bits(indices[0]) == bell_bits(expected[0])


# --- the two-copy flip identity ---------------------------------------------


def test_smolin_flip_residual_zero():
    # brute-force oracle: hand-build both 16x16 matrices from amplitudes
    bell = np.array([[SQ2, 0, 0, SQ2], [SQ2, 0, 0, -SQ2],
                     [0, SQ2, SQ2, 0], [0, SQ2, -SQ2, 0]], dtype=complex)
    straight = np.zeros((16, 16), dtype=complex)
    flipped = np.zeros((16, 16), dtype=complex)
    for i in range(4):
        psi = np.kron(bell[i], bell[i])  # A1,B1,A2,B2
        straight += 0.25 * np.outer(psi, psi.conj())
        chi = np.zeros(16, dtype=complex)
        for a1, b1, a2, b2 in np.ndindex(2, 2, 2, 2):
            # pairs formed as (A1,A2) and (B1,B2)
            chi[8 * a1 + 4 * b1 + 2 * a2 + b2] = bell[i][2 * a1 + a2] * bell[i][2 * b1 + b2]
        flipped += 0.25 * np.outer(chi, chi.conj())
    assert np.max(np.abs(straight - flipped)) < 1e-12

    assert smolin_flip_check() <= 1e-10


def test_bell_product_ket_matches_joined_pair_kets(rng):
    # the product as first built: one ket per pair, joined left to right
    for n in range(1, 7):
        strings = [(i,) * n for i in (1, 2, 3, 4)]
        strings += [tuple(rng.integers(1, 5, size=n).tolist()) for _ in range(4)]
        for s in strings:
            reference = functools.reduce(
                kron_state, [bell_product_ket((i,)) for i in s])
            psi = bell_product_ket(s)
            assert psi.n_qubits == reference.n_qubits == 2 * n
            assert np.array_equal(psi.amplitudes, reference.amplitudes), s


def test_bell_product_ket_matches_the_np_kron_chain_bit_for_bit():
    for n in range(1, 5):
        for s in itertools.product((1, 2, 3, 4), repeat=n):
            expected = functools.reduce(np.kron, [BELL_AMPLITUDES[i - 1] for i in s])
            assert bell_product_ket(s).amplitudes.tobytes() == expected.tobytes(), s


# sha256 of to_dense(...).matrix.tobytes() as built by the np.kron chain
RECORDED_DENSE_BYTES = {
    "rho_n(1)": "2fada4138905efc5a4c644dabb3b0344f0c0f9b4dcd048d4550cb29d5188e855",
    "rho_n(2)": "bf576683baca1d6c9a15b26de44276e5e2a539565d95c620e4c9f15e5a29680b",
    "rho_n(3)": "7f87a3fc76551a186d95c11bd6ac219ad9efb20c63e1341a949db904903a8ca3",
    "rho_n(4)": "878be148fb447b8d4ca8819d2f8642c9b41954c295bc5218b5e03e557f58eba2",
    "rho_n(5)": "b8fa231610ac7cb338fbc4f005b9cd0b999d76ecc393da0fb3d7d626516fa434",
    "rho_n(6)": "12d31b828a1ffb9957cb6733423fb22615f369690976083927f6ff26a7be4d58",
    "rho2_power(1)": "bf576683baca1d6c9a15b26de44276e5e2a539565d95c620e4c9f15e5a29680b",
    "rho2_power(2)": "24b5f1c6d6332aa3c551f95c00c572fa04f62c911a7a500fdb9b992d5736d71e",
    "rho2_power(3)": "6b7557cdf78ef55e98e5154e1f511e2109ab4ee92335b6aee3cb3bdc9fab9b8c",
}


@pytest.mark.parametrize("name", sorted(RECORDED_DENSE_BYTES))
def test_dense_builders_keep_their_bytes(name):
    build, size = name.rstrip(")").split("(")
    matrix = to_dense({"rho_n": rho_n, "rho2_power": rho2_power}[build](int(size))).matrix
    assert hashlib.sha256(matrix.tobytes()).hexdigest() == RECORDED_DENSE_BYTES[name]


_GEN = np.random.default_rng(3607)
ORACLE_STATES = {
    **{f"rho_n({n})": rho_n(n) for n in range(1, 7)},
    **{f"rho2_power({m})": rho2_power(m) for m in range(1, 4)},
    "rho_n(2).tensor(rho_n(2))": rho_n(2).tensor(rho_n(2)),
    "sigma_n(2134,3412,4321)": sigma_n(["2134", "3412", "4321"]),
    # full support, and half the strings
    **{f"random(n={n}, support={k or 4 ** n})": random_bell_diagonal(n, _GEN, k)
       for n in (1, 2, 3) for k in (None, 4 ** n // 2)},
}


@pytest.mark.parametrize("name", list(ORACLE_STATES))
def test_to_dense_matches_the_ket_ensemble_byte_for_byte(name):
    # dm_from_ensemble over the Bell-product kets is the reference: each
    # support block holds the same terms, added in the same order
    state = ORACLE_STATES[name]
    dense = to_dense(state)
    direct = dm_from_ensemble([(w, bell_product_ket(s)) for s, w in sorted(state.weights.items())])
    assert dense.matrix.tobytes() == direct.matrix.tobytes()
    for got, want in zip(dense._entries, direct._entries, strict=True):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_to_dense_makes_no_ket_per_string():
    # 64 strings of 12 qubits: a 64 KiB ket each took the traced peak to
    # 5.3 MiB; the eight 64 x 64 blocks and the entries take 1.4 MiB
    peak = traced_peak_kib("import belldistill as bd", "bd.to_dense(bd.rho2_power(3))")
    assert peak < 2 * 1024  # KiB


def test_bell_product_ket_checks_the_cap_before_building():
    # 18 qubits: the cap must apply before the Kronecker chain (4 MiB at its
    # end) is built
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="capped at 12 qubits"):
            bell_product_ket((1,) * 9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_smolin_flipped_terms_are_products_across_cut():
    # the flip swaps the middle qubits, so its terms are the relabelled kets
    for i in (1, 2, 3, 4):
        term = reorder(bell_product_ket((i, i)), [0, 2, 1, 3])
        alice_part = partial_trace(term.to_dm(), [0, 2]).matrix
        # a pure reduced state (Tr rho_A^2 = 1) means a product across the cut
        purity = float(np.real(np.trace(alice_part @ alice_part)))
        assert purity == pytest.approx(1.0, abs=1e-12)


def test_rho2_ppt_across_cut():
    from belldistill import ppt_check

    report = ppt_check(to_dense(rho_n(2)))
    assert report.is_ppt
    assert report.min_eigenvalue >= -1e-10


def test_permute_per_copy_rejects_non_permutations():
    with pytest.raises(ValueError, match="permutation"):
        rho_n(2).permute_per_copy([(1, 1, 3, 4), (1, 2, 3, 4)])


def _reference_json(state):
    """The serializer as it was written string by string, over the expanded map."""

    weights = dict(state.weights)
    payload = {"n": state.n,
               "weights": {"".join(str(i) for i in s): w for s, w in sorted(weights.items())}}
    return json.dumps(payload, sort_keys=True)


def test_trusted_producers_pass_public_validation(rng):
    produced = {
        "tensor": rho_n(2).tensor(sigma_n(["2134", "3412", "1234"])),
        **{f"rho2_power({m})": rho2_power(m) for m in (1, 2, 3, 4, 7)},
        "nested": rho_n(2).tensor(rho2_power(2), sigma_n(["2134", "3412", "1234"])),
        "permute_per_copy": rho2_power(2).permute_per_copy(
            [(2, 1, 3, 4), (4, 3, 2, 1), (1, 2, 3, 4), (3, 4, 1, 2)]),
        "sample_pairwise_separable(3)": sample_pairwise_separable(3, rng),
    }
    for name, state in produced.items():
        again = BellDiagonalState(state.n, dict(state.weights))
        assert again == state and state == again, name
        assert list(again.weights) == list(state.weights), name
        text = state.to_json()
        assert text == again.to_json() == _reference_json(state), name
        assert BellDiagonalState.from_json(text) == state, name
    text = produced["rho2_power(7)"].to_json()
    assert len(text) == 573_462
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "431a3e6ce7052b2f240c8fd02679598472bdfea099626fcc1275855f414edea0")


def test_to_json_matches_json_dumps_on_unsorted_and_varied_maps(rng):
    unsorted = {(4, 2): 0.125, (1, 3): 0.5, (3, 3): 0.25, (2, 4): 0.125}
    tenths = BellDiagonalState(1, {(1,): 0.1, (2,): 0.2, (3,): 0.3, (4,): 0.4})
    skewed = BellDiagonalState(1, {(1,): 0.05, (2,): 0.15, (3,): 0.35, (4,): 0.45})
    states = {
        "plain map out of order": BellDiagonalState(2, unsorted),
        "unsorted factor maps": rho2_power(3).permute_per_copy([(4, 3, 2, 1)] * 6),
        "unsorted factors of a tensor": BellDiagonalState(2, unsorted).tensor(
            rho_n(2).permute_per_copy([(4, 3, 2, 1), (2, 1, 4, 3)])),
        "sample_pairwise_separable(4)": sample_pairwise_separable(4, rng),
        "exponent weights": BellDiagonalState(2, {(1, 1): 1e-05, (4, 4): 1 - 1e-05}),
        "exponent product": BellDiagonalState(1, {(2,): 1e-05, (1,): 1 - 1e-05}).tensor(
            BellDiagonalState(1, {(3,): 1e-07, (1,): 1 - 1e-07})),
        "single copy": BellDiagonalState(1, {(3,): 0.75, (1,): 0.25}),
        "single-copy product": rho_n(1).tensor(rho_n(1)),
        "distinct weights": random_bell_diagonal(3, rng).tensor(random_bell_diagonal(2, rng)),
        **{f"rho2_power({m})": rho2_power(m) for m in range(1, 8)},
        "sample_pairwise_separable(3)": sample_pairwise_separable(3, rng),
        "sigma_n between unequal weights": tenths.tensor(sigma_n(["2134", "3412"]), skewed,
                                                         tenths),
    }
    assert list(states["unsorted factor maps"].weights)[0] == "4" * 6
    assert len(states["sample_pairwise_separable(4)"].weights) == 65_536
    assert len(set(states["distinct weights"].weights.values())) == 4 ** 5
    # to_json formats a row per distinct prefix weight: one for rho2_power, many here
    prefix, _ = bell._blocks(sorted(f.weights.items())
                             for f in states["sigma_n between unequal weights"].factors)
    assert len({w for _, w in prefix}) > 10
    for name, state in states.items():
        text = state.to_json()
        assert text == _reference_json(state), name
        assert BellDiagonalState.from_json(text) == state, name
    assert '"11": 1e-05' in states["exponent weights"].to_json()


def test_to_json_writes_the_text_without_json_dumps(monkeypatch):
    expected = {name: state.to_json() for name, state in
                [("rho_n", rho_n(3)), ("rho2_power", rho2_power(2))]}

    def refuse(*args, **kwargs):
        raise AssertionError("to_json called json.dumps")

    monkeypatch.setattr(bell.json, "dumps", refuse)
    assert rho_n(3).to_json() == expected["rho_n"]
    assert rho2_power(2).to_json() == expected["rho2_power"]


def _per_entry_from_json(text):
    """from_json through the public constructor alone: every key converted
    and checked on its own, once the document has an object of weights, a
    JSON integer n >= 1 and JSON numbers as weights."""

    data = json.loads(text)
    if not isinstance(data, dict) or not isinstance(data.get("weights"), dict):
        raise ValueError('a state document must be an object with a "weights" object')
    n = data.get("n")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"copy count must be an integer >= 1, got {json.dumps(n)}")
    for w in data["weights"].values():
        if isinstance(w, bool) or not isinstance(w, (int, float)):
            raise ValueError(f"weight must be a number, got {json.dumps(w)}")
    return BellDiagonalState(n, data["weights"])


def _outcome(parse, text):
    try:
        state = parse(text)
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return type(exc), str(exc)
    return state.n, repr(list(state.weights.items()))


def test_from_json_bulk_matches_per_entry_parsing(monkeypatch):
    documents = [
        ('{"n": 2, "weights": {"11": 0.5, "22": 0.25, "43": 0.25}}', True),
        ('{"n": 1, "weights": {"1": 0.7}}', True),  # bulk keys, bad sum
        ('{"n": 1, "weights": {"1": Infinity}}', True),
        ('{"n": 1, "weights": {"1": 1}}', False),  # int weight
        ('{"n": 2, "weights": {"11": 1.0, "22": 0.0}}', False),  # zero dropped
        ('{"n": 1, "weights": {"1": 1.5, "2": -0.5}}', False),
        ('{"n": 2, "weights": {"11": NaN, "22": 0.5}}', False),
        ('{"n": 2, "weights": {"11": 0.5, "22": 0.5, "33": NaN}}', False),  # min() passes it
        ('{"n": 2, "weights": {"11": 0.5, "22": NaN, "33": 0.5}}', False),
        ('{"n": 2, "weights": {"11": Infinity, "22": NaN}}', False),
        ('{"n": 2, "weights": {"11": 0.5, "22": 0.5, "33": -0.0}}', False),
        ('{"n": 2, "weights": {"11": -0.0, "22": 0.5, "33": 0.5}}', False),
        ('{"n": 2, "weights": {"11": 0.5, "22": Infinity, "33": -Infinity}}', False),
        ('{"n": 2, "weights": {"11": 1, "22": 0}}', False),
        ('{"n": 2, "weights": {"11": 0.5, "22": 1}}', False),
        ('{"n": 4, "weights": {"12a4": 1.0}}', False),
        ('{"n": 4, "weights": {"1234": 0.5, "123": 0.5}}', False),  # wrong length
        ('{"n": 2, "weights": {"15": 1.0}}', False),
        ('{"n": 1, "weights": {"\uff11": 1.0}}', False),  # full-width digit one
        ('{"n": 1, "weights": {"1": 0.5, "\uff11": 0.5}}', False),  # the same string twice
        ('{"n": 1, "weights": {"1": 0.5, "\uff11": 0.5, "2": 0.5}}', False),
        ('{"n": 1, "weights": {"\ud800": 1.0}}', False),  # a lone surrogate
        ('{"n": "2", "weights": {"11": 1.0}}', False),
        ('{"n": 0, "weights": {}}', False),
        ('{"n": 0, "weights": {"": 1.0}}', False),
        ('{"n": 1, "weights": {}}', False),
        # n is a JSON integer >= 1, never truncated or coerced
        ('{"n": 2.5, "weights": {"11": 1.0}}', False),
        ('{"n": 2.0, "weights": {"11": 1.0}}', False),
        ('{"n": true, "weights": {"1": 1.0}}', False),
        ('{"n": 1e300, "weights": {"1": 1.0}}', False),
        ('{"n": null, "weights": {"1": 1.0}}', False),
        ('{"n": -1, "weights": {"1": 1.0}}', False),
        ('{"weights": {"1": 1.0}}', False),
        # malformed documents and weights raise ValueError, not a TypeError
        ('[1, 2]', False),
        ('"11"', False),
        ('{"n": 1}', False),
        ('{"n": 1, "weights": [1.0]}', False),
        ('{"n": 1, "weights": {"1": [1.0]}}', False),
        ('{"n": 1, "weights": {"1": null}}', False),
        ('{"n": 1, "weights": {"1": "1.0"}}', False),
        ('{"n": 1, "weights": {"1": true}}', False),
        ('{"n": 1, "weights": {"1": 0.5, "2": {}}}', False),
    ]
    checked = []
    real = bell.check_bell_string
    monkeypatch.setattr(bell, "check_bell_string",
                        lambda indices, n: checked.append(n) or real(indices, n))
    for text, bulk in documents:
        checked.clear()
        outcome = _outcome(BellDiagonalState.from_json, text)
        assert checked == [] or not bulk, text
        if "NaN" in text:  # a NaN anywhere goes through the constructor
            assert checked, text
        assert outcome == _outcome(_per_entry_from_json, text), text
        if not isinstance(outcome[0], int):  # every rejection is a one-line ValueError
            assert issubclass(outcome[0], ValueError) and "\n" not in outcome[1], text
    # two spellings of one string add up, as in the constructor: neither is dropped
    assert BellDiagonalState.from_json(
        '{"n": 1, "weights": {"1": 0.5, "\uff11": 0.5}}').weights == {"1": 1.0}
    with pytest.raises(ValueError, match=r"^weights sum to 1.5, expected 1$"):
        BellDiagonalState.from_json('{"n": 1, "weights": {"1": 0.5, "\uff11": 0.5, "2": 0.5}}')
    for n in ("2.5", "true", "1e+300"):
        message = f"copy count must be an integer >= 1, got {n}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BellDiagonalState.from_json(f'{{"n": {n}, "weights": {{"1": 1.0}}}}')


def test_trusted_producers_skip_string_checks(monkeypatch):
    calls = []
    real = bell.check_bell_string

    def counting(indices, n):
        calls.append(n)
        return real(indices, n)

    monkeypatch.setattr(bell, "check_bell_string", counting)
    rho2_power(3).tensor(rho2_power(1)).permute_per_copy([(2, 1, 3, 4)] * 8)
    # the package's own four-string mixtures are valid by construction
    rho_n(2)
    sigma_n(["2134", "1234"])
    assert calls == []


def test_bell_strings_are_digit_text():
    # every producer keys its map by each string's digit text, whatever
    # spelling it was given; two spellings of one string merge
    pair = {"11": 0.5, "23": 0.5}
    spelled = {
        "text": BellDiagonalState(2, pair),
        "tuples": BellDiagonalState(2, {(1, 1): 0.5, (2, 3): 0.5}),
        "digit characters": BellDiagonalState(2, {("1", "1"): 0.5, ("2", "3"): 0.5}),
        "mixed spellings": BellDiagonalState(2, {(1, "1"): 0.5, (2.0, True + 2): 0.5}),
        "duplicate spellings": BellDiagonalState(2, {(1, 1): 0.25, "11": 0.125,
                                                     ("1", 1): 0.125, "23": 0.5}),
        "general from_json": BellDiagonalState.from_json(
            '{"n": 2, "weights": {"11": 0.5, "\uff12\uff13": 0.5, "44": 0}}'),
        "bulk from_json": BellDiagonalState.from_json('{"n": 2, "weights": {"11": 0.5, "23": 0.5}}'),
    }
    for name, state in spelled.items():
        assert state.weights == pair and state == spelled["text"], name
        assert [type(s) for s in state.weights] == [str, str], name
    produced = {
        **spelled,
        "rho_n(3)": rho_n(3),
        "rho2_power(3)": rho2_power(3),
        "sigma_n": sigma_n(["2134", "3412", "1243"]),
        "tensor": rho_n(2).tensor(sigma_n(["2134", "3412", "1243"]), rho2_power(2)),
        "permute_per_copy": rho2_power(2).permute_per_copy(
            [(2, 1, 3, 4), (4, 3, 2, 1), (1, 2, 3, 4), (3, 4, 1, 2)]),
        "permuted plain map": rho_n(3).permute_per_copy([(4, 3, 2, 1), (2, 1, 4, 3), (1, 3, 2, 4)]),
        "bulk from_json of a product": BellDiagonalState.from_json(rho2_power(3).to_json()),
    }
    for name, state in produced.items():
        strings = list(state.weights)
        assert len(strings) == len(state.weights) == len(set(strings)), name
        for s in strings:
            assert type(s) is str and len(s) == state.n and not s.strip("1234"), (name, s)
            indices = tuple(map(int, s))
            w = state.weights[s]
            assert w > 0 and state.weight(s) == state.weight(indices) == w, (name, s)
            assert state.weight(list(s)) == state.weight(list(indices)) == w, (name, s)
        off = "1" * (state.n - 1) + "5"
        assert state.weight(off) == state.weight(tuple(map(int, off))) == 0.0, name
    assert rho_n(2).weight("11") == rho_n(2).weight((1, 1)) == rho_n(2).weight(["1", "1"]) == 0.25
    assert rho2_power(2).weight("1122") == rho2_power(2).weight([1, 1, 2, 2]) == 1 / 16
    assert produced["permuted plain map"].weights == {"421": 0.25, "313": 0.25,
                                                      "242": 0.25, "134": 0.25}


def test_tensor_refuses_a_partial_underflow():
    # 1e-200 squared underflows to 0.0 while the other three products do not.
    # Dropping "22" would make the divergence below infinite instead of
    # log2(10^400), about 1329 bits; tensor never expands a product to drop it
    tiny = BellDiagonalState(1, {(1,): 1.0 - 1e-200, (2,): 1e-200})
    assert tiny.weight((2,)) == 1e-200
    for build in (lambda: tiny.tensor(tiny), lambda: rho_n(1).tensor(tiny, tiny),
                  lambda: tiny.tensor(rho2_power(2)).tensor(tiny)):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == "a weight of the tensor product underflows to 0.0"
    # a small product weight, even a subnormal one, is kept
    for w in (1e-150, 1e-160):
        small = BellDiagonalState(1, {(1,): 1.0 - w, (2,): w})
        assert small.tensor(small).weight((2, 2)) == w * w > 0.0


def test_tensor_refuses_a_product_whose_every_weight_underflows():
    # every weight of rho2_power(300) is 2^-600, so each product weight is
    # 2^-1200, below the smallest subnormal.  tensor refuses it from the
    # factors' smallest weights; expanding the map would stream 4^600 strings.  The
    # child runs under a 1.5 GiB address-space cap and a timeout, so a
    # regression fails this test instead of exhausting the host's memory.
    code = ("import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1536 * 2 ** 20,) * 2)\n"
            "from belldistill import rho2_power\n"
            "try:\n"
            "    rho2_power(300).tensor(rho2_power(300))\n"
            "except ValueError as exc:\n"
            "    print(exc)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin",
                                           "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "a weight of the tensor product underflows to 0.0\n"


def _chained_tensor(states):
    """The expanded product, built as chained dict tensors used to build it."""

    out = {"": 1.0}
    for state in states:
        out = {s + t: w * v for s, w in out.items() for t, v in state.weights.items()}
    return out


def _expanded_rho2_power(m):
    """rho(2)^m as a dict, built string by string (the last block varies fastest)."""

    strings = [""]
    for _ in range(m):
        strings = [s + f"{k}{k}" for s in strings for k in (1, 2, 3, 4)]
    return dict.fromkeys(strings, 4.0 ** (-m))


def test_factored_maps_match_their_expansion(rng):
    sigma = sigma_n(["2134", "3412", "1234"])
    perms = [(2, 1, 3, 4), (4, 3, 2, 1), (1, 2, 3, 4), (3, 4, 1, 2)]
    separable = sample_pairwise_separable(3, rng)
    tenths = BellDiagonalState(1, {(1,): 0.1, (2,): 0.2, (3,): 0.3, (4,): 0.4})
    cases = {
        "tensor": (rho_n(2).tensor(sigma), _chained_tensor([rho_n(2), sigma])),
        **{f"rho2_power({m})": (rho2_power(m), _expanded_rho2_power(m)) for m in (2, 3, 4, 7)},
        "nested": (rho_n(2).tensor(rho2_power(2), sigma),
                   _chained_tensor([rho_n(2), rho2_power(2), sigma])),
        "tenths": (tenths.tensor(tenths, tenths, tenths), _chained_tensor([tenths] * 4)),
        "permute_per_copy": (rho2_power(2).permute_per_copy(perms),
                             {"".join(str(p[int(i) - 1]) for p, i in zip(perms, s)): w
                              for s, w in _expanded_rho2_power(2).items()}),
        "sample_pairwise_separable(3)": (separable,
                                         _chained_tensor(separable.weights.factors)),
    }
    for name, (state, expanded) in cases.items():
        weights = state.weights
        assert isinstance(weights, bell._Product), name
        # tensor splices a factored operand's factors in: products never nest
        assert not any(isinstance(f.weights, bell._Product) for f in weights.factors), name
        assert len(weights) == len(expanded), name
        assert list(weights.items()) == list(expanded.items()), name
        assert list(weights) == list(dict(weights)) == list(expanded), name
        assert weights == expanded and expanded == weights, name
        assert weights != {**expanded, next(iter(expanded)): 0.5}, name
    for name, (state, expanded) in cases.items():
        weights = state.weights
        n = state.n
        probes = list(expanded)
        probes += [s + "1" for s in expanded] + [s[:-1] for s in expanded]
        probes += ["1" * (n - 1) + "2", "4" * (n + 2), "", "1122334"]
        if n <= 6:
            probes += ["".join(map(str, s)) for s in itertools.product((1, 2, 3, 4), repeat=n)]
        for s in probes:
            assert state.weight(s) == expanded.get(s, 0.0), (name, s)
            assert (s in weights) == (s in expanded), (name, s)
            assert weights.get(s) == expanded.get(s), (name, s)
    assert rho2_power(3).weight((1, 1, 2, 2, 3, 3, 4)) == 0.0
    # different factors, the same map
    uniform = BellDiagonalState(2, dict.fromkeys(itertools.product(range(1, 5), repeat=2), 1 / 16))
    three = rho_n(1).tensor(rho_n(1), rho_n(1))
    assert three == rho_n(1).tensor(uniform) and three != rho_n(1).tensor(rho_n(2))
    for big in (rho2_power(8), sample_pairwise_separable(4, rng)):
        assert len(big.weights) == 16 ** 4
        assert next(iter(big.weights)) == "1" * big.n


def test_product_equality_streams_without_building_the_map():
    # equality holds only the product of the leading factors: its peak stays
    # below one expanded 16,384-entry dict (building the whole map exceeds it)
    tracemalloc.start()
    try:
        expanded = _expanded_rho2_power(7)
        one_map = tracemalloc.get_traced_memory()[0]
        state = rho2_power(7)
        for compare in (lambda: state.weights == expanded, lambda: expanded == state.weights):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert compare()
            assert tracemalloc.get_traced_memory()[1] - base < one_map
    finally:
        tracemalloc.stop()
    state = rho2_power(3)
    expanded = _expanded_rho2_power(3)
    assert state.weights == expanded and expanded == state.weights
    assert state.weights == rho2_power(3).weights
    assert state.weights != rho2_power(2).weights
    assert state.weights != {**expanded, "444444": 0.5}
    assert state.weights != dict([("111121", 1 / 64), *list(expanded.items())[1:]])
    assert state.weights.__eq__(list(expanded)) is NotImplemented
    assert state.weights != list(expanded)


def test_product_equality_with_another_size_does_not_expand(monkeypatch):
    def refuse(*args):
        raise AssertionError("equality expanded a product of another size")

    monkeypatch.setattr(bell, "_blocks", refuse)
    assert rho2_power(9) != rho_n(18) and rho_n(18) != rho2_power(9)
    assert rho2_power(9).weights != rho2_power(8).weights
    assert rho2_power(2).weights != _expanded_rho2_power(3)
    assert not rho2_power(3).weights == {}


def test_product_weight_sum_checked_from_factors():
    # each factor passes the 1e-12 check; the product sums to about 1 + 1.8e-12
    edge = BellDiagonalState(1, {(1,): 0.5 + 0.9e-12, (2,): 0.5})
    with pytest.raises(ValueError, match="sum"):
        edge.tensor(edge)
    with pytest.raises(ValueError, match="sum"):
        BellDiagonalState(2, _chained_tensor([edge, edge]))


def test_factored_hot_paths_never_expand(monkeypatch, rng):
    def refuse(self, *args):
        raise AssertionError("a factored product was expanded")

    monkeypatch.setattr(bell._Product, "__iter__", refuse)
    monkeypatch.setattr(bell._Product, "items", refuse)
    monkeypatch.setattr(bell, "_blocks", refuse)
    separable = sample_pairwise_separable(5, rng)
    assert len(separable.weights) == 16 ** 5
    assert bell_diagonal_kl(rho_n(10), separable) >= 8 - 1e-12
    assert bell_diagonal_kl(rho_n(18), rho2_power(9)) == pytest.approx(16, abs=1e-12)
    permuted = rho2_power(3).permute_per_copy([(2, 1, 3, 4), (1, 2, 3, 4)] * 3)
    assert permuted.weight((2, 1, 2, 1, 1, 2)) == 1 / 64  # from (1, 1, 1, 1, 2, 2)


def test_entropy_of_a_product_never_looks_strings_up(monkeypatch):
    # a product's entropy is the sum of its factors' entropies: it neither
    # streams the product's strings nor looks any of them up
    def refuse(*args):
        raise AssertionError("a factored product was looked up or streamed")

    state = rho2_power(4)
    assert isinstance(state.weights, bell._Product)
    monkeypatch.setattr(bell._Product, "__getitem__", refuse)
    monkeypatch.setattr(bell, "_blocks", refuse)
    assert state.entropy_bits() == 8.0


def _expanded_entropy(state):
    return -sum(w * math.log2(w) for w in dict(state.weights.items()).values())


def test_product_entropy_is_the_sum_of_its_factors(rng):
    for m in (1, 2, 3, 4):
        separable = sample_pairwise_separable(m, rng)
        assert separable.entropy_bits() == pytest.approx(_expanded_entropy(separable),
                                                         abs=1e-12)
        assert rho2_power(m).entropy_bits() == 2 * m
    for n in (1, 2, 7, 1000):
        assert rho_n(n).tensor(rho_n(n)).entropy_bits() == 4
    # the tensor product of one plain state is that state
    tenths = BellDiagonalState(1, {(1,): 0.1, (2,): 0.2, (3,): 0.3, (4,): 0.4})
    assert tenths.tensor() is tenths
