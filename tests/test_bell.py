import functools
import hashlib
import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from belldistill import (
    BellDiagonalState,
    Ket,
    bell_diagonal_kl,
    bell_product_ket,
    dm_from_ensemble,
    invert_permutation,
    local_permutation_search,
    parse_permutation,
    partial_trace,
    relative_entropy,
    reorder,
    rho2_power,
    rho_n,
    sample_pairwise_separable,
    sigma_n,
    smolin_flip_check,
    to_dense,
    von_neumann_entropy,
)
from belldistill import bell
from belldistill.bell import (BELL_AMPLITUDES, bell_bits, bell_index,
                              check_bell_index, check_permutation, is_pair_constant,
                              smolin_flipped_terms)

from conftest import kron_state, random_bell_diagonal

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
    assert state.weights == {(i, i): 0.25 for i in (1, 2, 3, 4)}


def test_rho_n_entropy_two_bits():
    for n in (1, 2, 3):
        assert von_neumann_entropy(to_dense(rho_n(n))) == pytest.approx(2.0, abs=1e-12)
    for n in (1, 2, 5, 9):
        assert rho_n(n).entropy_bits() == pytest.approx(2.0, abs=1e-12)


def test_rho_n_dense_rejects_oversize():
    with pytest.raises(ValueError, match="Bell-diagonal"):
        to_dense(rho_n(7))


def test_rho_n_refuses_copy_counts_past_the_limit():
    # the largest accepted count builds (four tuples of 10^6 ints); the next
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
            assert is_pair_constant(s) is is_pair_constant(list(s)) is pairwise(s), s


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_rho_n_support_inside_rho2_power(m):
    p = rho_n(2 * m)
    q = rho2_power(m)
    assert all(q.weight(s) > 0 for s in p.weights)


def test_sigma_n_identity_perms_is_rho_n():
    assert sigma_n(["1234"] * 3).weights == rho_n(3).weights


def test_sigma_n_swap_example():
    state = sigma_n(["2134", "1234"])
    assert state.weights == {(2, 1): 0.25, (1, 2): 0.25, (3, 3): 0.25, (4, 4): 0.25}


def test_sigma_n_entropy_independent_of_perms(rng):
    for _ in range(5):
        perms = ["".join(str(d) for d in rng.permutation([1, 2, 3, 4])) for _ in range(4)]
        assert sigma_n(perms).entropy_bits() == pytest.approx(2.0, abs=1e-12)


def test_sigma_n_rejects_empty():
    with pytest.raises(ValueError, match="at least one"):
        sigma_n([])


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


def test_bell_diagonal_kl_rejects_length_mismatch():
    with pytest.raises(ValueError, match="copy count"):
        bell_diagonal_kl(rho_n(2), rho_n(3))


def test_to_dense_matches_direct_ensemble():
    direct = dm_from_ensemble(
        [(0.25, bell_product_ket((i, i))) for i in (1, 2, 3, 4)])
    assert np.max(np.abs(to_dense(rho_n(2)).matrix - direct.matrix)) < 1e-12
    assert np.max(np.abs(to_dense(rho2_power(1)).matrix - direct.matrix)) < 1e-12


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
    assert parse_permutation("2134") == (2, 1, 3, 4)
    assert invert_permutation((2, 3, 4, 1)) == (4, 1, 2, 3)
    with pytest.raises(ValueError, match="permutation"):
        parse_permutation("2133")
    # entries must be integral, as Bell indices must: none is truncated
    assert check_permutation((2.0, 1, "3", 4)) == (2, 1, 3, 4)
    assert invert_permutation((2.0, "3", 4, 1)) == (4, 1, 2, 3)
    for bad in ((2.9, 1, 3, 4), (2.2, 1, 3, 4), (1, 2, 3, math.inf), (math.nan, 1, 3, 4),
                (1, 2, 3, "x"), (1, 1, 2, 3), (1, 2, 3, 5)):
        for build in (check_permutation, lambda p: sigma_n([p]), local_permutation_search,
                      invert_permutation):
            with pytest.raises(ValueError, match="not a permutation of 1..4"):
                build(bad)


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
    single = [check_bell_index, bell_bits] if len(indices) == 1 else []
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
        assert check_bell_index(indices[0]) == expected[0]
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


def test_smolin_flipped_terms_match_relabeled_reference():
    # the terms as first built: Bell pairs on (A1,A2) and (B1,B2), joined and
    # relabeled into the copy-major order
    for term, phi in zip(smolin_flipped_terms(), BELL_AMPLITUDES):
        flipped = kron_state(Ket(phi), Ket(phi))  # axes A1,A2,B1,B2
        reference = reorder(flipped, [0, 2, 1, 3])
        assert term.n_qubits == 4
        assert np.array_equal(term.amplitudes, reference.amplitudes)


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
    for term in smolin_flipped_terms():
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
    }
    assert list(states["unsorted factor maps"].weights)[0] == (4,) * 6
    assert len(states["sample_pairwise_separable(4)"].weights) == 65_536
    assert len(set(states["distinct weights"].weights.values())) == 4 ** 5
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
    """from_json as it was: every key converted and checked on its own, once
    the document has an object of weights, a JSON integer n >= 1 and JSON
    numbers as weights."""

    data = json.loads(text)
    if not isinstance(data, dict) or not isinstance(data.get("weights"), dict):
        raise ValueError('a state document must be an object with a "weights" object')
    n = data.get("n")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"copy count must be an integer >= 1, got {json.dumps(n)}")
    for w in data["weights"].values():
        if isinstance(w, bool) or not isinstance(w, (int, float)):
            raise ValueError(f"weight must be a number, got {json.dumps(w)}")
    weights = {tuple(map(int, key)): w for key, w in data["weights"].items()}
    return BellDiagonalState(n, weights)


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
        ('{"n": 4, "weights": {"12a4": 1.0}}', False),
        ('{"n": 4, "weights": {"1234": 0.5, "123": 0.5}}', False),  # wrong length
        ('{"n": 2, "weights": {"15": 1.0}}', False),
        ('{"n": 1, "weights": {"\uff11": 1.0}}', False),  # full-width digit one
        ('{"n": 1, "weights": {"1": 0.5, "\uff11": 0.5}}', False),  # the same string twice
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
        assert outcome == _outcome(_per_entry_from_json, text), text
        if not isinstance(outcome[0], int):  # every rejection is a one-line ValueError
            assert issubclass(outcome[0], ValueError) and "\n" not in outcome[1], text
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
    assert calls == []
    rho_n(2)
    assert calls == [2, 2, 2, 2]


def test_tensor_drops_underflowed_products():
    tiny = BellDiagonalState(1, {(1,): 1.0 - 1e-200, (2,): 1e-200})
    assert tiny.weight((2,)) == 1e-200
    product = tiny.tensor(tiny)
    assert (2, 2) not in product.weights
    assert len(product.weights) == 3


def _chained_tensor(states):
    """The expanded product, built as chained dict tensors used to build it."""

    out = {(): 1.0}
    for state in states:
        out = {s + t: w * v for s, w in out.items() for t, v in state.weights.items()}
    return out


def _expanded_rho2_power(m):
    """rho(2)^m as a dict, built string by string (the last block varies fastest)."""

    strings = [()]
    for _ in range(m):
        strings = [s + (k, k) for s in strings for k in (1, 2, 3, 4)]
    return dict.fromkeys(strings, 4.0 ** (-m))


def test_factored_maps_match_their_expansion(rng):
    sigma = sigma_n(["2134", "3412", "1234"])
    perms = [(2, 1, 3, 4), (4, 3, 2, 1), (1, 2, 3, 4), (3, 4, 1, 2)]
    separable = sample_pairwise_separable(3, rng)
    tenths = BellDiagonalState(1, {(1,): 0.1, (2,): 0.2, (3,): 0.3, (4,): 0.4})
    cases = {
        "tensor": (rho_n(2).tensor(sigma), _chained_tensor([rho_n(2), sigma])),
        **{f"rho2_power({m})": (rho2_power(m), _expanded_rho2_power(m)) for m in (1, 2, 3, 4, 7)},
        "nested": (rho_n(2).tensor(rho2_power(2), sigma),
                   _chained_tensor([rho_n(2), rho2_power(2), sigma])),
        "tenths": (tenths.tensor(tenths, tenths, tenths), _chained_tensor([tenths] * 4)),
        "permute_per_copy": (rho2_power(2).permute_per_copy(perms),
                             {tuple(p[i - 1] for p, i in zip(perms, s)): w
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
        probes += [s + (1,) for s in expanded] + [s[:-1] for s in expanded]
        probes += [(1,) * (n - 1) + (2,), (4,) * (n + 2), (), (1, 1, 2, 2, 3, 3, 4)]
        if n <= 6:
            probes += list(itertools.product((1, 2, 3, 4), repeat=n))
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
        assert next(iter(big.weights)) == (1,) * big.n


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
    assert state.weights != {**expanded, (4, 4, 4, 4, 4, 4): 0.5}
    assert state.weights != dict([((1, 1, 1, 1, 2, 1), 1 / 64), *list(expanded.items())[1:]])
    assert state.weights.__eq__(list(expanded)) is NotImplemented
    assert state.weights != list(expanded)


def test_product_equality_with_another_size_does_not_expand(monkeypatch):
    def refuse(*args):
        raise AssertionError("equality expanded a product of another size")

    monkeypatch.setattr(bell, "_expand", refuse)
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
    monkeypatch.setattr(bell, "_expand", refuse)
    separable = sample_pairwise_separable(5, rng)
    assert len(separable.weights) == 16 ** 5
    assert bell_diagonal_kl(rho_n(10), separable) >= 8 - 1e-12
    assert bell_diagonal_kl(rho_n(18), rho2_power(9)) == pytest.approx(16, abs=1e-12)
    permuted = rho2_power(3).permute_per_copy([(2, 1, 3, 4), (1, 2, 3, 4)] * 3)
    assert permuted.weight((2, 1, 2, 1, 1, 2)) == 1 / 64  # from (1, 1, 1, 1, 2, 2)


def test_entropy_of_a_product_never_looks_strings_up(monkeypatch):
    # the entropy expands a factored product once; a lookup per string slices
    # it once per factor and doubles the time
    def refuse(self, key):
        raise AssertionError("a string was looked up in a factored product")

    state = rho2_power(4)
    assert isinstance(state.weights, bell._Product)
    monkeypatch.setattr(bell._Product, "__getitem__", refuse)
    assert state.entropy_bits() == 8.0
