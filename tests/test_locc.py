import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from functools import cache

import numpy as np
import pytest

from belldistill import (
    Ket,
    ShotState,
    apply_local,
    discriminate_two_copies,
    distill,
    distill_exact_branches,
    distill_trivial,
    measure_local,
    partial_trace,
    von_neumann_entropy,
)
from belldistill.bell import BELL_AMPLITUDES, bell_index
from belldistill.locc import (
    PLAN,
    Branch,
    _draws,
    _frame,
    _frame_branches,
    discrimination_rate,
    run_shot,
)
from belldistill import permutations

SQ2 = 1 / math.sqrt(2)
BELL = np.array([[SQ2, 0, 0, SQ2], [SQ2, 0, 0, -SQ2],
                 [0, SQ2, SQ2, 0], [0, SQ2, -SQ2, 0]], dtype=complex)


def _pauli_correlation(i: int, op: np.ndarray) -> float:
    """Oracle: <op x op> on the i-th Bell state via plain 4x4 algebra."""

    psi = BELL[i - 1]
    return float(np.real(psi.conj() @ np.kron(op, op) @ psi))


Z = np.diag([1.0, -1.0]).astype(complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULIS = (np.eye(2, dtype=complex), Z, X, Z @ X)  # Phi_i = (P_i x I) Phi1


# --- the dense ket tree: the reference the Bell frame is checked against -----


def _corrected(ket, guess, copies):
    """Alice's correction for the announced index on each of `copies`."""

    if guess == 1 or not copies:
        return ket  # identity correction
    u = PAULIS[guess - 1]
    return apply_local(ket, {2 * (c - 1): u for c in copies})  # Alice's axes


def _remaining_copy_fidelity(ket, copy):
    """<Phi1| rho_copy |Phi1> for one copy's reduced state, from the ket tensor."""

    ax_a = 2 * (copy - 1)  # Alice's qubit; Bob's is the next axis
    moved = np.moveaxis(ket.tensor_view(), (ax_a, ax_a + 1), (0, 1)).reshape(4, -1)
    reduced = moved @ moved.conj().T
    phi1 = BELL_AMPLITUDES[0]
    return float(np.real(phi1.conj() @ reduced @ phi1))


@dataclass(frozen=True)
class _Leaf:
    branch: Branch
    ket: Ket  # corrected


def _grow(state):
    """Every leaf of the exact tree below a prepared state, corrected, with
    its branch; the hidden index weighs 1/4."""

    remaining = range(3, state.n + 1)
    for r in discriminate_two_copies(state):
        ket = _corrected(r.state.ket, r.guess, remaining)
        fid = min((_remaining_copy_fidelity(ket, c) for c in remaining), default=None)
        yield _Leaf(Branch(hidden=state.hidden, probability=0.25 * r.probability,
                           outcomes=r.outcomes, guess=r.guess, output_fidelity=fid,
                           parity_z=r.parity_z, parity_x=r.parity_x), ket)


@cache
def _protocol_tree(n):
    """Every leaf of the protocol on n copies, hidden index 1 before 4."""

    return [leaf for hidden in (1, 2, 3, 4) for leaf in _grow(ShotState.prepared(hidden, n))]


def _shots(n, shots, seed):
    """The seeded run's shots on n copies: the frame branch of each draw."""

    frame = _frame_branches(n)
    return [frame[i] for i in _draws(seed, 0, shots).tolist()]


def _assert_parity_is_forced(i, basis, op):
    """On Bell state i, Alice's outcome in `basis` is a fair coin and Bob's
    only unpruned outcome is hers XOR the parity the 4x4 oracle gives."""

    corr = _pauli_correlation(i, op)
    assert abs(abs(corr) - 1.0) < 1e-12  # parity is deterministic
    parity = 0 if corr > 0.99 else 1
    for a in (0, 1):
        p_a, after = measure_local(ShotState.prepared(i, 2), "alice", 1, basis, a)
        assert p_a == pytest.approx(0.5, abs=1e-12)
        p_b, _ = measure_local(after, "bob", 1, basis, a ^ parity)
        assert p_b == pytest.approx(1.0, abs=1e-12)
        p_pruned, pruned = measure_local(after, "bob", 1, basis, 1 - (a ^ parity))
        assert pruned is None and p_pruned < 1e-14


@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_z_parity_matches_born_oracle(i):
    _assert_parity_is_forced(i, "Z", Z)


@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_x_parity_matches_born_oracle(i):
    _assert_parity_is_forced(i, "X", X)


def test_single_outcomes_unbiased():
    # each side's marginal outcome is a fair coin on every Bell state, exactly
    # up to rounding, whichever side measures first
    for i, party, basis, outcome in itertools.product(
            (1, 2, 3, 4), ("alice", "bob"), ("Z", "X"), (0, 1)):
        p, post = measure_local(ShotState.prepared(i, 2), party, 1, basis, outcome)
        assert p == pytest.approx(0.5, abs=1e-12)
        assert post.hidden == i


def test_measured_axis_is_copy_major():
    # on the computational-basis ket with only axis k set, the Z outcome 1
    # has probability 1 for the qubit on axis k and probability 0 elsewhere
    def hit(k, party, copy):
        ket = Ket(np.eye(64)[1 << (5 - k)])  # axis 0 is the most significant bit
        return measure_local(ShotState(hidden=1, ket=ket), party, copy, "Z", 1)[0] == 1.0

    axes = [k for c in (1, 2, 3) for party in ("alice", "bob") for k in range(6)
            if hit(k, party, c)]
    assert axes == list(range(6))
    state = ShotState.prepared(1, 3)
    for args, message in ((("carol", 1, "Z", 0), "party must be 'alice' or 'bob'"),
                          (("alice", 0, "Z", 0), r"copy must be in 1\.\.3, got 0"),
                          (("bob", 4, "Z", 0), r"copy must be in 1\.\.3, got 4"),
                          (("bob", 1, "Y", 0), "basis must be 'Z' or 'X', got 'Y'"),
                          (("bob", 1, "Z", 2), "outcome must be 0 or 1, got 2")):
        with pytest.raises(ValueError, match=message):
            measure_local(state, *args)


def test_measure_exact_probabilities():
    state = ShotState.prepared(1, 2)
    p0, post = measure_local(state, "alice", 1, "Z", 0)
    assert p0 == pytest.approx(0.5, abs=1e-12)
    p_b, pruned = measure_local(post, "bob", 1, "Z", 1)
    assert p_b == pytest.approx(0.0, abs=1e-12)
    assert pruned is None
    p_b0, _ = measure_local(post, "bob", 1, "Z", 0)
    assert p_b0 == pytest.approx(1.0, abs=1e-12)


def test_parity_map_is_the_documented_table():
    assert {(z, x): bell_index(z, x) for z in (0, 1) for x in (0, 1)} == {
        (0, 0): 1, (0, 1): 2, (1, 0): 3, (1, 1): 4}


def test_discrimination_needs_two_copies():
    with pytest.raises(ValueError, match="^discrimination needs two copies$"):
        discriminate_two_copies(ShotState.prepared(1, 1))


def test_transcript_structure():
    # a report's transcript is shot 0's, and the ket tree's leaf where Alice
    # sees that shot's two outcomes records the same steps
    for seed in (0, 3, 11):
        shot = run_shot(4, 0, seed)
        a_z, a_x = shot.outcomes[0][3], shot.outcomes[2][3]
        leaves = discriminate_two_copies(ShotState.prepared(shot.hidden, 4))
        assert len(leaves) == 4
        result = leaves[2 * a_z + a_x]
        outcomes = result.outcomes
        assert len(outcomes) == 4
        assert [basis for _, _, basis, _ in outcomes] == ["Z", "Z", "X", "X"]
        rows = distill(4, shots=1, seed=seed).transcript_sample
        assert [(r["party"], r["copy"], r["basis"], r["outcome"]) for r in rows] == list(outcomes)
        # only Bob's bits travel; the guess is a function of parities alone
        sent = [r for r in rows if r["communicated"]]
        assert len(sent) == 2
        assert all(r["party"] == "bob" for r in sent)
        assert sum(r["communicated"] for r in rows) == 2
        bob_bits = [r["outcome"] for r in sent]
        alice = {basis: outcome for party, _, basis, outcome in outcomes if party == "alice"}
        assert bell_index(alice["Z"] ^ bob_bits[0], alice["X"] ^ bob_bits[1]) == result.guess


@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_correction_pauli_maps_to_first_bell(i):
    # oracle: Alice's Pauli for index i, one-sided, by direct 4x4 application;
    # fidelity up to global phase
    mapped = np.kron(PAULIS[i - 1], np.eye(2)) @ BELL[i - 1]
    assert abs(abs(np.vdot(BELL[0], mapped)) - 1.0) < 1e-12
    # the permutation table's exact Paulis are these
    assert np.array_equal(permutations.PAULIS[i - 1][1], PAULIS[i - 1])


def test_correction_identity_for_first_index():
    # the ket tree skips the correction for index 1
    assert np.array_equal(PAULIS[0], np.eye(2))
    assert np.array_equal(permutations.PAULIS[0][1], np.eye(2))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_distill_yield_and_fidelity(n):
    report = distill(n, shots=300, seed=21)
    assert report.success_rate == 1.0
    assert report.ebits_per_shot == n - 2
    assert {row.split(",")[6] for row in report.to_csv().splitlines()[1:]} == {str(n - 2)}
    assert report.min_fidelity >= 1 - 1e-12
    shots = _shots(n, 300, 21)
    assert all(b.guess == b.hidden for b in shots)
    # a run's shots are the cached frame branches themselves, not a copy per shot
    exact = distill_exact_branches(n).branches
    for k, b in enumerate(shots):
        assert b is run_shot(n, k, 21)
        assert any(b is e for e in exact)
    # and the CSV rows are those shots
    rows = [row.split(",")[1:5] for row in report.to_csv().splitlines()[1:]]
    assert rows == [[str(b.hidden), str(b.guess), str(b.parity_z), str(b.parity_x)]
                    for b in shots]


def test_distill_reports_are_deterministic():
    a = distill(3, shots=64, seed=5)
    b = distill(3, shots=64, seed=5)
    assert a.to_dict() == b.to_dict()
    assert a.to_csv() == b.to_csv()


def test_distill_csv_shape():
    report = distill(3, shots=10, seed=1)
    lines = report.to_csv().splitlines()
    assert lines[0] == "shot,hidden,guess,parity_z,parity_x,correct,ebits,fidelity"
    assert len(lines) == 11


def test_distill_rejects_small_n():
    with pytest.raises(ValueError, match="distill_trivial"):
        distill(2, shots=10)


def test_protocol_needs_two_copies():
    for sample in (lambda: run_shot(1, 0, 0), lambda: discrimination_rate(1)):
        with pytest.raises(ValueError, match="need n >= 2, got n = 1"):
            sample()


@pytest.mark.parametrize("sample, message", [
    (lambda: distill(3, shots=0), "shots must be >= 1, got 0"),
    (lambda: _draws(0, 0, 0), "shots must be >= 1, got 0"),
    (lambda: distill(3, shots=-3), "shots must be >= 1, got -3"),
    (lambda: run_shot(3, -1, 0), "shot index must be >= 0, got -1"),
    (lambda: run_shot(3, 2.5, 0), "shot index must be an integer, got 2.5"),
    (lambda: run_shot(3, 2.0, 0), "shot index must be an integer, got 2.0"),
    (lambda: run_shot(3, "1", 0), "shot index must be an integer, got '1'"),
])
def test_bad_shot_counts_are_value_errors(sample, message):
    with pytest.raises(ValueError, match=message):
        sample()


def test_shot_records_follow_parity_table():
    for r in _shots(4, 200, 3):
        assert bell_index(r.parity_z, r.parity_x) == r.guess == r.hidden


def test_frame_cache_holds_two_tables():
    # the frame depends on n only through whether copies remain
    for n in range(3, 201):
        distill(n, shots=5, seed=n)
    assert _frame.cache_info().currsize <= 2
    assert _frame_branches(3) is _frame_branches(200) is not _frame_branches(2)


def test_run_shot_reproducible():
    assert run_shot(5, 17, seed=2) == run_shot(5, 17, seed=2)


@pytest.mark.parametrize("n", [3, 6])
def test_run_shot_is_a_prefix_of_every_longer_run(n):
    # the branch draws come off one stream in order, so a longer run only
    # appends shots, also when a run is not a whole number of 32-bit words
    runs = {shots: _shots(n, shots, 8) for shots in (1, 7, 9, 40, 41, 500)}
    for shots, branches in runs.items():
        for k in range(shots):
            assert run_shot(n, k, 8) is branches[k] is runs[500][k]
    longest = distill(n, 500, seed=8).to_csv().splitlines()
    for shots in runs:
        assert distill(n, shots, seed=8).to_csv().splitlines() == longest[:shots + 1]


@pytest.mark.parametrize("seed", [0, 11, 2 ** 40 + 3])
def test_sample_draws_are_the_nibbles_of_one_stdlib_stream(seed):
    # reference decode: the 32-bit words of random.Random(seed) one at a
    # time, each read as little-endian bytes, low nibble first
    shots = 45
    rng = random.Random(seed)
    words = [rng.getrandbits(32) for _ in range(6)]
    nibbles = [w >> (4 * j) & 15 for w in words for j in range(8)]
    draws = _draws(seed, 0, shots)
    assert draws.dtype == np.uint8
    assert draws.tolist() == nibbles[:shots]
    tail = _draws(seed, 17, shots - 17)
    assert tail.tolist() == nibbles[17:shots]


def test_distill_trivial_n1():
    payload = distill_trivial(1)
    assert payload["ebits_per_shot"] == 0
    assert payload["distance_to_maximally_mixed"] <= 1e-12
    assert payload["pass"] is True


def test_distill_trivial_n2():
    payload = distill_trivial(2)
    assert payload["ebits_per_shot"] == 0
    assert payload["is_ppt"]
    assert payload["ppt_min_eigenvalue"] >= -1e-10
    assert payload["smolin_residual"] <= 1e-10
    assert payload["pass"] is True


def test_distill_trivial_rejects_other_n():
    with pytest.raises(ValueError, match="n = 1 and n = 2"):
        distill_trivial(3)


def test_exact_branches_n3():
    analysis = distill_exact_branches(3)
    assert len(analysis.branches) == 16
    assert analysis.total_probability() == pytest.approx(1.0, abs=1e-12)
    for b in analysis.branches:
        assert b.guess == b.hidden
        assert b.output_fidelity == pytest.approx(1.0, abs=1e-12)
        assert b.probability == pytest.approx(1 / 16, abs=1e-12)
    per_hidden = Counter(b.hidden for b in analysis.branches)
    assert per_hidden == {1: 4, 2: 4, 3: 4, 4: 4}


def test_exact_branch_outcome_structure():
    # copy-1 Z outcomes on the first Bell state: (0,0) or (1,1), equally likely
    analysis = distill_exact_branches(3)
    z_pairs = Counter()
    for b in analysis.branches:
        if b.hidden != 1:
            continue
        outs = {(p, c, bas): o for p, c, bas, o in b.outcomes}
        z_pairs[(outs[("alice", 1, "Z")], outs[("bob", 1, "Z")])] += b.probability
    assert set(z_pairs) == {(0, 0), (1, 1)}
    for v in z_pairs.values():
        assert v == pytest.approx(1 / 8, abs=1e-12)


def test_sampled_frequencies_match_exact_branches():
    # 3-sigma binomial agreement between shot sampling and the exact branch
    # distribution: each of the 16 branches has probability 1/16
    shots = 10_000
    counts = Counter(_shots(3, shots, 99))
    analysis = distill_exact_branches(3)
    assert set(counts) == set(analysis.branches)
    for b in analysis.branches:
        p = b.probability
        sigma = math.sqrt(p * (1 - p) * shots)
        assert abs(counts[b] - p * shots) <= 3 * sigma


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_frame_branches_match_ket_tree(n):
    # the frame's 16 branches are the ket tree's leaves, in the same order;
    # the tree's Born values and fidelities carry rounding, the frame's none
    reference = [leaf.branch for leaf in _protocol_tree(n)]
    frame = list(_frame_branches(n))
    assert len(reference) == len(frame) == 16
    for ref, got in zip(reference, frame):
        assert (got.hidden, got.outcomes, got.guess, got.parity_z, got.parity_x) == (
            ref.hidden, ref.outcomes, ref.guess, ref.parity_z, ref.parity_x)
        assert all(type(bit) is int for *_, bit in got.outcomes)
        assert got.probability == 1 / 16
        assert abs(got.probability - ref.probability) <= 1e-15
        if n == 2:
            assert got.output_fidelity is ref.output_fidelity is None
        else:
            assert got.output_fidelity == 1.0
            assert abs(got.output_fidelity - ref.output_fidelity) <= 1e-15
    if n > 2:
        assert distill_exact_branches(n).branches == frame


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_pruned_outcomes_are_never_taken(n):
    # Bob's outcome that contradicts the parity is pruned, so the tree has
    # exactly 16 leaves: per hidden index Alice's four outcome pairs, 0 before
    # 1, each of conditional probability 1/4, every one announcing the index
    leaves = 0
    for hidden in (1, 2, 3, 4):
        results = discriminate_two_copies(ShotState.prepared(hidden, n))
        alice = [(r.outcomes[0][3], r.outcomes[2][3]) for r in results]
        assert alice == list(itertools.product((0, 1), repeat=2))
        for r in results:
            assert abs(r.probability - 0.25) <= 1e-15
            assert r.guess == r.state.hidden == hidden
            assert [step[:3] for step in r.outcomes] == list(PLAN)
            assert all(type(bit) is int for *_, bit in r.outcomes)
        leaves += len(results)
    assert leaves == 16


def test_output_copy_entropy_is_one_ebit():
    # entanglement entropy of one distilled copy's Alice marginal, on the
    # reference tree's corrected ket
    ket = _protocol_tree(3)[0].ket
    copy_dm = partial_trace(ket.to_dm(), [4, 5])  # A3, B3
    assert von_neumann_entropy(partial_trace(copy_dm, [0])) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_yield_meets_divergence_bound(n):
    # the protocol yield equals the paper's closed form, n - 2, exactly.  The
    # proven sandwich is E_R >= E_D >= n - 2: it closes at n - 2 for even n
    # only, since for odd n the halved value is not an upper bound on E_D
    from belldistill import er_bound_even, er_bound_odd_doubled

    report = distill(n, shots=20, seed=0)
    if n % 2 == 0:
        bound = er_bound_even(n // 2).value_bits
    else:
        bound = er_bound_odd_doubled((n - 1) // 2).halved_bits
    assert report.ebits_per_shot == bound == n - 2
