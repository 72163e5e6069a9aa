import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, replace
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    _branch,
    _decode,
    _frame_branches,
    _measured_axis,
    _project,
    _sample,
    _transcript_rows,
    discrimination_rate,
    run_shot,
)
from belldistill.permutations import PAULIS

SQ2 = 1 / math.sqrt(2)
BELL = np.array([[SQ2, 0, 0, SQ2], [SQ2, 0, 0, -SQ2],
                 [0, SQ2, SQ2, 0], [0, SQ2, -SQ2, 0]], dtype=complex)


def _pauli_correlation(i: int, op: np.ndarray) -> float:
    """Oracle: <op x op> on the i-th Bell state via plain 4x4 algebra."""

    psi = BELL[i - 1]
    return float(np.real(psi.conj() @ np.kron(op, op) @ psi))


Z = np.diag([1.0, -1.0]).astype(complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)


# --- the dense ket tree: the reference the Bell frame is checked against -----


def measure_local_exact(state, party, copy, basis, outcome):
    """Forced-outcome measurement: the exact Born probability and the
    collapsed state (None for a pruned outcome)."""

    prob, post = _project(state.ket, _measured_axis(state, party, copy), basis, outcome)
    return prob, None if post is None else replace(state, ket=post)


def _corrected(ket, guess, copies):
    """Alice's correction for the announced index on each of `copies`."""

    if guess == 1 or not copies:
        return ket  # identity correction
    u = PAULIS[guess - 1][1]
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


def _grow(state, prob, outcomes):
    """Every leaf below `state`, outcome 0 before 1; a pruned outcome has none."""

    if len(outcomes) == len(PLAN):
        parity_z, parity_x, guess = _decode(*(o[3] for o in outcomes))
        remaining = range(3, state.n + 1)
        ket = _corrected(state.ket, guess, remaining)
        fid = min((_remaining_copy_fidelity(ket, c) for c in remaining), default=None)
        yield _Leaf(Branch(hidden=state.hidden, probability=prob, outcomes=outcomes,
                           guess=guess, output_fidelity=fid, parity_z=parity_z,
                           parity_x=parity_x), ket)
        return
    party, copy, basis = PLAN[len(outcomes)]
    for outcome in (0, 1):
        p, post = measure_local_exact(state, party, copy, basis, outcome)
        if post is not None:
            yield from _grow(post, prob * p, outcomes + ((party, copy, basis, outcome),))


@cache
def _protocol_tree(n):
    """Every leaf of the protocol on n copies, hidden index 1 before 4."""

    return [leaf for hidden in (1, 2, 3, 4)
            for leaf in _grow(ShotState.prepared(hidden, n), 0.25, ())]


@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_z_parity_matches_born_oracle(i, rng):
    corr = _pauli_correlation(i, Z)
    expected_parity = 0 if corr > 0.99 else 1
    assert abs(abs(corr) - 1.0) < 1e-12  # parity is deterministic
    for _ in range(40):
        state = ShotState.prepared(i, 2)
        a, state = measure_local(state, "alice", 1, "Z", rng)
        b, state = measure_local(state, "bob", 1, "Z", rng)
        assert (a ^ b) == expected_parity


@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_x_parity_matches_born_oracle(i, rng):
    corr = _pauli_correlation(i, X)
    expected_parity = 0 if corr > 0.99 else 1
    assert abs(abs(corr) - 1.0) < 1e-12
    for _ in range(40):
        state = ShotState.prepared(i, 2)
        a, state = measure_local(state, "alice", 1, "X", rng)
        b, state = measure_local(state, "bob", 1, "X", rng)
        assert (a ^ b) == expected_parity


def test_single_outcomes_unbiased(rng):
    # each side's marginal outcome is a fair coin on every Bell state
    counts = Counter()
    for _ in range(400):
        state = ShotState.prepared(1, 2)
        a, _ = measure_local(state, "alice", 1, "Z", rng)
        counts[a] += 1
    assert 130 < counts[0] < 270


def test_measure_consumed_copy_rejected(rng):
    state = ShotState.prepared(1, 2)
    result = discriminate_two_copies(state, rng)
    with pytest.raises(ValueError, match="consumed"):
        measure_local(result.state, "alice", 1, "Z", rng)


def test_measured_axis_is_copy_major(rng):
    state = ShotState.prepared(1, 3)
    axes = [_measured_axis(state, party, c) for c in (1, 2, 3) for party in ("alice", "bob")]
    assert axes == list(range(6))
    for party, copy, message in (("carol", 1, "party must be 'alice' or 'bob'"),
                                 ("alice", 0, r"copy must be in 1\.\.3, got 0"),
                                 ("bob", 4, r"copy must be in 1\.\.3, got 4")):
        with pytest.raises(ValueError, match=message):
            measure_local(state, party, copy, "Z", rng)


def test_measure_exact_probabilities():
    state = ShotState.prepared(1, 2)
    p0, post = measure_local_exact(state, "alice", 1, "Z", 0)
    assert p0 == pytest.approx(0.5, abs=1e-12)
    p_b, _ = measure_local_exact(post, "bob", 1, "Z", 1)
    assert p_b == pytest.approx(0.0, abs=1e-12)
    p_b0, _ = measure_local_exact(post, "bob", 1, "Z", 0)
    assert p_b0 == pytest.approx(1.0, abs=1e-12)


def test_parity_map_is_the_documented_table():
    assert {(z, x): bell_index(z, x) for z in (0, 1) for x in (0, 1)} == {
        (0, 0): 1, (0, 1): 2, (1, 0): 3, (1, 1): 4}


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_discrimination_zero_error_any_seed(seed):
    gen = np.random.default_rng(seed)
    state = ShotState.prepared(int(gen.integers(1, 5)), 2)
    result = discriminate_two_copies(state, gen)
    assert result.guess == state.hidden


def test_discrimination_large_seeded_run():
    correct = 0
    shots = 10_000
    for k in range(shots):
        gen = np.random.default_rng([1234, k])
        state = ShotState.prepared(int(gen.integers(1, 5)), 2)
        correct += int(discriminate_two_copies(state, gen).guess == state.hidden)
    assert correct == shots


def test_discrimination_needs_two_copies(rng):
    with pytest.raises(ValueError, match="two unconsumed"):
        discriminate_two_copies(ShotState.prepared(1, 1), rng)


def test_transcript_structure(rng):
    state = ShotState.prepared(3, 4)
    result = discriminate_two_copies(state, rng)
    outcomes = result.outcomes
    assert len(outcomes) == 4
    assert [basis for _, _, basis, _ in outcomes] == ["Z", "Z", "X", "X"]
    # only Bob's bits travel; the guess is a function of parities alone
    rows = _transcript_rows(outcomes)
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
    mapped = np.kron(PAULIS[i - 1][1], np.eye(2)) @ BELL[i - 1]
    assert abs(abs(np.vdot(BELL[0], mapped)) - 1.0) < 1e-12


def test_correction_identity_for_first_index():
    # the ket tree skips the correction for index 1
    assert np.array_equal(PAULIS[0][1], np.eye(2))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_distill_yield_and_fidelity(n):
    report = distill(n, shots=300, seed=21)
    assert report.success_rate == 1.0
    assert report.ebits_per_shot == n - 2
    assert {row.split(",")[6] for row in report.to_csv().splitlines()[1:]} == {str(n - 2)}
    assert report.min_fidelity >= 1 - 1e-12
    assert all(b.guess == b.hidden for b in report.branches)
    # a report holds the cached frame branches themselves, not a copy per shot
    exact = distill_exact_branches(n).branches
    for k, b in enumerate(report.branches):
        assert b is run_shot(n, k, 21)
        assert any(b is e for e in exact)


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
    for sample in (lambda: run_shot(1, 0, 0), lambda: discrimination_rate(1, 10)):
        with pytest.raises(ValueError, match="need n >= 2, got n = 1"):
            sample()


@pytest.mark.parametrize("sample, message", [
    (lambda: distill(3, shots=0), "shots must be >= 1, got 0"),
    (lambda: discrimination_rate(2, 0), "shots must be >= 1, got 0"),
    (lambda: discrimination_rate(2, -3), "shots must be >= 1, got -3"),
    (lambda: run_shot(3, -1, 0), "shot index must be >= 0, got -1"),
])
def test_bad_shot_counts_are_value_errors(sample, message):
    with pytest.raises(ValueError, match=message):
        sample()


def test_shot_records_follow_parity_table():
    report = distill(4, shots=200, seed=3)
    for r in report.branches:
        assert bell_index(r.parity_z, r.parity_x) == r.guess == r.hidden


def test_run_shot_reproducible():
    assert run_shot(5, 17, seed=2) == run_shot(5, 17, seed=2)


@pytest.mark.parametrize("n", [3, 6])
def test_run_shot_is_a_prefix_of_every_longer_run(n):
    # the branch draws come off one stream in order, so a longer run only
    # appends shots, also when a run is not a whole number of 32-bit words
    runs = {shots: distill(n, shots, seed=8).branches for shots in (1, 7, 9, 40, 41, 500)}
    for shots, branches in runs.items():
        for k in range(shots):
            assert run_shot(n, k, 8) is branches[k] is runs[500][k]


@pytest.mark.parametrize("seed", [0, 11, 2 ** 40 + 3])
def test_sample_draws_are_the_nibbles_of_one_stdlib_stream(seed):
    # reference decode: the 32-bit words of random.Random(seed) one at a
    # time, each read as little-endian bytes, low nibble first
    shots = 45
    rng = random.Random(seed)
    words = [rng.getrandbits(32) for _ in range(6)]
    nibbles = [w >> (4 * j) & 15 for w in words for j in range(8)]
    _, draws = _sample(4, seed, 0, shots)
    assert draws.dtype == np.uint8
    assert draws.tolist() == nibbles[:shots]
    _, tail = _sample(4, seed, 17, shots)
    assert tail.tolist() == nibbles[17:shots]


def test_distill_trivial_n1():
    payload = distill_trivial(1)
    assert payload["ebits_per_shot"] == 0
    assert payload["distance_to_maximally_mixed"] <= 1e-12


def test_distill_trivial_n2():
    payload = distill_trivial(2)
    assert payload["ebits_per_shot"] == 0
    assert payload["is_ppt"]
    assert payload["ppt_min_eigenvalue"] >= -1e-10
    assert payload["smolin_residual"] <= 1e-10


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
    counts = Counter(distill(3, shots=shots, seed=99).branches)
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
        assert got.probability == 1 / 16
        assert abs(got.probability - ref.probability) <= 1e-15
        if n == 2:
            assert got.output_fidelity is ref.output_fidelity is None
        else:
            assert got.output_fidelity == 1.0
            assert abs(got.output_fidelity - ref.output_fidelity) <= 1e-15
    if n > 2:
        assert distill_exact_branches(n).branches == frame


class _ScriptedGenerator:
    """Stands in for a numpy Generator: the given uniform draws in order."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0)


LARGEST_DRAW = 1 - 2 ** -53  # the largest value Generator.random() returns


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_tree_walk_matches_stepwise_protocol(n):
    # the stepwise ket simulation, driven to each frame branch by Alice's
    # draws (0 below 1/2), lands on that branch; Bob's outcomes are forced
    remaining = range(3, n + 1)
    _branch.cache_clear()  # the frame fills each slot: its bits must be ints
    frame = iter(_frame_branches(n))
    for hidden in (1, 2, 3, 4):
        for a_z, a_x in itertools.product((0, 1), repeat=2):
            branch = next(frame)
            draws = (a_z * LARGEST_DRAW, 0.5, a_x * LARGEST_DRAW, 0.5)
            result = discriminate_two_copies(ShotState.prepared(hidden, n),
                                             _ScriptedGenerator(draws))
            assert branch is _branch(n > 2, hidden, a_z, a_x)
            assert branch.hidden == hidden
            assert branch.outcomes == result.outcomes
            assert all(type(bit) is int for *_, bit in branch.outcomes)
            assert (branch.guess, branch.parity_z, branch.parity_x) == (
                result.guess, result.parity_z, result.parity_x)
            if remaining:
                ket = _corrected(result.state.ket, result.guess, remaining)
                fid = min(_remaining_copy_fidelity(ket, c) for c in remaining)
                assert branch.output_fidelity == 1.0
                assert abs(branch.output_fidelity - fid) <= 1e-15
            else:
                assert branch.output_fidelity is None


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_pruned_outcomes_are_never_taken(n):
    # next to a pruned outcome the stepwise Born probability of outcome 0 is
    # raw (0.9999999999999996, or 5e-34), so the extreme draws 0.0 and
    # 1 - 2^-53 fall on the pruned side unless the sibling is taken instead;
    # the frame branch is the one Alice's two draws select
    scripts = [(1, (0.1, 0.1, 0.1, LARGEST_DRAW))]
    scripts += [(hidden, draws) for hidden in (1, 2, 3, 4)
                for draws in itertools.product((0.0, LARGEST_DRAW), repeat=len(PLAN))]
    for hidden, draws in scripts:
        leaf = _branch(n > 2, hidden, int(draws[0] >= 0.5), int(draws[2] >= 0.5))
        assert leaf.guess == leaf.hidden == hidden
        result = discriminate_two_copies(ShotState.prepared(hidden, n),
                                         _ScriptedGenerator(draws))
        assert result.guess == hidden
        assert result.state.ket is not None
        assert result.outcomes == leaf.outcomes


def test_output_copy_entropy_is_one_ebit():
    # entanglement entropy of one distilled copy's Alice marginal, on the
    # reference tree's corrected ket
    ket = _protocol_tree(3)[0].ket
    copy_dm = partial_trace(ket.to_dm(), [4, 5])  # A3, B3
    assert von_neumann_entropy(partial_trace(copy_dm, [0])) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_yield_meets_divergence_bound(n):
    # the protocol yield and the closed-form bound agree exactly: the two
    # sides of the distillable-entanglement sandwich meet at n - 2
    from belldistill import er_bound_even, er_bound_odd_doubled

    report = distill(n, shots=20, seed=0)
    if n % 2 == 0:
        bound = er_bound_even(n // 2).value_bits
    else:
        bound = er_bound_odd_doubled((n - 1) // 2).halved_bits
    assert report.ebits_per_shot == bound == n - 2
