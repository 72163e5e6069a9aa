"""LOCC protocol machinery: local measurements, two-copy Bell
discrimination, and distillation.

The discrimination protocol measures one copy in Z on both sides and one in
X on both sides.  The outcome parities identify the Bell state exactly,
because a Bell index is its Z and X parity bits (`bell.bell_bits`).
Bob sends his two bits to Alice, who computes the parities, announces the
index, and applies a one-sided Pauli to every remaining copy.  Two copies
are consumed, so n copies yield n - 2 ebits.

Every branch is a product of Bell pairs, so the protocol runs in the Bell
(Pauli) frame for any n, with no ket.  A branch is the hidden index and
Alice's two outcomes; Bob's outcomes follow from the parities, so every
branch has probability exactly 1/16 and every corrected copy is exactly
Phi1.  `distill` and `discrimination_rate` answer from these 16 branches;
each weighs the dyadic 1/16, so every sum is exact.  A seeded run is drawn
only where a shot is shown: shot k is one nibble of a standard-library
`random.Random(seed)` stream (`run_shot`), a report's sample transcript is
shot 0's, and `DistillationReport.to_csv` draws one row per shot.
`measure_local` and `discriminate_two_copies` are the ket reference the frame
is tested against (n <= 6): one exact walk of the branch tree, each outcome
forced, nothing sampled; an outcome of Born probability below 1e-14 is pruned.
Both record a measurement as a `(party, copy, basis, outcome)` tuple.
"""

from __future__ import annotations

import math
import operator
import random
from functools import cache
from typing import NamedTuple

import numpy as np

from .bell import _count, bell_bits, bell_index, bell_product_ket
from .states import ALICE, BOB, Ket

H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)  # rows: the X basis


# (party, copy, basis) in protocol order on a fresh register; Bob's two
# outcomes are the communicated bits.
PLAN = ((ALICE, 1, "Z"), (BOB, 1, "Z"), (ALICE, 2, "X"), (BOB, 2, "X"))


class ShotState(NamedTuple):
    """One protocol branch: the hidden Bell index and the current pure state
    of the whole n-copy register."""

    hidden: int
    ket: Ket

    @property
    def n(self) -> int:
        return self.ket.n_qubits // 2

    @classmethod
    def prepared(cls, hidden: int, n: int) -> "ShotState":
        return cls(hidden=hidden, ket=bell_product_ket((hidden,) * n))


def measure_local(state: ShotState, party: str, copy: int, basis: str,
                  outcome: int) -> tuple[float, ShotState | None]:
    """Projective measurement of one party's qubit of one copy, with the
    outcome forced: its Born probability and the collapsed state, which is
    None when the probability is below 1e-14 (pruned).  The qubit is axis
    2 * (copy - 1), plus 1 for Bob."""

    if party not in (ALICE, BOB):
        raise ValueError(f"party must be {ALICE!r} or {BOB!r}, got {party!r}")
    if copy not in range(1, state.n + 1):
        raise ValueError(f"copy must be in 1..{state.n}, got {copy}")
    if basis not in ("Z", "X"):
        raise ValueError(f"basis must be 'Z' or 'X', got {basis!r}")
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome!r}")
    axis = 2 * (copy - 1) + (party == BOB)
    t = state.ket.tensor_view()
    bra = (H if basis == "X" else np.eye(2))[int(outcome)]  # real, so also the ket
    branch = bra @ np.moveaxis(t, axis, 0).reshape(2, -1)  # the other qubits' amplitudes
    prob = float(np.vdot(branch, branch).real)
    if prob < 1e-14:
        return prob, None
    post = np.moveaxis(np.outer(bra, branch / math.sqrt(prob)).reshape(t.shape), 0, axis)
    return prob, ShotState(state.hidden, Ket(post.reshape(-1)))


def _decode(a_z: int, b_z: int, a_x: int, b_x: int) -> tuple[int, int, int]:
    """Announced Bell index and parities from the four outcomes in PLAN order."""

    parity_z, parity_x = a_z ^ b_z, a_x ^ b_x
    return bell_index(parity_z, parity_x), parity_z, parity_x


class DiscriminationResult(NamedTuple):
    guess: int
    parity_z: int
    parity_x: int
    outcomes: tuple[tuple[str, int, str, int], ...]  # (party, copy, basis, outcome)
    state: ShotState
    probability: float  # of this branch, given the hidden index


def discriminate_two_copies(state: ShotState) -> list[DiscriminationResult]:
    """Every branch of PLAN on copies 1 and 2 that is not pruned, outcome 0
    before 1 at each step, with its Born probability and collapsed state.

    Copy 1 is measured in Z on both sides, copy 2 in X; Bob communicates his
    outcomes and the parity pair maps to the index.  Alice's guess uses only
    her own outcomes and Bob's communicated bits.
    """

    if state.n < 2:
        raise ValueError("discrimination needs two copies")
    branches = [(1.0, state, ())]
    for party, copy, basis in PLAN:
        branches = [(prob * p, post, outcomes + ((party, copy, basis, outcome),))
                    for prob, before, outcomes in branches for outcome in (0, 1)
                    for p, post in [measure_local(before, party, copy, basis, outcome)]
                    if post is not None]
    return [DiscriminationResult(*_decode(*(o[3] for o in outcomes)), outcomes, post, prob)
            for prob, post, outcomes in branches]


class Branch(NamedTuple):
    """One branch of the protocol: its probability, the outcomes that lead
    to it, Alice's parities and guess, and the fidelity of the worst
    corrected copy."""

    hidden: int
    probability: float
    outcomes: tuple[tuple[str, int, str, int], ...]  # (party, copy, basis, outcome)
    guess: int
    output_fidelity: float | None  # worst corrected copy; None for n = 2
    parity_z: int
    parity_x: int


@cache  # two keys: whether copies remain after the two measured ones
def _frame(copies_left: bool) -> tuple[Branch, ...]:
    """The 16 branches, hidden index 1 before 4, then Alice's outcome a_z on
    copy 1 and a_x on copy 2, 0 before 1.

    Bob's outcome on each copy is Alice's XOR that copy's parity, so he has
    no choice and each branch has probability 1/4 * 1/2 * 1/2.  The one-sided
    Paulis multiply like the Klein group up to a phase, so the correction
    for the guess returns every remaining copy to Phi1 exactly when the
    guess is the hidden index, and to an orthogonal Bell state otherwise.
    """

    frame = []
    for hidden in (1, 2, 3, 4):
        parity_z, parity_x = bell_bits(hidden)
        for a_z in (0, 1):
            for a_x in (0, 1):
                bits = (a_z, a_z ^ parity_z, a_x, a_x ^ parity_x)  # PLAN order
                guess, z, x = _decode(*bits)
                frame.append(Branch(
                    hidden=hidden, probability=1 / 16,
                    outcomes=tuple(step + (bit,) for step, bit in zip(PLAN, bits)),
                    guess=guess, output_fidelity=float(guess == hidden) if copies_left else None,
                    parity_z=z, parity_x=x))
    return tuple(frame)


def _frame_branches(n: int) -> tuple[Branch, ...]:
    """The cached 16 frame branches on n copies, in `_frame` order."""

    if (n := _count(n, "copy count")) < 2:
        raise ValueError(f"the protocol consumes two copies; need n >= 2, got n = {n}")
    return _frame(n > 2)


def _shot_count(shots: int) -> int:
    """`shots` as a plain int.  A value that is not an integer fails by the
    shared count rule; an integer below 1 keeps the protocol's own message."""

    try:
        count = operator.index(shots)
    except TypeError:
        return _count(shots, "shot count")  # raises: not an integer
    if count < 1:
        raise ValueError(f"shots must be >= 1, got {count}")
    return count


def _draws(seed: int, start: int, shots: int) -> np.ndarray:
    """The uint8 frame-branch index of shots start..start+shots-1 of the
    seeded run.

    `random.Random(seed)` draws ceil(stop / 8) whole 32-bit words in one
    `getrandbits` call; shot 2j is the low nibble of little-endian byte j and
    shot 2j + 1 its high nibble.  CPython fills `getrandbits` word by word
    from the first, so a longer run reads the same words first and shot k is
    the same in every longer run (`randbytes` has no such prefix property).
    The output is allocated before the draw, so a shot count too large to
    hold fails there with numpy's MemoryError.
    """

    try:
        start = operator.index(start)
    except TypeError:  # a float, even 2.0, as the counts reject it
        raise ValueError(f"shot index must be an integer, got {start!r}") from None
    if start < 0:
        raise ValueError(f"shot index must be >= 0, got {start}")
    stop = start + _shot_count(shots)
    words = -(-stop // 8)
    draws = np.empty(8 * words, dtype=np.uint8)
    raw = random.Random(seed).getrandbits(32 * words).to_bytes(4 * words, "little")
    raw = np.frombuffer(raw, dtype=np.uint8)
    np.bitwise_and(raw, 15, out=draws[0::2])
    np.right_shift(raw, 4, out=draws[1::2])
    return draws[start:stop]


class DistillationReport(NamedTuple):
    """The protocol on n copies.  The rates and fidelities are exact sums
    over the 16 frame branches, so they do not depend on `shots` or `seed`;
    those two fix the seeded run, of which the report shows shot 0's
    transcript and `to_csv` one row per shot."""

    n: int
    shots: int
    seed: int
    success_rate: float
    ebits_per_shot: int
    mean_fidelity: float
    min_fidelity: float
    transcript_sample: list[dict]

    def to_dict(self) -> dict:
        return {"command": "distill", **self._asdict()}

    CSV_HEADER = ["shot", "hidden", "guess", "parity_z", "parity_x",
                  "correct", "ebits", "fidelity"]

    def to_csv(self) -> str:
        """Header and one row per shot of the seeded run.  Every shot is one
        of the 16 cached frame branches, so each branch's row after the shot
        number is rendered once; no field needs CSV quoting."""

        row = [f"{b.hidden},{b.guess},{b.parity_z},{b.parity_x},"
               f"{int(b.guess == b.hidden)},{self.n - 2},{b.output_fidelity:.15f}"
               for b in _frame_branches(self.n)]
        lines = [",".join(self.CSV_HEADER)]
        lines += [f"{k},{row[i]}" for k, i in enumerate(_draws(self.seed, 0, self.shots).tolist())]
        return "\n".join(lines) + "\n"


def run_shot(n: int, shot_index: int, seed: int) -> Branch:
    """Shot k of the seeded run on n copies, as every longer run draws it:
    one of the cached frame branches, not a copy."""

    return _frame_branches(n)[_draws(seed, shot_index, 1)[0]]


def discrimination_rate(n: int) -> float:
    """Probability that the protocol on n copies announces the hidden index:
    the exact sum over the 16 frame branches; nothing is drawn."""

    return sum(b.probability for b in _frame_branches(n) if b.guess == b.hidden)


def distill(n: int, shots: int, seed: int = 0) -> DistillationReport:
    """The discriminate-then-correct protocol on n copies, from its 16 frame
    branches: every branch identifies the hidden index exactly and leaves
    n - 2 perfect Bell pairs.  Only shot 0 of the seeded run is drawn, for
    the sample transcript."""

    if (n := _count(n, "copy count")) < 3:
        raise ValueError("distillation needs n >= 3; for n in {1, 2} the "
                         "yield is 0 ebits (see distill_trivial)")
    shots = _shot_count(shots)
    frame = _frame_branches(n)
    return DistillationReport(
        n=n,
        shots=shots,
        seed=seed,
        success_rate=discrimination_rate(n),
        ebits_per_shot=n - 2,
        mean_fidelity=sum(b.probability * b.output_fidelity for b in frame),
        min_fidelity=min(b.output_fidelity for b in frame),
        # Bob communicates each of his outcomes
        transcript_sample=[{"party": party, "copy": copy, "basis": basis, "outcome": outcome,
                            "communicated": party == BOB}
                           for party, copy, basis, outcome in run_shot(n, 0, seed).outcomes],
    )


class BranchAnalysis(NamedTuple):
    n: int
    branches: list[Branch]

    def total_probability(self) -> float:
        return sum(b.probability for b in self.branches)


def distill_exact_branches(n: int) -> BranchAnalysis:
    """Every branch of the protocol without sampling: for each of the four
    equally likely hidden indices, Alice's four outcome pairs, outcome 0
    before 1.  Each branch has probability exactly 1/16 and leaves every
    remaining copy exactly Phi1, for any n >= 3."""

    if (n := _count(n, "copy count")) < 3:
        raise ValueError("branch analysis needs n >= 3")
    return BranchAnalysis(n=n, branches=list(_frame_branches(n)))
