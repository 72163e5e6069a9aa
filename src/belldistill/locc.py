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
Phi1.  A seeded run draws every shot's cached branch as one nibble of a
standard-library `random.Random(seed)` stream; a report's sample transcript
is shot 0's.  `measure_local` and `discriminate_two_copies` keep
the stepwise ket simulation (n <= 6) as the reference the frame is tested
against; it never chooses an outcome whose Born probability was pruned
(below 1e-14).  Both record a measurement as a `(party, copy, basis,
outcome)` tuple.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from functools import cache

import numpy as np

from .bell import bell_bits, bell_index, bell_product_ket, rho_n, smolin_flip_check, to_dense
from .entropies import trace_distance
from .measures import ppt_check
from .permutations import H
from .states import ALICE, BOB, DensityOperator, Ket


# (party, copy, basis) in protocol order on a fresh register; Bob's two
# outcomes are the communicated bits.
PLAN = ((ALICE, 1, "Z"), (BOB, 1, "Z"), (ALICE, 2, "X"), (BOB, 2, "X"))


@dataclass(frozen=True)
class ShotState:
    """One protocol run: the hidden Bell index, the current pure state of the
    whole n-copy register, and which copies have been measured out."""

    hidden: int
    ket: Ket
    consumed: frozenset[int] = frozenset()

    @property
    def n(self) -> int:
        return self.ket.n_qubits // 2

    @classmethod
    def prepared(cls, hidden: int, n: int) -> "ShotState":
        return cls(hidden=hidden, ket=bell_product_ket((hidden,) * n))


def _measured_axis(state: ShotState, party: str, copy: int) -> int:
    """Axis of `party`'s qubit of `copy`: 2 * (copy - 1), plus 1 for Bob."""

    if party not in (ALICE, BOB):
        raise ValueError(f"party must be {ALICE!r} or {BOB!r}, got {party!r}")
    if copy not in range(1, state.n + 1):
        raise ValueError(f"copy must be in 1..{state.n}, got {copy}")
    if copy in state.consumed:
        raise ValueError(f"copy {copy} has already been consumed")
    return 2 * (copy - 1) + (party == BOB)


def _project(ket: Ket, axis: int, basis: str, outcome: int) -> tuple[float, Ket | None]:
    """Born probability of `outcome` and the renormalized post-measurement
    state (None for a probability below 1e-14, which is returned as is)."""

    if basis not in ("Z", "X"):
        raise ValueError(f"basis must be 'Z' or 'X', got {basis!r}")
    t = ket.tensor_view()
    moved = np.moveaxis(t, axis, 0).reshape(2, -1)  # rows: the measured qubit
    if basis == "X":
        moved = np.dot(H, moved)
    branch = moved[outcome]
    prob = float(np.real(np.vdot(branch, branch)))
    if prob < 1e-14:
        return prob, None
    post = np.zeros_like(moved)
    post[outcome] = branch / math.sqrt(prob)
    if basis == "X":
        post = np.dot(H, post)
    post = np.moveaxis(post.reshape(t.shape), 0, axis)
    return prob, Ket(post.reshape(-1))


def measure_local(state: ShotState, party: str, copy: int, basis: str,
                  rng: np.random.Generator) -> tuple[int, ShotState]:
    """Projective measurement of one party's qubit of one copy: outcome 0
    when one uniform draw falls below its Born probability, never an outcome
    whose probability was pruned, and the state collapses accordingly."""

    axis = _measured_axis(state, party, copy)
    p0, post = _project(state.ket, axis, basis, 0)
    if rng.random() >= p0 or post is None:
        _, post1 = _project(state.ket, axis, basis, 1)
        if post1 is not None:  # a pruned outcome 1 falls back to outcome 0
            return 1, replace(state, ket=post1)
    return 0, replace(state, ket=post)


def _decode(a_z: int, b_z: int, a_x: int, b_x: int) -> tuple[int, int, int]:
    """Parities and announced Bell index from the four outcomes in PLAN order."""

    parity_z, parity_x = a_z ^ b_z, a_x ^ b_x
    return parity_z, parity_x, bell_index(parity_z, parity_x)


@dataclass(frozen=True)
class DiscriminationResult:
    guess: int
    parity_z: int
    parity_x: int
    outcomes: tuple[tuple[str, int, str, int], ...]  # (party, copy, basis, outcome)
    state: ShotState


def discriminate_two_copies(state: ShotState,
                            rng: np.random.Generator) -> DiscriminationResult:
    """Identify the hidden Bell index with certainty from two copies.

    PLAN runs on the first two unconsumed copies: the first is measured in Z
    on both sides, the second in X; Bob communicates his outcomes and the
    parity pair maps to the index.  Both copies are marked consumed.
    Alice's guess uses only her own outcomes and Bob's communicated bits.
    """

    available = [c for c in range(1, state.n + 1) if c not in state.consumed]
    if len(available) < 2:
        raise ValueError("discrimination needs two unconsumed copies")
    outcomes = []
    for party, slot, basis in PLAN:
        copy = available[slot - 1]
        outcome, state = measure_local(state, party, copy, basis, rng)
        outcomes.append((party, copy, basis, outcome))
    parity_z, parity_x, guess = _decode(*(o[3] for o in outcomes))
    state = replace(state, consumed=state.consumed | set(available[:2]))
    return DiscriminationResult(guess=guess, parity_z=parity_z, parity_x=parity_x,
                                outcomes=tuple(outcomes), state=state)


@dataclass(frozen=True)
class Branch:
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


@cache  # 32 keys: whether copies remain, the hidden index, Alice's two outcomes
def _branch(copies_left: bool, hidden: int, a_z: int, a_x: int) -> Branch:
    """The branch where Alice sees a_z on copy 1 and a_x on copy 2.

    Bob's outcome on each copy is Alice's XOR that copy's parity, so he has
    no choice and the branch has probability 1/4 * 1/2 * 1/2.  The one-sided
    Paulis multiply like the Klein group up to a phase, so the correction
    for the guess returns every remaining copy to Phi1 exactly when the
    guess is the hidden index, and to an orthogonal Bell state otherwise.
    """

    parity_z, parity_x = bell_bits(hidden)
    bits = (a_z, a_z ^ parity_z, a_x, a_x ^ parity_x)  # PLAN order
    parity_z, parity_x, guess = _decode(*bits)
    return Branch(hidden=hidden, probability=1 / 16,
                  outcomes=tuple(step + (bit,) for step, bit in zip(PLAN, bits)),
                  guess=guess, output_fidelity=float(guess == hidden) if copies_left else None,
                  parity_z=parity_z, parity_x=parity_x)


def _frame_branches(n: int) -> tuple[Branch, ...]:
    """The 16 cached branches on n copies in `distill_exact_branches` order.
    Their outcomes are ints: a bool would share an int's `_branch` cache slot
    and print as false in a transcript."""

    if n < 2:
        raise ValueError(f"the protocol consumes two copies; need n >= 2, got n = {n}")
    return tuple(_branch(n > 2, hidden, a_z, a_x)
                 for hidden in (1, 2, 3, 4) for a_z in (0, 1) for a_x in (0, 1))


def _sample(n: int, seed: int, start: int,
            stop: int) -> tuple[tuple[Branch, ...], np.ndarray]:
    """The frame branches on n copies and the uint8 index into them of shots
    start..stop-1 of the seeded run.

    `random.Random(seed)` draws ceil(stop / 8) whole 32-bit words in one
    `getrandbits` call; shot 2j is the low nibble of little-endian byte j and
    shot 2j + 1 its high nibble.  CPython fills `getrandbits` word by word
    from the first, so a longer run reads the same words first and shot k is
    the same in every longer run (`randbytes` has no such prefix property).
    The output is allocated before the draw, so a shot count too large to
    hold fails there with numpy's MemoryError.
    """

    frame = _frame_branches(n)
    if start < 0:
        raise ValueError(f"shot index must be >= 0, got {start}")
    if stop <= start:
        raise ValueError(f"shots must be >= 1, got {stop - start}")
    words = -(-stop // 8)
    draws = np.empty(8 * words, dtype=np.uint8)
    raw = random.Random(seed).getrandbits(32 * words).to_bytes(4 * words, "little")
    raw = np.frombuffer(raw, dtype=np.uint8)
    np.bitwise_and(raw, 15, out=draws[0::2])
    np.right_shift(raw, 4, out=draws[1::2])
    return frame, draws[start:stop]


def _success_rate(frame: tuple[Branch, ...], counts: list[int]) -> float:
    """Share of the counted shots announcing the hidden index, from how often
    each frame branch was drawn."""

    return sum(c for b, c in zip(frame, counts) if b.guess == b.hidden) / sum(counts)


def _transcript_rows(outcomes) -> list[dict]:
    """One row per measurement in protocol order; Bob communicates each of
    his outcomes."""

    return [{"party": party, "copy": copy, "basis": basis, "outcome": outcome,
             "communicated": party == BOB} for party, copy, basis, outcome in outcomes]


@dataclass
class DistillationReport:
    n: int
    shots: int
    seed: int
    success_rate: float
    ebits_per_shot: int
    mean_fidelity: float
    min_fidelity: float
    # shot k's uint8 index into the 16 frame branches at position k; n, shots
    # and seed fix the draws, so equal fields above mean equal draws
    draws: np.ndarray = field(compare=False, repr=False)
    transcript_sample: list[dict]

    @property
    def branches(self) -> list[Branch]:
        """Shot k's cached frame branch at index k, built on demand."""

        frame = _frame_branches(self.n)
        return [frame[i] for i in self.draws.tolist()]

    def to_dict(self) -> dict:
        return {
            "command": "distill",
            "n": self.n,
            "shots": self.shots,
            "seed": self.seed,
            "success_rate": self.success_rate,
            "ebits_per_shot": self.ebits_per_shot,
            "mean_fidelity": self.mean_fidelity,
            "min_fidelity": self.min_fidelity,
            "transcript_sample": self.transcript_sample,
        }

    CSV_HEADER = ["shot", "hidden", "guess", "parity_z", "parity_x",
                  "correct", "ebits", "fidelity"]

    def to_csv(self) -> str:
        """Header and one row per shot.  Every shot is one of the 16 cached
        frame branches, so each branch's row after the shot number is
        rendered once; no field needs CSV quoting."""

        row = [f"{b.hidden},{b.guess},{b.parity_z},{b.parity_x},"
               f"{int(b.guess == b.hidden)},{self.n - 2},{b.output_fidelity:.15f}"
               for b in _frame_branches(self.n)]
        lines = [",".join(self.CSV_HEADER)]
        lines += [f"{k},{row[i]}" for k, i in enumerate(self.draws.tolist())]
        return "\n".join(lines) + "\n"


def run_shot(n: int, shot_index: int, seed: int) -> Branch:
    """Shot k of the seeded run on n copies, as every longer `distill` run
    reports it: one of the 32 cached branches, not a copy."""

    frame, draws = _sample(n, seed, shot_index, shot_index + 1)
    return frame[draws[0]]


def discrimination_rate(n: int, shots: int, seed: int = 0) -> float:
    """Share of the seeded run's shots on n copies announcing the hidden index."""

    frame, draws = _sample(n, seed, 0, shots)
    return _success_rate(frame, np.bincount(draws, minlength=16).tolist())


def distill(n: int, shots: int, seed: int = 0) -> DistillationReport:
    """Run the discriminate-then-correct protocol on `shots` independent
    preparations of the n-copy mixture.  Every shot identifies the hidden
    index exactly and leaves n - 2 perfect Bell pairs."""

    if n < 3:
        raise ValueError("distillation needs n >= 3; for n in {1, 2} the "
                         "yield is 0 ebits (see distill_trivial)")
    frame, draws = _sample(n, seed, 0, shots)
    counts = np.bincount(draws, minlength=16).tolist()
    return DistillationReport(
        n=n,
        shots=shots,
        seed=seed,
        success_rate=_success_rate(frame, counts),
        ebits_per_shot=n - 2,
        # every fidelity is exactly 0.0 or 1.0, so the weighted sum is exact
        mean_fidelity=sum(c * b.output_fidelity for b, c in zip(frame, counts)) / shots,
        min_fidelity=min(b.output_fidelity for b, c in zip(frame, counts) if c),
        draws=draws,
        transcript_sample=_transcript_rows(frame[draws[0]].outcomes),
    )


def distill_trivial(n: int) -> dict:
    """The zero-yield payload with its evidence.  n = 1: the mixture is
    maximally mixed.  n = 2: it is PPT and equals its flipped, manifestly
    separable form.  Either way 0 ebits."""

    out = {"command": "distill", "n": n, "ebits_per_shot": 0, "success_rate": 1.0}
    if n == 1:
        mixed = DensityOperator(np.eye(4, dtype=complex) / 4.0)
        out["distance_to_maximally_mixed"] = trace_distance(to_dense(rho_n(1)), mixed)
    elif n == 2:
        ppt = ppt_check(to_dense(rho_n(2)))
        out.update(ppt_min_eigenvalue=ppt.min_eigenvalue, is_ppt=ppt.is_ppt,
                   smolin_residual=smolin_flip_check())
    else:
        raise ValueError("trivial cases are n = 1 and n = 2; use distill for n >= 3")
    return out


@dataclass
class BranchAnalysis:
    n: int
    branches: list[Branch]

    def total_probability(self) -> float:
        return sum(b.probability for b in self.branches)


def distill_exact_branches(n: int) -> BranchAnalysis:
    """Every branch of the protocol without sampling: for each of the four
    equally likely hidden indices, Alice's four outcome pairs, outcome 0
    before 1.  Each branch has probability exactly 1/16 and leaves every
    remaining copy exactly Phi1, for any n >= 3."""

    if n < 3:
        raise ValueError("branch analysis needs n >= 3")
    return BranchAnalysis(n=n, branches=list(_frame_branches(n)))
