"""LOCC protocol machinery: local measurements, classical communication
transcripts, two-copy Bell discrimination, and distillation.

The discrimination protocol measures one copy in Z on both sides and one in
X on both sides.  The outcome parities identify the Bell state exactly:

    parity   Z    X
    Phi1     0    0
    Phi2     0    1
    Phi3     1    0
    Phi4     1    1

Bob sends his two bits to Alice, who computes the parities, announces the
index, and applies a one-sided Pauli to every remaining copy.  Two copies
are consumed, so n copies yield n - 2 ebits.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .bell import bell_amplitudes, bell_product_ket, rho_n, smolin_flip_check, to_dense
from .entropies import trace_distance, von_neumann_entropy
from .measures import PptReport, ppt_check
from .permutations import H, I2, X, Z, IDENTITY_PAIR, LocalUnitaryPair
from .registers import ALICE, BOB, RegisterLayout
from .states import DensityOperator, Ket, apply_local, partial_trace


PARITY_TO_INDEX = {(0, 0): 1, (0, 1): 2, (1, 0): 3, (1, 1): 4}
FIDELITY_TOL = 1e-12


@dataclass(frozen=True)
class Measurement:
    party: str
    copy: int
    basis: str
    outcome: int


@dataclass(frozen=True)
class Communication:
    """A classical bit sent to the other party, referencing the measurement
    (by transcript index) whose outcome it carries."""

    sender: str
    measurement_index: int


@dataclass
class Transcript:
    measurements: list[Measurement] = field(default_factory=list)
    communications: list[Communication] = field(default_factory=list)

    def record_measurement(self, party: str, copy: int, basis: str, outcome: int) -> int:
        self.measurements.append(Measurement(party, copy, basis, outcome))
        return len(self.measurements) - 1

    def communicate(self, index: int) -> None:
        if not 0 <= index < len(self.measurements):
            raise ValueError("communication must reference a recorded measurement")
        self.communications.append(
            Communication(self.measurements[index].party, index))

    def communicated_bits(self, sender: str) -> list[int]:
        return [self.measurements[c.measurement_index].outcome
                for c in self.communications if c.sender == sender]

    def validate(self) -> None:
        for c in self.communications:
            m = self.measurements[c.measurement_index]
            if m.party != c.sender:
                raise ValueError("communicated bit does not belong to its sender")

    def to_rows(self) -> list[dict]:
        comm_for = {c.measurement_index for c in self.communications}
        return [
            {"party": m.party, "copy": m.copy, "basis": m.basis,
             "outcome": m.outcome, "communicated": i in comm_for}
            for i, m in enumerate(self.measurements)
        ]


@dataclass(frozen=True)
class ShotState:
    """One protocol run: the hidden Bell index, the current pure state of the
    whole n-copy register, and which copies have been measured out."""

    hidden: int
    ket: Ket
    consumed: frozenset[int] = frozenset()

    @property
    def n(self) -> int:
        return self.ket.layout.n_copies

    @classmethod
    def sample(cls, n: int, rng: np.random.Generator) -> "ShotState":
        hidden = int(rng.integers(1, 5))
        return cls(hidden=hidden, ket=_base_ket(hidden, n))

    @classmethod
    def prepared(cls, hidden: int, n: int) -> "ShotState":
        return cls(hidden=hidden, ket=_base_ket(hidden, n))


@lru_cache(maxsize=64)
def _base_ket(hidden: int, n: int) -> Ket:
    # Ket is immutable (frozen dataclass, read-only array), so sharing the
    # cached instance across shots is safe.
    return bell_product_ket((hidden,) * n)


@lru_cache(maxsize=256)
def _qubit_label(layout: RegisterLayout, party: str, copy: int) -> str:
    owners = {q.owner for q in layout.qubits}
    if party not in owners:
        raise ValueError(f"unknown party {party!r}")
    labels = [q.label for q in layout.qubits if q.owner == party and q.copy == copy]
    if len(labels) != 1:
        raise ValueError(f"party {party!r} must own exactly one qubit of copy {copy}")
    return labels[0]


def _project(ket: Ket, axis: int, basis: str, outcome: int) -> tuple[float, Ket | None]:
    """Born probability of `outcome` and the renormalized post-measurement
    state (None for probability 0)."""

    t = ket.tensor_view()
    if basis == "X":
        t = np.moveaxis(np.tensordot(H, np.moveaxis(t, axis, 0), axes=1), 0, axis)
    elif basis != "Z":
        raise ValueError(f"basis must be 'Z' or 'X', got {basis!r}")
    moved = np.moveaxis(t, axis, 0)
    branch = moved[outcome]
    prob = float(np.real(np.vdot(branch, branch)))
    if prob < 1e-14:
        return 0.0, None
    post = np.zeros_like(moved)
    post[outcome] = branch / math.sqrt(prob)
    post = np.moveaxis(post, 0, axis)
    if basis == "X":
        post = np.moveaxis(np.tensordot(H, np.moveaxis(post, axis, 0), axes=1), 0, axis)
    return prob, Ket(ket.layout, post.reshape(ket.layout.dim))


def measure_local(state: ShotState, party: str, copy: int, basis: str,
                  rng: np.random.Generator) -> tuple[int, ShotState]:
    """Projective measurement of one party's qubit of one copy; outcome is
    sampled from the Born rule and the state collapses accordingly."""

    if copy in state.consumed:
        raise ValueError(f"copy {copy} has already been consumed")
    label = _qubit_label(state.ket.layout, party, copy)
    axis = state.ket.layout.index_of(label)
    t = state.ket.tensor_view()
    if basis == "X":
        t = np.moveaxis(np.tensordot(H, np.moveaxis(t, axis, 0), axes=1), 0, axis)
    elif basis != "Z":
        raise ValueError(f"basis must be 'Z' or 'X', got {basis!r}")
    moved = np.moveaxis(t, axis, 0)
    p0 = float(np.real(np.vdot(moved[0], moved[0])))
    outcome = 0 if rng.random() < p0 else 1
    branch = moved[outcome]
    nrm = math.sqrt(float(np.real(np.vdot(branch, branch))))
    post = np.zeros_like(moved)
    post[outcome] = branch / nrm
    post = np.moveaxis(post, 0, axis)
    if basis == "X":
        post = np.moveaxis(np.tensordot(H, np.moveaxis(post, axis, 0), axes=1), 0, axis)
    ket = Ket(state.ket.layout, post.reshape(state.ket.layout.dim))
    return outcome, replace(state, ket=ket)


def measure_local_exact(state: ShotState, party: str, copy: int, basis: str,
                        outcome: int) -> tuple[float, ShotState | None]:
    """Forced-outcome variant returning the exact Born probability."""

    if copy in state.consumed:
        raise ValueError(f"copy {copy} has already been consumed")
    label = _qubit_label(state.ket.layout, party, copy)
    axis = state.ket.layout.index_of(label)
    prob, post = _project(state.ket, axis, basis, outcome)
    if post is None:
        return prob, None
    return prob, replace(state, ket=post)


@dataclass(frozen=True)
class DiscriminationResult:
    guess: int
    parity_z: int
    parity_x: int
    transcript: Transcript
    state: ShotState


def discriminate_two_copies(state: ShotState,
                            rng: np.random.Generator) -> DiscriminationResult:
    """Identify the hidden Bell index with certainty from two copies.

    Copy 1 is measured in Z on both sides, copy 2 in X; Bob communicates his
    outcomes and the parity pair maps to the index.  Both copies are marked
    consumed.  Alice's guess uses only her own outcomes and Bob's
    communicated bits.
    """

    available = [c for c in range(1, state.n + 1) if c not in state.consumed]
    if len(available) < 2:
        raise ValueError("discrimination needs two unconsumed copies")
    z_copy, x_copy = available[0], available[1]
    transcript = Transcript()

    a_z, state = measure_local(state, ALICE, z_copy, "Z", rng)
    transcript.record_measurement(ALICE, z_copy, "Z", a_z)
    b_z, state = measure_local(state, BOB, z_copy, "Z", rng)
    transcript.communicate(transcript.record_measurement(BOB, z_copy, "Z", b_z))

    a_x, state = measure_local(state, ALICE, x_copy, "X", rng)
    transcript.record_measurement(ALICE, x_copy, "X", a_x)
    b_x, state = measure_local(state, BOB, x_copy, "X", rng)
    transcript.communicate(transcript.record_measurement(BOB, x_copy, "X", b_x))

    bob_bits = transcript.communicated_bits(BOB)
    parity_z = a_z ^ bob_bits[0]
    parity_x = a_x ^ bob_bits[1]
    guess = PARITY_TO_INDEX[(parity_z, parity_x)]
    state = replace(state, consumed=state.consumed | {z_copy, x_copy})
    return DiscriminationResult(guess=guess, parity_z=parity_z, parity_x=parity_x,
                                transcript=transcript, state=state)


def correction_unitary(i: int) -> LocalUnitaryPair:
    """One-sided Pauli on Alice mapping Phi_i to Phi_1 up to a global phase."""

    if i == 1:
        return IDENTITY_PAIR
    if i == 2:
        return LocalUnitaryPair(Z, I2, name="Z⊗I")
    if i == 3:
        return LocalUnitaryPair(X, I2, name="X⊗I")
    if i == 4:
        return LocalUnitaryPair(Z @ X, I2, name="ZX⊗I")
    raise ValueError(f"Bell index must be in 1..4, got {i}")


def _remaining_copy_fidelity(ket: Ket, copy: int) -> float:
    """<Phi1| rho_copy |Phi1> for one copy's reduced state, straight from the
    ket tensor (cheap: no full density matrix)."""

    layout = ket.layout
    ax_a = layout.index_of(_qubit_label(layout, ALICE, copy))
    ax_b = layout.index_of(_qubit_label(layout, BOB, copy))
    t = ket.tensor_view()
    moved = np.moveaxis(t, (ax_a, ax_b), (0, 1)).reshape(4, -1)
    reduced = moved @ moved.conj().T
    phi1 = bell_amplitudes(1)
    return float(np.real(phi1.conj() @ reduced @ phi1))


@dataclass
class ShotRecord:
    shot: int
    hidden: int
    guess: int
    parity_z: int
    parity_x: int
    correct: bool
    ebits: int
    fidelity: float


@dataclass
class DistillationReport:
    n: int
    shots: int
    seed: int
    success_rate: float
    ebits_per_shot: int
    mean_fidelity: float
    min_fidelity: float
    records: list[ShotRecord]
    transcript_sample: list[dict]

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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    CSV_HEADER = ["shot", "hidden", "guess", "parity_z", "parity_x",
                  "correct", "ebits", "fidelity"]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.CSV_HEADER)
        for r in self.records:
            writer.writerow([r.shot, r.hidden, r.guess, r.parity_z, r.parity_x,
                             int(r.correct), r.ebits, f"{r.fidelity:.15f}"])
        return buf.getvalue()


def run_shot(n: int, shot_index: int, seed: int) -> ShotRecord:
    """One seeded distillation shot; shot k draws from generator (seed, k) so
    reports are reproducible bit for bit and shots can run independently."""

    rng = np.random.default_rng([seed, shot_index])
    state = ShotState.sample(n, rng)
    result = discriminate_two_copies(state, rng)
    pair = correction_unitary(result.guess)
    remaining = [c for c in range(1, n + 1) if c not in result.state.consumed]
    if result.guess == 1:
        ket = result.state.ket  # identity correction
    else:
        gates = {_qubit_label(result.state.ket.layout, ALICE, c): pair.u_alice
                 for c in remaining}
        ket = apply_local(result.state.ket, gates)
    fid = min(_remaining_copy_fidelity(ket, c) for c in remaining)
    return ShotRecord(
        shot=shot_index,
        hidden=state.hidden,
        guess=result.guess,
        parity_z=result.parity_z,
        parity_x=result.parity_x,
        correct=result.guess == state.hidden,
        ebits=n - 2,
        fidelity=fid,
    )


def distill(n: int, shots: int, seed: int = 0) -> DistillationReport:
    """Run the discriminate-then-correct protocol on `shots` independent
    preparations of the n-copy mixture.  Every shot identifies the hidden
    index exactly and leaves n - 2 perfect Bell pairs."""

    if n < 3:
        raise ValueError("distillation needs n >= 3; for n in {1, 2} the "
                         "yield is 0 ebits (see distill_trivial)")
    if shots < 1:
        raise ValueError("shots must be >= 1")
    records = [run_shot(n, k, seed) for k in range(shots)]
    # deterministic sample transcript for the report, re-derived from shot 0
    rng0 = np.random.default_rng([seed, 0])
    state0 = ShotState.sample(n, rng0)
    sample = discriminate_two_copies(state0, rng0).transcript.to_rows()
    success = sum(r.correct for r in records) / shots
    fidelities = [r.fidelity for r in records]
    return DistillationReport(
        n=n,
        shots=shots,
        seed=seed,
        success_rate=success,
        ebits_per_shot=n - 2,
        mean_fidelity=float(np.mean(fidelities)),
        min_fidelity=float(np.min(fidelities)),
        records=records,
        transcript_sample=sample,
    )


@dataclass
class TrivialReport:
    """The zero-yield cases with their supporting evidence attached."""

    n: int
    ebits: int
    distance_to_maximally_mixed: float | None = None
    ppt: PptReport | None = None
    smolin_residual: float | None = None

    def to_dict(self) -> dict:
        out = {"command": "distill", "n": self.n, "ebits_per_shot": self.ebits,
               "success_rate": 1.0}
        if self.distance_to_maximally_mixed is not None:
            out["distance_to_maximally_mixed"] = self.distance_to_maximally_mixed
        if self.ppt is not None:
            out["ppt_min_eigenvalue"] = self.ppt.min_eigenvalue
            out["is_ppt"] = self.ppt.is_ppt
        if self.smolin_residual is not None:
            out["smolin_residual"] = self.smolin_residual
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def distill_trivial(n: int) -> TrivialReport:
    """n = 1: the mixture is maximally mixed.  n = 2: it is PPT and equals
    its flipped, manifestly separable form.  Either way 0 ebits."""

    if n == 1:
        rho1 = to_dense(rho_n(1))
        mixed = DensityOperator(rho1.layout, np.eye(4, dtype=complex) / 4.0)
        return TrivialReport(n=1, ebits=0,
                             distance_to_maximally_mixed=trace_distance(rho1, mixed))
    if n == 2:
        rho2 = to_dense(rho_n(2))
        return TrivialReport(n=2, ebits=0, ppt=ppt_check(rho2),
                             smolin_residual=smolin_flip_check())
    raise ValueError("trivial cases are n = 1 and n = 2; use distill for n >= 3")


@dataclass(frozen=True)
class Branch:
    hidden: int
    probability: float
    outcomes: tuple[tuple[str, int, str, int], ...]  # (party, copy, basis, outcome)
    guess: int
    output_fidelity: float


@dataclass
class BranchAnalysis:
    n: int
    branches: list[Branch]

    def total_probability(self) -> float:
        return sum(b.probability for b in self.branches)

    def branch_distribution(self) -> dict[tuple, float]:
        return {(b.hidden,) + tuple(o[3] for o in b.outcomes): b.probability
                for b in self.branches}


def distill_exact_branches(n: int) -> BranchAnalysis:
    """Density-operator-level confirmation without sampling: enumerate every
    measurement branch of the protocol for each of the four equally likely
    hidden indices and evaluate its exact Born probability and output."""

    if n < 3:
        raise ValueError("branch analysis needs n >= 3")
    if 2 * n > 12:
        raise ValueError("branch analysis is dense-only; n too large")
    branches = []
    for hidden in (1, 2, 3, 4):
        base = ShotState.prepared(hidden, n)
        plan = [(ALICE, 1, "Z"), (BOB, 1, "Z"), (ALICE, 2, "X"), (BOB, 2, "X")]
        stack = [(base, 0.25, ())]
        for party, copy, basis in plan:
            next_stack = []
            for state, prob, outs in stack:
                for outcome in (0, 1):
                    p, post = measure_local_exact(state, party, copy, basis, outcome)
                    if post is None:
                        continue
                    next_stack.append((post, prob * p,
                                       outs + ((party, copy, basis, outcome),)))
            stack = next_stack
        for state, prob, outs in stack:
            by = {(p, c, b): o for p, c, b, o in outs}
            parity_z = by[(ALICE, 1, "Z")] ^ by[(BOB, 1, "Z")]
            parity_x = by[(ALICE, 2, "X")] ^ by[(BOB, 2, "X")]
            guess = PARITY_TO_INDEX[(parity_z, parity_x)]
            pair = correction_unitary(guess)
            gates = {_qubit_label(state.ket.layout, ALICE, c): pair.u_alice
                     for c in range(3, n + 1)}
            ket = apply_local(state.ket, gates) if gates else state.ket
            fid = min(_remaining_copy_fidelity(ket, c) for c in range(3, n + 1))
            branches.append(Branch(hidden=hidden, probability=prob,
                                   outcomes=outs, guess=guess, output_fidelity=fid))
    return BranchAnalysis(n=n, branches=branches)


def output_copy_entropy(n: int = 3) -> float:
    """Entanglement entropy of one distilled copy's Alice marginal: 1 ebit."""

    analysis = distill_exact_branches(n)
    branch = analysis.branches[0]
    state = ShotState.prepared(branch.hidden, n)
    for party, copy, basis, outcome in branch.outcomes:
        _, state = measure_local_exact(state, party, copy, basis, outcome)
    pair = correction_unitary(branch.guess)
    gates = {_qubit_label(state.ket.layout, ALICE, c): pair.u_alice
             for c in range(3, n + 1)}
    ket = apply_local(state.ket, gates)
    copy_dm = partial_trace(ket.to_dm(), [f"A{n}", f"B{n}"])
    alice_marginal = partial_trace(copy_dm, [f"A{n}"])
    return von_neumann_entropy(alice_marginal)
