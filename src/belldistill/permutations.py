"""Local unitary pairs that permute the Bell basis.

A pair (U_A, U_B) acts on one copy as U_A x U_B.  When every Bell state is
mapped to another Bell state up to a unit phase, the pair induces a
permutation of the four indices.  A breadth-first search over one-qubit
generators recovers a realizing pair for each of the 24 permutations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bell import BELL_AMPLITUDES, check_permutation

PHASE_ALIGN_TOL = 1e-9
UNITARY_TOL = 1e-12

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
S = np.array([[1, 0], [0, 1j]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)

# One-sided phase/bit-flip gates alone only preserve or swap the parity
# blocks {Phi1,Phi2} and {Phi3,Phi4} wholesale (they act monomially on the
# computational basis), which reaches just 8 of the 24 permutations.  The
# Hadamard pair mixes the blocks, e.g. H x H exchanges Phi2 and Phi3, and
# closes the full group.
GENERATORS = {"I": I2, "S": S, "Z": Z, "X": X, "H": H}

ALL_PERMUTATIONS = tuple(itertools.permutations((1, 2, 3, 4)))


@dataclass(frozen=True)
class LocalUnitaryPair:
    """A 2x2 unitary for Alice and one for Bob, acting per copy."""

    u_alice: np.ndarray
    u_bob: np.ndarray
    name: str = ""

    def __post_init__(self):
        for side, u in (("alice", self.u_alice), ("bob", self.u_bob)):
            u = np.asarray(u, dtype=complex)
            if u.shape != (2, 2):
                raise ValueError(f"{side} operator must be 2x2")
            err = float(np.max(np.abs(u.conj().T @ u - I2)))
            if err > UNITARY_TOL * 10:
                raise ValueError(f"{side} operator is not unitary (error {err:.2e})")
            u.flags.writeable = False
            object.__setattr__(self, f"u_{side}", u)

    def tensor(self) -> np.ndarray:
        return np.kron(self.u_alice, self.u_bob)

    def compose(self, other: "LocalUnitaryPair") -> "LocalUnitaryPair":
        """This pair applied after `other`."""

        return LocalUnitaryPair(self.u_alice @ other.u_alice,
                                self.u_bob @ other.u_bob,
                                name=_join_names(self.name, other.name))


def _join_names(after: str, before: str) -> str:
    if not before or before == "I⊗I":
        return after
    if not after or after == "I⊗I":
        return before
    a_after, b_after = after.split("⊗")
    a_before, b_before = before.split("⊗")
    return f"{_word(a_after, a_before)}⊗{_word(b_after, b_before)}"


def _word(after: str, before: str) -> str:
    if before == "I":
        return after
    if after == "I":
        return before
    return f"{after}{before}"


IDENTITY_PAIR = LocalUnitaryPair(I2, I2, name="I⊗I")


@dataclass(frozen=True)
class PermutationAction:
    """Result of a Bell-aligned pair: the induced permutation and the unit
    phase picked up by each Bell state."""

    perm: tuple[int, int, int, int]
    phases: tuple[complex, complex, complex, complex]


def permutation_action(pair: LocalUnitaryPair,
                       tol: float = PHASE_ALIGN_TOL) -> PermutationAction | None:
    """Apply U_A x U_B to each Bell state and read off the permutation.

    Returns None (a failure value, not an error) when some image is not a
    Bell state up to a unit phase within `tol`.
    """

    u = pair.tensor()
    images = u @ BELL_AMPLITUDES.T  # column i is the image of Phi_{i+1}
    overlaps = BELL_AMPLITUDES.conj() @ images  # overlaps[k, i] = <Phi_k+1 | image_i>
    perm = []
    phases = []
    for i in range(4):
        k = int(np.argmax(np.abs(overlaps[:, i])))
        c = overlaps[k, i]
        if abs(abs(c) - 1.0) > tol:
            return None
        perm.append(k + 1)
        phases.append(complex(c / abs(c)))
    if sorted(perm) != [1, 2, 3, 4]:
        return None
    return PermutationAction(tuple(perm), tuple(phases))


def _phase_normalized(u: np.ndarray) -> np.ndarray:
    """Divide out the phase of the first large entry (all nonzero entries of
    the generated matrices have magnitude >= 1/2, far above rounding noise)."""

    flat = u.ravel()
    ref = int(np.argmax(np.abs(flat) > 0.4))
    return flat * (abs(flat[ref]) / flat[ref])


def _canonical_key(pair: LocalUnitaryPair) -> bytes:
    """Key for the pair up to a phase on each side.  Per-side phases rotate
    all four Bell images jointly, so alignment and the induced permutation
    are unaffected; deduplicating this way keeps the closure at 576 nodes."""

    # adding complex zero collapses -0.0 to +0.0 so byte keys are stable
    a = np.round(_phase_normalized(pair.u_alice), 6) + (0.0 + 0.0j)
    b = np.round(_phase_normalized(pair.u_bob), 6) + (0.0 + 0.0j)
    return a.tobytes() + b.tobytes()


# The per-side phase classes form a group of order 24 each (generated by the
# phase gate and Hadamard), so the closure has at most 576 distinct nodes.
# The search stops as soon as all 24 permutations have an entry, at the
# 515th node, partway through the fourth level (words of length four); a
# table entry is only set on first discovery, so stopping there gives the
# same table as exhausting the closure.
_MAX_BFS_DEPTH = 12


@lru_cache(maxsize=1)
def permutation_table() -> dict[tuple[int, int, int, int], LocalUnitaryPair]:
    """Breadth-first search over the generator pairs, deduplicated by induced
    permutation, until all 24 permutations are reached."""

    table: dict[tuple[int, int, int, int], LocalUnitaryPair] = {}
    seen = {_canonical_key(IDENTITY_PAIR)}
    frontier = [IDENTITY_PAIR]
    action = permutation_action(IDENTITY_PAIR)
    table[action.perm] = IDENTITY_PAIR
    steps = [LocalUnitaryPair(g, h, name=f"{ga}⊗{gb}")
             for ga, g in GENERATORS.items() for gb, h in GENERATORS.items()]
    for _ in range(_MAX_BFS_DEPTH):
        if not frontier:
            break
        next_frontier = []
        for node in frontier:
            for step in steps:
                candidate = step.compose(node)
                key = _canonical_key(candidate)
                if key in seen:
                    continue
                seen.add(key)
                next_frontier.append(candidate)
                act = permutation_action(candidate)
                if act is not None and act.perm not in table:
                    table[act.perm] = candidate
                    if len(table) == len(ALL_PERMUTATIONS):
                        return table
        frontier = next_frontier
    return table


def local_permutation_search(target) -> LocalUnitaryPair:
    """A local unitary pair whose Bell action equals the target permutation.

    The closure always contains all 24 permutations; a miss would falsify
    the construction and raises.
    """

    target = check_permutation(target)
    table = permutation_table()
    if target not in table:
        raise RuntimeError(
            f"no local unitary pair found for permutation {target}; "
            "the generator closure should realize all 24 permutations"
        )
    return table[target]
