"""Local unitary pairs that permute the Bell basis.

A pair (U_A, U_B) acts on one copy as U_A x U_B.  When every Bell state is
mapped to another Bell state up to a unit phase, the pair induces a
permutation of the four indices.  Every permutation is one Klein
relabeling after one permutation fixing index 1 (S4 = V4 x| S3): the
one-sided Paulis P x I give the four Klein relabelings, and the conjugate
Clifford pairs C x C* fix Phi1 and permute Phi2..Phi4 in all 3! ways, so the
4 x 6 pairs (P C) x C* realize every permutation exactly once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .bell import BELL_AMPLITUDES, check_permutation
from .states import _kron

PHASE_ALIGN_TOL = 1e-9
UNITARY_TOL = 1e-11

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
S = np.array([[1, 0], [0, 1j]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)

# Phi_i = (P_i x I) Phi1 for the one-sided Pauli P_i, listed by Bell index, so
# P_i x I also maps Phi_i back to Phi1 up to a phase.  They act monomially on
# the computational basis and realize the Klein four-group of relabelings.
PAULIS = (("I", I2), ("Z", Z), ("X", X), ("ZX", Z @ X))

# The six single-qubit Clifford classes modulo Paulis and phases.  Since
# (C x C*) Phi1 = Phi1, the pair maps (P x I) Phi1 to (C P C^dag x I) Phi1: it
# permutes Phi2..Phi4 as C permutes the Pauli axes.  C* is C with S replaced
# by S* = ZS.
CLIFFORDS = (("I", I2), ("H", H), ("S", S), ("HS", H @ S), ("SH", S @ H),
             ("HSH", H @ S @ H))

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
            if not err <= UNITARY_TOL:  # NaN fails too
                raise ValueError(f"{side} operator is not unitary (error {err:.2e})")
            u.flags.writeable = False
            object.__setattr__(self, f"u_{side}", u)

    def tensor(self) -> np.ndarray:
        return _kron([self.u_alice, self.u_bob])


class PermutationAction(NamedTuple):
    """Result of a Bell-aligned pair: the induced permutation and the unit
    phase picked up by each Bell state."""

    perm: tuple[int, int, int, int]
    phases: tuple[complex, complex, complex, complex]


def permutation_action(pair: LocalUnitaryPair) -> PermutationAction | None:
    """Apply U_A x U_B to each Bell state and read off the permutation.

    Returns None (a failure value, not an error) when some image is not a
    Bell state up to a unit phase within `PHASE_ALIGN_TOL`.
    """

    u = pair.tensor()
    images = u @ BELL_AMPLITUDES.T  # column i is the image of Phi_{i+1}
    overlaps = BELL_AMPLITUDES.conj() @ images  # overlaps[k, i] = <Phi_k+1 | image_i>
    perm = []
    phases = []
    for i in range(4):
        k = int(np.argmax(np.abs(overlaps[:, i])))
        c = overlaps[k, i]
        if abs(abs(c) - 1.0) > PHASE_ALIGN_TOL:
            return None
        perm.append(k + 1)
        phases.append(complex(c / abs(c)))
    if sorted(perm) != [1, 2, 3, 4]:
        return None
    return PermutationAction(tuple(perm), tuple(phases))


@lru_cache(maxsize=1)
def _realizations() -> dict[tuple[int, int, int, int],
                            tuple[LocalUnitaryPair, PermutationAction]]:
    """`permutation_table`'s pairs, each with the action it was checked by."""

    table = {}
    for (p_name, p), (c_name, c) in itertools.product(PAULIS, CLIFFORDS):
        alice = "".join(w for w in (p_name, c_name) if w != "I") or "I"
        bob = c_name.replace("S", "ZS")
        pair = LocalUnitaryPair(p @ c, c.conj(), name=f"{alice}⊗{bob}")
        action = permutation_action(pair)
        if action is None or action.perm in table:
            raise RuntimeError(f"{pair.name} does not realize a new Bell permutation")
        table[action.perm] = pair, action
    return table


def permutation_table() -> dict[tuple[int, int, int, int], LocalUnitaryPair]:
    """The 24 pairs (P C) x C*, keyed by the permutation each induces.

    Every pair is checked by `permutation_action`, once per process; one
    that does not align, or two that induce the same permutation, raise, so
    a returned table certifies that all 24 permutations are realized.
    """

    return {perm: pair for perm, (pair, _) in _realizations().items()}


def local_permutation_search(target) -> LocalUnitaryPair:
    """A local unitary pair whose Bell action equals the target permutation."""

    return permutation_table()[check_permutation(target)]
