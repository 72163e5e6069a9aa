"""Local unitary pairs that permute the Bell basis, in exact arithmetic.

A pair (U_A, U_B) acts on one copy as U_A x U_B.  When every Bell state is
mapped to another Bell state up to a unit phase, the pair induces a
permutation of the four indices.  Every permutation is one Klein
relabeling after one permutation fixing index 1 (S4 = V4 x| S3): the
one-sided Paulis P x I give the four Klein relabelings, and the conjugate
Clifford pairs C x C* fix Phi1 and permute Phi2..Phi4 in all 3! ways, so the
4 x 6 pairs (P C) x C* realize every permutation exactly once.

A gate u, a 2x2 matrix of Gaussian integers, stands for u / sqrt(2)^k where
u u^dag = 2^k I (H = [[1, 1], [1, -1]] has k = 1).  With k < 52 its complex
sums and products stay exact integers below 2^53, so nothing here rounds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

from .bell import bell_index, check_permutation

_SCALES = {2 ** k: k for k in range(52)}  # 2^k -> k


def _mul(a, b):
    (a00, a01), (a10, a11), (b00, b01), (b10, b11) = *a, *b
    return ((a00 * b00 + a01 * b10, a00 * b01 + a01 * b11),
            (a10 * b00 + a11 * b10, a10 * b01 + a11 * b11))


def _conj(u):
    return tuple(tuple(z.conjugate() for z in row) for row in u)


I2, H, S = ((1, 0), (0, 1)), ((1, 1), (1, -1)), ((1, 0), (0, 1j))

# Phi_i = (P_i x I) Phi1 for the one-sided Pauli P_i, listed by Bell index
PAULIS = (("I", I2), ("Z", ((1, 0), (0, -1))), ("X", ((0, 1), (1, 0))),
          ("ZX", ((0, 1), (-1, 0))))

# The six Clifford classes modulo Paulis and phases: C x C* maps (P x I) Phi1 to
# (C P C^dag x I) Phi1, so it permutes Phi2..Phi4 as C permutes the Pauli axes.
# C* is C with S replaced by S* = ZS.
CLIFFORDS = (("I", I2), ("H", H), ("S", S), ("HS", _mul(H, S)), ("SH", _mul(S, H)),
             ("HSH", _mul(_mul(H, S), H)))

ALL_PERMUTATIONS = tuple(itertools.permutations((1, 2, 3, 4)))


@dataclass(frozen=True, eq=False)
class LocalUnitaryPair:
    """A 2x2 unitary for Alice and one for Bob, acting per copy, kept exactly:
    Alice's is u_alice / sqrt(2)^k_alice, and k_alice is read off the entries."""

    u_alice: tuple
    u_bob: tuple
    name: str = ""
    k_alice: int = field(init=False)
    k_bob: int = field(init=False)

    def __post_init__(self):
        for side in ("alice", "bob"):
            u = tuple(tuple(map(complex, row)) for row in getattr(self, f"u_{side}"))
            if len(u) != 2 or any(len(row) != 2 for row in u):
                raise ValueError(f"{side} operator must be 2x2")
            for z in u[0] + u[1]:
                if not (z.real.is_integer() and z.imag.is_integer()):  # NaN fails too
                    raise ValueError(f"{side} operator entry {z} is not a Gaussian integer")
            (g00, g01), (_, g11) = _mul(u, tuple(zip(*_conj(u))))  # u u^dag
            if g00 not in _SCALES or g01 != 0 or g11 != g00:
                raise ValueError(f"{side} operator is not sqrt(2)^k times a unitary, k < 52")
            object.__setattr__(self, f"u_{side}", u)
            object.__setattr__(self, f"k_{side}", _SCALES[g00])


class PermutationAction(NamedTuple):
    """A Bell-aligned pair's permutation and the unit phase of each Bell state."""

    perm: tuple[int, int, int, int]
    phases: tuple[complex, complex, complex, complex]


def permutation_action(pair: LocalUnitaryPair) -> PermutationAction | None:
    """Apply U_A x U_B to each Bell state and read off the permutation, exactly:
    as 2x2 amplitude matrices (rows Alice's bit) Phi_i is P_i / sqrt(2) and maps
    to U_A Phi_i U_B^T, a phase times Phi_j when u_alice P_i u_bob^T = lam P_j.
    The phase lam / sqrt(2)^(k_alice + k_bob) is +-1 or +-i when that k is even.
    Returns None (a failure value, not an error) when some image is not a Bell
    state up to a phase; a unitary pair gives distinct Bell states distinct images.
    """

    a, bt = pair.u_alice, tuple(zip(*pair.u_bob))
    scale = math.sqrt(2 ** (pair.k_alice + pair.k_bob))
    perm, phases = [], []
    for _, p in PAULIS:
        (m00, m01), (m10, m11) = _mul(_mul(a, p), bt)
        # Phi_j's parity bits (z, x): P_j is anti-diagonal for z = 1, and its two
        # entries are lam and -lam for x = 1
        z = m00 == 0
        lam, other, off = (m01, m10, (m00, m11)) if z else (m00, m11, (m01, m10))
        if off != (0, 0) or other not in (lam, -lam):
            return None
        perm.append(bell_index(z, other != lam))
        phases.append(complex(int(lam.real) / scale, int(lam.imag) / scale))  # no -0.0
    return PermutationAction(tuple(perm), tuple(phases))


@lru_cache(maxsize=1)
def _realizations() -> dict[tuple[int, int, int, int],
                            tuple[LocalUnitaryPair, PermutationAction]]:
    """`permutation_table`'s pairs, each with the action it was checked by."""

    table = {}
    for (p_name, p), (c_name, c) in itertools.product(PAULIS, CLIFFORDS):
        alice = "".join(w for w in (p_name, c_name) if w != "I") or "I"
        bob = c_name.replace("S", "ZS")
        pair = LocalUnitaryPair(_mul(p, c), _conj(c), name=f"{alice}⊗{bob}")
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
