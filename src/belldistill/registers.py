"""Qubit registers for two-party protocols.

A register is an ordered list of labeled qubits, each owned by Alice or Bob
and tagged with the copy it belongs to.  The basis index convention is
big-endian: the first qubit in the layout is the most significant bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

ALICE = "alice"
BOB = "bob"

# Dense linear algebra is capped here; larger instances must use the
# sparse Bell-diagonal representation.
MAX_DENSE_QUBITS = 12


@dataclass(frozen=True)
class QubitSpec:
    """One qubit: a unique label, its owner, and the copy it belongs to."""

    label: str
    owner: str
    copy: int

    def __post_init__(self):
        if self.owner not in (ALICE, BOB):
            raise ValueError(f"owner must be {ALICE!r} or {BOB!r}, got {self.owner!r}")
        if self.copy < 1:
            raise ValueError(f"copy index must be >= 1, got {self.copy}")


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered qubit register; order defines the basis index (big-endian)."""

    qubits: tuple[QubitSpec, ...]

    def __post_init__(self):
        labels = [q.label for q in self.qubits]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate qubit labels in layout: {labels}")

    @classmethod
    def bell_pairs(cls, n: int) -> "RegisterLayout":
        """Canonical layout for n copies: A1,B1,A2,B2,...,An,Bn (copy-major)."""
        if n < 1:
            raise ValueError(f"need at least one copy, got n={n}")
        qubits = []
        for c in range(1, n + 1):
            qubits.append(QubitSpec(f"A{c}", ALICE, c))
            qubits.append(QubitSpec(f"B{c}", BOB, c))
        return cls(tuple(qubits))

    @property
    def n_qubits(self) -> int:
        return len(self.qubits)

    @property
    def dim(self) -> int:
        return 2 ** self.n_qubits

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(q.label for q in self.qubits)

    @property
    def n_copies(self) -> int:
        return max(q.copy for q in self.qubits)

    def index_of(self, label: str) -> int:
        for k, q in enumerate(self.qubits):
            if q.label == label:
                return k
        raise ValueError(f"unknown qubit label {label!r}; layout has {self.labels}")

    def axes_of(self, labels: Iterable[str]) -> list[int]:
        return [self.index_of(l) for l in labels]

    def owner_labels(self, owner: str) -> tuple[str, ...]:
        return tuple(q.label for q in self.qubits if q.owner == owner)

    def subset(self, labels: Iterable[str]) -> "RegisterLayout":
        """Sub-layout of the given labels, keeping this layout's order."""
        wanted = set(labels)
        missing = wanted - set(self.labels)
        if missing:
            raise ValueError(f"unknown qubit labels {sorted(missing)}")
        return RegisterLayout(tuple(q for q in self.qubits if q.label in wanted))

    def reordered(self, new_order: Sequence[str]) -> "RegisterLayout":
        if sorted(new_order) != sorted(self.labels):
            raise ValueError("new order must be a permutation of the layout labels")
        by_label = {q.label: q for q in self.qubits}
        return RegisterLayout(tuple(by_label[l] for l in new_order))


def check_dense_size(n_qubits: int) -> None:
    if n_qubits > MAX_DENSE_QUBITS:
        raise ValueError(
            f"dense operations are capped at {MAX_DENSE_QUBITS} qubits "
            f"(got {n_qubits}); use the Bell-diagonal representation instead"
        )
