"""The two parties and the dense size cap.

A dense state on q qubits lives on the copy-major register implied by its
array: axis 2j - 2 is Alice's qubit A_j of copy j and axis 2j - 1 is Bob's
B_j.  The basis index convention is big-endian: axis 0 is the most
significant bit.
"""

from __future__ import annotations

ALICE = "alice"
BOB = "bob"

# Dense linear algebra is capped here; larger instances must use the
# sparse Bell-diagonal representation.
MAX_DENSE_QUBITS = 12


def check_dense_size(n_qubits: int) -> None:
    if n_qubits > MAX_DENSE_QUBITS:
        raise ValueError(
            f"dense operations are capped at {MAX_DENSE_QUBITS} qubits "
            f"(got {n_qubits}); use the Bell-diagonal representation instead"
        )
