import pytest

from belldistill import QubitSpec, RegisterLayout
from belldistill.registers import check_dense_size


def test_bell_pairs_layout_is_copy_major():
    layout = RegisterLayout.bell_pairs(3)
    assert layout.labels == ("A1", "B1", "A2", "B2", "A3", "B3")
    assert layout.n_qubits == 6
    assert layout.n_copies == 3
    assert layout.owner_labels("alice") == ("A1", "A2", "A3")


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        RegisterLayout((QubitSpec("A1", "alice", 1), QubitSpec("A1", "bob", 1)))


def test_bad_owner_rejected():
    with pytest.raises(ValueError, match="owner"):
        QubitSpec("A1", "carol", 1)


def test_index_and_subset():
    layout = RegisterLayout.bell_pairs(2)
    assert layout.index_of("A2") == 2
    with pytest.raises(ValueError, match="unknown"):
        layout.index_of("C1")
    sub = layout.subset(["B2", "A1"])
    assert sub.labels == ("A1", "B2")


def test_dense_cap():
    check_dense_size(12)
    with pytest.raises(ValueError, match="Bell-diagonal"):
        check_dense_size(13)
