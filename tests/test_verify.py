from typing import Optional

from mostar.verify import BICYCLIC, TRICYCLIC


# the per-class functions the ClassSpec table replaced, kept verbatim as the
# reference for every size the table must reproduce
def reference_tricyclic_max(m: int) -> Optional[int]:
    table = {7: 12, 8: 23, 9: 36, 10: 53, 11: 72}
    if m in table:
        return table[m]
    if m >= 12:
        return m * m - m - 36
    return None


def reference_tricyclic_families(m: int) -> tuple[str, ...]:
    table = {
        7: ("F1", "H1"),
        8: ("A3", "F1", "H1"),
        9: ("A2", "A3", "A4", "A5", "A6", "F1", "H1"),
        10: ("A2",),
        11: ("A1", "A2"),
    }
    if m in table:
        return table[m]
    if m >= 12:
        return ("A0",)
    return ()


def reference_bicyclic_max(m: int) -> Optional[int]:
    if m == 5:
        return 4
    if 6 <= m <= 8:
        return m * m - 3 * m - 6
    if m == 9:
        return 48
    if m >= 10:
        return m * m - m - 24
    return None


def reference_bicyclic_families(m: int) -> tuple[str, ...]:
    if m == 5:
        return ("B3", "B4")
    if 6 <= m <= 8:
        return ("B1", "B3")
    if m == 9:
        return ("B0", "B1", "B2", "B3", "B4")
    if m >= 10:
        return ("B0",)
    return ()


def test_class_tables_match_reference():
    """Below the statement (None, ()), the listed sizes and the quadratic
    tail, for every m in 0..40."""
    for m in range(41):
        assert TRICYCLIC.expected_max(m) == reference_tricyclic_max(m), m
        assert TRICYCLIC.expected_families(m) == reference_tricyclic_families(m), m
        assert BICYCLIC.expected_max(m) == reference_bicyclic_max(m), m
        assert BICYCLIC.expected_families(m) == reference_bicyclic_families(m), m
