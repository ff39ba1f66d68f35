import hashlib
import json
from fractions import Fraction
from math import ceil, comb

import pytest

from hqperc import (
    DomainError,
    VertexSet,
    bound_report,
    closure,
    construct,
    construction_size,
    formula_m2,
    formula_m3,
    formula_m4,
    lower_bound,
    search_percolating_set,
    upper_bound_m4,
)

LOWER_R4_BY_DIM = {
    4: 8, 5: 13, 6: 18, 7: 26, 8: 35, 9: 47,
    10: 61, 11: 78, 12: 98, 13: 122, 14: 148, 15: 179,
}


def rational_lower_bound(d, r):
    total = Fraction(1 << (r - 1))
    for j in range(1, r):
        total += Fraction(comb(d - j - 1, r - j) * j * (1 << (j - 1)), r)
    return ceil(total)


def test_lower_bound_examples():
    assert lower_bound(4, 4) == 8
    assert lower_bound(6, 4) == 18
    assert lower_bound(5, 4) == 13


def test_lower_bound_across_catalog_dimensions():
    for d, expected in LOWER_R4_BY_DIM.items():
        assert lower_bound(d, 4) == expected


def test_lower_bound_matches_rational_reference():
    for r in range(1, 7):
        for d in range(r, 201):
            assert lower_bound(d, r) == rational_lower_bound(d, r)


def test_lower_bound_domain():
    with pytest.raises(DomainError):
        lower_bound(3, 4)
    with pytest.raises(DomainError):
        lower_bound(4, 0)


def test_formulas():
    assert formula_m2(2) == 2
    assert formula_m3(8) == 16
    assert formula_m3(3) == 4
    assert formula_m4(12) == 98
    assert formula_m4(16) == 213
    assert formula_m4(4) == 8
    with pytest.raises(DomainError):
        formula_m2(1)
    with pytest.raises(DomainError):
        formula_m3(2)
    with pytest.raises(DomainError):
        formula_m4(3)


def test_upper_bound_m4():
    assert upper_bound_m4(5) == 14
    assert upper_bound_m4(17) == 272
    assert upper_bound_m4(16) == 213 + 20
    assert upper_bound_m4(4) == 8
    with pytest.raises(DomainError):
        upper_bound_m4(3)


@pytest.mark.parametrize(
    "func, args, message",
    [
        (closure, (VertexSet.empty(3), 4), "threshold 4 needs dimension >= 4, got 3"),
        (search_percolating_set, (3, 4, 1), "threshold 4 needs dimension >= 4, got 3"),
        (construct, (3, 4), "threshold 4 needs dimension >= 4, got 3"),
        (lower_bound, (2, 3), "threshold 3 needs dimension >= 3, got 2"),
        (formula_m2, (1,), "threshold 2 needs dimension >= 2, got 1"),
        (formula_m2, (2.5,), "threshold 2 needs dimension >= 2, got 2.5"),
        (formula_m3, (2,), "threshold 3 needs dimension >= 3, got 2"),
        (formula_m3, (True,), "threshold 3 needs dimension >= 3, got True"),
        (formula_m4, (3,), "threshold 4 needs dimension >= 4, got 3"),
        (upper_bound_m4, (3,), "threshold 4 needs dimension >= 4, got 3"),
    ],
)
def test_threshold_above_dimension_has_one_message(func, args, message):
    with pytest.raises(DomainError) as err:
        func(*args)
    assert str(err.value) == message


def test_lower_bound_meets_closed_form_on_its_residues():
    for d in range(4, 201):
        gap = formula_m4(d) - lower_bound(d, 4)
        assert gap in (0, 1)
        if d % 6 in (0, 4):
            assert gap == 0


def test_bound_report_exact_at_10():
    report = bound_report(10, 4)
    assert (report.lower, report.upper, report.exact, report.gap) == (61, 61, 61, 0)


def test_bound_report_gap_at_5():
    report = bound_report(5, 4)
    assert (report.lower, report.upper, report.exact, report.gap) == (13, 14, None, 1)


def test_bound_report_r3_at_9():
    report = bound_report(9, 3)
    assert report.exact == 19


def test_bound_report_consistency():
    for r in (1, 2, 3, 4):
        for d in range(max(r, 2), 61):
            report = bound_report(d, r)
            assert report.lower <= report.upper
            assert (report.exact is not None) == (report.gap == 0)
    with pytest.raises(DomainError):
        bound_report(10, 5)


def test_construct_sizes_match_formulas_small_thresholds():
    for d in range(2, 31):
        assert construction_size(d, 2) == formula_m2(d)
    for d in range(3, 31):
        assert construction_size(d, 3) == formula_m3(d)


def test_report_json_carries_ceiling_note():
    payload = bound_report(5, 4).to_json()
    assert payload["lower_note"] == "ceiled rational bound"
    assert payload["gap"] == 1 and payload["exact"] is None


def test_report_json_is_pinned():
    # every report the table reaches, as the CLI's key-sorted dump
    digest = hashlib.sha256()
    for r in range(1, 5):
        for d in range(r, 201):
            payload = bound_report(d, r).to_json()
            digest.update((json.dumps(payload, sort_keys=True) + "\n").encode())
    assert digest.hexdigest() == (
        "f33d2bf6b4933fdc6b9a62afecf785af81f23116f927927a9356259bcc898f34"
    )
