import random

import pytest

from hqperc import (
    COMPLETION,
    PROMOTION,
    DomainError,
    FormatError,
    Labeling,
    VertexSet,
    catalog_labeling,
    format_labeling,
    format_vertex,
    meta_fixpoint,
    meta_percolates,
    meta_step,
    parse_labeling,
    percolates,
    schedule_oracle,
)


def random_labeling(rng, k, r):
    return Labeling(k, r, tuple(rng.randint(0, r) for _ in range(1 << k)))


def reference_meta_step(labeling):
    """Independent sweep: explicit neighbour lists and a counting-based order statistic."""
    k, r, labels = labeling.k, labeling.r, labeling.labels
    out = list(labels)
    for v in range(1 << k):
        cur = labels[v]
        if cur >= r:
            continue
        nb = [labels[v ^ (1 << i)] for i in range(k)]
        if sum(1 for lab in nb if lab == r) >= r - cur:
            out[v] = r
            continue
        if sum(1 for lab in nb if lab > cur) >= r:
            remaining = r
            for value in range(r, -1, -1):
                remaining -= nb.count(value)
                if remaining <= 0:
                    out[v] = value
                    break
    return Labeling(k, r, tuple(out))


def test_all_r_labeling_is_fixed():
    lab = Labeling.constant(3, 3, 3)
    assert meta_step(lab) == lab
    assert meta_percolates(lab)


def test_all_zero_labeling_is_fixed_and_dead():
    for k in (1, 2, 4):
        for r in (1, 2, 4):
            lab = Labeling.constant(k, r, 0)
            assert meta_step(lab) == lab
            assert not meta_percolates(lab)


def test_completion_in_q1():
    lab = Labeling(1, 1, (0, 1))
    stepped = meta_step(lab)
    assert stepped.labels == (1, 1)


def test_completion_needs_enough_full_neighbours():
    # a label-1 vertex next to one label-3 vertex in Q_2 (r=3) gains nothing
    lab = Labeling.of(2, 3, {0: 1, 1: 3})
    assert meta_step(lab).labels[0] == 1
    # with two label-3 neighbours the completion rule fires
    lab = Labeling.of(2, 3, {0: 1, 1: 3, 2: 3})
    assert meta_step(lab).labels[0] == 3


def test_promotion_takes_rth_highest_with_multiplicity():
    # vertex 0 of Q_2 with neighbours labeled 2 and 1 at r=2: promoted to 1
    lab = Labeling.of(2, 2, {1: 2, 2: 1})
    assert meta_step(lab).labels[0] == 1


def test_catalog_labelings_reach_all_r():
    for k, r in ((3, 3), (6, 3), (4, 4), (12, 4)):
        lab = catalog_labeling(k)
        assert lab.r == r
        assert meta_fixpoint(lab).is_all(r)
        assert meta_percolates(lab)


def test_labels_never_decrease():
    rng = random.Random(41)
    for _ in range(300):
        k = rng.randint(1, 4)
        r = rng.randint(1, 4)
        lab = random_labeling(rng, k, r)
        stepped = meta_step(lab)
        assert all(b >= a for a, b in zip(lab.labels, stepped.labels))


def test_meta_step_matches_reference_sweep():
    # whole trajectories to the fixed point, including thresholds above k.  Two fixed
    # labelings come first: a label-3 vertex of Q_8 whose 8 neighbours all hold r = 4, so
    # its completion count (8 neighbours and 3 lower levels) wraps ceil(log2 4) = 2 planes
    # more than once, and an r = 1 labeling, whose counter has no planes
    rng = random.Random(43)
    starts = [Labeling.of(8, 4, {0: 3} | {1 << i: 4 for i in range(8)}),
              Labeling.of(4, 1, {0b0101: 1})]
    starts += [random_labeling(rng, rng.randint(1, 7), rng.randint(1, 6)) for _ in range(400)]
    for start in starts:
        lab = start
        while True:
            stepped = meta_step(lab)
            assert stepped == reference_meta_step(lab)
            if stepped == lab:
                break
            lab = stepped
        assert meta_fixpoint(start) == lab
        assert meta_percolates(start) == lab.is_all(start.r)
    # meta_l12 takes 58 sweeps, the last of which changes nothing
    lab = catalog_labeling(12)
    sweeps = 0
    while True:
        stepped = meta_step(lab)
        sweeps += 1
        if stepped == lab:
            break
        lab = stepped
    assert sweeps == 58 and lab.is_all(4)


def test_meta_percolates_reads_the_top_level_of_the_fixpoint():
    # fixed with H_1 = H_2 = Q_2 and H_3 empty: no vertex has label 3 for
    # completion, and Q_2 has too few neighbours for promotion to level 3
    lab = Labeling.constant(2, 3, 2)
    assert meta_fixpoint(lab) == lab
    assert not meta_percolates(lab)


def test_empty_schedule_equals_fixpoint():
    lab = catalog_labeling(4)
    assert schedule_oracle(lab, []) == meta_fixpoint(lab)


def test_random_schedules_on_catalog_q4_all_reach_four():
    rng = random.Random(47)
    lab = catalog_labeling(4)
    for _ in range(100):
        schedule = [
            (rng.randrange(16), rng.choice((COMPLETION, PROMOTION))) for _ in range(30)
        ]
        assert schedule_oracle(lab, schedule).is_all(4)


def test_forward_and_reversed_schedules_agree():
    lab = catalog_labeling(3)
    forward = [(v, rule) for v in range(8) for rule in (COMPLETION, PROMOTION)]
    assert schedule_oracle(lab, forward) == schedule_oracle(lab, list(reversed(forward)))
    assert schedule_oracle(lab, forward) == meta_fixpoint(lab)


def test_schedule_confluence_on_random_labelings():
    rng = random.Random(53)
    for _ in range(60):
        k = rng.randint(1, 4)
        r = rng.randint(1, 4)
        lab = random_labeling(rng, k, r)
        target = meta_fixpoint(lab)
        for _ in range(10):
            schedule = [
                (rng.randrange(1 << k), rng.choice((COMPLETION, PROMOTION)))
                for _ in range(rng.randint(0, 20))
            ]
            assert schedule_oracle(lab, schedule) == target


def test_support_of_a_meta_percolating_labeling_percolates():
    # the support lemma: a vertex gains a nonzero label only with r nonzero neighbours
    rng = random.Random(18)
    hits = 0
    for _ in range(1000):
        k, r = rng.choice((4, 5)), rng.randint(2, 4)
        lab = random_labeling(rng, k, r)
        if meta_percolates(lab):
            hits += 1
            support = VertexSet.of(k, (v for v, label in enumerate(lab.labels) if label))
            assert percolates(support, r), lab
    assert hits > 300


def test_two_valued_labelings_specialize_to_plain_bootstrap():
    # labels in {0, r}: the meta process is the r-neighbour process on the label-r set
    for k in (1, 2, 3):
        for r in range(1, k + 1):
            for mask in range(1 << (1 << k)):
                lab = Labeling(
                    k, r, tuple(r if (mask >> v) & 1 else 0 for v in range(1 << k))
                )
                seed = VertexSet(k, mask)
                assert meta_percolates(lab) == percolates(seed, r)


def test_two_valued_specialization_randomized_q4():
    rng = random.Random(59)
    for _ in range(400):
        r = rng.randint(1, 4)
        mask = rng.getrandbits(16)
        lab = Labeling(4, r, tuple(r if (mask >> v) & 1 else 0 for v in range(16)))
        assert meta_percolates(lab) == percolates(VertexSet(4, mask), r)


def async_fixpoint(lab, rng):
    """Fully independent reference: apply one applicable move at a time until none."""
    k, r = lab.k, lab.r
    labels = list(lab.labels)
    while True:
        moves = []
        for v in range(1 << k):
            cur = labels[v]
            if cur >= r:
                continue
            nb = [labels[v ^ (1 << i)] for i in range(k)]
            if sum(1 for x in nb if x == r) >= r - cur:
                moves.append((v, r))
            elif sum(1 for x in nb if x > cur) >= r:
                ranked = sorted(nb, reverse=True)[r - 1]
                if ranked > cur:
                    moves.append((v, ranked))
        if not moves:
            return tuple(labels)
        v, new = rng.choice(moves)
        labels[v] = new


def test_synchronous_fixpoint_matches_one_move_at_a_time():
    rng = random.Random(61)
    for _ in range(400):
        k = rng.randint(1, 4)
        r = rng.randint(1, 4)
        lab = random_labeling(rng, k, r)
        assert meta_fixpoint(lab).labels == async_fixpoint(lab, rng)


def test_schedule_rejects_bad_vertex_or_rule(caplog):
    lab = Labeling.constant(2, 2, 0)
    with pytest.raises(DomainError):
        schedule_oracle(lab, [(9, COMPLETION)])
    with pytest.raises(DomainError):
        schedule_oracle(lab, [(0, 7)])
    # on a vertex already at label r too, rather than skipped as inapplicable
    with pytest.raises(DomainError, match="unknown rule 99"):
        schedule_oracle(Labeling.constant(2, 2, 2), [(0, 99)])
    assert not caplog.records


def test_schedule_skips_inapplicable_entries_silently(caplog):
    lab = Labeling.constant(2, 2, 0)  # no neighbour holds label 2 or a higher label
    assert schedule_oracle(lab, [(0, COMPLETION), (1, PROMOTION)]) == meta_fixpoint(lab)
    assert not caplog.records


def test_labeling_stores_its_labels_as_a_tuple():
    listed = Labeling(2, 2, [0, 1, 2, 0])
    assert listed.labels == (0, 1, 2, 0)
    assert listed == Labeling(2, 2, (0, 1, 2, 0))
    assert hash(listed) == hash(Labeling(2, 2, (0, 1, 2, 0)))
    with pytest.raises(TypeError):
        listed.labels[0] = 9
    with pytest.raises(AttributeError):
        listed.labels = (2, 2, 2, 2)


def test_labeling_validation():
    with pytest.raises(DomainError):
        Labeling(2, 2, (0, 1, 2))  # wrong length
    with pytest.raises(DomainError):
        Labeling(2, 2, (0, 1, 2, 3))  # label above r
    with pytest.raises(DomainError):
        Labeling(2, 0, (0, 0, 0, 0))
    with pytest.raises(DomainError):
        Labeling(2, True, (0, 0, 0, 0))  # bool threshold
    for bad in (1.5, True):
        with pytest.raises(DomainError):
            Labeling(2, 2, (0, bad, 0, 0))  # labels must be plain integers
    for v in (-1, 8):
        with pytest.raises(DomainError):
            Labeling.of(3, 3, {v: 2})


def test_histogram():
    assert catalog_labeling(12).histogram() == (55, 33, 9, 1)
    assert Labeling.constant(2, 3, 0).histogram() == (0, 0, 0)


def test_labeling_format_round_trip():
    lab = catalog_labeling(6)
    text = format_labeling(lab)
    assert parse_labeling(text, 6, 3) == lab


def test_labeling_parse_errors():
    with pytest.raises(FormatError) as err:
        parse_labeling("000 1\n000 2\n", 3, 3)
    assert "line 2" in str(err.value) and "duplicate" in str(err.value)

    with pytest.raises(FormatError) as err:
        parse_labeling("000 4\n", 3, 3)
    assert "label" in str(err.value)

    with pytest.raises(FormatError):
        parse_labeling("00 1\n", 3, 3)

    with pytest.raises(FormatError):
        parse_labeling("000 x\n", 3, 3)

    with pytest.raises(FormatError):
        parse_labeling("# k: 4\n000 1\n", 3, 3)

    with pytest.raises(FormatError):
        parse_labeling("# expected-size: 2\n000 1\n", 3, 3)

    with pytest.raises(FormatError, match="line 1: bad k value 'x'"):
        parse_labeling("# k: x\n000 1\n", 3, 3)

    with pytest.raises(FormatError, match="line 2: expected '<vertex> <label>', got '001 1 2'"):
        parse_labeling("000 1\n001 1 2\n", 3, 3)

    with pytest.raises(FormatError, match="file declares r=4 but 3 was requested"):
        parse_labeling("# r: 4\n000 1\n", 3, 3)


def test_labeling_labels_are_ascii_decimal():
    # int() alone would read these as 3 and 10, both valid labels at r = 10
    for label in ("\u0663", "1_0"):
        with pytest.raises(FormatError, match=f"line 2: bad label '{label}'"):
            parse_labeling(f"# k: 3\n000 {label}\n", 3, 10)


@pytest.mark.parametrize("name", ["expected-size", "k", "r"])
@pytest.mark.parametrize("value", ["1_0", "\u0661", "+2"])
def test_labeling_directives_are_ascii_decimal(name, value):
    # int() alone reads each value as n, which the file below matches for every name
    n = int(value)
    entries = "".join(f"{format_vertex(v, n)} 1\n" for v in range(n))
    with pytest.raises(FormatError) as err:
        parse_labeling(f"# {name}: {value}\n" + entries, n, n)
    assert str(err.value) == f"line 1: bad {name} value {value!r}"
    assert parse_labeling(f"# {name}: {n}\n" + entries, n, n).histogram()[0] == n


def test_labeling_directive_repeats():
    with pytest.raises(FormatError) as err:
        parse_labeling("# r: 3\n# r: 4\n000 1\n", 3, 3)
    assert str(err.value) == "line 2: conflicting r directives"
    lab = parse_labeling("# r: 3\n000 1\n# r: 03\n", 3, 3)
    assert lab.labels[0] == 1


def test_labeling_parse_defaults_unlisted_to_zero():
    lab = parse_labeling("# comment\n110 2\n", 3, 3)
    assert lab.labels[3] == 2
    assert sum(lab.labels) == 2
