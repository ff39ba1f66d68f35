import itertools
import random
from math import comb

import pytest

import hqperc.bootstrap as bootstrap
from hqperc import (
    DomainError,
    SearchAborted,
    VertexSet,
    catalog_seed,
    closure,
    layer,
    percolates,
    reference_closure,
    search_percolating_set,
    seed_r2,
    step,
    trace,
    weight,
)
from hqperc.bootstrap import closure_rounds


def even_weight(d):
    return VertexSet.of(d, [v for v in range(1 << d) if weight(v) % 2 == 0])


def test_closure_of_empty_is_empty():
    for d in range(1, 6):
        for r in range(1, d + 1):
            assert closure(VertexSet.empty(d), r) == VertexSet.empty(d)


def test_closure_of_full_is_full():
    for d in range(1, 6):
        assert closure(VertexSet.full(d), d) == VertexSet.full(d)


def test_even_weight_q3_percolates_in_one_round():
    history = trace(even_weight(3), 3)
    assert history.percolated
    assert len(history.rounds) == 2
    assert history.rounds[1] == VertexSet.full(3)


def test_pair_seed_percolates_at_two():
    assert percolates(seed_r2(4), 2)


def test_single_vertex_floods_at_one():
    for d in (1, 3, 5, 8):
        assert percolates(VertexSet.of(d, [(1 << d) - 1]), 1)


def test_seeds_below_threshold_never_percolate():
    # exhaustive over all (r-1)-subsets for d <= 5, r <= 4
    for d in range(1, 6):
        for r in range(2, min(4, d) + 1):
            for members in itertools.combinations(range(1 << d), r - 1):
                assert not percolates(VertexSet.of(d, members), r)


def test_trace_of_fixed_point_has_length_one():
    assert len(trace(VertexSet.full(3), 3).rounds) == 1


def test_trace_rounds_are_monotone_and_bounded():
    rng = random.Random(5)
    for _ in range(100):
        d = rng.randint(1, 8)
        r = rng.randint(1, d)
        history = trace(VertexSet(d, rng.getrandbits(1 << d)), r)
        for earlier, later in zip(history.rounds, history.rounds[1:]):
            assert earlier.issubset(later) and earlier != later
        assert len(history.rounds) <= 1 << d
        assert history.rounds[-1] == closure(history.rounds[0], r)
        assert history.percolated == history.rounds[-1].is_full()


def test_trace_of_catalog_seed_reaches_full():
    history = trace(catalog_seed(4), 4)
    assert history.rounds[-1] == VertexSet.full(4)


def test_closure_rounds_matches_trace():
    rng = random.Random(17)
    for _ in range(50):
        d = rng.randint(1, 7)
        r = rng.randint(1, d)
        seed = VertexSet(d, rng.getrandbits(1 << d))
        closed, rounds = closure_rounds(seed, r)
        history = trace(seed, r)
        assert closed == history.rounds[-1]
        assert rounds == len(history.rounds) - 1


def test_block_round_matches_the_single_block_round():
    # cut into 2^(d-b) blocks, the round must yield the one-block round's states
    rng = random.Random(43)
    for d in range(1, 11):
        n = 1 << d
        # empty, full, a closed Q_(d-1) (it percolates only at r = 1), sparse random seeds, and
        # the r = 4 catalog seed with and without its top member (long runs, full and partial)
        seeds = [0, (1 << n) - 1, (1 << (n // 2)) - 1]
        seeds += [rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n) for _ in range(3)]
        if d >= 4:
            bits = catalog_seed(d).bits
            seeds += [bits, bits ^ 1 << (bits.bit_length() - 1)]
        for bits in seeds:
            for r in range(1, min(5, d) + 1):
                expected = [state for (state,) in bootstrap._rounds([bits], d, r)]
                for b in {1, 2, d - 1, d} & set(range(1, d + 1)):
                    low = (1 << (1 << b)) - 1
                    blocks = [bits >> (i << b) & low for i in range(1 << (d - b))]
                    got = [
                        sum(x << (i << b) for i, x in enumerate(state))
                        for state in bootstrap._rounds(blocks, b, r)
                    ]
                    assert got == expected, (d, r, b, bits)


def test_step_is_one_round_of_trace():
    seed = even_weight(3)
    assert step(seed, 3) == trace(seed, 3).rounds[1]


def test_threshold_validation():
    with pytest.raises(DomainError):
        closure(VertexSet.empty(3), 4)
    with pytest.raises(DomainError):
        closure(VertexSet.empty(3), 0)
    with pytest.raises(DomainError):
        percolates(VertexSet.empty(3), -1)


def test_engines_agree_exhaustively_small():
    for d in range(1, 4):
        for seed_bits in range(1 << (1 << d)):
            seed = VertexSet(d, seed_bits)
            for r in range(1, d + 1):
                assert closure(seed, r) == reference_closure(seed, r)


def test_engines_agree_randomized_d4():
    rng = random.Random(23)
    for _ in range(10_000):
        seed = VertexSet(4, rng.getrandbits(16))
        r = rng.randint(1, 4)
        assert closure(seed, r) == reference_closure(seed, r)


def test_engines_agree_on_sparse_and_clustered_seeds():
    # uniform random seeds mostly close in a round or two; sparse seeds and
    # balls around a centre drive long, partial infections instead
    rng = random.Random(37)
    for _ in range(1500):
        d = rng.randint(1, 8)
        r = rng.randint(1, d)
        n = 1 << d
        if rng.random() < 0.5:
            seed = VertexSet.of(d, rng.sample(range(n), rng.randint(0, max(1, n // 4))))
        else:
            centre = rng.randrange(n)
            radius = rng.randint(0, d)
            seed = VertexSet.of(
                d,
                [
                    v
                    for v in range(n)
                    if weight(v ^ centre) <= radius and rng.random() < 0.6
                ],
            )
        assert closure(seed, r) == reference_closure(seed, r)


def test_closure_extensive_idempotent_monotone():
    rng = random.Random(29)
    for _ in range(200):
        d = rng.randint(1, 10)
        r = rng.randint(1, d)
        a = VertexSet(d, rng.getrandbits(1 << d))
        b = a | VertexSet(d, rng.getrandbits(1 << d))
        ca = closure(a, r)
        assert a.issubset(ca)
        assert closure(ca, r) == ca
        assert ca.issubset(closure(b, r))
        if r >= 2:
            assert ca.issubset(closure(a, r - 1))


def test_infected_neighbour_counting_against_popcount_oracle():
    # one synchronous round vs a per-vertex popcount over explicit neighbourhoods
    rng = random.Random(31)
    for _ in range(300):
        d = rng.randint(1, 8)
        r = rng.randint(1, d)
        a = VertexSet(d, rng.getrandbits(1 << d))
        expected = set(a) | {
            v
            for v in range(1 << d)
            if sum(1 for i in range(d) if (v ^ (1 << i)) in a) >= r
        }
        assert step(a, r) == VertexSet.of(d, expected)


def test_search_no_triple_percolates_q3():
    assert search_percolating_set(3, 3, 3) is None


def test_search_no_seven_vertex_seed_q4():
    assert search_percolating_set(4, 4, 7) is None


def test_search_q2_finds_the_diagonal_first():
    # pairs in lexicographic order: {0,1} and {0,2} fail; {0,3} is the witness
    witness = search_percolating_set(2, 2, 2)
    assert witness == VertexSet.of(2, [0, 3])


def test_search_no_singleton_percolates_q2():
    assert search_percolating_set(2, 2, 1) is None


def test_search_finds_full_set():
    assert search_percolating_set(2, 2, 4) == VertexSet.full(2)


def test_search_budget_aborts_loudly():
    with pytest.raises(SearchAborted) as err:
        search_percolating_set(4, 4, 7, budget=100)
    assert "budget" in str(err.value)
    with pytest.raises(SearchAborted):
        search_percolating_set(5, 4, 13)  # C(32,13) blows the default budget


def test_search_size_validation():
    with pytest.raises(DomainError):
        search_percolating_set(3, 3, 9)
    with pytest.raises(DomainError):
        search_percolating_set(3, 3, -1)
    with pytest.raises(DomainError):
        search_percolating_set(3, 3, 3, budget=0)
    for size in (True, False, 8.0, 2.5, "3", None):
        with pytest.raises(DomainError):
            search_percolating_set(3, 3, size)
    for budget in (True, 100.0, "100"):
        with pytest.raises(DomainError):
            search_percolating_set(3, 3, 3, budget=budget)


def _first_percolating(d, r, size):
    # the full lexicographic scan over every size-subset of Q_d
    for members in itertools.combinations(range(1 << d), size):
        if percolates(VertexSet.of(d, members), r):
            return VertexSet.of(d, members)
    return None


def test_search_matches_the_full_lexicographic_scan():
    cases = [(d, r, size) for d in range(1, 5) for r in range(1, d + 1)
             for size in range((1 << d) + 1) if comb(1 << d, size) <= 5_000]
    cases += [(5, r, size) for r in range(1, 6) for size in range(5)]
    for d, r, size in cases:
        assert search_percolating_set(d, r, size, workers=1) == _first_percolating(d, r, size), (
            d, r, size)


def test_search_spaces_count_the_candidate_sets():
    # d = 5: the prefix spaces hold 5,620 of C(32, 5) = 201,376 and 55,332,732 of
    # C(32, 13) = 347,373,600 subsets
    for size, total in ((5, 5_620), (13, 55_332_732)):
        assert sum(count for *_, count in bootstrap._spaces(5, size)) == total


def test_jobs_split_the_combinations_in_order():
    rng = random.Random(9)
    for _ in range(30):
        pool = sorted(rng.sample(range(40), rng.randint(0, 12)))
        for pick in range(len(pool) + 1):
            for limit in (1, 2, 7, float("inf")):
                jobs = list(bootstrap._jobs((99,), pool, pick, limit))
                scanned = [(*prefix, *combo) for prefix, sub, k in jobs
                           for combo in itertools.combinations(sub, k)]
                assert scanned == [(99, *combo) for combo in itertools.combinations(pool, pick)]
                assert all(comb(len(sub), k) <= max(limit, 1) for _, sub, k in jobs)


def test_search_parallel_path_matches_sequential(monkeypatch):
    monkeypatch.setattr(bootstrap, "_PARALLEL_MIN", 10)
    sequential = search_percolating_set(3, 2, 2, workers=1)
    parallel = search_percolating_set(3, 2, 2, workers=2)
    assert sequential == parallel
    assert search_percolating_set(3, 3, 3, workers=2) is None
    witness = search_percolating_set(4, 3, 6, workers=2)
    assert witness == search_percolating_set(4, 3, 6, workers=1) == VertexSet.of(
        4, [0, 3, 5, 10, 12, 15]
    )
    assert search_percolating_set(4, 3, 5, workers=2) is None
    # the witness sits in the k = 2 space, after the 3,003 negative sets of the k = 1 space
    witness = search_percolating_set(4, 4, 8, workers=2)
    assert witness == search_percolating_set(4, 4, 8, workers=1) == VertexSet.of(
        4, [0, 3, 5, 6, 9, 10, 12, 15]
    )
    # 34,735 candidate sets, split into jobs over several leading pool members
    assert search_percolating_set(5, 4, 6, workers=2) is None
    assert search_percolating_set(5, 4, 6, workers=1) is None


@pytest.mark.longrun
def test_no_eight_vertex_seed_percolates_q5():
    # 668,389 candidate sets of C(32, 8) = 10,518,300, scanned by two worker processes
    assert search_percolating_set(5, 4, 8, budget=10_518_300, workers=2) is None


def test_trace_json_shape():
    payload = trace(even_weight(3), 3).to_json()
    assert payload["d"] == 3 and payload["r"] == 3 and payload["percolated"] is True
    assert payload["rounds"][0] == ["000", "110", "101", "011"]
    assert len(payload["rounds"]) == 2


def test_layer_seed_example_closure():
    # even-weight vertices reach everything at threshold 3 in Q_3
    assert closure(layer(3, 0) | layer(3, 2), 3) == VertexSet.full(3)
