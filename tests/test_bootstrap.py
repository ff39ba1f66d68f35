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
from test_constructions import _run_fresh


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
        assert search_percolating_set(d, r, size) == _first_percolating(d, r, size), (d, r, size)


def test_search_spaces_count_the_candidate_sets():
    # d = 5: the prefix spaces hold 5,620 of C(32, 5) = 201,376 and 55,332,732 of
    # C(32, 13) = 347,373,600 subsets
    for size, total in ((5, 5_620), (13, 55_332_732)):
        assert sum(comb(len(pool), size - len(prefix))
                   for prefix, pool in bootstrap._spaces(5, size)) == total


def test_search_witnesses_are_pinned():
    assert search_percolating_set(3, 2, 2) is None
    assert search_percolating_set(3, 3, 3) is None
    assert search_percolating_set(4, 3, 6) == VertexSet.of(4, [0, 3, 5, 10, 12, 15])
    assert search_percolating_set(4, 3, 5) is None
    # the witness sits in the k = 2 space, after the 3,003 negative sets of the k = 1 space
    assert search_percolating_set(4, 4, 8) == VertexSet.of(4, [0, 3, 5, 6, 9, 10, 12, 15])
    # 34,735 candidate sets
    assert search_percolating_set(5, 4, 6) is None
    # 521,731 candidate sets under the default budget; the witness is the first of them
    assert search_percolating_set(10, 4, 1022) == VertexSet.of(10, range(1022))


def test_no_eight_vertex_seed_percolates_q5():
    # 668,389 candidate sets of C(32, 8) = 10,518,300, decided in lane batches
    assert search_percolating_set(5, 4, 8, budget=10_518_300) is None


def test_minimum_percolating_set_of_q5_at_threshold_4_has_14_vertices():
    # m(Q_5, 4) = 14, one above the closed form: no 13-set percolates
    # (55,332,732 candidate sets) and the catalog seed, 14 vertices, does
    assert search_percolating_set(5, 4, 13, budget=comb(32, 13)) is None
    seed = catalog_seed(5)
    assert len(seed) == 14 and percolates(seed, 4)


@pytest.mark.longrun
def test_minimum_percolating_set_of_q5_at_threshold_5_has_16_vertices():
    # m(Q_5, 5) = 16: no 15-set percolates, and the even-weight vertices do
    assert search_percolating_set(5, 5, 15, budget=comb(32, 15)) is None
    assert len(even_weight(5)) == 16 and percolates(even_weight(5), 5)


def test_lane_patterns_list_the_combinations():
    memo = {}
    for q in range(9):
        for t in range(q + 1):
            patterns = bootstrap._lane_patterns(q, t, memo)
            for j in range(q):
                lanes = [c for c, combo in enumerate(itertools.combinations(range(q), t))
                         if j in combo]
                assert patterns[j] == sum(1 << c for c in lanes), (q, t, j)


def test_lane_scan_matches_the_per_set_scan(monkeypatch):
    # arbitrary prefixes and pools, cut into batches of a few lanes or one.  The
    # kernels also take r = d + 1, where only the whole cube percolates: at r <= d a
    # vertex whose d neighbours are infected is infected too, so only there does a
    # percolation test that skips one vertex give a different answer
    rng = random.Random(53)
    for lanes in (1, 5, 64, bootstrap._LANES):
        monkeypatch.setattr(bootstrap, "_LANES", lanes)
        for _ in range(60):
            d = rng.randint(1, 5)
            r = rng.randint(1, d + 1)
            cube = list(range(1 << d))
            rng.shuffle(cube)
            split = rng.randint(0, min(6, len(cube)))
            prefix, pool = tuple(cube[:split]), sorted(cube[split:][:rng.randint(0, 14)])
            pick = rng.randint(0, len(pool))
            assert bootstrap._lane_scan(d, r, prefix, pool, pick) == bootstrap._scan(
                d, r, prefix, pool, pick), (lanes, d, r, prefix, pool, pick)


def test_lane_search_matches_the_scan_and_the_full_search(monkeypatch):
    rng = random.Random(59)
    jobs = []
    while len(jobs) < 40:
        d = rng.randint(1, 5)
        size = rng.randint(0, 1 << d)
        if comb(1 << d, size) <= 20_000:
            jobs.append((d, rng.randint(1, d), size))
    for d, r, size in jobs:
        monkeypatch.setattr(bootstrap, "_LANES", rng.choice((1, 3, 100)))
        lanes = search_percolating_set(d, r, size)
        monkeypatch.setattr(bootstrap, "_LANE_D", 0)  # every d takes the per-set scan
        scanned = search_percolating_set(d, r, size)
        monkeypatch.undo()
        assert lanes == scanned == _first_percolating(d, r, size), (d, r, size)


def test_whole_cube_masks_are_not_cached():
    # a d = 20 search scans the whole cube (masks of 2.5 MiB) and a d = 20 closure
    # blocks of 2^16 bits (masks of 136 KiB): neither may stay allocated after the call
    done = _run_fresh(
        """
        import gc
        import tracemalloc
        from hqperc import VertexSet, closure, search_percolating_set

        tracemalloc.start()
        assert search_percolating_set(20, 4, 1) is None
        closure(VertexSet.of(20, [0]), 4)
        gc.collect()
        print(tracemalloc.get_traced_memory()[0])
        """
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 32 * 1024


def test_trace_json_shape():
    payload = trace(even_weight(3), 3).to_json()
    assert payload["d"] == 3 and payload["r"] == 3 and payload["percolated"] is True
    assert payload["rounds"][0] == ["000", "110", "101", "011"]
    assert len(payload["rounds"]) == 2


def test_layer_seed_example_closure():
    # even-weight vertices reach everything at threshold 3 in Q_3
    assert closure(layer(3, 0) | layer(3, 2), 3) == VertexSet.full(3)
