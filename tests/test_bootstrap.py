import itertools
import random
from math import comb

import pytest

import hqperc.bootstrap as bootstrap
from hqperc import (
    Automorphism,
    DomainError,
    SearchAborted,
    VertexSet,
    apply_automorphism,
    catalog_seed,
    closure,
    construct,
    layer,
    lower_bound,
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


def test_percolates_reads_the_blocks_without_joining(monkeypatch):
    block = (1 << (1 << 16)) - 1
    cases = [
        (construct(18, 4)[0], 4),  # four blocks, all full at the end
        (construct(18, 3)[0], 4),
        (VertexSet(18, block), 2),  # block 0 full, the other three empty
        (VertexSet(18, block), 1),
        (catalog_seed(10), 4),
        (catalog_seed(10).discard(next(iter(catalog_seed(10)))), 4),
        (construct(16, 4)[0], 4),
    ]
    expected = [closure(seed, r).is_full() for seed, r in cases]
    assert True in expected and False in expected

    def refuse(blocks):
        raise AssertionError("percolates joined the closure")

    monkeypatch.setattr(bootstrap, "_join", refuse)
    assert [percolates(seed, r) for seed, r in cases] == expected


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


def _dense_rounds(bits, d, r):
    # the oracle: _round_bits on the whole 2^d-bit state, counting from fresh planes each round
    masks, full = bootstrap._masks_for(d)
    states = []
    while (new := bootstrap._round_bits(bits, r, masks, full)) != bits:
        states.append(bits := new)
    return states


def _block_rounds(bits, d, r, b):
    low = (1 << (1 << b)) - 1
    blocks = [bits >> (i << b) & low for i in range(1 << (d - b))]
    return [sum(x << (i << b) for i, x in enumerate(state))
            for state in bootstrap._rounds(blocks, b, r)]


def _relabeled(seed, rng):
    return apply_automorphism(Automorphism.random(rng, seed.d), seed).bits


def test_block_round_matches_the_single_block_round():
    # cut into 2^(d-b) blocks that carry their counts from round to round, the round
    # must yield every state of the dense single-block round that counts from zero
    rng = random.Random(43)
    for d in range(1, 11):
        n = 1 << d
        # empty, full, a closed Q_(d-1) (it percolates only at r = 1), sparse random seeds,
        # the r = 4 catalog seed with and without its top member (long runs, full and
        # partial), and the seed relabeled, so that blocks turn dirty through a neighbour alone
        seeds = [0, (1 << n) - 1, (1 << (n // 2)) - 1]
        seeds += [rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n) for _ in range(3)]
        if d >= 4:
            bits = catalog_seed(d).bits
            seeds += [bits, bits ^ 1 << (bits.bit_length() - 1)]
            seeds += [_relabeled(catalog_seed(d), rng) for _ in range(2)]
        for bits in seeds:
            for r in range(1, min(5, d) + 1):
                expected = _dense_rounds(bits, d, r)
                for b in {1, 2, d - 1, d} & set(range(1, d + 1)):
                    assert _block_rounds(bits, d, r, b) == expected, (d, r, b, bits)


@pytest.mark.longrun
def test_block_round_matches_the_dense_round_at_18():
    # the relabeled r = 4 construction of Q_18 (66 rounds) in production blocks of 2^16
    # bits and in 512 blocks of 2^9; at r = 5 it stops short of the full cube
    bits = _relabeled(construct(18, 4)[0], random.Random(47))
    for r in (4, 5):
        expected = _dense_rounds(bits, 18, r)
        for b in (9, 16):
            assert _block_rounds(bits, 18, r, b) == expected, (r, b)


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


def test_counter_against_a_popcount_oracle():
    # every lane of the saturating counter holds min(count, 2^planes - 1), whether the
    # images come in one add or in chunks across several, and the verdict is count >= r.
    # Up to 2 * 2^planes images of mixed density make lanes carry out of the top plane
    rng = random.Random(67)
    lanes = 48
    full = (1 << lanes) - 1
    for r in range(1, 10):
        nplanes = bootstrap._plane_count(r)
        top = (1 << nplanes) - 1
        for n in range(2 * (top + 1) + 1):
            images = [rng.choice((0, full, rng.getrandbits(lanes),
                                  rng.getrandbits(lanes) & rng.getrandbits(lanes)))
                      for _ in range(n)]
            counts = [sum(x >> c & 1 for x in images) for c in range(lanes)]
            want = sum(1 << c for c in range(lanes) if counts[c] >= r)
            assert bootstrap._at_least(r, images, full) == want, (r, n)
            cuts = sorted(rng.choices(range(n + 1), k=rng.randint(1, 4)))
            planes = [0] * nplanes
            for lo, hi in zip([0, *cuts], [*cuts, n]):
                bootstrap._add(planes, images[lo:hi])
            held = [sum((p >> c & 1) << j for j, p in enumerate(planes)) for c in range(lanes)]
            assert held == [min(count, top) for count in counts], (r, n, cuts)
            assert bootstrap._reached(r, planes, full) == want, (r, n, cuts)


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


def test_search_pools_past_the_cap_abort(monkeypatch):
    # every pool is a subset of the first, which holds the 2^d - 2 vertices but 0 and 1
    monkeypatch.setattr(bootstrap, "_POOL_CAP", 14)
    assert search_percolating_set(4, 4, 8) == VertexSet.of(4, [0, 3, 5, 6, 9, 10, 12, 15])
    assert search_percolating_set(5, 1, 1) == VertexSet.of(5, [0])  # size 1 lists no pool
    with pytest.raises(SearchAborted) as err:
        search_percolating_set(5, 4, 5)
    assert str(err.value) == (
        "search aborted: the first prefix space of Q_5 pools 30 vertices, over the cap of 14")


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


def test_small_case_witnesses_are_minimal_percolating_sets():
    # (d, r, m(Q_d, r)): a percolating set of that size.  lower_bound makes 41 and 61
    # exact; the halving bound m(Q_d, r) >= 2 m(Q_{d-1}, r - 1) makes 28, 56 and 112
    # exact from m(Q_5, 4) = 14, which the search above settles
    q7_r6 = (
        "0 3 5 6 9 10 12 15 17 18 20 27 29 30 33 34 39 40 45 46 48 51 53 54 57 58 60 63 65"
        " 68 71 72 75 78 80 83 85 86 89 90 92 95 96 99 101 102 105 106 108 111 114 116 119"
        " 120 123 125"
    )
    witnesses = {
        (6, 5, 28): "1 2 4 7 8 11 13 14 19 21 22 25 26 28 32 35 38 41 44 47 49 50 52 55 56"
        " 59 61 62",
        (7, 5, 41): "1 2 8 11 14 16 19 21 26 28 32 35 37 41 44 47 50 52 55 59 61 67 70 73"
        " 76 79 81 84 87 88 91 98 101 103 104 110 118 121 122 124 127",
        (8, 5, 61): "1 2 7 13 19 22 26 28 32 38 42 47 52 55 56 59 61 69 70 73 74 84 87 91 94"
        " 98 100 109 112 115 117 122 127 131 133 140 146 161 164 168 174 179 181 185 188 199"
        " 200 203 206 211 217 220 223 224 227 229 233 239 242 248 254",
        (7, 6, 56): q7_r6,
        (8, 7, 112): q7_r6 + " 130 132 135 136 139 141 144 147 149 150 153 154 156 159 160"
        " 163 165 166 169 170 172 175 177 180 183 184 187 190 192 195 197 198 201 202 204 207"
        " 209 210 215 216 221 222 225 226 228 235 237 238 240 243 245 246 249 250 252 255",
    }
    minimum = {(5, 4): 14} | {(d, r): size for d, r, size in witnesses}
    for (d, r, size), text in witnesses.items():
        members = [int(v) for v in text.split()]
        seed = VertexSet.of(d, members)
        assert len(members) == len(seed) == size, (d, r)
        assert percolates(seed, r) and reference_closure(seed, r).is_full(), (d, r)
        # each vertex is needed: dropping any one stops percolation
        assert not any(percolates(seed.discard(v), r) for v in members), (d, r)
        assert size in (lower_bound(d, r), 2 * minimum.get((d - 1, r - 1), 0)), (d, r)


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


def test_whole_cube_masks_are_not_cached(run_fresh):
    # a d = 20 search scans the whole cube (masks of 2.5 MiB) and a d = 20 closure
    # blocks of 2^16 bits (masks of 136 KiB): neither may stay allocated after the call
    done = run_fresh(
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


def test_infection_trace_is_an_immutable_record():
    history, again = trace(even_weight(3), 3), trace(even_weight(3), 3)
    assert history is not again
    assert history == again and hash(history) == hash(again)
    assert history != trace(even_weight(3), 2)
    assert history != (history.d, history.r, history.rounds, history.percolated)
    assert repr(history) == (
        f"InfectionTrace(d=3, r=3, rounds={history.rounds!r}, percolated=True)"
    )
    with pytest.raises(AttributeError, match="immutable"):
        history.r = 4
    with pytest.raises(AttributeError, match="immutable"):
        del history.rounds
    assert history.r == 3 and len(history.rounds) == 2


def test_layer_seed_example_closure():
    # even-weight vertices reach everything at threshold 3 in Q_3
    assert closure(layer(3, 0) | layer(3, 2), 3) == VertexSet.full(3)
