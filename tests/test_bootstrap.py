import itertools
import marshal
import os
import random
from math import comb

import pytest

import hqperc._helper as _helper
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
from hqperc.cli import main


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
    start = bootstrap._start(r, full)
    states = []
    while (new := bootstrap._round_bits(bits, start, masks)) != bits:
        states.append(bits := new)
    return states


def _block_rounds(bits, d, r, b, split):
    # split: the blocks of odd weight go to a forked helper, whatever d and the CPUs
    low = (1 << (1 << b)) - 1
    blocks = [bits >> (i << b) & low for i in range(1 << (d - b))]
    use_helper = bootstrap._use_helper
    bootstrap._use_helper = lambda nblocks: split
    try:
        return [sum(x << (i << b) for i, x in enumerate(state))
                for state in bootstrap._rounds(blocks, b, r)]
    finally:
        bootstrap._use_helper = use_helper


def _assert_same_rounds(got, expected, context):
    # lists of 2^d-bit states: pytest cannot render ints past 4,300 digits, so a mismatch
    # names the round counts, the first differing round and its lowest differing vertex
    rounds = f"{context}: {len(got)} rounds, expected {len(expected)}"
    for i, (a, b) in enumerate(zip(got, expected), 1):
        if a != b:
            diff = a ^ b
            pytest.fail(f"{rounds}; round {i} differs first at vertex "
                        f"{(diff & -diff).bit_length() - 1}")
    if len(got) != len(expected):
        pytest.fail(rounds)


def _relabeled(seed, rng):
    return apply_automorphism(Automorphism.random(rng, seed.d), seed).bits


def test_block_round_matches_the_single_block_round():
    # cut into 2^(d-b) blocks that carry their counts from round to round, the round
    # must yield every state of the dense single-block round that counts from zero,
    # in one process and split by block parity with a forked helper
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
                    for split in (False, True):
                        _assert_same_rounds(_block_rounds(bits, d, r, b, split), expected,
                                            (d, r, b, split, bits))


def test_block_round_shifts_each_repeated_delta_once(monkeypatch):
    # product seeds give many blocks the same delta in the same round, and a seed of
    # identical blocks gives all of them one delta each round: each distinct delta of a
    # round is shifted at most once, and the rounds stay those of the dense round, in one
    # process and split.  Translated copies of one block start as deltas of equal
    # popcount but different values, which must not share their images
    block = catalog_seed(8)
    shift = [Automorphism(tuple(range(8)), t) for t in range(64)]
    copies = [apply_automorphism(a, block).bits for a in shift]
    seeds = [(d, construct(d, 4)[0].bits, b, True)
             for d, b in ((14, 6), (15, 7), (16, 8), (16, 9))]
    seeds += [(14, sum(block.bits << (i << 8) for i in range(64)), 8, True),
              (14, sum(x << (i << 8) for i, x in enumerate(copies)), 8, False)]
    shifted = []
    images = bootstrap._images

    def spy(bits, masks):
        shifted.append(bits)
        return images(bits, masks)

    monkeypatch.setattr(bootstrap, "_images", spy)
    for d, bits, b, repeats in seeds:
        for r in (3, 4):
            expected = _dense_rounds(bits, d, r)
            _assert_same_rounds(_block_rounds(bits, d, r, b, True), expected, (d, b, r))
            low = (1 << (1 << b)) - 1
            blocks = [bits >> (i << b) & low for i in range(1 << (d - b))]
            deltas = [[x for x in blocks if x]]  # round 1 counts every block as its delta
            states = []
            shifted.clear()
            for new in bootstrap._side_rounds(blocks, b, r, None):
                states.append(sum(x << (i << b) for i, x in enumerate(blocks)))
                deltas.append(list(new.values()))
            _assert_same_rounds(states, expected, (d, b, r))
            assert len(shifted) <= sum(len(set(new)) for new in deltas), (d, b, r)
            if repeats:
                assert len(shifted) < sum(map(len, deltas)), (d, b, r)


def _at_least_rounds(bits, d, r):
    # an oracle shaped like perfbench's closure_rounds: at_least[k] holds the vertices with
    # at least k infected neighbours, updated image by image, with no counter planes
    masks, full = bootstrap._masks_for(d)
    states = []
    while True:
        at_least = [full] + [0] * r
        for i, m in enumerate(masks):
            y = ((bits & m) << (1 << i)) | ((bits >> (1 << i)) & m)
            for k in range(r, 0, -1):
                at_least[k] |= at_least[k - 1] & y
        if (new := bits | at_least[r]) == bits:
            return states
        states.append(bits := new)


def test_block_round_matches_an_at_least_k_engine_at_every_threshold():
    # the block round counts in (r - 1).bit_length() wrapping planes started at
    # 2^planes - r: offsets 0..3 in 0..3 planes for r = 1..8.  The seeds grow over several
    # rounds in both blocks of Q_17: Hamming spheres of radius r - 1 around a random centre,
    # with some members dropped and random vertices added, and spheres repeated in both
    # blocks, whose equal deltas one process sums once.  One process and split
    rng = random.Random(53)
    d = 17
    for r in range(1, 9):
        c = rng.getrandbits(d)
        sphere = [c ^ sum(1 << i for i in cs) for cs in itertools.combinations(range(d), r - 1)]
        cut = set(rng.sample(sphere, len(sphere) // 20)) ^ {rng.getrandbits(d) for _ in range(8)}
        low = c & 0xFFFF
        twins = [low ^ sum(1 << i for i in cs) for cs in itertools.combinations(range(16), r - 1)]
        seeds = [VertexSet.of(d, sphere).bits, VertexSet.of(d, set(sphere) ^ cut).bits,
                 VertexSet.of(d, twins + [v | 1 << 16 for v in twins]).bits]
        for bits in seeds:
            expected = _at_least_rounds(bits, d, r)
            assert len(expected) >= 3, r
            for split in (False, True):
                _assert_same_rounds(_block_rounds(bits, d, r, 16, split), expected, (r, split))
    _no_process_left()


@pytest.mark.longrun
def test_block_round_matches_the_dense_round_at_18():
    # the relabeled r = 4 construction of Q_18 (66 rounds) in production blocks of 2^16
    # bits and in 512 blocks of 2^9, in one process and split; at r = 5 it stops short
    # of the full cube
    bits = _relabeled(construct(18, 4)[0], random.Random(47))
    for r in (4, 5):
        expected = _dense_rounds(bits, 18, r)
        for b in (9, 16):
            for split in (False, True):
                _assert_same_rounds(_block_rounds(bits, 18, r, b, split), expected,
                                    (r, b, split))


@pytest.fixture
def helper_on(monkeypatch):
    # every closure of more than one block splits its rounds, whatever the CPUs
    monkeypatch.setattr(bootstrap, "_use_helper", lambda nblocks: True)


def _no_process_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _in_helper(parent, fail):
    # a stand-in for _images that calls fail() in every process but the parent
    images = bootstrap._images

    def patched(bits, masks):
        if os.getpid() != parent:
            fail()
        return images(bits, masks)

    return patched


@pytest.mark.parametrize("d", [17, 18])
def test_split_closures_match_the_one_process_closures(d, monkeypatch):
    seed = construct(d, 4)[0]
    cases = [(seed, 4), (VertexSet(d, _relabeled(seed, random.Random(d))), 4), (seed, 5),
             (seed.discard(max(seed)), 4)]
    for a0, r in cases:
        monkeypatch.setattr(bootstrap, "_use_helper", lambda nblocks: False)
        alone = closure_rounds(a0, r), trace(a0, r)
        monkeypatch.setattr(bootstrap, "_use_helper", lambda nblocks: True)
        assert (closure_rounds(a0, r), trace(a0, r)) == alone, (d, r)
        _no_process_left()


def _layouts(monkeypatch):
    # spies on the layouts a closure chooses and on the swaps it applies to its blocks
    chosen, swapped = [], []
    choose, swap = bootstrap._coordinate_swaps, bootstrap._swap

    def chose(blocks, b):
        chosen.append(choose(blocks, b))
        return chosen[-1]

    def swaps(blocks, b, pairs):
        if pairs:
            swapped.append(pairs)
        swap(blocks, b, pairs)

    monkeypatch.setattr(bootstrap, "_coordinate_swaps", chose)
    monkeypatch.setattr(bootstrap, "_swap", swaps)
    return chosen, swapped


@pytest.mark.parametrize("split", [False, True])
def test_relaid_closures_match_the_trace(split, monkeypatch):
    # a closure of relabeled assembled seeds lays its blocks out again once the seed has
    # grown four times over, here from two blocks up: closure_rounds and percolates must
    # still give trace's last state and round count, full or partial, in one process and
    # split.  trace keeps the seed's layout, and a closure that never grows four times over
    # never chooses one
    monkeypatch.setattr(bootstrap, "_use_helper", lambda nblocks: split)
    monkeypatch.setattr(bootstrap, "_LAYOUT_BLOCKS", 2)
    chosen, swapped = _layouts(monkeypatch)
    relaid = set()
    for d in range(17, 21):
        seed = VertexSet(d, _relabeled(construct(d, 4)[0], random.Random(d)))
        for a0 in (seed, seed.discard(max(seed))):
            for r in (3, 4, 5):
                history = trace(a0, r)
                assert not chosen
                expected = history.rounds[-1], len(history.rounds) - 1
                assert closure_rounds(a0, r) == expected, (d, r)
                assert percolates(a0, r) == history.percolated, (d, r)
                grown = len(history.rounds[-1]) >= 4 * len(a0)
                assert len(chosen) == (2 if grown else 0), (d, r)
                # laid out by closure_rounds and percolates, and swapped back by closure_rounds
                assert swapped == [chosen[0]] * 3 if any(chosen) else not swapped, (d, r)
                if swapped:
                    relaid.add(history.percolated)
                chosen.clear()
                swapped.clear()
                _no_process_left()
    assert relaid == {True, False}  # full and partial closures were laid out again


def test_only_closures_of_many_blocks_are_laid_out_again(monkeypatch):
    # the relabeled Q_20 seed (16 blocks) keeps its layout without a look at it, and the
    # relabeled Q_21 seed (32 blocks) closes in a new one to trace's state and round count
    chosen, swapped = _layouts(monkeypatch)
    for d in (20, 21):
        seed = VertexSet(d, _relabeled(construct(d, 4)[0], random.Random(1)))
        a0 = seed.discard(max(seed))
        history = trace(a0, 4)
        assert closure_rounds(a0, 4) == (history.rounds[-1], len(history.rounds) - 1)
        assert len(chosen) == len(swapped) // 2 == (d == 21), d
    _no_process_left()


def test_split_closures_leave_no_process(helper_on):
    seed = construct(18, 4)[0]
    assert closure(seed, 4).is_full()
    _no_process_left()
    assert percolates(seed, 4)
    _no_process_left()
    assert len(trace(seed, 4).rounds) == 67
    _no_process_left()
    rounds = bootstrap._rounds(*bootstrap._split(seed.bits, 18), 4)
    next(rounds)
    del rounds  # abandoned after one round
    _no_process_left()


def test_split_closure_stops_its_helper_when_this_process_fails(monkeypatch, helper_on):
    parent = os.getpid()
    calls = itertools.count()
    add = bootstrap._add

    def failing(planes, images, summed=None):
        if os.getpid() == parent and next(calls) == 40:
            raise ZeroDivisionError
        return add(planes, images, summed)

    monkeypatch.setattr(bootstrap, "_add", failing)
    with pytest.raises(ZeroDivisionError):
        closure(construct(18, 4)[0], 4)
    _no_process_left()


def test_split_round_exchanges_messages_larger_than_a_pipe_buffer(monkeypatch, helper_on):
    # round 1 infects most of the odd-weight half of all 16 blocks of Q_20: each side sends
    # eight 8 KiB deltas at once, more than a 64 KiB pipe buffer holds.  Each block misses
    # an even vertex at its own place, so the eight deltas differ and none is sent as a
    # back-reference to an equal one
    sizes = []
    send = _helper.Link.send

    def recorded(link, deltas):
        sizes.append(len(marshal.dumps(deltas)))
        send(link, deltas)

    monkeypatch.setattr(_helper.Link, "send", recorded)
    seed = even_weight(20) - VertexSet.of(20, [i << 16 | i for i in range(16)])
    (closed,) = _dense_rounds(seed.bits, 20, 20)
    assert closure_rounds(seed, 20) == (VertexSet(20, closed), 1)
    assert max(sizes) > 1 << 16
    _no_process_left()


def test_a_helper_out_of_memory_is_a_memory_error(monkeypatch, capsys, tmp_path, helper_on):
    def fail():
        raise MemoryError

    monkeypatch.setattr(bootstrap, "_images", _in_helper(os.getpid(), fail))
    with pytest.raises(MemoryError):
        closure(construct(18, 4)[0], 4)
    _no_process_left()
    out = str(tmp_path / "q18.set")
    assert main(["construct", "--d", "18", "--r", "4", "--out", out, "--verify"]) == 3
    assert capsys.readouterr().err == "error: out of memory\n"
    _no_process_left()


def test_a_helper_death_names_its_exit_status(monkeypatch, capfd, tmp_path, helper_on):
    def fail():
        raise ValueError("helper failed")

    monkeypatch.setattr(bootstrap, "_images", _in_helper(os.getpid(), fail))
    with pytest.raises(RuntimeError, match="helper process exited with status 1$"):
        closure(construct(18, 4)[0], 4)
    assert "ValueError: helper failed" in capfd.readouterr().err
    _no_process_left()

    def killed():
        os.kill(os.getpid(), 9)

    monkeypatch.setattr(bootstrap, "_images", _in_helper(os.getpid(), killed))
    with pytest.raises(RuntimeError, match="helper process was killed by signal 9$"):
        closure(construct(18, 4)[0], 4)
    _no_process_left()
    # SIGKILL is how the out-of-memory killer ends a process: the CLI names the signal in
    # one error line and exits 3, the resource cap, not 1, a definite negative
    out = str(tmp_path / "q18.set")
    assert main(["construct", "--d", "18", "--r", "4", "--out", out, "--verify"]) == 3
    assert capfd.readouterr().err == (
        "error: the closure's round helper process was killed by signal 9\n")
    _no_process_left()


def test_a_refused_fork_runs_the_closure_in_one_process(monkeypatch, helper_on):
    def refuse():
        raise OSError("fork refused")

    seed = construct(18, 4)[0]
    monkeypatch.setattr(os, "fork", refuse)
    assert closure_rounds(seed, 4) == (VertexSet.full(18), 66)
    _no_process_left()


def test_a_split_closure_works_with_descriptors_past_1024(helper_on):
    # select.select refuses descriptors from FD_SETSIZE (1024) up; the helper's
    # pipes are opened above every descriptor held here
    import resource

    if resource.getrlimit(resource.RLIMIT_NOFILE)[0] < 1100:
        pytest.skip("needs a soft RLIMIT_NOFILE of at least 1100")
    held = []
    try:
        while not held or held[-1] < 1024:
            held.append(os.open(os.devnull, os.O_RDONLY))
        assert closure_rounds(construct(18, 4)[0], 4) == (VertexSet.full(18), 66)
    finally:
        for fd in held:
            os.close(fd)
    _no_process_left()


def test_the_helper_flushes_no_inherited_buffer(run_fresh):
    # stdout is a pipe, so "before" is still in this process's buffer at the fork.  The
    # helper leaves through os._exit: it neither writes it again nor runs atexit handlers
    done = run_fresh(
        """
        import atexit
        import hqperc.bootstrap as bootstrap
        from hqperc import closure, construct

        bootstrap._use_helper = lambda nblocks: True
        atexit.register(print, "at exit")
        print("before")
        assert closure(construct(18, 4)[0], 4).is_full()
        print("after")
        """
    )
    assert done.returncode == 0, done.stderr
    assert (done.stdout, done.stderr) == ("before\nafter\nat exit\n", "")


def test_rounds_fork_exactly_when_use_helper_allows(monkeypatch):
    # closure_rounds and trace fork one helper when _use_helper allows it and none when it
    # does not, step never forks, and a closure laid out again forks a second helper for
    # its new layout; every helper is reaped
    forks = []
    fork = _helper.fork

    def counted(run):
        forks.append(run)
        return fork(run)

    monkeypatch.setattr(_helper, "fork", counted)
    seed = construct(17, 4)[0]
    for allowed in (True, False):
        monkeypatch.setattr(bootstrap, "_use_helper", lambda nblocks: allowed)
        for run in (closure_rounds, trace, step):
            forks.clear()
            run(seed, 4)
            assert len(forks) == (allowed and run is not step), (run.__name__, allowed)
            _no_process_left()
    monkeypatch.setattr(bootstrap, "_use_helper", lambda nblocks: True)
    monkeypatch.setattr(bootstrap, "_LAYOUT_BLOCKS", 2)
    forks.clear()
    closure_rounds(VertexSet(18, _relabeled(construct(18, 4)[0], random.Random(18))), 4)
    assert len(forks) == 2
    _no_process_left()


def test_step_is_one_round_of_trace():
    seed = even_weight(3)
    assert step(seed, 3) == trace(seed, 3).rounds[1]


def test_step_never_forks(monkeypatch, helper_on):
    seed = construct(17, 4)[0]
    expected = trace(seed, 4).rounds[1]  # a split trace

    def refuse():
        raise AssertionError("step forked")

    monkeypatch.setattr(os, "fork", refuse)
    assert step(seed, 4) == expected
    _no_process_left()


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
    # planes started by _start carry out of the top plane exactly in the lanes set in at
    # least r images, whether the images come in one add or in chunks across several, and
    # whether some come as planes summed from zero, whose own carry-out is at least
    # 2^planes >= r.  Up to 2 * 2^r.bit_length() images of mixed density make lanes wrap
    rng = random.Random(67)
    lanes = 48
    full = (1 << lanes) - 1
    for r in range(1, 10):
        nplanes = (r - 1).bit_length()
        assert len(bootstrap._start(r, full)) == nplanes
        top = (1 << r.bit_length()) - 1
        for n in range(2 * (top + 1) + 1):
            images = [rng.choice((0, full, rng.getrandbits(lanes),
                                  rng.getrandbits(lanes) & rng.getrandbits(lanes)))
                      for _ in range(n)]
            counts = [sum(x >> c & 1 for x in images) for c in range(lanes)]
            want = sum(1 << c for c in range(lanes) if counts[c] >= r)
            assert bootstrap._add(bootstrap._start(r, full), images) == want, (r, n)
            cuts = sorted(rng.choices(range(n + 1), k=rng.randint(1, 4)))
            planes, hit = bootstrap._start(r, full), 0
            for lo, hi in zip([0, *cuts], [*cuts, n]):
                hit |= bootstrap._add(planes, images[lo:hi])
            assert hit == want, (r, n, cuts)
            # counts summed from zero enter as one more input per plane, into planes that
            # may already have carried out
            lo, hi = sorted(rng.choices(range(n + 1), k=2))
            planes, summed = bootstrap._start(r, full), [0] * nplanes
            hit = bootstrap._add(planes, images[:lo]) | bootstrap._add(summed, images[lo:hi])
            hit |= bootstrap._add(planes, images[hi:], summed)
            assert hit == want, (r, n, lo, hi)


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
