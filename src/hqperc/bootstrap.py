"""The r-neighbour bootstrap process on Q_d.

Starting from a seed set, every round simultaneously infects each healthy
vertex with at least r infected neighbours; the closure is the fixed point
of this update.  A seed percolates when its closure is all of Q_d.

The production engine is bit parallel.  The state is cut into 2^(d-b)
blocks of 2^b bits, b = min(d, 16), indexed by the top d - b coordinates.
In a block the neighbour image along coordinate i swaps two half-lanes;
along a top coordinate it is the neighbouring block.  Neighbour counts
accumulate in ceil(log2(r+1)) bit planes of a saturating binary counter.
A round recomputes only the blocks that are not full and that changed in
the round before or border one that did, at O(d * 2^b / w) word operations
each.  ``_rounds`` runs that round to the fixed point for closure, trace and
step; the search and the meta process call its kernel, ``_round_bits``.  By
Aut(Q_d) symmetry the search scans only sets that can be the first witness,
split into jobs by leading members and enumerated by itertools.combinations.
A naive per-vertex rescan engine is kept as an independent reference; the
two must agree on every input.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterator

from .hypercube import (
    D_MAX,
    DomainError,
    VertexSet,
    check_dimension,
    neighbors,
    weight,
)

DEFAULT_SEARCH_BUDGET = 2_000_000

# searches with fewer candidate sets than this run in-process even when workers > 1
_PARALLEL_MIN = 50_000

# A state of 2^d bits is simulated as 2^(d - b) blocks of 2^b bits, b = min(d, _BLOCK_BITS).
_BLOCK_BITS = 16


class SearchAborted(RuntimeError):
    """An exhaustive search refused to run past its subset budget."""


def _check_threshold(r: int, d: int) -> int:
    if not isinstance(r, int) or isinstance(r, bool) or r < 1:
        raise DomainError(f"threshold must be a positive integer, got {r!r}")
    if r > d:
        raise DomainError(f"threshold {r} exceeds dimension {d}: no vertex has {r} neighbours")
    return r


@functools.lru_cache(maxsize=None)
def _masks_for(d: int) -> tuple[tuple[int, ...], int]:
    """Per-coordinate masks selecting the indices whose bit i is 0, plus the all-ones state.

    Only a block's low coordinates are swapped, so d <= _BLOCK_BITS here.
    """
    n = 1 << d
    masks = []
    for i in range(d):
        s = 1 << i
        m = (1 << s) - 1
        width = 2 * s
        while width < n:
            m |= m << width
            width *= 2
        masks.append(m)
    return tuple(masks), (1 << n) - 1


_plane_count = int.bit_length  # counter planes holding 0..r: ceil(log2(r + 1))


def _round_bits(bits: int, d: int, r: int, masks, full: int, extra=()) -> int:
    """One synchronous update of a raw state integer.

    extra holds neighbour images beyond the d coordinates, such as neighbouring blocks.
    """
    nplanes = _plane_count(r)
    planes = [0] * nplanes
    for i in range(d + len(extra)):
        if i < d:
            s = 1 << i
            m = masks[i]
            carry = ((bits & m) << s) | ((bits >> s) & m)
        else:
            carry = extra[i - d]
        for j in range(nplanes):
            t = planes[j] & carry
            planes[j] ^= carry
            carry = t
            if not carry:
                break
        else:
            # counter would wrap: clamp the overflowed lanes to all-ones
            for j in range(nplanes):
                planes[j] |= carry
    # bit-sliced comparison: count >= r
    ge = 0
    eq = full
    for j in reversed(range(nplanes)):
        if (r >> j) & 1:
            eq &= planes[j]
        else:
            ge |= eq & planes[j]
    return bits | ge | eq


def _split(bits: int, d: int) -> tuple[list[int], int]:
    """A 2^d-bit state as blocks of 2^b bits, and b; block B holds the vertices B * 2^b + x."""
    if d <= _BLOCK_BITS:
        return [bits], d
    size = 1 << (_BLOCK_BITS - 3)
    raw = bits.to_bytes(1 << (d - 3), "little")
    blocks = [int.from_bytes(raw[i:i + size], "little") for i in range(0, len(raw), size)]
    return blocks, _BLOCK_BITS


def _join(blocks: list[int]) -> int:
    """The 2^d-bit state that _split cut into these blocks."""
    if len(blocks) == 1:
        return blocks[0]
    size = 1 << (_BLOCK_BITS - 3)
    return int.from_bytes(b"".join(x.to_bytes(size, "little") for x in blocks), "little")


def _rounds(blocks: list[int], b: int, r: int) -> Iterator[list[int]]:
    """Yield the blocks after each strictly growing round, up to the fixed point.

    The neighbour image of block B along top coordinate j is block B ^ (1 << j)
    itself.  A block can change only if it or one of those neighbour blocks
    changed in the round before, so each round recomputes just that
    neighbourhood of the last round's changes (every block in round 1), and
    skips full blocks.
    """
    masks, full = _masks_for(b)
    flips = [1 << j for j in range(len(blocks).bit_length() - 1)]
    dirty = range(len(blocks))
    while True:
        new = blocks.copy()
        for i in dirty:
            if blocks[i] != full:
                new[i] = _round_bits(blocks[i], b, r, masks, full, [blocks[i ^ f] for f in flips])
        changed = [i for i in dirty if new[i] != blocks[i]]
        if not changed:
            return
        yield new
        blocks = new
        dirty = {i ^ f for i in changed for f in (0, *flips)}


def closure_rounds(a0: VertexSet, r: int) -> tuple[VertexSet, int]:
    """The closure plus the number of strictly growing rounds it took."""
    _check_threshold(r, a0.d)
    blocks, b = _split(a0.bits, a0.d)
    rounds = 0
    for rounds, blocks in enumerate(_rounds(blocks, b, r), 1):
        pass
    return VertexSet(a0.d, _join(blocks)), rounds


def closure(a0: VertexSet, r: int) -> VertexSet:
    """The unique fixed point of the synchronous r-neighbour update containing a0."""
    return closure_rounds(a0, r)[0]


def percolates(a0: VertexSet, r: int) -> bool:
    """True iff the closure of a0 is all of Q_d."""
    return closure(a0, r).is_full()


def step(a: VertexSet, r: int) -> VertexSet:
    """One synchronous round of the r-neighbour update."""
    _check_threshold(r, a.d)
    for blocks in _rounds(*_split(a.bits, a.d), r):
        return VertexSet(a.d, _join(blocks))
    return a


@dataclass(frozen=True)
class InfectionTrace:
    """The full synchronous round history of a bootstrap run.

    rounds[t] is the set infected after t rounds; the list stops at the
    first fixed point, so the final element equals the closure and no two
    consecutive entries are equal (unless the seed is already fixed).
    """

    d: int
    r: int
    rounds: tuple[VertexSet, ...]
    percolated: bool

    def to_json(self) -> dict:
        # rounds are nested, so the last one names every vertex that appears
        fmt = f"0{self.d}b"
        names = {v: format(v, fmt)[::-1] for v in self.rounds[-1]}
        return {
            "d": self.d,
            "r": self.r,
            "rounds": [list(map(names.__getitem__, stage)) for stage in self.rounds],
            "percolated": self.percolated,
        }


def trace(a0: VertexSet, r: int) -> InfectionTrace:
    """Run the process round by round, recording every intermediate state."""
    _check_threshold(r, a0.d)
    d = a0.d
    rounds = (a0, *(VertexSet(d, _join(blocks)) for blocks in _rounds(*_split(a0.bits, d), r)))
    return InfectionTrace(d, r, rounds, rounds[-1].is_full())


def reference_closure(a0: VertexSet, r: int) -> VertexSet:
    """Independent per-vertex rescan engine, for cross-checking the bit-parallel one."""
    _check_threshold(r, a0.d)
    d = a0.d
    infected = set(a0)
    while True:
        added = {
            v
            for v in range(1 << d)
            if v not in infected
            and sum(1 for u in neighbors(v, d) if u in infected) >= r
        }
        if not added:
            return VertexSet.of(d, infected)
        infected |= added


def _worker_count(workers: int | None) -> int:
    if workers is not None:
        return max(1, workers)
    env = os.environ.get("HQPERC_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise DomainError(f"HQPERC_THREADS must be an integer, got {env!r}")
    return os.cpu_count() or 1


def _spaces(d: int, size: int) -> Iterator[tuple[tuple[int, ...], list[int], int]]:
    """Prefix, pool and set count of the spaces that hold the first percolating size-set.

    Lemma: percolating size-sets are closed under Aut(Q_d).  Let W be the
    lexicographically first, and k the least distance between two members x, y.
    Translate W by x and permute coordinates to map x ^ y to 2^k - 1: the image
    percolates and holds 0 and 2^k - 1.  So by minimality W[0] = 0 and
    W[1] <= 2^k - 1; as wt(W[1]) >= k, W[1] = 2^k - 1.  Every later member v has
    wt(v) >= k and wt(v ^ (2^k - 1)) >= k: W is (0, 2^k - 1) plus size - 2
    members of pool k, and the spaces come in k order, which is lexicographic.
    """
    if size == 1:
        yield (0,), [], 1
        return
    for k in range(1, d + 1):
        x = (1 << k) - 1
        pool = [v for v in range(x + 1, 1 << d) if weight(v) >= k and weight(v ^ x) >= k]
        yield (0, x), pool, comb(len(pool), size - 2)


def _jobs(prefix: tuple[int, ...], pool: list[int], pick: int,
          limit: int) -> Iterator[tuple[tuple[int, ...], list[int], int]]:
    """Split the sets prefix + C, C a pick-subset of pool, into jobs of at most
    max(limit, 1) sets by their leading pool members, in lexicographic order."""
    if pick == 0 or comb(len(pool), pick) <= limit:
        yield prefix, pool, pick
        return
    for j in range(len(pool) - pick + 1):
        yield from _jobs(prefix + (pool[j],), pool[j + 1:], pick - 1, limit)


def _scan(d: int, r: int, prefix: tuple[int, ...], pool: list[int],
          pick: int) -> tuple[int, ...] | None:
    """The first percolating set prefix + C, C running over the pick-subsets of
    pool in lexicographic order, or None."""
    masks, full = _masks_for(d)
    base = sum(1 << v for v in prefix)
    # prefix and pool are disjoint and the bits distinct, so the sums are ORs
    for combo in combinations([1 << v for v in pool], pick):
        bits = base + sum(combo)
        while (new := _round_bits(bits, d, r, masks, full)) != bits:
            bits = new
        if bits == full:
            return (*prefix, *(b.bit_length() - 1 for b in combo))
    return None


def search_percolating_set(
    d: int,
    r: int,
    size: int,
    budget: int | None = None,
    workers: int | None = None,
) -> VertexSet | None:
    """Exhaustively look for a percolating set of exactly the given cardinality.

    Returns the lexicographically first one, or None when none exists.  Only the
    sets of ``_spaces`` are scanned; they come in lexicographic order and hold
    the first witness.  Workers scan jobs split off by leading pool members
    (``_jobs``), also in lexicographic order and each enumerated by
    itertools.combinations, so the result is unchanged.  A search whose subset
    count C(2^d, size) exceeds the budget refuses to start and raises
    SearchAborted; pass an explicit budget to opt in to larger scans.
    """
    check_dimension(d)
    _check_threshold(r, d)
    n = 1 << d
    if not isinstance(size, int) or isinstance(size, bool):
        raise DomainError(f"size must be an integer, got {size!r}")
    if not 0 <= size <= n:
        raise DomainError(f"size {size} out of range for Q_{d}")
    limit = DEFAULT_SEARCH_BUDGET if budget is None else budget
    if not isinstance(limit, int) or isinstance(limit, bool):
        raise DomainError(f"budget must be an integer, got {limit!r}")
    if limit < 1:
        raise DomainError(f"budget must be positive, got {limit}")
    total = comb(n, size)
    if total > limit:
        raise SearchAborted(
            f"search aborted: C({n}, {size}) = {total} subsets exceeds budget {limit}"
        )

    nworkers = _worker_count(workers)
    if size == 0:
        return None  # the empty seed never percolates for r >= 1, d >= 1
    spaces = list(_spaces(d, size))
    candidates = sum(count for *_, count in spaces)
    parallel = nworkers > 1 and candidates >= _PARALLEL_MIN
    chunk = -(-candidates // (nworkers * 4)) if parallel else candidates
    jobs = [job for prefix, pool, _ in spaces
            for job in _jobs(prefix, pool, size - len(prefix), chunk)]
    if parallel:
        with ProcessPoolExecutor(max_workers=nworkers) as executor:
            futures = [executor.submit(_scan, d, r, *job) for job in jobs]
            found = next(filter(None, (future.result() for future in futures)), None)
            executor.shutdown(cancel_futures=True)
    else:
        found = next(filter(None, (_scan(d, r, *job) for job in jobs)), None)
    if found is None:
        return None
    return VertexSet.of(d, found)
