"""Minimum and near-minimum percolating sets for thresholds 1..4.

Three ingredients combine here:

* a catalog: 4-neighbour seeds for dimensions 4..15, 3-neighbour seeds for
  3..8 and meta-percolating labelings on Q_3, Q_4, Q_6, Q_12, shipped as
  text assets but for meta_l3, s3_d3 and s4_d4, which one closed form gives;
* closed-form nested families for thresholds 1 and 2 (the origin, and the
  origin plus consecutive coordinate pairs);
* the product construction: given a labeling of Q_k that percolates under
  the r-meta process and nested sets S_1 <= ... <= S_{r-1} plus S_r in
  Q_{d-k}, each of which percolates at its own threshold, embedding a copy
  of S_i into every subcube whose selector vertex holds label i yields a
  percolating set for threshold r in Q_d of size sum_i count_i * |S_i|.

Dimensions above the catalog are assembled recursively.  _recipe is the one
route function: threshold 3 steps down by 3 (odd d) or 6 (even d), threshold
4 by 4 or 12 according to d mod 6, with a dedicated route at d = 17.  It
sizes every node from the catalog tables, so recipes and construction_size
read no asset; _members builds the members by plain recursion over the
recipe, and each child's members are freed when its parent returns.  The
assembler and product_construction share one embedding, with the selector
on the top k coordinates: the threshold-2 family lands inside the
threshold-3 family member for member, and members come out ascending.
Every node's members are asserted strictly ascending and as many as its
size (embedded blocks never overlap).

Seed files take a second recursion over the same recipe, _text: the top k
coordinates are the last k characters of a line, so a product node's text
is its children's texts, one copy per labelled selector, each line with
the selector's coordinates appended.  It writes the bytes that
format_members writes for _members, without formatting a member above the
leaves, and asserts the same order and size.
"""

from __future__ import annotations

__all__ = [
    "Leaf",
    "Product",
    "ProductPreconditionError",
    "Recipe",
    "catalog_labeling",
    "catalog_seed",
    "construct",
    "construct_members",
    "construct_recipe",
    "construction_size",
    "product_construction",
    "seed_r1",
    "seed_r2",
    "seed_r3",
]

import functools
from itertools import chain, compress, islice
from operator import lt
from typing import Iterator, NamedTuple, Sequence, Union

from .bootstrap import percolates
from .hypercube import (
    D_MAX,
    DomainError,
    VertexSet,
    _bits_of,
    check_dimension,
    check_threshold,
    format_members,
    parse_vertex_set,
)
from .meta import Labeling, meta_percolates, parse_labeling

# thresholds that construct, bound and table cover
THRESHOLDS = range(1, 5)
# largest dimension for member-list assembly and size arithmetic
SIZE_CAP = 200

CATALOG_SEED_SIZES = {
    4: 8, 5: 14, 6: 18, 7: 26, 8: 35, 9: 47,
    10: 61, 11: 78, 12: 98, 13: 122, 14: 148, 15: 179,
}
CATALOG_R3_SIZES = {3: 4, 4: 6, 5: 8, 6: 10, 7: 13, 8: 16}
CATALOG_SIZES = {3: CATALOG_R3_SIZES, 4: CATALOG_SEED_SIZES}  # r -> d -> size
CATALOG_HISTOGRAMS = {  # k -> vertices labelled 1..r in the catalog labeling, r its threshold
    3: (1, 2, 1),
    4: (1, 3, 3, 1),
    6: (5, 4, 1),
    12: (55, 33, 9, 1),
}


class ProductPreconditionError(DomainError):
    """A product-construction ingredient fails condition (a), (b) or (c)."""

    def __init__(self, condition: str, message: str):
        super().__init__(f"precondition ({condition}) failed: {message}")
        self.condition = condition


class Leaf(NamedTuple):
    """A catalog or closed-form seed."""

    name: str
    size: int

    def to_json(self) -> dict:
        return {"kind": "leaf", **self._asdict()}


class Product(NamedTuple):
    """A product-construction node: children[i] seeds the label-(i+1) subcubes."""

    k: int
    labeling: str
    counts: tuple[int, ...]
    children: tuple["Recipe", ...]
    size: int

    def to_json(self) -> dict:
        return {**self._asdict(), "kind": "product", "counts": list(self.counts),
                "children": [child.to_json() for child in self.children]}


Recipe = Union[Leaf, Product]


def _asset_text(name: str) -> str:
    from importlib import resources  # here, so that start-up skips it and pathlib

    return (resources.files(__package__) / "assets" / name).read_text(encoding="utf-8")


def _binomial(r: int) -> Labeling:
    """Label r - wt(v & ~0b10) on the even-weight v of Q_r, 0 on odd v: meta_l3 at r = 3.

    Its support, the 2^(r-1) = MN(r, r) even v, percolates at r.  Support lemma:
    a vertex gains a nonzero label only with r nonzero neighbours (r higher ones
    to promote, r at label r to complete from 0), so an r-meta-percolating
    labeling's support percolates at r, and an exact one's is a minimum one.
    """
    return Labeling(r, r, [0 if v.bit_count() % 2 else r - (v & ~2).bit_count()
                           for v in range(1 << r)])


@functools.lru_cache(maxsize=None)
def _catalog(r: int, d: int) -> VertexSet:
    """The r-neighbour seed s{r}_d{d}, size-checked; _binomial(r)'s support at d = r."""
    expected = CATALOG_SIZES[r][d]
    s = (VertexSet.of(d, compress(range(1 << d), _binomial(r).labels)) if d == r
         else parse_vertex_set(_asset_text(f"s{r}_d{d}.set"), d))
    if len(s) != expected:
        raise DomainError(f"catalog seed s{r}_d{d} has {len(s)} vertices, expected {expected}")
    return s


def catalog_seed(d: int) -> VertexSet:
    """The catalog 4-neighbour seed for dimension d (4 <= d <= 15)."""
    if d not in CATALOG_SEED_SIZES:
        raise DomainError(f"no catalog 4-neighbour seed for dimension {d}")
    return _catalog(4, d)


@functools.lru_cache(maxsize=None)
def catalog_labeling(k: int) -> Labeling:
    """The catalog's meta-percolating labeling on Q_k (k in {3, 4, 6, 12}); shipped for k > 3."""
    if k not in CATALOG_HISTOGRAMS:
        raise DomainError(f"no catalog labeling for dimension {k}")
    r = len(CATALOG_HISTOGRAMS[k])
    lab = _binomial(3) if k == 3 else parse_labeling(_asset_text(f"meta_l{k}.lab"), k, r)
    if lab.histogram() != CATALOG_HISTOGRAMS[k]:
        raise DomainError(
            f"catalog labeling meta_l{k} has histogram {lab.histogram()},"
            f" expected {CATALOG_HISTOGRAMS[k]}"
        )
    return lab


def _pair_members(d: int) -> tuple[int, ...]:
    """Origin plus weight-2 pair vertices, ascending: the threshold-2 family."""
    shifts = list(range(0, d - 1, 2))
    if d % 2 == 1:
        shifts.append(d - 2)
    return (0, *(3 << i for i in shifts))


def _embed(labeling: Labeling, blocks: Sequence[Sequence[int]], m: int) -> Iterator[int]:
    """Copy blocks[i - 1] (members of Q_m) into the subcube of every selector x labelled i.

    The selector occupies the top k coordinates, so ascending blocks give
    ascending members.
    """
    return chain.from_iterable(
        map((x << m).__or__, blocks[label - 1])
        for x, label in enumerate(labeling.labels) if label
    )


def _check_build_args(d: int, r: int) -> None:
    check_threshold(r)
    if r not in THRESHOLDS:
        raise DomainError(f"not implemented for r > {THRESHOLDS[-1]} (got r={r})")
    check_threshold(r, d)
    if d > SIZE_CAP:
        raise DomainError(f"dimension too large: {d} > {SIZE_CAP}")


def _m4_route(d: int) -> int:
    """Selector dimension k for the threshold-4 recursion at d >= 16."""
    if d % 6 == 4 or d == 17:
        return 4
    return 12  # covers d mod 6 == 0 and every d >= 18 residue; d-12 is never 5


@functools.lru_cache(maxsize=None)
def _recipe(d: int, r: int) -> Recipe:
    """The one route choice: a leaf, or a product over a catalog labeling of Q_k."""
    if r <= 2:
        return Leaf(f"s{r}_d{d}", 1 if r == 1 else (d + 1) // 2 + 1)
    if d in CATALOG_SIZES[r]:
        return Leaf(f"s{r}_d{d}", CATALOG_SIZES[r][d])
    k = _m4_route(d) if r == 4 else 3 if d % 2 == 1 else 6
    counts = CATALOG_HISTOGRAMS[k]
    children = tuple(_recipe(d - k, i) for i in range(1, r + 1))
    size = sum(c * child.size for c, child in zip(counts, children))
    return Product(k, f"meta_l{k}", counts, children, size)


def _members(d: int, r: int) -> tuple[int, ...]:
    """Ascending members of the seed that _recipe(d, r) describes."""
    recipe = _recipe(d, r)
    if isinstance(recipe, Product):
        k = recipe.k
        blocks = [_members(d - k, i) for i in range(1, r + 1)]
        members = tuple(_embed(catalog_labeling(k), blocks, d - k))
    elif r <= 2:
        members = (0,) if r == 1 else _pair_members(d)
    else:
        members = tuple(_catalog(r, d))
    # strictly ascending members cannot overlap, and the text format lists them in order
    if len(members) != recipe.size or not all(map(lt, members, islice(members, 1, None))):
        raise AssertionError(f"members overlap or out of order assembling d={d}, r={r}")
    return members


def _text(d: int, r: int) -> str:
    """The lines of _members(d, r) in the vertex-set format, built block by block.

    A product node's text is one part per labelled selector x: a copy of
    the child's text whose lines end in x's k coordinates, which one
    replace appends.  A part keeps the strict order of its child's lines,
    so the text is strictly ascending iff each part's last member is below
    the next part's first; reversed, a line reads x_d..x_1 and compares as
    its vertex index.  Leaves are formatted from their members.
    """
    recipe = _recipe(d, r)
    if not isinstance(recipe, Product):
        return format_members(d, _members(d, r), header=False)
    k = recipe.k
    blocks = [_text(d - k, i) for i in range(1, r + 1)]
    fmt = f"0{k}b"
    parts = [
        blocks[label - 1].replace("\n", format(x, fmt)[::-1] + "\n")
        for x, label in enumerate(catalog_labeling(k).labels) if label
    ]
    del blocks
    lasts = [part[-2:-d - 2:-1] for part in parts]  # each part's last line, reversed
    firsts = [part[d - 1::-1] for part in islice(parts, 1, None)]  # the next part's first
    text = "".join(parts)
    if len(text) != recipe.size * (d + 1) or not all(map(lt, lasts, firsts)):
        raise AssertionError(f"members overlap or out of order assembling d={d}, r={r}")
    return text


def construct_members(d: int, r: int) -> list[int]:
    """The assembled seed as a sorted vertex-index list; works beyond D_MAX."""
    _check_build_args(d, r)
    return list(_members(d, r))


def construct_text(d: int, r: int) -> str:
    """The assembled seed's vertex-set file, format_members(d, construct_members(d, r))."""
    _check_build_args(d, r)
    return f"# expected-size: {_recipe(d, r).size}\n" + _text(d, r)


def construct_recipe(d: int, r: int) -> Recipe:
    """The assembly tree and its size arithmetic; reads no asset and builds no member."""
    _check_build_args(d, r)
    return _recipe(d, r)


def construction_size(d: int, r: int) -> int:
    """Cardinality of construct(d, r), by recipe arithmetic alone."""
    return construct_recipe(d, r).size


def construct(d: int, r: int) -> tuple[VertexSet, Recipe]:
    """A percolating seed for the r-neighbour process on Q_d (d <= D_MAX), with its recipe."""
    _check_build_args(d, r)
    if d > D_MAX:
        raise DomainError(
            f"dimension too large to materialize: {d} > {D_MAX};"
            " use construct_members for the vertex list"
        )
    return VertexSet.of(d, _members(d, r)), _recipe(d, r)


def seed_r1(d: int) -> VertexSet:
    """The origin singleton; floods Q_d at threshold 1."""
    return construct(d, 1)[0]


def seed_r2(d: int) -> VertexSet:
    """Origin plus coordinate pairs, ceil(d/2)+1 vertices; percolates at threshold 2."""
    return construct(d, 2)[0]


def seed_r3(d: int) -> VertexSet:
    """The nested threshold-3 family member, ceil(d(d+3)/6)+1 vertices."""
    return construct(d, 3)[0]


def product_construction(labeling: Labeling, parts: Sequence[VertexSet]) -> VertexSet:
    """Assemble a threshold-r seed in Q_{k + m} from a labeling of Q_k and r sets in Q_m.

    Each part S_i is copied into every subcube whose selector vertex (the
    top k coordinates) holds label i, exactly as the recursive assembler
    does.  Preconditions, all enforced: (a) every S_i percolates at
    threshold i, (b) the labeling meta-percolates, and (c) S_1 <= ... <= S_{r-1}.
    """
    r = labeling.r
    k = labeling.k
    if len(parts) != r:
        raise DomainError(f"expected {r} part sets, got {len(parts)}")
    inner = parts[0].d
    for s in parts:
        if s.d != inner:
            raise DomainError(f"dimension mismatch among parts: {s.d} != {inner}")
    d = check_dimension(k + inner)
    if inner < r:
        raise DomainError(f"parts in Q_{inner} cannot percolate at threshold {r}")
    for i in range(r - 2):
        if not parts[i].issubset(parts[i + 1]):
            raise ProductPreconditionError(
                "c", f"part {i + 1} is not contained in part {i + 2}"
            )
    if not meta_percolates(labeling):
        raise ProductPreconditionError("b", "labeling does not meta-percolate")
    for i, s in enumerate(parts, start=1):
        if not percolates(s, i):
            raise ProductPreconditionError(
                "a", f"part {i} does not percolate at threshold {i}"
            )
    blocks = [tuple(s) for s in parts]
    return VertexSet(d, _bits_of(d, _embed(labeling, blocks, inner)))
