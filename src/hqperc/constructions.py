"""Minimum and near-minimum percolating sets for thresholds 1..4.

Three ingredients combine here:

* a catalog of explicit seeds shipped as text assets: 4-neighbour seeds for
  dimensions 4..15, 3-neighbour seeds for dimensions 3..8, and four
  meta-percolating labelings (on Q_3, Q_4, Q_6, Q_12);
* closed-form nested families for thresholds 1 and 2 (the origin, and the
  origin plus consecutive coordinate pairs);
* the product construction: given a labeling of Q_k that percolates under
  the r-meta process and nested sets S_1 <= ... <= S_{r-1} plus S_r in
  Q_{d-k}, each of which percolates at its own threshold, embedding a copy
  of S_i into every subcube whose selector vertex holds label i yields a
  percolating set for threshold r in Q_d of size sum_i count_i * |S_i|.

Dimensions above the catalog are assembled recursively.  The threshold-3
recursion steps down by 3 (odd d) or 6 (even d); the threshold-4 recursion
steps down by 4 or 12 according to d mod 6, with a dedicated route at
d = 17.  The recursive assembler places the selector block on the highest
k coordinates so that the threshold-2 family lands inside the threshold-3
family member for member; the standalone product_construction places the
selector on the first k coordinates, matching its documented contract.
Every recipe node records the arithmetic size, which is asserted against
the realized cardinality (embedded blocks never overlap).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from importlib import resources
from typing import Sequence, Union

from .bootstrap import percolates
from .hypercube import (
    D_MAX,
    DomainError,
    VertexSet,
    _bits_of,
    parse_vertex_set,
)
from .meta import Labeling, meta_percolates, parse_labeling

# largest dimension for member-list assembly and size arithmetic
SIZE_CAP = 200

CATALOG_SEED_SIZES = {
    4: 8, 5: 14, 6: 18, 7: 26, 8: 35, 9: 47,
    10: 61, 11: 78, 12: 98, 13: 122, 14: 148, 15: 179,
}
CATALOG_R3_SIZES = {3: 4, 4: 6, 5: 8, 6: 10, 7: 13, 8: 16}
CATALOG_LABELINGS = {3: 3, 4: 4, 6: 3, 12: 4}  # k -> threshold r
CATALOG_HISTOGRAMS = {
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


@dataclass(frozen=True)
class Leaf:
    """A catalog or closed-form seed."""

    name: str
    size: int

    def to_json(self) -> dict:
        return {"kind": "leaf", "name": self.name, "size": self.size}


@dataclass(frozen=True)
class Product:
    """A product-construction node: children[i] seeds the label-(i+1) subcubes."""

    k: int
    labeling: str
    counts: tuple[int, ...]
    children: tuple["Recipe", ...]
    size: int

    def to_json(self) -> dict:
        return {
            "kind": "product",
            "k": self.k,
            "labeling": self.labeling,
            "counts": list(self.counts),
            "size": self.size,
            "children": [child.to_json() for child in self.children],
        }


Recipe = Union[Leaf, Product]


def _asset_text(name: str) -> str:
    return (resources.files(__package__) / "assets" / name).read_text(encoding="utf-8")


@functools.lru_cache(maxsize=None)
def catalog_seed(d: int) -> VertexSet:
    """The shipped 4-neighbour seed for dimension d (4 <= d <= 15)."""
    if d not in CATALOG_SEED_SIZES:
        raise DomainError(f"no catalog 4-neighbour seed for dimension {d}")
    s = parse_vertex_set(_asset_text(f"s4_d{d}.set"), d)
    if len(s) != CATALOG_SEED_SIZES[d]:
        raise DomainError(
            f"catalog seed s4_d{d} has {len(s)} vertices, expected {CATALOG_SEED_SIZES[d]}"
        )
    return s


@functools.lru_cache(maxsize=None)
def _catalog_r3(d: int) -> VertexSet:
    s = parse_vertex_set(_asset_text(f"s3_d{d}.set"), d)
    if len(s) != CATALOG_R3_SIZES[d]:
        raise DomainError(
            f"catalog seed s3_d{d} has {len(s)} vertices, expected {CATALOG_R3_SIZES[d]}"
        )
    return s


@functools.lru_cache(maxsize=None)
def catalog_labeling(k: int) -> Labeling:
    """The shipped meta-percolating labeling on Q_k (k in {3, 4, 6, 12})."""
    if k not in CATALOG_LABELINGS:
        raise DomainError(f"no catalog labeling for dimension {k}")
    r = CATALOG_LABELINGS[k]
    lab = parse_labeling(_asset_text(f"meta_l{k}.lab"), k, r)
    if lab.histogram() != CATALOG_HISTOGRAMS[k]:
        raise DomainError(
            f"catalog labeling meta_l{k} has histogram {lab.histogram()},"
            f" expected {CATALOG_HISTOGRAMS[k]}"
        )
    return lab


def _pair_members(d: int) -> tuple[int, ...]:
    """Origin plus weight-2 pair vertices: the threshold-2 family."""
    members = [0]
    for i in range(1, d // 2 + 1):
        members.append((1 << (2 * i - 2)) | (1 << (2 * i - 1)))
    if d % 2 == 1:
        members.append((1 << (d - 2)) | (1 << (d - 1)))
    return tuple(sorted(members))


def _check_build_args(d: int, r: int) -> None:
    if not isinstance(r, int) or isinstance(r, bool) or r < 1:
        raise DomainError(f"threshold must be a positive integer, got {r!r}")
    if r > 4:
        raise DomainError(f"not implemented for r > 4 (got r={r})")
    if not isinstance(d, int) or isinstance(d, bool) or d < r:
        raise DomainError(f"threshold {r} needs dimension >= {r}, got {d}")
    if d > SIZE_CAP:
        raise DomainError(f"dimension too large: {d} > {SIZE_CAP}")


def _m4_route(d: int) -> int:
    """Selector dimension k for the threshold-4 recursion at d >= 16."""
    if d % 6 == 4 or d == 17:
        return 4
    return 12  # covers d mod 6 == 0 and every d >= 18 residue; d-12 is never 5


@functools.lru_cache(maxsize=None)
def _build(d: int, r: int) -> tuple[tuple[int, ...], Recipe]:
    """Sorted member list plus recipe; selector blocks sit on the top k coordinates."""
    if r == 1:
        return (0,), Leaf(f"s1_d{d}", 1)
    if r == 2:
        members = _pair_members(d)
        return members, Leaf(f"s2_d{d}", len(members))
    if r == 3:
        if d <= 8:
            members = tuple(sorted(_catalog_r3(d)))
            return members, Leaf(f"s3_d{d}", len(members))
        k = 3 if d % 2 == 1 else 6
    else:
        if d <= 15:
            members = tuple(sorted(catalog_seed(d)))
            return members, Leaf(f"s4_d{d}", len(members))
        k = _m4_route(d)
    labeling = catalog_labeling(k)
    children = [_build(d - k, i) for i in range(1, r + 1)]
    shift = d - k
    members = []
    for x, label in enumerate(labeling.labels):
        if label == 0:
            continue
        base = x << shift
        members.extend(base | m for m in children[label - 1][0])
    counts = labeling.histogram()
    size = sum(c * child[1].size for c, child in zip(counts, children))
    if len(members) != size or len(set(members)) != size:
        raise AssertionError(f"block overlap assembling d={d}, r={r}")
    recipe = Product(
        k=k,
        labeling=f"meta_l{k}",
        counts=counts,
        children=tuple(child[1] for child in children),
        size=size,
    )
    return tuple(sorted(members)), recipe


def construct_members(d: int, r: int) -> list[int]:
    """The assembled seed as a sorted vertex-index list; works beyond D_MAX."""
    _check_build_args(d, r)
    return list(_build(d, r)[0])


def construct_recipe(d: int, r: int) -> Recipe:
    """The assembly tree (and exact size arithmetic) without materializing a set."""
    _check_build_args(d, r)
    return _build(d, r)[1]


def construction_size(d: int, r: int) -> int:
    """Cardinality of construct(d, r), by recipe arithmetic alone."""
    _check_build_args(d, r)
    if r == 1:
        return 1
    if r == 2:
        return (d + 1) // 2 + 1
    if r == 3:
        if d <= 8:
            return CATALOG_R3_SIZES[d]
        k = 3 if d % 2 == 1 else 6
    else:
        if d <= 15:
            return CATALOG_SEED_SIZES[d]
        k = _m4_route(d)
    counts = CATALOG_HISTOGRAMS[k]
    return sum(c * construction_size(d - k, i + 1) for i, c in enumerate(counts))


def construct(d: int, r: int, verify: bool = False) -> tuple[VertexSet, Recipe]:
    """A percolating seed for the r-neighbour process on Q_d, with its recipe.

    With verify=True the returned set is additionally run through the
    closure simulation (possible only for d <= D_MAX, which is all this
    function can materialize anyway).
    """
    _check_build_args(d, r)
    if d > D_MAX:
        raise DomainError(
            f"dimension too large to materialize: {d} > {D_MAX};"
            " use construct_members for the vertex list"
        )
    members, recipe = _build(d, r)
    s = VertexSet.of(d, members)
    if verify and not percolates(s, r):
        raise AssertionError(f"assembled seed for d={d}, r={r} failed verification")
    return s, recipe


def seed_r1(d: int) -> VertexSet:
    """The origin singleton; floods Q_d at threshold 1."""
    return construct(d, 1)[0]


def seed_r2(d: int) -> VertexSet:
    """Origin plus coordinate pairs, ceil(d/2)+1 vertices; percolates at threshold 2."""
    return construct(d, 2)[0]


def seed_r3(d: int) -> VertexSet:
    """The nested threshold-3 family member, ceil(d(d+3)/6)+1 vertices."""
    return construct(d, 3)[0]


def product_construction(
    labeling: Labeling,
    parts: Sequence[VertexSet],
    check: bool = False,
) -> VertexSet:
    """Assemble a threshold-r seed in Q_{k + m} from a labeling of Q_k and r sets in Q_m.

    Each part S_i is copied into every subcube whose selector vertex (the
    first k coordinates) holds label i.  Preconditions: (a) every S_i
    percolates at threshold i, (b) the labeling meta-percolates, and
    (c) S_1 <= ... <= S_{r-1}.  Condition (c) and all dimension checks are
    always enforced; (a) and (b) cost closure runs and are only enforced
    with check=True.
    """
    r = labeling.r
    k = labeling.k
    if len(parts) != r:
        raise DomainError(f"expected {r} part sets, got {len(parts)}")
    inner = parts[0].d
    for s in parts:
        if s.d != inner:
            raise DomainError(f"dimension mismatch among parts: {s.d} != {inner}")
    d = k + inner
    if d > D_MAX:
        raise DomainError(f"dimension too large: {d} > {D_MAX}")
    if inner < r:
        raise DomainError(f"parts in Q_{inner} cannot percolate at threshold {r}")
    for i in range(r - 2):
        if not parts[i].issubset(parts[i + 1]):
            raise ProductPreconditionError(
                "c", f"part {i + 1} is not contained in part {i + 2}"
            )
    if check:
        if not meta_percolates(labeling):
            raise ProductPreconditionError("b", "labeling does not meta-percolate")
        for i, s in enumerate(parts, start=1):
            if not percolates(s, i):
                raise ProductPreconditionError(
                    "a", f"part {i} does not percolate at threshold {i}"
                )
    blocks = [tuple(s) for s in parts]
    members = (
        (m << k) | x
        for x, label in enumerate(labeling.labels) if label
        for m in blocks[label - 1]
    )
    return VertexSet(d, _bits_of(d, members))
