import hashlib
import json
import sys
from math import comb
from pathlib import Path

import pytest

from hqperc import (
    DomainError,
    Labeling,
    Leaf,
    Product,
    ProductPreconditionError,
    VertexSet,
    catalog_labeling,
    catalog_seed,
    construct,
    construct_members,
    construct_recipe,
    construction_size,
    formula_m3,
    formula_m4,
    parse_vertex,
    percolates,
    product_construction,
    seed_r1,
    seed_r2,
    seed_r3,
    upper_bound_m4,
)
from hqperc.constructions import CATALOG_R3_SIZES, CATALOG_SEED_SIZES


def test_catalog_seed_sizes_and_percolation():
    for d, size in CATALOG_SEED_SIZES.items():
        s = catalog_seed(d)
        assert len(s) == size
        assert percolates(s, 4)


def test_catalog_r3_sizes_and_percolation():
    for d, size in CATALOG_R3_SIZES.items():
        s = seed_r3(d)
        assert len(s) == size
        assert percolates(s, 3)


def test_r3_base_case_is_the_even_weight_set():
    from hqperc import layer

    assert seed_r3(3) == layer(3, 0) | layer(3, 2)


def test_catalog_rejects_unknown_entries():
    with pytest.raises(DomainError):
        catalog_seed(16)
    with pytest.raises(DomainError):
        catalog_labeling(5)


def test_origin_seed():
    assert seed_r1(3) == VertexSet.of(3, [0])
    for d in (1, 4, 9):
        assert len(seed_r1(d)) == 1
    assert percolates(seed_r1(7), 1)


def test_pair_seed_exact_members():
    assert seed_r2(4) == VertexSet.of(4, [parse_vertex(s) for s in ("0000", "1100", "0011")])
    assert seed_r2(3) == VertexSet.of(3, [parse_vertex(s) for s in ("000", "110", "011")])
    assert percolates(seed_r2(9), 2)


def test_pair_seed_sizes():
    for d in range(2, 29):
        assert len(seed_r2(d)) == (d + 1) // 2 + 1


def test_r3_family_sizes_and_recursion_identity():
    assert len(seed_r3(7)) == 13
    assert len(seed_r3(9)) == len(seed_r3(6)) + 2 * len(seed_r2(6)) + 1 == 19
    assert formula_m3(9) == 19


def test_r3_family_percolates_and_nests_at_14():
    s = seed_r3(14)
    assert percolates(s, 3)
    assert seed_r2(14).issubset(s)


def test_nesting_chain_to_30_via_members():
    for d in range(3, 31):
        m1 = set(construct_members(d, 1))
        m2 = set(construct_members(d, 2))
        m3 = set(construct_members(d, 3))
        assert m1 <= m2 <= m3
        assert len(m2) == (d + 1) // 2 + 1
        assert len(m3) == formula_m3(d)


def test_product_construction_r3_example():
    parts = (seed_r1(6), seed_r2(6), seed_r3(6))
    out = product_construction(catalog_labeling(3), parts)
    assert out.d == 9
    assert len(out) == 10 + 2 * 4 + 1 == 19
    assert percolates(out, 3)


def test_product_construction_r4_example():
    parts = (seed_r1(12), seed_r2(12), seed_r3(12), catalog_seed(12))
    out = product_construction(catalog_labeling(4), parts)
    assert out.d == 16
    assert len(out) == 1 * 1 + 3 * 7 + 3 * 31 + 1 * 98 == 213
    assert percolates(out, 4)


def test_product_rejects_dead_labeling():
    # a single label-r vertex can never promote its neighbours
    lonely = Labeling.of(2, 2, {0: 2})
    parts = (seed_r1(2), seed_r2(2))
    with pytest.raises(ProductPreconditionError) as err:
        product_construction(lonely, parts)
    assert err.value.condition == "b"


def test_product_rejects_non_nested_parts():
    parts = (seed_r2(6), seed_r1(6), seed_r3(6))
    with pytest.raises(ProductPreconditionError) as err:
        product_construction(catalog_labeling(3), parts)
    assert err.value.condition == "c"


def test_product_rejects_non_percolating_part():
    everywhere = Labeling.constant(1, 2, 2)
    parts = (seed_r1(2), seed_r1(2))  # second part cannot percolate at threshold 2
    with pytest.raises(ProductPreconditionError) as err:
        product_construction(everywhere, parts)
    assert err.value.condition == "a"


def test_product_rejects_dimension_mismatch():
    parts = (seed_r1(5), seed_r2(6), seed_r3(6))
    with pytest.raises(DomainError):
        product_construction(catalog_labeling(3), parts)
    with pytest.raises(DomainError):
        product_construction(catalog_labeling(3), (seed_r1(6), seed_r2(6)))
    parts = (seed_r1(17), seed_r2(17), seed_r3(17), construct(17, 4)[0])
    with pytest.raises(DomainError, match="^dimension too large: 29 > 28$"):
        product_construction(catalog_labeling(12), parts)
    parts = (seed_r1(3), seed_r2(3), seed_r3(3), VertexSet.full(3))
    with pytest.raises(DomainError, match="parts in Q_3 cannot percolate at threshold 4"):
        product_construction(catalog_labeling(4), parts)


def test_product_construction_rebuilds_every_recipe_node():
    # the checked lemma and the assembler are one construction: every product node
    # for r = 3, 4 and d <= 22 comes back member for member from its children, and
    # product_construction checks its preconditions (a), (b) and (c) by simulation
    nodes = [
        (d, r) for r in (3, 4) for d in range(r, 23)
        if isinstance(construct_recipe(d, r), Product)
    ]
    assert len(nodes) == 21
    for d, r in nodes:
        recipe = construct_recipe(d, r)
        m = d - recipe.k
        parts = [VertexSet.of(m, construct_members(m, i)) for i in range(1, r + 1)]
        built = product_construction(catalog_labeling(recipe.k), parts)
        assert built == VertexSet.of(d, construct_members(d, r)), (d, r)


def test_construct_small_cases():
    s, recipe = construct(5, 2)
    assert len(s) == 4 == recipe.size
    s, recipe = construct(3, 3)
    assert len(s) == 4 == recipe.size


def test_construct_dispatch_sizes():
    # catalog leaf
    s, recipe = construct(12, 4)
    assert len(s) == 98 and isinstance(recipe, Leaf)
    # dedicated route at 17: 122 + 3*36 + 3*8 + 1
    s, recipe = construct(17, 4)
    assert len(s) == 255 == recipe.size
    assert isinstance(recipe, Product) and recipe.k == 4
    # step-by-12 route at 18: 18 + 9*10 + 33*4 + 55
    s, recipe = construct(18, 4)
    assert len(s) == 295 == recipe.size
    assert isinstance(recipe, Product) and recipe.k == 12
    # step-by-4 route at 16
    s, recipe = construct(16, 4)
    assert len(s) == 213 == recipe.size
    assert isinstance(recipe, Product) and recipe.k == 4


def test_construct_20_realizes_step_by_12_arithmetic():
    # 20 = 2 mod 6 routes through the selector on Q_12 over Q_8:
    # 35 + 9*16 + 33*5 + 55 = 399, percolation confirmed by simulation
    s, recipe = construct(20, 4)
    assert len(s) == 35 + 9 * 16 + 33 * 5 + 55 == 399 == recipe.size
    assert percolates(s, 4)


def test_construct_verify_flag():
    s, _ = construct(10, 4)
    assert len(s) == 61
    assert percolates(s, 4)


def test_recipe_structure_at_16():
    recipe = construct_recipe(16, 4)
    assert recipe.labeling == "meta_l4"
    assert recipe.counts == (1, 3, 3, 1)
    first, second, third, fourth = recipe.children
    assert first == Leaf("s1_d12", 1)
    assert second == Leaf("s2_d12", 7)
    # the threshold-3 family at dimension 12 is itself recursively assembled
    assert isinstance(third, Product)
    assert third.labeling == "meta_l6" and third.size == 31
    assert fourth == Leaf("s4_d12", 98)
    assert recipe.size == 213
    payload = recipe.to_json()
    assert payload["kind"] == "product" and payload["size"] == 213
    assert payload["children"][3] == {"kind": "leaf", "name": "s4_d12", "size": 98}


def test_recipe_size_equals_realized_cardinality():
    for r in (1, 2, 3, 4):
        for d in range(r, 41):
            members = construct_members(d, r)
            recipe = construct_recipe(d, r)
            assert recipe.size == len(members) == len(set(members))
            assert members == sorted(members)
            assert construction_size(d, r) == recipe.size


def test_recipes_and_sizes_read_no_asset(run_fresh):
    done = run_fresh(
        """
        from hqperc import bound_report, constructions

        def no_asset(name):
            raise AssertionError(f"asset {name} read")

        constructions._asset_text = no_asset
        for r in (1, 2, 3, 4):
            for d in range(r, 201):
                assert constructions.construct_recipe(d, r).size > 0
                assert constructions.construction_size(d, r) > 0
        assert bound_report(200, 4).upper == constructions.construction_size(200, 4)
        """
    )
    assert done.returncode == 0, done.stderr


def test_catalog_assets_are_checked_against_their_tables(monkeypatch):
    # a shipped seed of the wrong size, or a labeling with the wrong histogram, is
    # refused.  __wrapped__ is the uncached loader, so the process-wide caches stay clean
    from hqperc import constructions

    texts = {"s4_d5.set": "00000\n", "meta_l4.lab": "0000 4\n1100 3\n"}
    monkeypatch.setattr(constructions, "_asset_text", texts.__getitem__)
    with pytest.raises(DomainError) as seed_error:
        constructions._catalog.__wrapped__(4, 5)
    assert str(seed_error.value) == "catalog seed s4_d5 has 1 vertices, expected 14"
    with pytest.raises(DomainError) as labeling_error:
        constructions.catalog_labeling.__wrapped__(4)
    assert str(labeling_error.value) == (
        "catalog labeling meta_l4 has histogram (0, 0, 1, 1), expected (1, 3, 3, 1)"
    )
    monkeypatch.undo()
    assert len(catalog_seed(5)) == 14 and catalog_labeling(4).histogram() == (1, 3, 3, 1)


def test_closed_form_reproduces_the_former_asset_files():
    # meta_l3.lab, s3_d3.set and s4_d4.set as they were shipped, byte for byte
    from hqperc import parse_labeling, parse_vertex_set

    meta_l3 = (
        "# 3-meta labeling of Q_3\n# expected-size: 4\n# k: 3\n# r: 3\n"
        "000 3\n110 2\n011 2\n101 1\n"
    )
    s3_d3 = (
        "# 3-neighbour seed, d=3 (even-weight vertices)\n# expected-size: 4\n"
        "000\n110\n101\n011\n"
    )
    s4_d4 = (
        "# 4-neighbour seed, d=4 (even-weight vertices)\n# expected-size: 8\n"
        "0000\n1100\n1010\n0110\n1001\n0101\n0011\n1111\n"
    )
    assert catalog_labeling(3) == parse_labeling(meta_l3, 3, 3)
    assert seed_r3(3) == parse_vertex_set(s3_d3, 3)
    assert catalog_seed(4) == parse_vertex_set(s4_d4, 4)


def test_closed_form_meta_percolates_on_an_even_weight_support():
    from hqperc import lower_bound, meta_percolates
    from hqperc.constructions import _binomial

    for r in range(2, 15):
        labeling = _binomial(r)
        assert labeling.histogram() == tuple(comb(r - 1, i) for i in range(r))
        assert meta_percolates(labeling), r
        support = VertexSet.of(r, (v for v, label in enumerate(labeling.labels) if label))
        assert support == VertexSet.of(r, (v for v in range(1 << r) if v.bit_count() % 2 == 0))
        assert len(support) == lower_bound(r, r) == 1 << (r - 1)
        assert percolates(support, r)


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
def test_members_keep_no_recipe_node_alive(run_fresh):
    # caching the members of all 110 recipe nodes peaked at 137.6 MiB.  VmHWM, not
    # ru_maxrss: a child spawned by this process inherits its ru_maxrss across exec
    done = run_fresh(
        """
        from hqperc import construct_members

        assert len(construct_members(200, 4)) == 338_499
        with open("/proc/self/status") as fh:
            print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
        """
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 110 * 1024  # KiB


def test_members_output_is_pinned():
    # every assembled seed the size cap reaches, byte for byte, in about half a second
    digest = hashlib.sha256()
    for r in range(1, 5):
        for d in (*range(r, 61), 80, 120, 200):
            digest.update(repr((d, r, construct_members(d, r))).encode())
    assert digest.hexdigest() == (
        "6e6b6b97c4cb3aa6a86a56835ca99ced211eb8e39f8bf8187ece4fc5886e7579"
    )


def test_recipe_json_is_pinned():
    # the recipe JSON of every (d, r) the size cap reaches, as the CLI's key-sorted dump
    digest = hashlib.sha256()
    for r in range(1, 5):
        for d in range(r, 201):
            payload = construct_recipe(d, r).to_json()
            digest.update((json.dumps(payload, sort_keys=True) + "\n").encode())
    assert digest.hexdigest() == (
        "b64ebf0b135778927a47a63b17479c5acbc7469ce2400bdd6a5a8ffa54374d89"
    )


def test_members_out_of_order_are_refused(monkeypatch):
    from hqperc import constructions

    embed = constructions._embed
    monkeypatch.setattr(
        constructions, "_embed", lambda *args: sorted(embed(*args), reverse=True)
    )
    with pytest.raises(AssertionError, match="out of order"):
        construct_members(16, 4)


def test_text_out_of_order_is_refused(monkeypatch):
    import builtins

    from hqperc import constructions

    # selector coordinates appended unreversed put a node's parts out of order
    monkeypatch.setattr(
        constructions, "format", lambda x, spec: builtins.format(x, spec)[::-1], raising=False
    )
    with pytest.raises(AssertionError, match="out of order"):
        constructions.construct_text(16, 4)


def test_size_laws_to_60():
    for d in range(3, 61):
        assert construction_size(d, 3) == formula_m3(d)
    for d in range(4, 61):
        size = construction_size(d, 4)
        assert size <= upper_bound_m4(d)
        if d % 6 in (0, 4):
            assert size == formula_m4(d)


def test_construct_members_beyond_bitset_cap():
    members = construct_members(30, 4)
    assert len(members) == construction_size(30, 4) == formula_m4(30)
    assert all(0 <= m < (1 << 30) for m in members)


def test_construct_argument_validation():
    with pytest.raises(DomainError):
        construct(2, 3)
    with pytest.raises(DomainError):
        construct(3, 4)
    with pytest.raises(DomainError):
        construct(5, 5)
    with pytest.raises(DomainError):
        construct(30, 4)  # representable only as a member list
    with pytest.raises(DomainError):
        construct_members(201, 4)


def test_construct_percolates_small_dimensions():
    for d in range(4, 13):
        for r in (1, 2, 3, 4):
            s, _ = construct(d, r)
            assert percolates(s, r)


def test_construct_percolates_off_residue_dimensions():
    # 19 and 21 take the step-by-12 route without meeting the closed form
    for d in (19, 21):
        s, recipe = construct(d, 4)
        assert recipe.size == len(s) <= upper_bound_m4(d)
        assert percolates(s, 4)


@pytest.mark.longrun
def test_construct_percolates_at_23():
    for r in (1, 2, 3, 4):
        s, _ = construct(23, r)
        assert percolates(s, r)


def test_readme_library_example(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    assert capsys.readouterr().out == "295\n"
    assert len(namespace["seed"]) == 295 == namespace["recipe"].size
    assert percolates(namespace["seed"], 4)
    assert namespace["bound_report"](18, 4).exact == 295
