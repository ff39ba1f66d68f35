import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import hqperc
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
        product_construction(lonely, parts, check=True)
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
        product_construction(everywhere, parts, check=True)
    assert err.value.condition == "a"


def test_product_rejects_dimension_mismatch():
    parts = (seed_r1(5), seed_r2(6), seed_r3(6))
    with pytest.raises(DomainError):
        product_construction(catalog_labeling(3), parts)
    with pytest.raises(DomainError):
        product_construction(catalog_labeling(3), (seed_r1(6), seed_r2(6)))


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
    s, _ = construct(10, 4, verify=True)
    assert len(s) == 61


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


def _run_fresh(code):
    # a fresh interpreter, since the recipe and catalog caches are process-wide
    src = str(Path(hqperc.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], env=env, capture_output=True, text=True
    )


def test_recipes_and_sizes_read_no_asset():
    done = _run_fresh(
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


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
def test_members_keep_no_recipe_node_alive():
    # caching the members of all 110 recipe nodes peaked at 137.6 MiB.  VmHWM, not
    # ru_maxrss: a child spawned by this process inherits its ru_maxrss across exec
    done = _run_fresh(
        """
        from hqperc import construct_members

        assert len(construct_members(200, 4)) == 338_499
        with open("/proc/self/status") as fh:
            print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
        """
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 110 * 1024  # KiB


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
