import hashlib
import json
import random
import sys

import pytest

import hqperc.bootstrap as bootstrap
import hqperc.cli as cli
from hqperc import (
    Automorphism,
    VertexSet,
    apply_automorphism,
    catalog_labeling,
    catalog_seed,
    construct_members,
    format_labeling,
    format_vertex,
    format_vertex_set,
    trace,
)
from hqperc.cli import main
from hqperc.hypercube import format_members


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def seed10_file(tmp_path):
    path = tmp_path / "s4_d10.set"
    path.write_text(format_vertex_set(catalog_seed(10)))
    return str(path)


def test_verify_catalog_seed(capsys, seed10_file):
    code, out, _ = run(capsys, "verify", "--set", seed10_file, "--d", "10", "--r", "4")
    assert code == 0
    assert "cardinality: 61" in out
    assert "percolates: yes" in out


def test_verify_negative(capsys, tmp_path):
    path = tmp_path / "origin.set"
    path.write_text("00000\n")
    code, out, _ = run(capsys, "verify", "--set", str(path), "--d", "5", "--r", "4")
    assert code == 1
    assert "percolates: no" in out


def test_verify_parse_error_names_line(capsys, tmp_path):
    path = tmp_path / "bad.set"
    path.write_text("000\n00x\n")
    code, _, err = run(capsys, "verify", "--set", str(path), "--d", "3", "--r", "2")
    assert code == 2
    assert "line 2" in err


def test_verify_threshold_above_dimension(capsys, tmp_path):
    path = tmp_path / "t.set"
    path.write_text("000\n")
    code, out, err = run(capsys, "verify", "--set", str(path), "--d", "3", "--r", "4")
    assert code == 2
    assert out == ""  # rejected before any report line
    assert err == "error: threshold 4 needs dimension >= 4, got 3\n"


def test_verify_trace_export(capsys, tmp_path):
    path = tmp_path / "even.set"
    path.write_text("000\n110\n101\n011\n")
    trace_path = tmp_path / "trace.json"
    code, out, _ = run(
        capsys, "verify", "--set", str(path), "--d", "3", "--r", "3",
        "--trace", str(trace_path),
    )
    assert code == 0
    assert "rounds: 1" in out
    payload = json.loads(trace_path.read_text())
    assert set(payload) == {"d", "r", "rounds", "percolated"}
    assert payload["d"] == 3 and payload["r"] == 3 and payload["percolated"] is True
    assert payload["rounds"][0] == ["000", "110", "101", "011"]
    assert len(payload["rounds"][1]) == 8


def test_construct_writes_expected_line_count(capsys, tmp_path):
    out_path = tmp_path / "c.set"
    code, out, _ = run(capsys, "construct", "--d", "3", "--r", "3", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "# expected-size: 4"
    assert len(lines) == 5


def test_construct_17_has_255_vertices(capsys, tmp_path):
    out_path = tmp_path / "c17.set"
    code, out, _ = run(capsys, "construct", "--d", "17", "--r", "4", "--out", str(out_path))
    assert code == 0
    data_lines = [l for l in out_path.read_text().splitlines() if not l.startswith("#")]
    assert len(data_lines) == 255


def test_construct_verify_and_round_trip(capsys, tmp_path):
    out_path = tmp_path / "c16.set"
    code, out, _ = run(
        capsys, "construct", "--d", "16", "--r", "4", "--out", str(out_path), "--verify"
    )
    assert code == 0
    assert "verified" in out
    code, out, _ = run(capsys, "verify", "--set", str(out_path), "--d", "16", "--r", "4")
    assert code == 0
    assert "cardinality: 213" in out


def test_construct_verify_failure_exits_1(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "percolates", lambda seed, r: False)
    out_path = tmp_path / "c10.set"
    code, out, err = run(
        capsys, "construct", "--d", "10", "--r", "4", "--out", str(out_path), "--verify"
    )
    assert (code, out, err) == (1, "", "verification failed\n")
    assert not out_path.exists()


def test_construct_recipe_json(capsys, tmp_path):
    out_path = tmp_path / "c18.set"
    recipe_path = tmp_path / "c18.json"
    code, _, _ = run(
        capsys, "construct", "--d", "18", "--r", "4",
        "--out", str(out_path), "--recipe", str(recipe_path),
    )
    assert code == 0
    payload = json.loads(recipe_path.read_text())
    assert payload["size"] == 295
    assert payload["percolation"] == "unverified"
    assert payload["tree"]["kind"] == "product"
    assert payload["tree"]["labeling"] == "meta_l12"
    assert payload["tree"]["counts"] == [55, 33, 9, 1]


@pytest.mark.parametrize(
    "dims", [range(1, 61), pytest.param((120, 200), marks=pytest.mark.longrun)]
)
def test_construct_out_is_format_members_of_construct_members(capsys, tmp_path, dims):
    out_path = tmp_path / "c.set"
    for r in range(1, 5):
        for d in dims:
            if d >= r:
                code, _, _ = run(capsys, "construct", "--d", str(d), "--r", str(r),
                                 "--out", str(out_path))
                assert code == 0
                expected = format_members(d, construct_members(d, r))
                assert out_path.read_bytes() == expected.encode(), (d, r)


def test_construct_is_byte_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.set", tmp_path / "b.set"
    ra, rb = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "construct", "--d", "13", "--r", "4", "--out", str(a), "--recipe", str(ra))
    run(capsys, "construct", "--d", "13", "--r", "4", "--out", str(b), "--recipe", str(rb))
    assert a.read_bytes() == b.read_bytes()
    assert ra.read_bytes() == rb.read_bytes()


def test_construct_beyond_simulation_cap(capsys, tmp_path):
    out_path = tmp_path / "c30.set"
    code, out, _ = run(capsys, "construct", "--d", "30", "--r", "4", "--out", str(out_path))
    assert code == 0
    data_lines = [l for l in out_path.read_text().splitlines() if not l.startswith("#")]
    assert len(data_lines) == 1256
    assert all(len(l) == 30 for l in data_lines)

    code, out, _ = run(
        capsys, "construct", "--d", "30", "--r", "4", "--out", str(out_path), "--verify"
    )
    assert code == 3
    assert "unverifiable at this scale" in out


def test_construct_unsupported_threshold(capsys, tmp_path):
    code, _, err = run(
        capsys, "construct", "--d", "10", "--r", "5", "--out", str(tmp_path / "x.set")
    )
    assert code == 2
    assert "not implemented for r > 4" in err


@pytest.mark.parametrize(
    "d, r, set_digest, recipe_digest",
    [
        (16, 4, "854a43124eea3ba34b3712a782556180f4c2230e093e1309037787f43600733a",
         "7212838ddfb023ca44e059969714f350135e75603edba5caadcece98dabf7cc4"),
        (30, 3, "a62e6f302ab57ba06183be72a902c3bb6d11f39f7469844ce7031b3d8d2de842",
         "63cc49be524e33890339c4584ae902bb3e0fda7abfa59418ef4550ca0c99fe17"),
    ],
)
def test_construct_out_and_recipe_bytes_are_pinned(
    capsys, tmp_path, d, r, set_digest, recipe_digest
):
    out_path, recipe_path = tmp_path / "c.set", tmp_path / "c.json"
    code, _, _ = run(
        capsys, "construct", "--d", str(d), "--r", str(r),
        "--out", str(out_path), "--recipe", str(recipe_path),
    )
    assert code == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == set_digest
    assert hashlib.sha256(recipe_path.read_bytes()).hexdigest() == recipe_digest


@pytest.mark.parametrize(
    "argv, stderr",
    [
        (["table", "--dmax", "10", "--r", "5"],
         "usage: hqperc table [-h] --dmax DMAX --r {1,2,3,4} [--format {text,json,csv}]\n"
         "hqperc table: error: argument --r: invalid choice: 5 (choose from 1, 2, 3, 4)\n"),
        (["bound", "--d", "10", "--r", "5"],
         "error: not implemented for r > 4 (got r=5)\n"),
        (["construct", "--d", "10", "--r", "5", "--out", "unused.set"],
         "error: not implemented for r > 4 (got r=5)\n"),
    ],
)
def test_threshold_5_is_a_pinned_usage_error(capsys, monkeypatch, argv, stderr):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line to the terminal
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", stderr)


def test_closure_command(capsys, tmp_path):
    path = tmp_path / "seed.set"
    path.write_text("000\n110\n101\n011\n")
    closure_path = tmp_path / "closure.set"
    code, out, _ = run(
        capsys, "closure", "--set", str(path), "--d", "3", "--r", "3",
        "--out", str(closure_path),
    )
    assert code == 0
    assert "seed cardinality: 4" in out
    assert "closure cardinality: 8" in out
    assert "percolates: yes" in out
    data_lines = [l for l in closure_path.read_text().splitlines() if not l.startswith("#")]
    assert len(data_lines) == 8


def test_closure_trace_and_out_bytes_are_pinned(capsys, seed10_file, tmp_path):
    # the trace and closure file bytes are a contract: pin them by digest
    trace_path = tmp_path / "trace.json"
    out_path = tmp_path / "closure.set"
    code, out, _ = run(
        capsys, "closure", "--set", seed10_file, "--d", "10", "--r", "4",
        "--trace", str(trace_path), "--out", str(out_path),
    )
    assert code == 0
    assert "rounds: 79" in out
    assert hashlib.sha256(trace_path.read_bytes()).hexdigest() == (
        "873245f4e995115f9e91ec66eeaea2521ccdfbf154479b4de8e1a1a8efdbd6e1"
    )
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == (
        "ea524ee66c97e1f64a027866ed470d95bb6ec2dd761e9ddaad940751fd3e95db"
    )


def _pairs_18():
    # the threshold-2 family: the origin plus disjoint coordinate pairs
    return VertexSet.of(18, [0] + [3 << i for i in range(0, 17, 2)])


def _q15_across_blocks():
    # the Q_15 catalog seed on a subcube that crosses all four 2^16-bit blocks of Q_18
    perm = tuple((j + 9) % 18 for j in range(18))
    seed = VertexSet.of(18, (m << 3 for m in catalog_seed(15)))
    return apply_automorphism(Automorphism(perm, 0b101 << 15), seed)


@pytest.mark.parametrize(
    "seed, r, stdout, digest",
    [
        (
            _pairs_18,
            2,
            "seed cardinality: 10\nrounds: 18\nclosure cardinality: 262144\npercolates: yes\n",
            "d9b2ac5b819f4aa73ccb0031ce34ef45cb5cdb5f24c10f20275d155eb4915446",
        ),
        (
            _q15_across_blocks,
            4,
            "seed cardinality: 179\nrounds: 280\nclosure cardinality: 32768\npercolates: no\n",
            "4e7a7356452b01ac9c614c218a7fe71621cb1fbbcda0780192434b1c55a40aa3",
        ),
    ],
    ids=["percolating", "not-percolating"],
)
def test_multi_block_closure_out_is_pinned(capsys, monkeypatch, tmp_path, seed, r, stdout,
                                          digest):
    # d = 18 is four blocks: the stdout and closure file bytes must depend neither on the
    # split into blocks nor on whether a forked helper runs the blocks of odd weight
    path = tmp_path / "seed.set"
    path.write_text(format_vertex_set(seed()))
    out_path = tmp_path / "closure.set"
    for helper in (False, True):
        monkeypatch.setattr(bootstrap, "_use_helper", lambda nblocks: helper)
        code, out, _ = run(capsys, "closure", "--set", str(path), "--d", "18", "--r", str(r),
                           "--out", str(out_path))
        assert code == 0
        assert out == stdout
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest, helper


def test_multi_block_closure_trace_is_pinned(capsys, monkeypatch, tmp_path):
    # a d = 17 seed with members in both blocks that closes in seven rounds at r = 2.
    # Its last state has zero bytes, so the trace keeps only some state bytes.  The
    # bytes are the same whether or not a forked helper runs block 1
    path = tmp_path / "seed.set"
    seed = VertexSet.of(17, [0, 1 | 1 << 16, 0b110 | 1 << 16, 0b1000 | 1 << 16, 0b11000])
    path.write_text(format_vertex_set(seed))
    trace_path = tmp_path / "trace.json"
    for helper in (False, True):
        monkeypatch.setattr(bootstrap, "_use_helper", lambda nblocks: helper)
        code, out, _ = run(capsys, "closure", "--set", str(path), "--d", "17", "--r", "2",
                           "--trace", str(trace_path))
        assert code == 0
        assert out == "seed cardinality: 5\nrounds: 7\nclosure cardinality: 64\npercolates: no\n"
        assert hashlib.sha256(trace_path.read_bytes()).hexdigest() == (
            "04cabc9e80b7a06867381f9fb5b8432377813fa320ca4b2d74737506a65d2ac7"
        ), helper


def _trace_cases():
    rng = random.Random(20)
    for d in range(1, 9):
        for r in range(1, d + 1):
            for _ in range(3):
                size = rng.randint(1, max(1, (1 << d) // 4))
                yield VertexSet.of(d, rng.sample(range(1 << d), size)), r
    # many state bytes at d = 9..16; at even d the seed lies in a subcube its closure never leaves
    for d in range(9, 17):
        yield VertexSet.of(d, rng.sample(range(1 << (d - 1 + d % 2)), 2 * d)), 2
    yield VertexSet.empty(5), 2  # one empty round
    yield VertexSet.of(6, [0, 7]), 2  # does not percolate
    yield VertexSet.full(4), 3  # already fixed
    # two blocks of 2^16 bits, seven rounds, does not percolate
    yield VertexSet.of(17, [0, 1 | 1 << 16, 0b110 | 1 << 16, 0b1000 | 1 << 16, 0b11000]), 2
    # r = 1 grows Hamming balls: the last rounds span more than one write batch of chunks
    yield VertexSet.of(14, [0]), 1


def test_written_trace_is_the_json_dump_of_to_json(capsys, tmp_path):
    path = tmp_path / "seed.set"
    trace_path = tmp_path / "trace.json"
    outcomes = set()
    for seed, r in _trace_cases():
        path.write_text(format_vertex_set(seed))
        code, _, _ = run(
            capsys, "closure", "--set", str(path), "--d", str(seed.d), "--r", str(r),
            "--trace", str(trace_path),
        )
        assert code == 0
        history = trace(seed, r)
        payload = history.to_json()
        assert payload["rounds"] == [[format_vertex(v, seed.d) for v in s] for s in history.rounds]
        dumped = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert trace_path.read_bytes() == dumped.encode()
        outcomes.add((history.percolated, len(history.rounds) == 1))
    assert outcomes == {(False, False), (False, True), (True, False), (True, True)}


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
def test_trace_is_written_without_holding_its_text(tmp_path, run_fresh):
    # the Q_14 catalog seed closes in 229 rounds; its trace JSON is 23.4 MB.  Writing
    # it adds about 1 MiB to the peak, the joined text would add its size
    seed_path = tmp_path / "seed.set"
    seed_path.write_text(format_vertex_set(catalog_seed(14)))
    trace_path = tmp_path / "trace.json"
    done = run_fresh(
        f"""
        from hqperc.cli import main

        def peak():
            with open("/proc/self/status") as fh:
                return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

        before = peak()
        argv = ["closure", "--set", {str(seed_path)!r}, "--d", "14", "--r", "4",
                "--trace", {str(trace_path)!r}]
        assert main(argv) == 0
        print(peak() - before)
        """
    )
    assert done.returncode == 0, done.stderr
    size = trace_path.stat().st_size
    assert size >= 10_000_000
    grown = int(done.stdout.splitlines()[-1]) * 1024
    assert grown < 0.75 * size


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
def test_construct_200_is_written_from_text_blocks(tmp_path, run_fresh):
    # the 68 MB file comes from its recipe nodes' texts and peaks near 156 MiB;
    # formatting it from the member list peaked at 251 MiB
    out_path = tmp_path / "c200.set"
    done = run_fresh(
        f"""
        from hqperc.cli import main

        assert main(["construct", "--d", "200", "--r", "4", "--out", {str(out_path)!r}]) == 0
        with open("/proc/self/status") as fh:
            print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
        """
    )
    assert done.returncode == 0, done.stderr
    assert out_path.stat().st_size == 68_038_323
    assert int(done.stdout.splitlines()[-1]) < 200 * 1024  # KiB


def test_memory_exhaustion_exits_3(capsys, monkeypatch, tmp_path):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "closure_rounds", exhausted)
    path = tmp_path / "seed.set"
    path.write_text("000\n")
    code, out, err = run(capsys, "closure", "--set", str(path), "--d", "3", "--r", "2")
    assert code == 3
    assert out == "" and err == "error: out of memory\n"


def test_closure_command_non_percolating_still_succeeds(capsys, tmp_path):
    path = tmp_path / "seed.set"
    path.write_text("000\n")
    code, out, _ = run(capsys, "closure", "--set", str(path), "--d", "3", "--r", "2")
    assert code == 0
    assert "percolates: no" in out


def test_meta_verify_catalog(capsys, tmp_path):
    path = tmp_path / "meta_l12.lab"
    path.write_text(format_labeling(catalog_labeling(12)))
    code, out, _ = run(capsys, "meta-verify", "--labeling", str(path), "--k", "12", "--r", "4")
    assert code == 0
    assert "histogram: 55/33/9/1" in out
    assert "meta-percolates: yes" in out


def test_meta_verify_q4(capsys, tmp_path):
    path = tmp_path / "meta_l4.lab"
    path.write_text(format_labeling(catalog_labeling(4)))
    code, out, _ = run(capsys, "meta-verify", "--labeling", str(path), "--k", "4", "--r", "4")
    assert code == 0


def test_meta_verify_all_zero(capsys, tmp_path):
    path = tmp_path / "zero.lab"
    path.write_text("# nothing listed\n")
    code, out, _ = run(capsys, "meta-verify", "--labeling", str(path), "--k", "3", "--r", "3")
    assert code == 1
    assert "meta-percolates: no" in out


def test_meta_verify_label_above_r(capsys, tmp_path):
    path = tmp_path / "bad.lab"
    path.write_text("0000 5\n")
    code, _, err = run(capsys, "meta-verify", "--labeling", str(path), "--k", "4", "--r", "4")
    assert code == 2
    assert "label" in err


def test_meta_verify_checks_the_threshold_before_the_file(capsys, tmp_path):
    # a threshold below 1 gets the message every command prints, not a label-range error
    path = tmp_path / "l3.lab"
    path.write_text(format_labeling(catalog_labeling(3)))
    for r in ("0", "-1"):
        code, out, err = run(capsys, "meta-verify", "--labeling", str(path), "--k", "3", "--r", r)
        assert (code, out, err) == (2, "", f"error: threshold must be a positive integer, got {r}\n")


def test_bound_text_and_json(capsys):
    code, out, _ = run(capsys, "bound", "--d", "10", "--r", "4")
    assert code == 0
    assert "exact: 61" in out
    code, out, _ = run(capsys, "bound", "--d", "20", "--r", "4")
    assert code == 0
    assert out.splitlines() == [
        "d: 20, r: 4", "lower: 396 (ceiled rational bound)", "upper: 399", "gap: 3",
    ]
    code, out, _ = run(capsys, "bound", "--d", "5", "--r", "4", "--format", "json")
    payload = json.loads(out)
    assert payload["lower"] == 13 and payload["upper"] == 14 and payload["gap"] == 1


def test_table_r4_gap_only_at_5(capsys):
    code, out, _ = run(capsys, "table", "--dmax", "15", "--r", "4", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["d"] for row in rows] == list(range(4, 16))
    for row in rows:
        assert row["exact"] == (row["d"] != 5)


def test_table_r3_exact_values(capsys):
    code, out, _ = run(capsys, "table", "--dmax", "6", "--r", "3", "--format", "json")
    rows = json.loads(out)["rows"]
    assert [row["construction"] for row in rows] == [4, 6, 8, 10]
    assert all(row["exact"] for row in rows)


def test_table_r2_csv(capsys):
    code, out, _ = run(capsys, "table", "--dmax", "4", "--r", "2", "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "d,lower,construction,cap,exact"
    assert [l.split(",")[2] for l in lines[1:]] == ["2", "3", "3"]


def test_table_csv_bytes_are_pinned(capsys):
    # the cap column at r <= 3 is the construction, equal to formula_m2/m3/1
    digests = {
        1: "ee4107bf5bb7e6ea340bdf71c690615c1b5109ccb260c2557353a5e59cb198e3",
        2: "6705b4ddc799291215cefcff9b66e8a47d469d87093056390eb868dd22984973",
        3: "ce80d606052cf8ceacc00eac706159ab7d003a07944afea449f588714c2d511c",
        4: "3547d270cb4417e09e2543d168c6e0612ab421eca9e466ca9d6183bf78f01dee",
    }
    for r, digest in digests.items():
        code, out, _ = run(capsys, "table", "--dmax", "200", "--r", str(r), "--format", "csv")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_table_text_bytes_are_pinned(capsys):
    digests = {
        1: "eccbf554dca31fb23caa26fc682075839f2f816c7273cd44f5c94cc85d4c5efc",
        2: "c4cab9344411f2f4f9a832ef684e29857de8f2d61d20880ce0aee772d807e2b6",
        3: "c313a5632b010b6cba7d26af8ab5458db9b03849f8badd6db22d030a236eae6e",
        4: "d5322ce5d2bdb2e53d4868ceb031100d3a01599c24195537d6d55afec9be3b46",
    }
    for r, digest in digests.items():
        code, out, _ = run(capsys, "table", "--dmax", "200", "--r", str(r), "--format", "text")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_table_text_is_deterministic(capsys):
    code, first, _ = run(capsys, "table", "--dmax", "20", "--r", "4")
    code, second, _ = run(capsys, "table", "--dmax", "20", "--r", "4")
    assert first == second


def test_table_dmax_cap(capsys):
    code, _, err = run(capsys, "table", "--dmax", "201", "--r", "4")
    assert code == 2
    assert run(capsys, "table", "--dmax", "3", "--r", "4") == (
        2, "", "--dmax must be at least 4 for r=4\n")


def test_search_witness_exit_0(capsys):
    code, out, _ = run(capsys, "search", "--d", "3", "--r", "3", "--size", "4")
    assert code == 0
    assert len(out.strip().splitlines()) == 4


def test_search_none_exit_1(capsys):
    code, out, _ = run(capsys, "search", "--d", "2", "--r", "2", "--size", "1")
    assert code == 1
    assert out.strip() == "none"
    code, out, _ = run(capsys, "search", "--d", "4", "--r", "4", "--size", "7")
    assert code == 1


def test_search_budget_exit_3(capsys):
    code, _, err = run(capsys, "search", "--d", "4", "--r", "4", "--size", "7", "--budget", "10")
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize(
    "d, r, size, code, stdout, stderr",
    [
        (4, 4, 8, 0, "0000\n1100\n1010\n0110\n1001\n0101\n0011\n1111\n", ""),
        (4, 3, 6, 0, "0000\n1100\n1010\n0101\n0011\n1111\n", ""),
        (5, 4, 5, 1, "none\n", ""),
        (5, 4, 13, 3, "",
         "search aborted: C(32, 13) = 347373600 subsets exceeds budget 2000000\n"),
    ],
)
def test_search_output_is_pinned(capsys, d, r, size, code, stdout, stderr):
    # the first witness in lexicographic order, as the full scan finds it
    assert run(capsys, "search", "--d", str(d), "--r", str(r), "--size", str(size)) == (
        code, stdout, stderr)


@pytest.mark.skipif(sys.platform != "linux", reason="limits RLIMIT_AS")
@pytest.mark.parametrize("d", [21, 28])
def test_search_past_the_pool_cap_exits_3(d, run_fresh):
    # C(2^d, 2^d) = 1 set fits the budget, but the pools would list 2^d - 2 vertices and
    # the witness 2^d members: 287 MiB at d = 21, tens of GiB at d = 28.  Under a 1 GiB
    # address-space limit a regression fails here instead of exhausting the machine
    done = run_fresh(
        f"""
        import resource
        import sys

        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        from hqperc.cli import main

        sys.exit(main(["search", "--d", "{d}", "--r", "4", "--size", "{1 << d}"]))
        """
    )
    assert (done.returncode, done.stdout, done.stderr) == (3, "", (
        f"search aborted: the first prefix space of Q_{d} pools {(1 << d) - 2} vertices,"
        " over the cap of 1048576\n"))


def test_missing_file_is_usage_error(capsys, tmp_path):
    # a missing or non-UTF-8 input file is a usage error (2), never a definite negative (1),
    # and the message names the file
    bad = tmp_path / "bad.set"
    bad.write_bytes(b"\xff\xfe0101\n")
    for path in (tmp_path / "missing.set", bad):
        for argv in (
            ("verify", "--set", str(path), "--d", "4", "--r", "2"),
            ("closure", "--set", str(path), "--d", "4", "--r", "2"),
            ("meta-verify", "--labeling", str(path), "--k", "4", "--r", "2"),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith("error: ") and str(path) in err, argv


def test_byte_order_mark_is_ignored(capsys, tmp_path):
    # a UTF-8 file that starts with a byte-order mark reads as the same file without it
    files = {
        "s.set": format_vertex_set(catalog_seed(4)),
        "l.lab": format_labeling(catalog_labeling(3)),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
        (tmp_path / ("bom-" + name)).write_text("\ufeff" + text, encoding="utf-8")
    for name, argv in (
        ("s.set", ("verify", "--d", "4", "--r", "4", "--set")),
        ("l.lab", ("meta-verify", "--k", "3", "--r", "3", "--labeling")),
    ):
        plain = run(capsys, *argv, str(tmp_path / name))
        assert plain[0] == 0 and plain[2] == "", plain
        assert run(capsys, *argv, str(tmp_path / ("bom-" + name))) == plain


def test_verify_r3_catalog_member(capsys, tmp_path):
    from hqperc import seed_r3

    path = tmp_path / "s3_d8.set"
    path.write_text(format_vertex_set(seed_r3(8)))
    code, out, _ = run(capsys, "verify", "--set", str(path), "--d", "8", "--r", "3")
    assert code == 0
    assert "cardinality: 16" in out


def test_construct_16_writes_213_data_lines(capsys, tmp_path):
    out_path = tmp_path / "c16.set"
    code, _, _ = run(capsys, "construct", "--d", "16", "--r", "4", "--out", str(out_path))
    assert code == 0
    data_lines = [l for l in out_path.read_text().splitlines() if not l.startswith("#")]
    assert len(data_lines) == 213


def test_search_ignores_thread_env(capsys, monkeypatch):
    # the search runs in one process and reads no HQPERC_THREADS, valid or not
    monkeypatch.setenv("HQPERC_THREADS", "lots")
    code, out, _ = run(capsys, "search", "--d", "2", "--r", "2", "--size", "2")
    assert code == 0
    assert out.splitlines() == ["00", "11"]


def _modules_added_by_cli_import(run_fresh, *options):
    listed = "import sys; print(*sorted(sys.modules))"
    bare = run_fresh(listed, *options)
    loaded = run_fresh("import hqperc.cli; " + listed, *options)
    assert bare.returncode == loaded.returncode == 0, loaded.stderr
    added = set(loaded.stdout.split()) - set(bare.stdout.split())
    assert "hqperc.cli" in added
    return added


def test_cli_import_loads_no_heavy_stdlib_module(run_fresh):
    # every command pays for what `import hqperc.cli` loads: dataclasses (with
    # inspect), logging and json cost about 20 ms there and serve only a few paths.
    # select serves only a closure whose rounds are split with a forked helper
    added = _modules_added_by_cli_import(run_fresh)
    assert not added & {"dataclasses", "inspect", "logging", "json", "select"}, sorted(added)


def test_commands_below_two_blocks_load_no_helper(tmp_path, run_fresh):
    # up to d = 16 the state is one block, so no closure splits its rounds and no
    # command compiles the helper's process code or imports select; d = 17 does
    done = run_fresh(
        f"""
        import os, sys
        import hqperc.bootstrap as bootstrap
        from hqperc import catalog_labeling, catalog_seed, format_labeling, format_vertex_set
        from hqperc.cli import main

        os.chdir({str(tmp_path)!r})
        with open("q14.set", "w") as fh:
            fh.write(format_vertex_set(catalog_seed(14)))
        labeling = catalog_labeling(12)
        with open("l12.lab", "w") as fh:
            fh.write(format_labeling(labeling))
        codes = [
            main(["closure", "--set", "q14.set", "--d", "14", "--r", "4", "--out", "c.set",
                  "--trace", "t.json"]),
            main(["construct", "--d", "16", "--r", "4", "--out", "q16.set", "--verify"]),
            main(["search", "--d", "5", "--r", "4", "--size", "5"]),
            main(["meta-verify", "--labeling", "l12.lab", "--k", "12", "--r", str(labeling.r)]),
            main(["table", "--dmax", "200", "--r", "4"]),
        ]
        loaded = lambda: [m for m in ("hqperc._helper", "select") if m in sys.modules]
        print(codes, loaded(), file=sys.stderr)
        bootstrap._use_helper = lambda nblocks: True
        code = main(["construct", "--d", "17", "--r", "4", "--out", "q17.set", "--verify"])
        print(code, loaded(), file=sys.stderr)
        """
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr.splitlines() == [
        "[0, 0, 1, 0, 0] []",
        "0 ['hqperc._helper', 'select']",
    ]


def test_cli_import_without_site_loads_no_resource_reader(run_fresh):
    # -S: no site .pth file preloads anything, as in a stock interpreter.  There
    # importlib.resources brings pathlib, tempfile, shutil, urllib.parse and
    # random (30 modules, about 7 ms); only the catalog's asset reads need it
    added = _modules_added_by_cli_import(run_fresh, "-S")
    forbidden = {"dataclasses", "inspect", "logging", "json", "importlib.resources", "pathlib"}
    assert not added & forbidden, sorted(added)


@pytest.mark.parametrize("module", ["hqperc", "hqperc.cli"])
def test_python_m_runs_the_cli(module, run_fresh, tmp_path):
    missing = str(tmp_path / "missing.set")
    done = run_fresh(None, "-m", module, "verify", "--set", missing, "--d", "3", "--r", "1")
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and "missing.set" in done.stderr


def test_python_m_hqperc_help_exits_0(run_fresh):
    done = run_fresh(None, "-m", "hqperc", "--help")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: hqperc")


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
@pytest.mark.parametrize("d", [16, pytest.param(18, marks=pytest.mark.longrun)])
def test_near_full_search_stays_small(d, run_fresh):
    # C(2^d, 2^d - 1) = 2^d sets fit the default budget, and the first of them
    # percolates.  A table of the states 1 << v, v < 2^d, alone takes 256 MiB at d = 16
    n = 1 << d
    done = run_fresh(
        f"""
        import sys
        from hqperc.cli import main

        code = main(["search", "--d", "{d}", "--r", "4", "--size", "{n - 1}"])
        with open("/proc/self/status") as fh:
            print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")), file=sys.stderr)
        sys.exit(code)
        """
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == format_vertex_set(VertexSet.of(d, range(n - 1)), header=False)
    assert int(done.stderr) < 100 * 1024  # KiB
