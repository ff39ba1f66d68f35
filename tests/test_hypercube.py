import functools
import random

import pytest

from hqperc import (
    Automorphism,
    DomainError,
    FormatError,
    VertexSet,
    apply_automorphism,
    format_vertex,
    format_vertex_set,
    layer,
    neighbors,
    parse_vertex,
    parse_vertex_set,
    weight,
)
from hqperc import hypercube
from hqperc.hypercube import D_MAX, check_dimension


def test_neighbors_of_origin_q3():
    # (1,0,0), (0,1,0), (0,0,1) in coordinate order
    assert neighbors(0, 3) == [1, 2, 4]


def test_neighbors_of_all_ones_q2():
    assert set(neighbors(3, 2)) == {parse_vertex("01"), parse_vertex("10")}


def test_neighbors_regularity_q4():
    for v in range(16):
        nb = neighbors(v, 4)
        assert len(nb) == len(set(nb)) == 4
        assert v not in nb


@pytest.mark.parametrize("d", range(1, 11))
def test_neighbors_regularity_and_involution(d):
    for v in range(1 << d):
        nb = neighbors(v, d)
        assert len(set(nb)) == d and v not in nb
        for i in range(d):
            assert (v ^ (1 << i)) ^ (1 << i) == v


def test_neighbors_rejects_bad_vertex():
    with pytest.raises(DomainError):
        neighbors(8, 3)


def test_weight():
    assert weight(0) == 0
    assert weight(parse_vertex("1101")) == 3
    assert weight(parse_vertex("11111")) == 5


def test_layer_origin_and_binomial():
    assert layer(3, 0) == VertexSet.of(3, [0])
    assert len(layer(4, 2)) == 6


def test_layer_union_is_even_weight_set():
    even = layer(3, 0) | layer(3, 2)
    assert even == VertexSet.of(3, [v for v in range(8) if weight(v) % 2 == 0])
    assert len(even) == 4


def test_layer_out_of_range():
    with pytest.raises(DomainError):
        layer(3, 4)
    with pytest.raises(DomainError):
        layer(3, -1)


def test_apply_automorphism_identity():
    s = VertexSet.of(4, [0, 3, 9])
    assert apply_automorphism(Automorphism.identity(4), s) == s


def test_apply_automorphism_full_flip_maps_bottom_layer_to_top():
    flip_all = Automorphism(tuple(range(3)), 7)
    assert apply_automorphism(flip_all, layer(3, 0)) == layer(3, 3)


def test_apply_automorphism_preserves_cardinality():
    rng = random.Random(7)
    for _ in range(100):
        s = VertexSet(4, rng.getrandbits(16))
        a = Automorphism.random(rng, 4)
        assert len(apply_automorphism(a, s)) == len(s)


def test_automorphism_compose_inverse_is_identity():
    rng = random.Random(11)
    for _ in range(50):
        d = rng.randint(1, 10)
        a = Automorphism.random(rng, d)
        assert a.compose(a.inverse()) == Automorphism.identity(d)
        assert a.inverse().compose(a) == Automorphism.identity(d)
        assert type(a.inverse()) is Automorphism and a.inverse().inverse() == a
        for v in (0, (1 << d) - 1, rng.randrange(1 << d)):
            assert a.inverse().apply(a.apply(v)) == v
            assert a.apply(a.inverse().apply(v)) == v


def test_automorphism_dimension_mismatch():
    a = Automorphism.identity(3)
    with pytest.raises(DomainError, match="dimension mismatch: 3 != 4"):
        a.compose(Automorphism.identity(4))
    with pytest.raises(DomainError, match="dimension mismatch: 3 != 4"):
        apply_automorphism(a, VertexSet.empty(4))


def test_automorphism_preserves_adjacency():
    rng = random.Random(13)
    for _ in range(10_000):
        d = rng.randint(2, 12)
        a = Automorphism.random(rng, d)
        u = rng.randrange(1 << d)
        v = u ^ (1 << rng.randrange(d))
        w = rng.randrange(1 << d)
        assert weight(a.apply(u) ^ a.apply(v)) == 1
        assert (weight(u ^ w) == 1) == (weight(a.apply(u) ^ a.apply(w)) == 1)


def test_automorphism_rejects_non_permutation():
    with pytest.raises(DomainError):
        Automorphism((0, 0, 1), 0)


def test_vertex_string_round_trip():
    rng = random.Random(3)
    for _ in range(200):
        d = rng.randint(1, 20)
        v = rng.randrange(1 << d)
        assert parse_vertex(format_vertex(v, d), d) == v


def test_vertex_set_basics():
    s = VertexSet.of(3, [1, 6])
    assert len(s) == 2 and 1 in s and 0 not in s
    assert list(s) == [1, 6]
    assert s.add(0) == VertexSet.of(3, [0, 1, 6])
    assert s.discard(6) == VertexSet.of(3, [1])
    assert s | VertexSet.of(3, [0]) == VertexSet.of(3, [0, 1, 6])
    assert s - VertexSet.of(3, [1]) == VertexSet.of(3, [6])
    assert (s & VertexSet.of(3, [6, 7])) == VertexSet.of(3, [6])
    assert s.issubset(VertexSet.full(3))
    assert not VertexSet.full(3).issubset(s)
    assert s.complement() == VertexSet.of(3, [0, 2, 3, 4, 5, 7])
    assert VertexSet.full(3).is_full()


def test_vertex_set_iteration_is_the_ascending_bit_scan():
    rng = random.Random(5)
    boundary = [0, 7, 8, 15, 16, (1 << 20) - 1]
    cases = [
        VertexSet.empty(20),
        VertexSet.full(20),
        VertexSet(20, rng.getrandbits(1 << 20)),
        VertexSet.of(20, rng.sample(range(1 << 20), 50)),
        VertexSet.of(20, boundary),
        VertexSet.of(4, [7, 8, 15]),
        VertexSet.full(1),
        VertexSet.full(3),
        VertexSet(12, rng.getrandbits(1 << 12)),
    ]
    for s in cases:
        expected = [v for v, c in enumerate(bin(s.bits)[:1:-1]) if c == "1"]
        assert list(s) == expected
        if s.d <= 12:
            assert expected == [v for v in range(1 << s.d) if s.bits >> v & 1]
        assert VertexSet.of(s.d, expected) == s
    assert VertexSet.of(20, boundary + boundary).bits == sum(1 << v for v in boundary)


def test_vertex_set_dimension_checks():
    with pytest.raises(DomainError):
        VertexSet.of(2, [4])
    with pytest.raises(DomainError):
        VertexSet(0)
    with pytest.raises(DomainError):
        VertexSet(29)
    for d in (3.0, True, "3"):
        with pytest.raises(DomainError, match="dimension must be an integer"):
            VertexSet(d)
    with pytest.raises(DomainError):
        VertexSet.of(2, [0]) | VertexSet.of(3, [0])
    with pytest.raises(TypeError, match="expected VertexSet, got int"):
        VertexSet.of(2, [0]) | 3
    for bits in (True, 1.5):
        with pytest.raises(DomainError, match="bitmask must be an integer"):
            VertexSet(3, bits)
    for bits in (-1, 1 << 8):
        with pytest.raises(DomainError, match="outside Q_3"):
            VertexSet(3, bits)


def test_vertex_set_repr_lists_at_most_five_members_past_eight():
    assert repr(VertexSet.of(3, [1, 6])) == "VertexSet(d=3, {100, 011})"
    assert repr(VertexSet.full(3)) == "VertexSet(d=3, {000, 100, 010, 110, 001, 101, 011, 111})"
    assert repr(VertexSet.of(4, range(9))) == (
        "VertexSet(d=4, |S|=9, {0000, 1000, 0100, 1100, 0010, ...})"
    )


def test_vertex_set_is_immutable():
    s = VertexSet.of(2, [1])
    with pytest.raises(AttributeError):
        s.bits = 0
    with pytest.raises(AttributeError):
        del s.bits
    with pytest.raises(AttributeError):
        del s.d
    assert s == VertexSet.of(2, [1])


def test_parse_vertex_set_round_trip():
    s = VertexSet.of(5, [0, 9, 29, 31])
    assert parse_vertex_set(format_vertex_set(s)) == s
    assert parse_vertex_set(format_vertex_set(s, header=False), d=5) == s
    full = VertexSet.full(20)
    text = format_vertex_set(full)
    assert text.count("\n") == (1 << 20) + 1
    assert parse_vertex_set(text) == full


def test_parse_vertex_set_features_and_errors():
    text = "# comment\n\n101\n011\n"
    s = parse_vertex_set(text)
    assert s == VertexSet.of(3, [5, 6])

    with pytest.raises(FormatError) as err:
        parse_vertex_set("101\n101\n")
    assert "line 2" in str(err.value) and "duplicate" in str(err.value)

    # vertices 7 and 8 sit on either side of a byte boundary of the state
    with pytest.raises(FormatError) as err:
        parse_vertex_set("11100000\n00010000\n# note\n\n00010000\n11100000\n")
    assert str(err.value) == "line 5: duplicate vertex 00010000"

    with pytest.raises(FormatError) as err:
        parse_vertex_set("101\n01\n")
    assert "line 2" in str(err.value)

    with pytest.raises(FormatError) as err:
        parse_vertex_set("10x\n")
    assert "line 1" in str(err.value)

    with pytest.raises(FormatError):
        parse_vertex_set("# expected-size: 2\n101\n")

    with pytest.raises(FormatError):
        parse_vertex_set("")

    # dimension cross-check against the --d style argument
    with pytest.raises(FormatError):
        parse_vertex_set("101\n", d=4)


def test_parse_vertex_set_expected_size_directive_ok():
    s = parse_vertex_set("# expected-size: 2\n00001\n10000\n")
    assert len(s) == 2 and s.d == 5


def _reference_parse(text, d=None):
    """The per-line parser, kept as the reference for parse_vertex_set."""
    buf = None
    dim = d
    expected = None
    count = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line.lower().startswith("# expected-size:"):
                value = line[len("# expected-size:"):].strip()
                if not (value.isascii() and value.isdigit()):
                    raise FormatError(f"bad expected-size value {value!r}", lineno)
                declared = int(value)
                if expected is not None and expected != declared:
                    raise FormatError("conflicting expected-size directives", lineno)
                expected = declared
            continue
        if dim is None:
            if len(line) > D_MAX:
                raise FormatError(f"dimension too large: {len(line)} > {D_MAX}", lineno)
            dim = len(line)
        try:
            v = parse_vertex(line, dim)
        except FormatError as exc:
            raise FormatError(str(exc), lineno) from None
        if buf is None:
            buf = bytearray(((1 << check_dimension(dim)) + 7) // 8)
        mask = 1 << (v & 7)
        if buf[v >> 3] & mask:
            raise FormatError(f"duplicate vertex {line}", lineno)
        buf[v >> 3] |= mask
        count += 1
    if dim is None:
        raise FormatError("no vertices and no dimension given")
    if expected is not None and expected != count:
        raise FormatError(f"expected-size {expected} but found {count} vertices")
    return VertexSet(dim, int.from_bytes(buf or b"", "little"))


def _outcome(parse, text, d):
    try:
        return parse(text, d)
    except (FormatError, DomainError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)


@pytest.mark.parametrize(
    "text, d",
    [
        ("# expected-size: 2\r\n101\r\n011\r\n", None),  # CRLF
        ("  101 \n\t011\t\n \n", 3),  # whitespace-padded lines
        ("# EXPECTED-SIZE: 2\n101\n011\n", None),
        ("# expected-size: 02\n101\n011\n", None),
        ("# expected-size: 2\n101\n# expected-size: 3\n011\n", None),
        ("# expected-size: 2\n101\n# expected-size: 002\n011\n", None),
        ("# expected-size: two\n101\n", None),
        # values that int() alone reads as the true count: 10, 1 and 2
        ("# expected-size: 1_0\n" + "".join(format_vertex(v, 4) + "\n" for v in range(10)), None),
        ("# expected-size: \u0661\n101\n", None),
        ("# expected-size: +2\n101\n011\n", None),
        ("# expected-size: +2\n101\n0x1\n", None),  # a bad data line too: the per-line path
        ("# expected-size: 3\n101\n011\n", None),
        ("11100000\n00010000\n# note\n\n00010000\n11100000\n", None),  # duplicate at a byte boundary
        ("1" * (D_MAX + 1) + "\n", None),  # longer than D_MAX, no d given
        ("101\n", 4),  # d mismatch
        ("101\n0110\n", None),
        ("1x1\n", None),
        ("1\uff101\n", None),  # a non-ASCII digit
        ("0" * (D_MAX + 2) + "\n", D_MAX + 2),
        ("# expected-size: 0\n", 5),  # no data lines, d given
        ("# comment only\n", None),
        ("", None),
        ("", 0),
    ],
)
def test_parse_vertex_set_matches_the_per_line_parser(text, d):
    assert _outcome(parse_vertex_set, text, d) == _outcome(_reference_parse, text, d)


def _random_vertex_text(rng):
    d = rng.randint(1, 10)
    vertices = rng.sample(range(1 << d), rng.randint(0, min(24, 1 << d)))
    if vertices and rng.random() < 0.15:
        vertices.insert(rng.randrange(len(vertices) + 1), rng.choice(vertices))
    lines = [format_vertex(v, d) for v in vertices]
    n = len(vertices)
    for _ in range(rng.randint(0, 3)):
        at = rng.randrange(len(lines) + 1)
        op = rng.randrange(5)
        if op == 0:
            lines.insert(at, rng.choice(["# note", "#", "", "   ", "\t"]))
        elif op == 1:
            lines.insert(at, rng.choice([
                f"# expected-size: {n}", f"# EXPECTED-SIZE: {n}", f"# expected-size: 0{n}",
                f"#  Expected-Size:{n}", f"# expected-size: {n + 1}", "# expected-size: x",
                f"# expected-size:   {n}  ",
            ]))
        elif op == 2 and lines:
            lines[at - 1] = rng.choice([" ", "\t", ""]) + lines[at - 1] + rng.choice([" ", ""])
        elif op == 3 and lines and rng.random() < 0.5:
            line = lines[at - 1]
            i = rng.randrange(len(line) + 1)
            lines[at - 1] = rng.choice([
                line[:i] + "x" + line[i + 1:], line[:i] + line[i + 1:], line[:i] + "1" + line[i:],
            ])
        elif op == 4 and rng.random() < 0.2:
            lines.insert(at, "1" * (D_MAX + 1))
    end = rng.choice(["\n", "\r\n", "\r"])
    text = end.join(lines) + rng.choice(["", end])
    return text, rng.choice([None, None, d, d, d + 1, d - 1])


def test_parse_vertex_set_matches_the_per_line_parser_on_random_texts():
    rng = random.Random(41)
    kinds = set()
    for _ in range(3000):
        text, d = _random_vertex_text(rng)
        got = _outcome(parse_vertex_set, text, d)
        assert got == _outcome(_reference_parse, text, d), (text, d)
        # the first word of the message, after any "line N: "
        kinds.add("ok" if isinstance(got, VertexSet) else got[1].split(": ", 1)[-1].split()[0])
    assert kinds >= {
        "ok", "duplicate", "expected", "not", "conflicting", "bad", "expected-size", "dimension"
    }


@functools.lru_cache(maxsize=None)
def _byte_table_cases():
    # d = 1..3 have one partial byte; d = 4..8, 9..16 and 17..28 parse through 8-, 16- and
    # 32-bit slots; full and random sets up to d = 17, sparse ones (with both ends of the
    # cube) above.  Each set comes with its lines from the per-vertex formatter
    rng = random.Random(21)
    sets = []
    for d in (1, 2, 3, 4, 7, 8, 9, 15, 16, 17):
        sets += [VertexSet.empty(d), VertexSet.full(min(d, 15))]
        sets.append(VertexSet.of(d, rng.sample(range(1 << d), rng.randint(1, 1 << min(d, 14)))))
    for d in (24, 25, 28):
        top = (1 << d) - 1
        sets.append(VertexSet.of(d, [0, 7, 8, top - 8, top, *rng.sample(range(1 << d), 300)]))
    return tuple((s, tuple(format_vertex(v, s.d) for v in s)) for s in sets)


def test_format_vertex_set_matches_the_per_vertex_formatter():
    for s, lines in _byte_table_cases():
        text = format_vertex_set(s)
        assert text == "\n".join([f"# expected-size: {len(s)}", *lines]) + "\n"
        assert format_vertex_set(s, header=False) == (text.partition("\n")[2] or "\n")


def test_packed_parser_matches_the_per_vertex_reference():
    rng = random.Random(22)
    for s, lines in _byte_table_cases():
        lines = list(lines)
        rng.shuffle(lines)
        for _ in range(rng.randint(1, 4)):
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(["# note", "", "  "]))
        lines = [rng.choice(["", " ", "\t"]) + line + rng.choice(["", "  "]) for line in lines]
        lines.insert(rng.randrange(len(lines) + 1), f"# expected-size: {len(s)}")
        text = "\n".join(lines) + "\n"
        # the bulk path itself must take the text, not fall back to the per-line parser
        assert hypercube._parse_bulk(list(map(str.strip, text.splitlines())), s.d) == s
        if s and s.d < 24:
            assert parse_vertex_set(text) == s


@pytest.mark.parametrize("d", [3, 9, 17, 25])
def test_packed_parser_leaves_bad_lines_to_the_per_line_parser(d):
    s = VertexSet.of(d, [1, 4, (1 << d) - 1])
    lines = format_vertex_set(s).splitlines()  # the header, then three vertex lines
    for bad, message in (
        (lines + [lines[2]], f"line 5: duplicate vertex {lines[2]}"),
        (lines[:2] + [lines[2][:-1] + "x"] + lines[3:], "line 3: not a 0/1 coordinate string"),
        (lines[:3] + [lines[3] + "0"] + lines[4:], f"line 4: expected {d} coordinates, got {d + 1}"),
    ):
        text = "\n".join(bad) + "\n"
        assert hypercube._parse_bulk(bad, d) is None
        with pytest.raises(FormatError) as err:
            parse_vertex_set(text, d)
        assert str(err.value).startswith(message)


def test_packed_parser_checks_every_block_of_lines():
    lines = format_vertex_set(VertexSet.full(13)).splitlines()  # 8,193 lines: two blocks and one
    lines[-1] = lines[-1][:-1] + "2"
    assert hypercube._parse_bulk(lines, 13) is None
    with pytest.raises(FormatError) as err:
        parse_vertex_set("\n".join(lines) + "\n", 13)
    assert str(err.value).startswith(f"line {len(lines)}: not a 0/1 coordinate string")
