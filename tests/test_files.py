"""Polytope text files and diamond JSON files."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fanocheck import (
    HodgeDiamond,
    dim2_corpus,
    dumps_diamond,
    dumps_polytope,
    gen_pn,
    loads_diamond,
    loads_polytope,
    read_polytope,
    write_polytope,
)
from fanocheck.errors import (
    InvalidDiamond,
    NonPrimitiveVertex,
    ParseError,
)

from conftest import (
    DEEP_DIAMOND,
    HUGE_INT_DIAMOND,
    apply_matrix,
    corner_diamond,
    random_unimodular,
)


class TestPolytopeFiles:
    def test_basic_parse(self):
        text = "# the plane\n2 3\n1 0\n0 1\n-1 -1\n"
        P = loads_polytope(text)
        assert P.dim == 2
        assert P.vertices == ((1, 0), (0, 1), (-1, -1))

    def test_comments_and_blank_lines(self):
        text = "\n# comment\n\n1 2\n# another\n1\n-1\n"
        P = loads_polytope(text)
        assert P.vertices == ((1,), (-1,))

    def test_round_trip_preserves_vertex_multiset(self):
        for entry in dim2_corpus():
            text = dumps_polytope(entry.polytope, comment=entry.name)
            again = loads_polytope(text)
            assert again.vertices == entry.polytope.vertices
            assert loads_polytope(dumps_polytope(again)).vertices == again.vertices

    @given(st.integers(1, 5), st.integers(0, 10**6))
    def test_round_trip_random_unimodular_images(self, n, seed):
        rng = random.Random(seed)
        P = apply_matrix(gen_pn(n), random_unimodular(n, rng))
        assert loads_polytope(dumps_polytope(P)).vertices == P.vertices

    def test_big_coordinates_stay_exact(self):
        big = 10**40  # consecutive integers are coprime, so this is primitive
        P = loads_polytope(f"2 2\n{big + 1} {big}\n-1 0\n")
        assert P.vertices[0] == (big + 1, big)
        assert loads_polytope(dumps_polytope(P)).vertices == P.vertices

    def test_bad_header(self):
        with pytest.raises(ParseError):
            loads_polytope("2\n1 0\n0 1\n")
        with pytest.raises(ParseError):
            loads_polytope("a b\n1 0\n")

    def test_wrong_vertex_count(self):
        with pytest.raises(ParseError):
            loads_polytope("2 3\n1 0\n0 1\n")

    def test_wrong_coordinate_count(self):
        with pytest.raises(ParseError):
            loads_polytope("2 2\n1 0 0\n0 1\n")

    def test_non_integer(self):
        with pytest.raises(ParseError):
            loads_polytope("2 2\n1.5 0\n0 1\n")

    def test_empty(self):
        with pytest.raises(ParseError):
            loads_polytope("# nothing here\n")

    def test_validation_error_is_not_parse_error(self):
        with pytest.raises(NonPrimitiveVertex):
            loads_polytope("2 3\n2 0\n0 1\n-1 -1\n")

    def test_read_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            read_polytope(tmp_path / "nope.poly")

    def test_read_non_utf8_file(self, tmp_path):
        path = tmp_path / "latin1.poly"
        path.write_bytes(b"# caf\xe9\n2 3\n1 0\n0 1\n-1 -1\n")
        with pytest.raises(ParseError):
            read_polytope(path)

    def test_file_io(self, tmp_path):
        P = gen_pn(3)
        path = tmp_path / "p3.poly"
        write_polytope(P, path, comment="P^3")
        assert read_polytope(path).vertices == P.vertices


class TestDiamondFiles:
    def test_k3(self):
        text = '{"n": 2, "h": [[1,0,1],[0,20,0],[1,0,1]], "c1_cn1": 0, "c_n": 24}'
        data = loads_diamond(text)
        assert data.diamond.n == 2
        assert data.diamond.h[1][1] == 20
        assert (data.c1_cn1, data.c_n) == (0, 24)

    def test_optional_chern_numbers(self):
        data = loads_diamond('{"n": 1, "h": [[1,0],[0,1]]}')
        assert data.c1_cn1 is None and data.c_n is None

    def test_round_trip(self):
        d = HodgeDiamond.from_table([[1, 0, 1], [0, 20, 0], [1, 0, 1]])
        again = loads_diamond(dumps_diamond(d, c1_cn1=0, c_n=24))
        assert again.diamond == d
        assert (again.c1_cn1, again.c_n) == (0, 24)

    def test_invalid_json(self):
        with pytest.raises(ParseError):
            loads_diamond("{not json")

    def test_missing_fields(self):
        with pytest.raises(ParseError):
            loads_diamond('{"n": 2}')
        with pytest.raises(ParseError):
            loads_diamond('{"h": [[1]]}')

    def test_bad_shape(self):
        with pytest.raises(ParseError):
            loads_diamond('{"n": 2, "h": [[1,0],[0,1]]}')

    def test_non_integer_entries(self):
        with pytest.raises(ParseError):
            loads_diamond('{"n": 1, "h": [[1, 0], [0, 1.5]]}')
        with pytest.raises(ParseError):
            loads_diamond('{"n": 1, "h": [[true, 0], [0, 1]]}')

    def test_non_object(self):
        with pytest.raises(ParseError):
            loads_diamond("[1, 2, 3]")

    def test_integer_past_digit_limit(self):
        with pytest.raises(ParseError):
            loads_diamond(HUGE_INT_DIAMOND)

    def test_deep_nesting(self):
        with pytest.raises(ParseError):
            loads_diamond(DEEP_DIAMOND)

    def test_first_non_integer_is_named(self):
        with pytest.raises(ParseError, match=r"field 'h' must be an integer, got 'x'"):
            loads_diamond('{"n": 1, "h": [[1, "x"], [null, 1]]}')
        with pytest.raises(ParseError, match=r"field 'c_n' must be an integer, got 2.0"):
            loads_diamond('{"n": 1, "h": [[1, 0], [0, 1]], "c1_cn1": 1, "c_n": 2.0}')

    def test_ragged_rows(self):
        with pytest.raises(ParseError, match=r"'h' must be a 2x2 table"):
            loads_diamond('{"n": 1, "h": [[1, 0], [0]]}')
        with pytest.raises(ParseError, match=r"'h' must be a 2x2 table"):
            loads_diamond('{"n": 1, "h": [[1, 0], 7]}')

    def test_integer_whose_sums_pass_the_digit_limit(self):
        with pytest.raises(ParseError, match=r"field 'h' must be below 10\*\*4000"):
            loads_diamond(corner_diamond(10**4299 - 1))

    @pytest.mark.parametrize("name", ["h", "c1_cn1", "c_n"])
    @pytest.mark.parametrize("value", [10**4000, -(10**4000)])
    def test_integer_bound_names_the_field(self, name, value):
        chern = {"c1_cn1": 0, "c_n": 2}
        if name == "h":
            text = corner_diamond(value, **chern)
        else:
            text = corner_diamond(1, **{**chern, name: value})
        with pytest.raises(ParseError, match=f"field '{name}' must be below 10"):
            loads_diamond(text)

    def test_integer_just_below_bound(self):
        top = 10**4000 - 1
        data = loads_diamond(corner_diamond(top, c1_cn1=-top, c_n=top))
        assert data.diamond.h[0][10] == top
        assert (data.c1_cn1, data.c_n) == (-top, top)

    def test_table_validation_propagates(self):
        with pytest.raises(InvalidDiamond):
            loads_diamond('{"n": 1, "h": [[1, 2], [0, 1]]}')
