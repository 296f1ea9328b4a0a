"""Polytope text files and diamond JSON files."""

import errno
import json
import os
import random
from pathlib import Path

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
    read_diamond,
    read_polytope,
    write_diamond,
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

FIXTURES = Path(__file__).parent / "fixtures"


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
        with pytest.raises(ParseError, match=r"^line 2: non-integer coordinate$"):
            loads_polytope("2 2\n1.5 0\n0 1\n")

    @pytest.mark.parametrize(
        "value", [10**4000, -(10**4000), 10**4299 - 1, "9" * 5000, "-" + "9" * 5000]
    )
    def test_coordinate_bound_names_the_line(self, value):
        with pytest.raises(
            ParseError, match=r"^line 4: coordinate must be below 10\*\*4000 in absolute value$"
        ):
            loads_polytope(f"2 3\n1 0\n0 1\n-1 {value}\n")

    @pytest.mark.parametrize("value", [10**4000, "9" * 5000])
    def test_header_bound_names_the_line(self, value):
        with pytest.raises(
            ParseError, match=r"^line 2: header field must be below 10\*\*4000 in absolute value$"
        ):
            loads_polytope(f"# comment\n2 {value}\n1 0\n")

    def test_coordinate_just_below_bound(self):
        top = 10**4000 - 1  # top and 1 are coprime, so the vertex is primitive
        P = loads_polytope(f"2 3\n1 0\n0 1\n{-top} 1\n")
        assert P.vertices[2] == (-top, 1)
        with pytest.raises(ParseError, match=r"^expected 9{4000} vertex lines, found 1$"):
            loads_polytope(f"2 {top}\n1 0\n")

    # Each field is longer than the 4300 digits int() reads, but for its
    # leading zeros.
    @pytest.mark.parametrize(
        "field, value",
        [
            ("-" + "0" * 5000 + "1", -1),
            ("+" + "0" * 5000 + "1", 1),
            ("0_" * 4400 + "1", 1),
            ("-" + "0" * 5000 + "9" * 4000, 1 - 10**4000),
        ],
        ids=["minus-one", "plus-one", "underscores", "4000-digits"],
    )
    def test_leading_zeros_past_the_digit_limit(self, field, value):
        P = loads_polytope(f"2 3\n1 0\n0 1\n{field} -1\n")
        assert P.vertices[2] == (value, -1)
        header = loads_polytope(f"2 {'0' * 5000}3\n1 0\n0 1\n-1 -1\n")
        assert header.vertices == ((1, 0), (0, 1), (-1, -1))

    def test_leading_zeros_then_too_many_digits(self):
        field = "-" + "0" * 5000 + "1" + "0" * 4000  # -10**4000
        with pytest.raises(
            ParseError, match=r"^line 4: coordinate must be below 10\*\*4000 in absolute value$"
        ):
            loads_polytope(f"2 3\n1 0\n0 1\n{field} -1\n")

    @pytest.mark.parametrize(
        "field",
        ["_" + "0" * 5000 + "1", "0" * 5000 + "1_", "0__" + "0" * 5000, "-", "0" * 5000 + "x"],
        ids=["leading-underscore", "trailing-underscore", "double-underscore", "sign", "letter"],
    )
    def test_long_non_integer(self, field):
        with pytest.raises(ParseError, match=r"^line 4: non-integer coordinate$"):
            loads_polytope(f"2 3\n1 0\n0 1\n{field} -1\n")

    def test_empty(self):
        with pytest.raises(ParseError):
            loads_polytope("# nothing here\n")

    def test_validation_error_is_not_parse_error(self):
        # The file parses; its hull refuses the vertex (2, 0).
        P = loads_polytope("2 3\n2 0\n0 1\n-1 -1\n")
        with pytest.raises(NonPrimitiveVertex):
            P.hull

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

    def test_file_io(self, tmp_path):
        k3 = read_diamond(FIXTURES / "k3.json")
        path = tmp_path / "k3.json"
        write_diamond(k3.diamond, path, c1_cn1=k3.c1_cn1, c_n=k3.c_n)
        assert read_diamond(path) == k3

    def test_read_missing_file(self, tmp_path):
        # in the OSError's own words, as a refused entry gives them
        path = tmp_path / "nope.json"
        with pytest.raises(ParseError) as exc:
            read_diamond(path)
        strerror = os.strerror(errno.ENOENT)
        assert str(exc.value) == f"[Errno {errno.ENOENT}] {strerror}: {str(path)!r}"

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

    def test_field_named_twice(self):
        # json.loads would keep the last c_n and check the table with it.
        text = '{"n": 2, "h": [[1,0,0],[0,1,0],[0,0,1]], "c1_cn1": 9, "c_n": 3, "c_n": 4}'
        with pytest.raises(ParseError, match=r"^field 'c_n' is given more than once$"):
            loads_diamond(text)
        with pytest.raises(ParseError, match=r"^field 'a' is given more than once$"):
            loads_diamond('{"n": 0, "h": [[1]], "x": {"a": 1, "a": 1}}')

    def test_byte_order_mark_left_by_decoding(self):
        # A second mark survives decode_text; it is refused as json.loads
        # refuses it.
        with pytest.raises(ParseError) as info:
            loads_diamond("\ufeff" + '{"n": 0, "h": [[1]]}')
        with pytest.raises(ValueError) as reference:
            json.loads("\ufeff{}")
        assert str(info.value) == f"invalid JSON: {reference.value}"

    def test_integer_past_digit_limit(self):
        with pytest.raises(ParseError):
            loads_diamond(HUGE_INT_DIAMOND)

    @pytest.mark.parametrize("sign", ["", "-"], ids=["positive", "negative"])
    def test_integer_past_digit_limit_is_the_bound(self, sign):
        # A number int() refuses for its length is valid JSON, past the
        # bound, not a decoding failure.
        huge = sign + "9" * 4301
        texts = [
            '{"n": 1, "h": [[1, 0], [0, ' + huge + "]]}",
            '{"n": 1, "h": [[1, 0], [0, 1]], "c1_cn1": 1, "c_n": ' + huge + "}",
        ]
        for text in texts:
            with pytest.raises(
                ParseError, match=r"^integers must be below 10\*\*4000 in absolute value$"
            ) as info:
                loads_diamond(text)
            assert info.value.__cause__ is None

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

    @pytest.mark.parametrize(
        "n", ["9" * 4300, str(10**4000), str(-(10**4000))], ids=["4300 nines", "top", "bottom"]
    )
    def test_dimension_bound(self, n):
        # n is bounded as every other integer is, before the sign test; with
        # 4300 nines, n + 1 in the shape message passed the digit limit of str().
        with pytest.raises(
            ParseError, match=r"^field 'n' must be below 10\*\*4000 in absolute value$"
        ):
            loads_diamond('{"n": ' + n + ', "h": [[1]]}')

    def test_integer_just_below_bound(self):
        top = 10**4000 - 1
        data = loads_diamond(corner_diamond(top, c1_cn1=-top, c_n=top))
        assert data.diamond.h[0][10] == top
        assert (data.c1_cn1, data.c_n) == (-top, top)

    def test_table_validation_propagates(self):
        with pytest.raises(InvalidDiamond):
            loads_diamond('{"n": 1, "h": [[1, 2], [0, 1]]}')
