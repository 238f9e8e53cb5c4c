"""Round trips and schema validation for the JSON text formats."""

import math

import numpy as np
import pytest

from ncfuncalc import (
    DomainDescriptor,
    FreePoly,
    MatrixTuple,
    delta_polydisk,
    from_poly,
    mobius_realization,
)
from ncfuncalc.formats import (
    ParseError,
    directions_from_obj,
    domain_from_obj,
    domain_to_obj,
    dump_json,
    handle_from_obj,
    handle_to_obj,
    load_json,
    matrix_from_obj,
    matrix_to_obj,
    poly_from_obj,
    poly_to_obj,
    polymatrix_from_obj,
    polymatrix_to_obj,
    realization_from_obj,
    realization_to_obj,
    tuple_from_obj,
    tuple_to_obj,
    write_json_atomic,
)

from _helpers import random_matrix, random_poly, random_tuple, rng_for


def _declaring(make, key, value):
    obj = make()
    obj[key] = value
    return obj


_ZERO = {"re": 0, "im": 0}


class TestSchemaMessages:
    """Each reader names what is wrong with a document of the wrong shape."""

    @pytest.mark.parametrize(
        "read, obj, message",
        [
            (matrix_from_obj, {"rows": 2, "cols": 2, "entries": [[_ZERO] * 2, [_ZERO]]},
             "matrix: row 1 must have 2 entries"),
            (tuple_from_obj, [1], "tuple: expected an object with 'components'"),
            (tuple_from_obj, _declaring(lambda: tuple_to_obj(MatrixTuple.zeros(2, 2)), "dim", 3),
             "tuple: declared dim=3 but components are 2x2"),
            (matrix_from_obj, {"rows": 0, "cols": -1, "entries": []},
             "matrix: rows and cols must be at least 0, got 0 and -1"),
            (matrix_from_obj, {"rows": -1, "cols": 2, "entries": []},
             "matrix: rows and cols must be at least 0, got -1 and 2"),
            (tuple_from_obj, {"components": [{"rows": 0, "cols": -1, "entries": []}]},
             "tuple: component 0: rows and cols must be at least 0, got 0 and -1"),
            (directions_from_obj, {"directions": 5}, "directions: expected a list of tuples"),
            (polymatrix_from_obj, [], "polymatrix: expected an object with 'entries'"),
            (polymatrix_from_obj, _declaring(lambda: polymatrix_to_obj(delta_polydisk(2)), "I", 3),
             "polymatrix: declared I=3 but found 2 rows"),
            (polymatrix_from_obj, _declaring(lambda: polymatrix_to_obj(delta_polydisk(2)), "J", 1),
             "polymatrix: declared J=1 but found 2 columns"),
            (realization_from_obj, [], "realization: expected an object"),
            (domain_from_obj, {"radius": 1}, "domain: expected an object with 'kind'"),
            (handle_from_obj, {"kind": "poly"},
             "handle: expected an object with 'kind' and 'payload'"),
            (handle_from_obj, {"kind": "spline", "payload": {}},
             "handle: unknown handle kind 'spline'"),
        ],
    )
    def test_wrong_shape_is_named(self, read, obj, message):
        with pytest.raises(ParseError) as err:
            read(obj)
        assert str(err.value) == message


class TestMatrixFormat:
    def test_round_trip_preserves_doubles(self):
        rng = rng_for(100)
        a = random_matrix(rng, 3)
        a = a + (1 / 3) * np.ones((3, 3))  # non-terminating decimal
        back = matrix_from_obj(matrix_to_obj(a))
        np.testing.assert_array_equal(back, a)

    def test_json_text_round_trip(self):
        import json

        a = np.array([[1 / 3 + 1j * math.pi]])
        text = dump_json(matrix_to_obj(a))
        back = matrix_from_obj(json.loads(text))
        np.testing.assert_array_equal(back, a)

    def test_schema_errors(self):
        with pytest.raises(ParseError):
            matrix_from_obj({"rows": 2, "cols": 2, "entries": [[{"re": 0, "im": 0}]]})
        with pytest.raises(ParseError):
            matrix_from_obj({"rows": 1, "cols": 1, "entries": [[{"re": 0}]]})
        with pytest.raises(ParseError):
            matrix_from_obj([1, 2])


class TestTupleFormat:
    def test_round_trip(self):
        x = random_tuple(rng_for(101), 3, 2)
        back = tuple_from_obj(tuple_to_obj(x))
        for r in range(3):
            np.testing.assert_array_equal(back[r], x[r])

    def test_declared_fields_checked(self):
        x = random_tuple(rng_for(102), 2, 2)
        obj = tuple_to_obj(x)
        obj["d"] = 5
        with pytest.raises(ParseError):
            tuple_from_obj(obj)

    @pytest.mark.parametrize("components", [5, None])
    def test_components_that_are_not_a_list(self, components):
        with pytest.raises(ParseError, match="^tuple: .* is not iterable$"):
            tuple_from_obj({"components": components})

    def test_directions_list(self):
        rng = rng_for(103)
        hs = [random_tuple(rng, 2, 2) for _ in range(3)]
        obj = {"directions": [tuple_to_obj(h) for h in hs]}
        back = directions_from_obj(obj)
        assert len(back) == 3


class TestPolyFormat:
    def test_round_trip(self):
        p = random_poly(rng_for(104), 3, 4)
        assert poly_from_obj(poly_to_obj(p)) == p

    def test_canonical_order(self):
        p = FreePoly(2, {(1, 0): 1.0, (0,): 2.0, (): 3.0})
        words = [tuple(t["word"]) for t in poly_to_obj(p)["terms"]]
        assert words == [(), (0,), (1, 0)]

    def test_schema_errors(self):
        with pytest.raises(ParseError):
            poly_from_obj({"terms": []})
        with pytest.raises(ParseError):
            poly_from_obj({"d": 1, "terms": [{"word": [3], "re": 1, "im": 0}]})

    @pytest.mark.parametrize("entries", [5, [5]])
    def test_polymatrix_entries_that_are_not_rows(self, entries):
        with pytest.raises(ParseError, match="^polymatrix: .* is not iterable$"):
            polymatrix_from_obj({"entries": entries})


class TestRealizationFormat:
    def test_round_trip(self):
        r = mobius_realization(0.3 - 0.2j)
        back = realization_from_obj(realization_to_obj(r))
        assert back.m == r.m and back.A == r.A
        np.testing.assert_array_equal(back.B, r.B)
        np.testing.assert_array_equal(back.D, r.D)
        assert back.delta.entries[0][0] == r.delta.entries[0][0]

    def test_shape_error_surfaces_as_parse_error(self):
        obj = realization_to_obj(mobius_realization(0.3))
        obj["m"] = 2
        with pytest.raises(ParseError):
            realization_from_obj(obj)


def _set(obj, path, value):
    """``obj`` with the field at ``path`` (keys and list indices) set to ``value``."""
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return obj


def _poly_handle():
    return handle_to_obj(from_poly(FreePoly(2, {(): 1.0, (0, 1): 0.5})))


def _series_handle():
    from ncfuncalc import SeriesFunction, from_series

    series = SeriesFunction([FreePoly(1, {(0,) * k: 1.0}) for k in range(4)], 2.0)
    return handle_to_obj(from_series(series, truncation=3))


class TestIntegerFields:
    """Sizes, degrees and letters are JSON integers: a float, a bool or a
    string is refused under its position, never truncated."""

    @pytest.mark.parametrize(
        "read, make, path, value, message",
        [
            (handle_from_obj, _poly_handle, ("payload", "terms", 1, "word"), [0.7, 1.9],
             "handle: payload: term 1: word letter must be a JSON integer: 0.7"),
            (handle_from_obj, _poly_handle, ("payload", "terms", 1, "word"), [0, True],
             "handle: payload: term 1: word letter must be a JSON integer: True"),
            (handle_from_obj, _poly_handle, ("payload", "d"), 2.6,
             "handle: payload: d must be a JSON integer: 2.6"),
            (handle_from_obj, _series_handle, ("payload", "truncation"), 3.9,
             "handle: truncation must be a JSON integer: 3.9"),
            (handle_from_obj, lambda: {"kind": "control", "payload": {"name": "fixed-corner"}},
             ("payload", "d"), 2.5, "handle: d must be a JSON integer: 2.5"),
            (matrix_from_obj, lambda: matrix_to_obj(np.eye(1)), ("rows",), 1.9,
             "matrix: rows must be a JSON integer: 1.9"),
            (tuple_from_obj, lambda: tuple_to_obj(MatrixTuple.zeros(1, 2)), ("dim",), "2",
             "tuple: dim must be a JSON integer: '2'"),
            (realization_from_obj, lambda: realization_to_obj(mobius_realization(0.3)),
             ("m",), 1.0, "realization: m must be a JSON integer: 1.0"),
            (realization_from_obj, lambda: realization_to_obj(mobius_realization(0.3)),
             ("delta", "J"), True, "realization: delta: J must be a JSON integer: True"),
        ],
        ids=["float letters", "bool letter", "float d", "float truncation", "float control d",
             "float rows", "string dim", "float m", "bool J"],
    )
    def test_non_integer_is_a_parse_error_at_its_position(self, read, make, path, value, message):
        obj = _set(make(), path, value)
        with pytest.raises(ParseError) as info:
            read(obj)
        assert str(info.value) == message


def _domain(make):
    return lambda: domain_to_obj(make())


class TestNumberFields:
    """Coefficients, radii, margins and caps are JSON numbers: a string or a
    bool is refused under its position, never converted."""

    @pytest.mark.parametrize(
        "read, make, path, value, message",
        [
            (matrix_from_obj, lambda: matrix_to_obj(np.eye(1)), ("entries", 0, 0, "re"), "0.5",
             "matrix: entry (0,0): re must be a JSON number: '0.5'"),
            (matrix_from_obj, lambda: matrix_to_obj(np.eye(1)), ("entries", 0, 0, "im"), True,
             "matrix: entry (0,0): im must be a JSON number: True"),
            (realization_from_obj, lambda: realization_to_obj(mobius_realization(0.3)),
             ("A", "re"), "-0.3", "realization: A: re must be a JSON number: '-0.3'"),
            (handle_from_obj, _poly_handle, ("payload", "terms", 1, "re"), "0.5",
             "handle: payload: term 1: re must be a JSON number: '0.5'"),
            (handle_from_obj, _poly_handle, ("payload", "terms", 0, "im"), False,
             "handle: payload: term 0: im must be a JSON number: False"),
            (handle_from_obj, _series_handle, ("payload", "radius"), "2",
             "handle: radius must be a JSON number: '2'"),
            (domain_from_obj, _domain(lambda: DomainDescriptor.polydisk(2.0)), ("radius",), "2",
             "domain: radius must be a JSON number: '2'"),
            (domain_from_obj, _domain(lambda: DomainDescriptor.rowball(2.0)), ("norm_cap",), True,
             "domain: norm_cap must be a JSON number: True"),
            (domain_from_obj, _domain(lambda: DomainDescriptor.deltaball(delta_polydisk(1))),
             ("margin",), "0.1", "domain: margin must be a JSON number: '0.1'"),
            (domain_from_obj, _domain(lambda: DomainDescriptor.polydisk(2.0)), ("radius",),
             10**400, "domain: radius is an integer beyond the float range"),
        ],
        ids=["string re", "bool im", "string A", "string term re", "bool term im",
             "string series radius", "string radius", "bool cap", "string margin", "huge radius"],
    )
    def test_non_number_is_a_parse_error_at_its_position(self, read, make, path, value, message):
        obj = _set(make(), path, value)
        with pytest.raises(ParseError) as info:
            read(obj)
        assert str(info.value) == message

    def test_integers_are_numbers(self):
        # A JSON integer is a number: 2 reads as 2.0 wherever a float goes.
        entry = matrix_from_obj({"rows": 1, "cols": 1, "entries": [[{"re": 2, "im": -1}]]})
        assert entry[0, 0] == 2 - 1j
        domain = domain_from_obj({"kind": "rowball", "radius": 2, "norm_cap": 3})
        assert domain == DomainDescriptor.rowball(2.0, norm_cap=3.0)
        p = poly_from_obj({"d": 1, "terms": [{"word": [0], "re": 1, "im": 0}]})
        assert p == FreePoly.letter(1, 0)


class TestDomainFormat:
    def test_round_trip_all_kinds(self):
        for dom in (
            DomainDescriptor.polydisk(0.5),
            DomainDescriptor.polydisk(math.inf),
            DomainDescriptor.rowball(2.0, norm_cap=3.0),
            DomainDescriptor.deltaball(mobius_realization(0.1).delta, margin=0.2),
        ):
            assert domain_from_obj(domain_to_obj(dom)) == dom

    def test_unknown_kind(self):
        with pytest.raises(ParseError):
            domain_from_obj({"kind": "cube"})


class TestHandleFormat:
    def test_poly_handle_round_trip(self):
        rng = rng_for(105)
        p = random_poly(rng, 2, 3)
        F = from_poly(p, DomainDescriptor.polydisk(1.0))
        back = handle_from_obj(handle_to_obj(F))
        x = random_tuple(rng, 2, 2)
        np.testing.assert_array_equal(back.eval(x), F.eval(x))

    def test_realization_handle_round_trip(self):
        from ncfuncalc import from_realization

        r = mobius_realization(0.4)
        for F in (from_realization(r), from_realization(r, DomainDescriptor.polydisk(0.5))):
            back = handle_from_obj(handle_to_obj(F))
            assert back.domain == F.domain
            x = MatrixTuple.from_scalars([0.2], 2)
            np.testing.assert_allclose(back.eval(x), F.eval(x), atol=1e-14)

    def test_series_handle_round_trip(self):
        from ncfuncalc import SeriesFunction, from_series

        s = SeriesFunction([FreePoly(1, {(0,) * k: 0.5**k}) for k in range(6)], 2.0)
        F = from_series(s, truncation=5, domain=DomainDescriptor.polydisk(1.0))
        back = handle_from_obj(handle_to_obj(F))
        x = MatrixTuple.from_scalars([0.7], 2)
        np.testing.assert_allclose(back.eval(x), F.eval(x), atol=1e-14)

    def test_series_truncation_defaults(self):
        from ncfuncalc import SeriesFunction, from_series
        from ncfuncalc.ncfun import DEFAULT_TRUNCATION

        s = SeriesFunction([FreePoly(1, {(0,) * k: 0.5**k}) for k in range(3)], 2.0)
        obj = handle_to_obj(from_series(s, truncation=1))
        del obj["payload"]["truncation"]
        assert handle_from_obj(obj).payload[1] == DEFAULT_TRUNCATION

    def test_control_handle_round_trip(self):
        from ncfuncalc import control_handle

        F = control_handle("entrywise-conjugation", 2)
        back = handle_from_obj(handle_to_obj(F))
        assert back.kind == "control"

    def test_opaque_handles_have_no_file_form(self):
        from ncfuncalc import NCFunctionHandle

        F = NCFunctionHandle(1, DomainDescriptor.polydisk(1.0), lambda x: x[0])
        with pytest.raises(ValueError):
            handle_to_obj(F)


class TestFiles:
    def test_load_json_reports_position(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"rows": 1, "cols": }')
        with pytest.raises(ParseError) as err:
            load_json(str(bad))
        assert "column" in str(err.value)

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"[" * 100_000, "maximum recursion depth exceeded"),
            (b"\xff\xfe{}", "'utf-8' codec can't decode"),
            (b"1" * 5000, "Exceeds the limit (4300 digits)"),
        ],
        ids=["deeply nested", "not utf-8", "5000-digit integer"],
    )
    def test_unreadable_document_names_the_file(self, tmp_path, content, message):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        with pytest.raises(ParseError) as err:
            load_json(str(bad))
        assert str(err.value).startswith(f"{bad}: ")
        assert message in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_json(str(tmp_path / "absent.json"))

    def test_atomic_write(self, tmp_path):
        target = tmp_path / "out.json"
        write_json_atomic(str(target), {"x": 1})
        assert load_json(str(target)) == {"x": 1}
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert not leftovers

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        # JSON has no NaN, so the dump raises after the temp file is made.
        target = tmp_path / "out.json"
        with pytest.raises(ValueError, match="^Out of range float values are not JSON compliant"):
            write_json_atomic(str(target), {"x": math.nan})
        assert list(tmp_path.iterdir()) == []
