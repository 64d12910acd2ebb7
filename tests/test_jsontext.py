"""Canonical JSON text: number formatting and compact dumps."""

from __future__ import annotations

import json
import math
from collections.abc import Sequence

import pytest
from hypothesis import given, settings, strategies as st

import geomgen
from geoforge import jsontext
from geoforge.jsontext import dumps, format_number, iterdumps, loads


def test_float_formatting():
    assert format_number(0.0) == "0"
    assert format_number(-0.0) == "0"
    assert format_number(0.5) == "0.5"
    assert format_number(0.1) == "0.1"
    assert format_number(-2.25) == "-2.25"
    assert format_number(1e-9) == "1e-09"
    assert format_number(123456.75) == "123456.75"
    assert format_number(1.0) == "1"
    assert format_number(1e6) == "1000000"


def test_int_formatting():
    assert format_number(0) == "0"
    assert format_number(-17) == "-17"
    assert format_number(12345678901234567890) == "12345678901234567890"


def test_twelve_significant_digits():
    assert format_number(0.1234567890123456) == "0.123456789012"
    assert format_number(987654.3210987654) == "987654.321099"


def test_rejects_bools_and_nonfinite():
    with pytest.raises(TypeError):
        format_number(True)
    with pytest.raises(ValueError):
        format_number(math.nan)
    with pytest.raises(ValueError):
        format_number(math.inf)


def test_dumps_compact_and_ordered():
    doc = {"b": [1, 2.5, None], "a": {"x": -0.0, "ok": True, "no": False}, "s": 'q"u'}
    text = dumps(doc)
    assert text == '{"b":[1,2.5,null],"a":{"x":0,"ok":true,"no":false},"s":"q\\"u"}'
    assert loads(text) == {"b": [1, 2.5, None], "a": {"x": 0, "ok": True, "no": False}, "s": 'q"u'}


def test_dumps_rejects_unsupported_types():
    with pytest.raises(TypeError):
        dumps({"x": {1, 2}})
    # JSON object keys are strings; {1:2} is not JSON
    with pytest.raises(TypeError):
        dumps({1: 2})
    with pytest.raises(TypeError):
        dumps([{"a": 1, None: 2}])


def test_parse_then_dump_is_stable_for_short_decimals():
    text = '{"points":[[0.123456,0.5],[1e-05,123456.789012]]}'
    assert dumps(loads(text)) == text


# The recursive writer that dumps replaced, kept as the reference it must match.


def _reference_format_number(value) -> str:
    if isinstance(value, bool):
        raise TypeError("bool is not a number here")
    if isinstance(value, int):
        return str(value)
    v = float(value)
    if not math.isfinite(v):
        raise ValueError("cannot serialize non-finite number")
    if v == 0.0:
        return "0"
    return "%.12g" % v


def _reference_write(value, parts: list) -> None:
    if value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, (int, float)):
        parts.append(_reference_format_number(value))
    elif isinstance(value, str):
        parts.append(json.dumps(value))
    elif isinstance(value, (list, tuple)):
        parts.append("[")
        for i, item in enumerate(value):
            if i:
                parts.append(",")
            _reference_write(item, parts)
        parts.append("]")
    elif isinstance(value, dict):
        parts.append("{")
        for i, (key, item) in enumerate(value.items()):
            if i:
                parts.append(",")
            parts.append(json.dumps(key))
            parts.append(":")
            _reference_write(item, parts)
        parts.append("}")
    else:
        raise TypeError("cannot serialize %r" % type(value).__name__)


def _reference_dumps(value) -> str:
    parts: list = []
    _reference_write(value, parts)
    return "".join(parts)


_SPECIAL_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e-300, -1e-300,
    1e6, -1e6, 1e20, -1e20, 0.1, 1 / 3, 123.4500001, 1e16, 12345678901234.5,
]
_SPECIAL_INTS = [0, -1, 7, 10**20, -(10**20), 2**63]
_SPECIAL_TEXT = ['q"u', "back\\slash", "tab\tnl\ncr\r", "\x00\x1f\x7f", "café", "日本", "\U0001F600", ""]

_floats = st.sampled_from(_SPECIAL_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
_scalars = (
    _floats
    | st.sampled_from(_SPECIAL_INTS)
    | st.integers()
    | st.booleans()
    | st.none()
    | st.sampled_from(_SPECIAL_TEXT)
    | st.text(max_size=6)
)
_pairs = st.tuples(_floats, _floats)


class _Count(int):
    """An int subclass: written item by item, not as an all-int list."""


# edges, triangles and cells are all-int lists, written in one step; a
# bool or an int subclass among them sends the list item by item
_int_lists = st.lists(st.integers() | st.sampled_from(_SPECIAL_INTS), max_size=4) | st.lists(
    st.integers() | st.booleans() | st.integers().map(_Count), min_size=1, max_size=3)
_keys = st.sampled_from(_SPECIAL_TEXT) | st.text(max_size=4)
_values = st.recursive(
    _scalars | _pairs.map(list) | _pairs | _int_lists | _int_lists.map(tuple),
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(_keys, inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_values)
def test_dumps_matches_the_recursive_writer(value):
    text = dumps(value)
    assert text == _reference_dumps(value)
    json.loads(text)


def test_ints_and_equal_floats_keep_their_own_spelling():
    for doc in ([10**20, 1e20, 10**20], [1e20, 10**20], {"a": 1e20, "b": 10**20}):
        assert dumps(doc) == _reference_dumps(doc)
    assert dumps([10**20, 1e20]) == "[100000000000000000000,1e+20]"
    assert dumps([[1e20, -0.0], [0.0, 10**20]]) == "[[1e+20,0],[0,100000000000000000000]]"
    assert dumps([[0, 1], (2, 3, 4), [True, 1], [1, False], [_Count(5), 6], []]) == (
        "[[0,1],[2,3,4],[true,1],[1,false],[5,6],[]]")


@pytest.mark.parametrize(
    "doc",
    [
        math.nan,
        [math.inf],
        [1.0, -math.inf],
        [math.nan, 1.0],
        [[0.5, math.inf]],
        ([1.0, 2.0], (-math.inf, 0.0)),
        {"a": [0.0, math.nan]},
        {"a": {"b": -math.inf}},
    ],
)
def test_non_finite_numbers_raise_value_error(doc):
    with pytest.raises(ValueError):
        _reference_dumps(doc)
    with pytest.raises(ValueError):
        dumps(doc)


def test_deep_nesting_needs_no_recursion():
    doc: list = []
    for _ in range(5000):
        doc = [doc]
    assert dumps(doc) == "[" * 5001 + "]" * 5001
    obj: dict = {}
    for _ in range(5000):
        obj = {"k": obj, "v": [0.5, -0.0]}
    assert dumps(obj) == '{"k":' * 5000 + "{}" + ',"v":[0.5,0]}' * 5000


class _OnePassCells(Sequence):
    """A lazy sequence that counts its passes and refuses indexing."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.passes = 0

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i):
        raise AssertionError("iterdumps indexed a lazy sequence")

    def __iter__(self):
        self.passes += 1
        return ([[float(i), 0.5], [-0.0, float(i) / 3.0]] for i in range(self.n))


def test_iterdumps_streams_a_lazy_sequence_in_bounded_chunks():
    cells = _OnePassCells(3000)
    chunks = list(iterdumps({"kind": "lazy", "cells": cells}))
    assert cells.passes == 1
    plain = {"kind": "lazy", "cells": list(_OnePassCells(3000))}
    assert "".join(chunks) == dumps(plain) == _reference_dumps(plain)
    # every cell is 5 parts; a chunk holds about CHUNK_PARTS of them
    assert len(chunks) > 2
    assert max(len(c) for c in chunks) < 40 * jsontext.CHUNK_PARTS
    with pytest.raises(TypeError):
        dumps([b"bytes are not an array"])
    with pytest.raises(TypeError):
        dumps({"x": bytearray(b"no")})


def test_memo_that_starts_over_prints_the_same_text(monkeypatch):
    values = [[i / 7.0, -i / 7.0, 0.1 * (i % 5), i] for i in range(200)]
    expect = _reference_dumps(values)
    monkeypatch.setattr(jsontext, "MEMO_LIMIT", 3)
    monkeypatch.setattr(jsontext, "CHUNK_PARTS", 8)
    chunks = list(iterdumps(values))
    assert len(chunks) > 50 and "".join(chunks) == expect


class _Key(str):
    """A str subclass key: written by its text, as the str it equals is."""


class _LooksLikeA:
    """Not a string, but it hashes and compares as the key "a"."""

    def __hash__(self):
        return hash("a")

    def __eq__(self, other):
        return other == "a"


def test_key_texts_match_the_reference_writer():
    # more distinct keys than the memo holds, keys repeated across many
    # dicts, escaped keys, and str-subclass keys equal to memoized ones
    many = {"k%d" % i: i for i in range(jsontext.MEMO_LIMIT + 100)}
    small = [{"a": 0.5, 'q"u\n': [1.0, 2.0], _Key("c"): None} for _ in range(3000)]
    doc = [many, small, {_Key("a"): 1, "k7": 2, "c": _Key("v")}, many]
    assert dumps(doc) == _reference_dumps(doc)
    assert dumps({_Key("a"): 1, "a": 2}) == '{"a":2}' == _reference_dumps({_Key("a"): 1, "a": 2})


def test_a_non_string_key_raises_even_when_it_equals_a_written_key():
    with pytest.raises(TypeError, match="dict keys must be strings"):
        dumps([{"a": 1}, {_LooksLikeA(): 2}])


def test_float_pairs_make_no_call_per_coordinate():
    # 20,000 distinct pairs: a miss per coordinate through the memo's
    # __missing__ made 40,000 calls
    pairs = [[i + 0.25, -i - 0.5] for i in range(20000)]
    chunks = len(list(iterdumps(pairs)))
    assert chunks >= 5
    assert geomgen.python_calls(dumps, pairs) <= 4 * chunks


def test_int_values_make_no_call_each():
    # a plain int went through format_number, one call per value: 20,041
    # calls here
    docs = [{"top": i, "bottom": -i} for i in range(10000)]
    assert dumps(docs) == _reference_dumps(docs)
    chunks = len(list(iterdumps(docs)))
    assert geomgen.python_calls(dumps, docs) <= 4 * chunks


# Runs: long lists of float pairs and a fractal dump's cells are written a
# batch at a time; everything else, and every batch that fails a check,
# goes through the walk.


class _Real(float):
    """A float subclass: written by its value, but not in a pair run."""


_run_floats = st.sampled_from(_SPECIAL_FLOATS) | st.floats(-1e6, 1e6)
_run_pairs = st.builds(lambda x, y, tup: (x, y) if tup else [x, y], _run_floats, _run_floats,
                       st.booleans())
_NON_FINITE = [math.inf, -math.inf, math.nan]
# items of two that a run must check value by value, and items it rejects
# by their type or length
_odd_items = st.sampled_from([
    [0, 1], [1.5, 2], [0.5, True], (1.5, 10**20), (False, -0.0), [_Real(0.5), 1.5],
    (2.5, _Real(-0.0)), [[0.5, 1.5], 0.5], [-0.0, -0.0], (-0.0, 0.5), [5e-324, -5e-324],
]) | st.sampled_from([0, -3, 10**20, True, 0.5, [0.25], (0.25, 0.5, 0.75), [], None, {"a": 0.5}])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.lists(_run_pairs, max_size=14),
    st.lists(st.tuples(st.integers(0, 14), _odd_items), max_size=3),
    st.none() | st.tuples(st.integers(0, 14), st.integers(0, 1), st.sampled_from(_NON_FINITE)),
)
def test_pair_runs_match_the_recursive_writer(pairs, odd, bad):
    # break-even length 3 and batches of 4 pairs: lists of 0 to 16 items
    # fall on both sides of each, and a failing batch may be any of them
    items = list(pairs)
    for at, item in odd:
        items.insert(at, item)
    if bad is not None and items:
        at, side, value = bad
        at %= len(items)
        items[at] = [0.5, value] if side else (value, 0.5)
    docs = [items, {"run": items, "after": [items, items[:5], 1.5]}]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jsontext, "_RUN_MIN", 3)
        mp.setattr(jsontext, "_RUN_BATCH", 4)
        mp.setattr(jsontext, "CHUNK_PARTS", 16)
        for doc in docs:
            try:
                expect = _reference_dumps(doc)
            except ValueError as err:
                with pytest.raises(ValueError, match="^%s$" % err):
                    dumps(doc)
            else:
                assert dumps(doc) == expect


def test_pair_runs_at_the_default_sizes():
    n = jsontext._RUN_BATCH * 2 + 3
    pairs = [[i / 7.0, -0.0 if i % 5 else -i * 1e-9] for i in range(n)]
    for doc in (pairs, pairs[: jsontext._RUN_MIN], pairs[: jsontext._RUN_MIN - 1]):
        assert dumps(doc) == _reference_dumps(doc)
    for at in (0, jsontext._RUN_BATCH - 1, jsontext._RUN_BATCH, n - 1):
        for value in _NON_FINITE:
            with pytest.raises(ValueError, match="^cannot serialize non-finite number$"):
                dumps(pairs[:at] + [[0.5, value]] + pairs[at:])
        mixed = pairs[:at] + [[1, 2.5], _Real(3.5), (0.5, 1.5, 2.5)] + pairs[at:]
        assert dumps(mixed) == _reference_dumps(mixed)


def _fractal_dumps():
    from geoforge.core import BBox, Point, Polygon
    from geoforge.fractals import output_to_dict, sierpinski_carpet, sierpinski_triangle

    triangles = [
        [(-0.0, -1e6), (1e6, -1e6), (-0.0, 1e6)],
        [(-1e6, -1e6), (-1e6 + 2e-9, -1e6), (-1e6, 1e6)],
        [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)],
    ]
    boxes = [(-0.0, -1e6, 1e6, -0.0), (1e6 - 2e-9, 0.1, 1e6, 0.1 + 1e-9), (-1e6, -1e6, 1e6, 1e6)]
    for corners in triangles:
        seed = Polygon([Point(x, y) for x, y in corners])
        for depth in range(7):
            yield output_to_dict(sierpinski_triangle(seed, depth))
    for box in boxes:
        for depth in range(5):
            yield output_to_dict(sierpinski_carpet(BBox(*box), depth))


@pytest.mark.parametrize("memo_limit", [None, 3])
def test_fractal_cell_runs_match_the_recursive_writer(memo_limit):
    with pytest.MonkeyPatch.context() as mp:
        if memo_limit is not None:
            # a memo that starts over at every batch, and batches that end
            # mid-way through the cells
            mp.setattr(jsontext, "MEMO_LIMIT", memo_limit)
            mp.setattr(jsontext, "_RUN_BATCH", 10)
            mp.setattr(jsontext, "CHUNK_PARTS", 40)
        for dump in _fractal_dumps():
            assert dumps(dump) == _reference_dumps(dict(dump, cells=list(dump["cells"])))


def test_cells_of_polygons_are_not_a_cell_run():
    from geoforge.core import Point, Polygon
    from geoforge.fractals import sierpinski_triangle

    out = sierpinski_triangle(Polygon([Point(0, 0), Point(4, 0), Point(0, 4)]), 2)
    with pytest.raises(TypeError, match="^cannot serialize 'Polygon'$"):
        dumps(out.cells)
    with pytest.raises(TypeError, match="^cannot serialize 'Polygon'$"):
        dumps({"cells": out.cells})


def test_carpet_cells_make_no_call_per_cell_beyond_their_walk():
    from geoforge.core import BBox
    from geoforge.fractals import output_to_dict, sierpinski_carpet

    dump = output_to_dict(sierpinski_carpet(BBox(0, 0, 1, 1), 4))
    cells = len(dump["cells"])
    distinct = len({v for cell in dump["cells"] for pair in cell for v in pair})
    chunks = len(list(iterdumps(dump)))
    # the cells' own walk resumes once per cell and each distinct float is
    # one memo miss; a list made per cell cost one more call per cell
    assert geomgen.python_calls(dumps, dump) <= cells + distinct + 4 * chunks


def test_runs_keep_chunks_bounded():
    from geoforge.core import BBox
    from geoforge.fractals import output_to_dict, sierpinski_carpet

    pairs = [[-123456.789012 - i * 1e-6, 654321.987654 + i * 1e-6] for i in range(200000)]
    carpet = output_to_dict(sierpinski_carpet(BBox(-999999.123457, 0.1, 999999.987654, 0.3), 5))
    for doc in (pairs, {"kind": "carpet", "cells": carpet["cells"]}):
        sizes = list(map(len, iterdumps(doc)))
        assert len(sizes) > 20
        assert max(sizes) < 40 * jsontext.CHUNK_PARTS
