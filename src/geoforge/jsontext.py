"""Canonical JSON text for structure dumps.

Every dump in the package goes through this serializer so that equal
structures produce byte-identical output: compact separators, keys in
insertion order, numbers with at most 12 significant digits and no
trailing zeros.

`iterdumps` walks the value with an explicit stack, so nesting depth is
bounded by memory, not by the interpreter's recursion limit.  It yields
the text in chunks of about CHUNK_PARTS parts, and `dumps` joins them.
Besides lists and tuples, any other `collections.abc.Sequence` that is not
text or bytes is an array and is iterated once, so a lazy sequence, such
as a fractal dump's cells, streams without ever being a list.

Two kinds of array are written as runs, one `%` per batch of items:

- A pair run.  A list or tuple of at least _RUN_MIN items is taken
  _RUN_BATCH items at a time.  A batch whose items are all lists or tuples
  of two exact floats is written by one "[%.12g,%.12g]" template repeated
  for the batch, with no memo: the points of samples, onion layers and
  floating bodies seldom share a float, and a memo miss costs more than
  the formatting.  (A long list whose floats do repeat, such as points on
  a coarse grid, is written more slowly than the walk would.)  "%.12g"
  spells -0.0 as a bare -0, which becomes 0, and inf and nan with an "n",
  which no finite number has.  A batch that fails a check, or holds an
  "n", goes to the walk from its first item, as does the rest of its
  list, so mixed lists keep their text and a non-finite number raises the
  walk's error.  _RUN_MIN is the measured break-even:
  on lists of 2 or 3 distinct pairs, and on an 8,000-point PR tree's
  leaves of up to 4, a run's setup costs more than the walk; from 5 pairs
  on, the run is faster.
- A cell run.  A fractal dump's "cells", a `fractals.CellSequence` of
  lists, is read through its flat view: `coords()`, one stream of finite
  float coordinates, so no list is made per cell, and `corners`, the
  vertices per cell.  It is written a batch of cells at a time by one
  template with a [%s,%s] per vertex, filled through the float memo:
  cells share most of their floats.  Only the first cell is made, to see
  that the cells are lists; a FractalOutput's cells of Polygons are walked.

A batch of c coordinates counts as c parts of its chunk, so a chunk of
runs is about as long as one of the walk's.  Tree dumps keep the walk:
their lists are short (a PR leaf holds at most its capacity of points)
and their regions share floats from node to node, where the memo beats
formatting.  Trying a run on every list made an 8,000-point PR-tree dump
about 18% slower and a 400-segment trapmap's about 14%.

The walk dispatches on the exact types the package's dumps use (float,
int through str, list, tuple, dict, an [x, y] pair of floats as one step,
a PR region of four floats as one step, and a list or tuple whose items
are all exactly int, such as an edge or a triangle, as one step through
str) and falls back to isinstance checks for everything else, bools and
int subclasses included.  Each distinct float is formatted once per call,
through one memo that starts over at a chunk's end once it holds
MEMO_LIMIT entries (TextMemo.trim).  An [x, y] pair formats its misses in
the walk itself, so the points that make up most dumps cost no Python
call per coordinate; a lone float's miss formats in the memo's own
`__missing__`.  Dict keys must be strings; any other key raises
TypeError, since JSON has no other kind.  A key's text, quoted and with
its colon, is made once per call for each distinct `str` key and kept in
the same memo: no str equals a float, and no int reaches it.  An error
raises where the walk meets it, so chunks before it may already have
been yielded.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from itertools import chain, islice
from json.encoder import encode_basestring_ascii as _quote

# parts per chunk of iterdumps, and entries a TextMemo holds before it
# starts over; both keep memory flat however large the document
CHUNK_PARTS = 4096
MEMO_LIMIT = 1 << 16
# the shortest list that is written as a pair run, and the pairs in one
# batch of it; a cell run's batch holds about as many vertices.  A batch's
# coordinates count as parts, a chunk's worth, as the walk spends two parts
# on a pair, so no chunk passes its limit by more than one batch
_RUN_MIN = 5
_RUN_BATCH = CHUNK_PARTS // 2

_flat = chain.from_iterable
_ARRAYS = frozenset((list, tuple))
_TWO = frozenset((2,))
_FLOAT = frozenset((float,))


def format_number(value) -> str:
    if isinstance(value, bool):
        raise TypeError("bool is not a number here")
    if isinstance(value, int):
        return str(value)
    return _FloatText()[float(value)]


class TextMemo(dict):
    """Number -> text, formatted by the subclass's `__missing__` on first
    lookup of each key, which stores the text and returns it.

    The formatting is written in `__missing__` itself, so a miss costs one
    Python call.  Keys that compare equal share one entry, so a memo may
    only see values whose equal keys format alike (for floats: only 0.0
    and -0.0 collide).
    """

    __slots__ = ()

    def trim(self) -> None:
        """Start over once MEMO_LIMIT entries are held; writers call it per chunk."""
        if len(self) >= MEMO_LIMIT:
            self.clear()


class _FloatText(TextMemo):
    """A float's JSON text: "%.12g", with -0 written as 0."""

    __slots__ = ()

    def __missing__(self, v: float) -> str:
        # "%.12g" spells inf and nan as text ending in "f" or "n"; no finite
        # number does
        s = "%.12g" % v
        if s[-1] in "fn":
            raise ValueError("cannot serialize non-finite number")
        if s == "-0":
            s = "0"
        self[v] = s
        return s


def dumps(value) -> str:
    """Serialize nested dicts/lists/numbers/strings/bools/None."""
    return "".join(iterdumps(value))


def _pair_text(batch) -> str | None:
    """The text of the items of `batch`, comma-separated, when each is a
    list or tuple of two finite floats (exactly float); None otherwise."""
    # most lists hold one kind of item, so the first one rejects most
    # batches that fail
    head = batch[0]
    if type(head) not in _ARRAYS or len(head) != 2 or type(head[0]) is not float:
        return None
    if set(map(type, batch)) <= _ARRAYS and set(map(len, batch)) == _TWO:
        coords = tuple(_flat(batch))
        if set(map(type, coords)) == _FLOAT:
            text = ",".join(["[%.12g,%.12g]"] * len(batch)) % coords
            # "%.12g" spells inf and nan with an "n", and no finite number
            # has one; it spells only -0.0 as a bare -0
            if "n" not in text:
                return text.replace("[-0,", "[0,").replace(",-0]", ",0]")
    return None


def _chunk(parts: list, memo: TextMemo) -> str:
    """The text of `parts`, which are cleared, so that they are not held
    while the chunk is written; the memo starts over if it is full."""
    chunk = "".join(parts)
    parts.clear()
    memo.trim()
    return chunk


def iterdumps(value):
    """The text of dumps(value), in chunks of about CHUNK_PARTS parts."""
    # keyed by floats and by str keys, never by ints: 10**20 == 1e20 but
    # they print differently, and no str equals a float
    memo = _FloatText()
    get = memo.get
    text_of = memo.__getitem__
    parts: list[str] = []
    out = parts.append
    run_min, batch = _RUN_MIN, _RUN_BATCH
    # a run's batch of c coordinates counts as c parts: it lowers `limit`,
    # which starts over at CHUNK_PARTS with each chunk
    limit = CHUNK_PARTS
    # `items` iterates over what is left of the innermost open container
    # (the root is a one-item tuple); `frames` holds the (items, is_dict)
    # of the containers around it
    frames: list = []
    items, is_dict, first = iter((value,)), False, True
    while True:
        for v in items:
            if len(parts) >= limit:
                limit = CHUNK_PARTS
                yield _chunk(parts, memo)
            if first:
                first = False
            else:
                out(",")
            if is_dict:
                key, v = v
                if type(key) is str:
                    text = get(key)
                    if text is None:
                        text = memo[key] = _quote(key) + ":"
                elif isinstance(key, str):
                    text = _quote(key) + ":"
                else:
                    raise TypeError("dict keys must be strings, not %r" % type(key).__name__)
                out(text)
            t = type(v)
            if t is float:
                out(get(v) or memo[v])
                continue
            if t is list or t is tuple:
                n = len(v)
                if n == 2 and type(v[0]) is float and type(v[1]) is float:
                    x, y = v
                    # a miss is formatted here; only the text of inf, nan
                    # and -0 goes through the memo's own rule
                    sx = get(x)
                    if sx is None:
                        sx = "%.12g" % x
                        if sx[-1] in "fn" or sx == "-0":
                            sx = memo[x]
                        memo[x] = sx
                    sy = get(y)
                    if sy is None:
                        sy = "%.12g" % y
                        if sy[-1] in "fn" or sy == "-0":
                            sy = memo[y]
                        memo[y] = sy
                    out("[%s,%s]" % (sx, sy))
                    continue
                if n == 4 and type(v[0]) is float:
                    # a PR region, in one step: its sides are shared with
                    # its neighbours', so its floats mostly hit the memo
                    a, b, c, d = v
                    if type(b) is float and type(c) is float and type(d) is float:
                        out("[%s,%s,%s,%s]" % (get(a) or memo[a], get(b) or memo[b],
                                               get(c) or memo[c], get(d) or memo[d]))
                        continue
                for x in v:
                    if type(x) is not int:
                        break
                else:
                    if v:
                        # str of a list of ints is "[1, 2]", and no int's
                        # text holds a space
                        out(str(v if t is list else list(v)).replace(" ", ""))
                        continue
                nested, inner = v, False
                if n >= run_min:
                    # a pair run: `batch` items at a time, each batch in
                    # one step, up to the first batch that is not all
                    # pairs; the walk goes on from that batch's first item
                    out("[")
                    i = 0
                    while i < n:
                        run = v[i:i + batch]
                        text = _pair_text(run)
                        if text is None:
                            break
                        if i:
                            out(",")
                        out(text)
                        i += len(run)
                        limit -= 2 * len(run)
                        if len(parts) >= limit:
                            limit = CHUNK_PARTS
                            yield _chunk(parts, memo)
                    else:
                        out("]")
                        continue
                    frames.append((items, is_dict))
                    items, is_dict, first = islice(v, i, None) if i else iter(v), False, not i
                    break
            elif t is dict:
                nested, inner = v.items(), True
            elif t is int:
                out(str(v))
                continue
            elif v is None:
                out("null")
                continue
            elif v is True:
                out("true")
                continue
            elif v is False:
                out("false")
                continue
            elif isinstance(v, (int, float)):
                out(format_number(v))
                continue
            elif isinstance(v, str):
                out(_quote(v))
                continue
            elif isinstance(v, Sequence) and not isinstance(v, (bytes, bytearray, memoryview)):
                if hasattr(v, "coords") and type(next(iter(v))) is list:
                    # a cell run: one template per batch of cells, filled
                    # from the memo over the cells' flat coordinates
                    cells, n, coords = len(v), v.corners, v.coords()
                    cell = "[" + ",".join(["[%s,%s]"] * n) + "]"
                    size = max(1, batch // n)
                    out("[")
                    while cells:
                        k = min(size, cells)
                        cells -= k
                        out(",".join([cell] * k) % tuple(map(text_of, islice(coords, 2 * n * k))))
                        if cells:
                            out(",")
                        limit -= 2 * n * k
                        if len(parts) >= limit:
                            limit = CHUNK_PARTS
                            yield _chunk(parts, memo)
                    out("]")
                    continue
                nested, inner = v, False
            elif isinstance(v, dict):
                nested, inner = v.items(), True
            else:
                raise TypeError("cannot serialize %r" % type(v).__name__)
            out("{" if inner else "[")
            frames.append((items, is_dict))
            items, is_dict, first = iter(nested), inner, True
            break
        else:
            if not frames:
                yield "".join(parts)
                return
            out("}" if is_dict else "]")
            items, is_dict = frames.pop()
            first = False


def loads(text: str):
    return json.loads(text)
