"""Canonical JSON text for structure dumps.

Every dump in the package goes through this serializer so that equal
structures produce byte-identical output: compact separators, keys in
insertion order, numbers with at most 12 significant digits and no
trailing zeros.

`iterdumps` walks the value with an explicit stack, so nesting depth is
bounded by memory, not by the interpreter's recursion limit.  It yields
the text in chunks of CHUNK_PARTS parts, and `dumps` joins them.  Besides
lists and tuples, any other `collections.abc.Sequence` that is not text or
bytes is an array and is iterated once, so a lazy sequence, such as a
fractal dump's cells, streams without ever being a list.

The walk dispatches on the exact types the package's dumps use (float,
int through str, list, tuple, dict, an [x, y] pair of floats as one step,
and a list or tuple whose items are all exactly int, such as an edge or a
triangle, as one step through str) and falls back to isinstance checks for
everything else, bools and int subclasses included.  Each distinct float is
formatted once per call, through a memo that only floats reach and that
starts over at a chunk's end once it holds MEMO_LIMIT entries.  An
[x, y] pair formats its misses in the walk itself, so the points and
samples that make up most dumps cost no Python call per coordinate; a
lone float's miss formats in the memo's own `__missing__`.  Dict keys
must be strings; any other key raises TypeError, since JSON has no other
kind.  A key's text, quoted and with its colon, is made once per call
for each distinct `str` key, in a memo that starts over like the floats'.
An error raises where the walk meets it, so chunks before it may already
have been yielded.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from json.encoder import encode_basestring_ascii as _quote

# parts per chunk of iterdumps, and entries a TextMemo holds before it
# starts over; both keep memory flat however large the document
CHUNK_PARTS = 4096
MEMO_LIMIT = 1 << 16


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


def iterdumps(value):
    """The text of dumps(value), in chunks of CHUNK_PARTS parts."""
    # keyed by floats only: 10**20 == 1e20 but they print differently
    floats = _FloatText()
    get = floats.get
    keys: dict = {}
    parts: list[str] = []
    out = parts.append
    # `items` iterates over what is left of the innermost open container
    # (the root is a one-item tuple); `frames` holds the (items, is_dict)
    # of the containers around it
    frames: list = []
    items, is_dict, first = iter((value,)), False, True
    while True:
        for v in items:
            if len(parts) >= CHUNK_PARTS:
                # cleared before the yield, so the parts are not held while
                # the chunk is written
                chunk = "".join(parts)
                parts.clear()
                floats.trim()
                if len(keys) >= MEMO_LIMIT:
                    keys.clear()
                yield chunk
            if first:
                first = False
            else:
                out(",")
            if is_dict:
                key, v = v
                if type(key) is str:
                    text = keys.get(key)
                    if text is None:
                        text = keys[key] = _quote(key) + ":"
                elif isinstance(key, str):
                    text = _quote(key) + ":"
                else:
                    raise TypeError("dict keys must be strings, not %r" % type(key).__name__)
                out(text)
            t = type(v)
            if t is float:
                out(get(v) or floats[v])
                continue
            if t is list or t is tuple:
                if len(v) == 2 and type(v[0]) is float and type(v[1]) is float:
                    x, y = v
                    # a miss is formatted here; only the text of inf, nan
                    # and -0 goes through the memo's own rule
                    sx = get(x)
                    if sx is None:
                        sx = "%.12g" % x
                        if sx[-1] in "fn" or sx == "-0":
                            sx = floats[x]
                        floats[x] = sx
                    sy = get(y)
                    if sy is None:
                        sy = "%.12g" % y
                        if sy[-1] in "fn" or sy == "-0":
                            sy = floats[y]
                        floats[y] = sy
                    out("[%s,%s]" % (sx, sy))
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
