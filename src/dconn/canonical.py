"""Canonical JSON, and the one file reader and writer of the CLI and the mesh formats.

``json_bytes(value)`` is ``json.dumps(value, sort_keys=True, indent=2)``
plus a newline, as ASCII bytes, with numpy arrays and scalars written as
their ``tolist()``.  json's own encoder runs in pure Python, one generator
step per value, whenever it indents.  This writer writes a list of exact
ints and finite floats, or a list of equal-width rows of them (curvature
``per_vertex``, matrices, ``dconn-complex`` tables, error tables), in one
pass: one ``map(repr, ...)`` over the flattened cells and one join of a row
template.  Anything else goes value by value, with strings written by json's
``encode_basestring_ascii`` and non-finite floats as json writes them (NaN,
Infinity, -Infinity), so the bytes are the same.

``read_text(path)`` reads a file as bytes and decodes them as UTF-8, strictly:
a byte order mark stays in the text, and bytes that are not UTF-8 raise
UnicodeDecodeError.  ``write_file(path, data)`` creates or truncates the file,
with mode 0o666 less the umask as ``Path.write_bytes`` gives it, and writes
the bytes with ``os.write`` until all are written.
"""

from __future__ import annotations

import math
import os
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np


# The exact types a number table may hold: bool and numpy scalars go value by value.
_NUMBERS = {int, float}
_ROWS = {list, tuple}


def json_bytes(value) -> bytes:
    """The bytes of ``json.dumps(value, sort_keys=True, indent=2) + "\\n"``,
    numpy values written as their ``tolist()``."""
    return (_text(value, "\n") + "\n").encode("ascii")


def read_text(path) -> str:
    """The file at path, decoded as UTF-8."""
    with open(path, "rb", buffering=0) as f:
        return f.readall().decode()


def write_file(path, data: bytes) -> None:
    """Replace the contents of the file at path, or create it, with data."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        view = memoryview(data)
        while view:  # os.write may take fewer bytes than it is given
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


def _float(x: float) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else ("Infinity" if x > 0 else "-Infinity")


def _key(k) -> str:
    # json's key rule: strings as they are, and int, float, bool and None keys
    # as the text of their value, quoted.
    if isinstance(k, str):
        return encode_basestring_ascii(k)
    if isinstance(k, (int, float)) or k is None:
        return f'"{_text(k, "")}"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _text(o, nl: str) -> str:
    """The text of o, for nl the newline and indent of the line it starts on.

    The type tests run in json's order, so subclasses encode as json encodes them.
    """
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float(o)
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = nl + "  "
        table = _table(o, inner)
        if table is None:
            table = f",{inner}".join([_text(v, inner) for v in o])
        return f"[{inner}{table}{nl}]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = nl + "  "
        items = [f"{_key(k)}: {_text(v, inner)}" for k, v in sorted(o.items())]
        return f"{{{inner}{(',' + inner).join(items)}{nl}}}"
    if isinstance(o, (np.ndarray, np.generic)):
        return _text(o.tolist(), nl)
    raise TypeError(f"{type(o).__name__} is not JSON serializable")


def _table(o, inner: str) -> str | None:
    """The entries of a list of numbers, or of equal-width rows of numbers, each
    on a line starting with inner; None for any other list.

    Numbers are exact ints and finite floats: repr writes them as json does.
    """
    kinds = set(map(type, o))
    if kinds <= _NUMBERS:
        text = f",{inner}".join(map(repr, o))
    elif kinds <= _ROWS:
        widths = set(map(len, o))
        cells = list(chain.from_iterable(o))
        if len(widths) != 1 or not cells or not set(map(type, cells)) <= _NUMBERS:
            return None
        row = f",{inner}  ".join(["%s"] * len(o[0]))
        text = f",{inner}".join([f"[{inner}  {row}{inner}]"] * len(o)) % tuple(map(repr, cells))
    else:
        return None
    # json spells nan and inf as NaN and Infinity: such a list goes value by value.
    return None if "n" in text else text
