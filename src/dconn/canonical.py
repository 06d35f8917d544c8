"""Canonical JSON, and the one file reader and writer of the CLI and the mesh formats.

``json_bytes(value)`` is ``json.dumps(value, sort_keys=True, indent=2)``
plus a newline, as ASCII bytes, with numpy arrays and scalars written as
their ``tolist()``.  json's own encoder runs in pure Python, one generator
step per value, whenever it indents; this writer joins each list of floats
with ``float.__repr__`` in one C-level call, and writes strings with json's
``encode_basestring_ascii`` and non-finite floats as json does (NaN,
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
from json.encoder import encode_basestring_ascii

import numpy as np


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
        sep = "," + inner
        if type(o[0]) is float:
            try:
                run = sep.join(map(float.__repr__, o))
            except TypeError:  # an entry that is not a float
                run = None
            # Finite floats only: json spells nan and inf differently.
            if run is not None and "n" not in run:
                return f"[{inner}{run}{nl}]"
        return f"[{inner}{sep.join([_text(v, inner) for v in o])}{nl}]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = nl + "  "
        items = [f"{_key(k)}: {_text(v, inner)}" for k, v in sorted(o.items())]
        return f"{{{inner}{(',' + inner).join(items)}{nl}}}"
    if isinstance(o, (np.ndarray, np.generic)):
        return _text(o.tolist(), nl)
    raise TypeError(f"{type(o).__name__} is not JSON serializable")
