"""The ``name=value`` form of a dataclass's ``int``, ``float`` and ``str``
fields (``| None`` allowed, ``init=False`` left out) for every file that
records one, the version header check and the labelled lines after it, and
the numbers of the model and encodings files (``hyper`` lines too) as their
writers write them (:func:`ascii_int`, :func:`finite_float`).  Bad input
fails by name."""

from __future__ import annotations

import math
from dataclasses import fields
from typing import Iterable, get_type_hints

__all__ = ["dump", "parse", "load", "check_header", "read_labeled", "read_dimension", "read_fields",
           "ascii_int", "finite_float"]

_KINDS = {hint: kind for kind in (int, float, str) for hint in (kind, kind | None)}


def _kinds(cls) -> dict[str, type]:
    hints = get_type_hints(cls)
    return {f.name: _KINDS[hints[f.name]] for f in fields(cls)
            if f.init and hints[f.name] in _KINDS}


def dump(obj) -> list[str]:
    """``name=value`` for each non-None scalar field, in declaration order;
    floats are written as ``repr(float(value))``."""
    return [f"{name}={float(value)!r}" if kind is float else f"{name}={value}"
            for name, kind in _kinds(type(obj)).items()
            if (value := getattr(obj, name)) is not None]


def parse(cls, pairs: Iterable[str], as_written: bool = False) -> dict:
    """The typed values of ``name=value`` pairs for fields of ``cls``, each
    field set at most once, stripped and read by ``int`` and ``float``; or,
    ``as_written``, unstripped and read as :func:`dump` writes them."""
    kinds, values, errors, seen = _kinds(cls), {}, [], set()
    readers = {int: _written_int, float: finite_float} if as_written else {}
    for pair in pairs:
        name, eq, text = pair.partition("=") if as_written else (part.strip() for part in pair.partition("="))
        if not eq:
            errors.append(f"line {pair!r} is not name=value")
        elif name not in kinds:
            errors.append(f"{cls.__name__} has no scalar field {name!r}")
        elif name in seen:
            errors.append(f"{name!r} is set more than once")
        else:
            seen.add(name)
            try:
                values[name] = readers.get(kinds[name], kinds[name])(text)
            except ValueError:
                errors.append(f"{name}={text!r} is not a valid {kinds[name].__name__}")
    if errors:
        raise ValueError("; ".join(errors))
    return values


def load(cls, pairs: Iterable[str]):
    """``cls`` from the pairs, which set each field whose default is not None."""
    return cls(**_required(cls, parse(cls, pairs)))


def _required(cls, values: dict) -> dict:
    """``values``, which must set each field of ``cls`` whose default is not None."""
    missing = [f.name for f in fields(cls)
               if f.default is not None and f.name in _kinds(cls).keys() - values.keys()]
    if missing:
        raise ValueError(f"{cls.__name__} is missing {', '.join(map(repr, missing))}")
    return values


def ascii_int(text: str) -> int:
    """``int(text)`` of ASCII decimal digits only, as the writers write
    ``str(int)``: ValueError for a sign, whitespace, ``_`` or digits of
    another script, all of which ``int`` reads."""
    if not (text.isascii() and text.isdecimal()):
        raise ValueError(f"{text!r} is not ASCII decimal digits")
    return int(text)


def _written_int(text: str) -> int:
    """:func:`ascii_int` after the ``-`` that ``str`` writes for a negative int."""
    return -ascii_int(text[1:]) if text.startswith("-") else ascii_int(text)


def finite_float(text: str) -> float:
    """``float(text)`` of ASCII text without ``_`` or whitespace, as the
    writers write ``repr(float)``, and finite: ValueError for inf or nan,
    and for the text that ``float`` reads only by skipping ``_`` or
    whitespace or by reading digits of another script."""
    if not text.isascii() or "_" in text or text.strip() != text:
        raise ValueError(f"{text!r} is not an ASCII float")
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def check_header(f, header: str) -> None:
    """Read the first line of the open file ``f``, which must be ``header``."""
    if (found := f.readline().strip()) != header:
        raise ValueError(f"expected header {header!r}, found {found!r}")


def read_labeled(f, *labels: str) -> list[str]:
    """The values of the next line of the open file ``f``, which must read
    ``label1<TAB>value1<TAB>label2<TAB>value2...`` with these labels."""
    found = f.readline().rstrip("\n")
    parts = found.split("\t")
    if parts[::2] != list(labels) or len(parts) != 2 * len(labels):
        raise ValueError(f"expected a {' '.join(labels)!r} line, found {found!r}")
    return parts[1::2]


def read_dimension(f) -> int:
    """The ``dimension`` of a vocabulary or LR model file, from the next line
    of the open file ``f``, its line 2: an integer of 1 or more, since index 0
    is the bias, in ASCII digits."""
    text = read_labeled(f, "dimension")[0]
    if not (text.isascii() and text.isdecimal() and int(text) >= 1):
        line = f"dimension\t{text}"
        raise ValueError(f"line 2: expected 'dimension\\t<integer >= 1>', found {line!r}")
    return int(text)


def read_fields(f, line_no: int, label: str, cls):
    """``cls`` from the next line of the open file ``f``, its line
    ``line_no``, which must read ``label<TAB>name=value<TAB>name=value...``
    as :func:`dump` writes it (see :func:`load`); an error in it names the line."""
    found = f.readline().rstrip("\n")
    parts = found.split("\t")
    try:
        if parts[0] != label:
            raise ValueError(f"expected a {label!r} line, found {found!r}")
        values = _required(cls, parse(cls, parts[1:], as_written=True))
    except ValueError as e:
        raise ValueError(f"line {line_no}: {e}") from None
    return cls(**values)
