"""The ``name=value`` form of a dataclass's ``int``, ``float`` and ``str``
fields (``| None`` allowed, ``init=False`` left out) for every file that
records one, the version header check and the labelled lines after it.
Bad input fails by name."""

from __future__ import annotations

from dataclasses import fields
from typing import Iterable, get_type_hints

__all__ = ["dump", "parse", "load", "check_header", "read_labeled", "read_fields"]

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


def parse(cls, pairs: Iterable[str]) -> dict:
    """The typed values of ``name=value`` pairs for fields of ``cls``, each
    field set at most once."""
    kinds, values, errors, seen = _kinds(cls), {}, [], set()
    for pair in pairs:
        name, eq, text = (part.strip() for part in pair.partition("="))
        if not eq:
            errors.append(f"line {pair!r} is not name=value")
        elif name not in kinds:
            errors.append(f"{cls.__name__} has no scalar field {name!r}")
        elif name in seen:
            errors.append(f"{name!r} is set more than once")
        else:
            seen.add(name)
            try:
                values[name] = kinds[name](text)
            except ValueError:
                errors.append(f"{name}={text!r} is not a valid {kinds[name].__name__}")
    if errors:
        raise ValueError("; ".join(errors))
    return values


def load(cls, pairs: Iterable[str]):
    """``cls`` from the pairs, which set each field whose default is not None."""
    values, kinds = parse(cls, pairs), _kinds(cls)
    missing = [f.name for f in fields(cls)
               if f.default is not None and f.name in kinds.keys() - values.keys()]
    if missing:
        raise ValueError(f"{cls.__name__} is missing {', '.join(map(repr, missing))}")
    return cls(**values)


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


def read_fields(f, label: str, cls):
    """``cls`` from the next line of the open file ``f``, which must read
    ``label<TAB>name=value<TAB>name=value...`` (see :func:`load`)."""
    found = f.readline().rstrip("\n")
    parts = found.split("\t")
    if parts[0] != label:
        raise ValueError(f"expected a {label!r} line, found {found!r}")
    return load(cls, parts[1:])
