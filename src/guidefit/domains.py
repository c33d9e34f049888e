"""The domain of each config leaf, declared once on its dataclass field.

within() declares a number, or each number of a tuple or array, between lo
and hi; one_of() a name among a few. None, an unset optional field, lies in
every domain and NaN in no interval. A config dataclass's __post_init__ calls
check_fields, then the rules that tie its fields together.
"""

from __future__ import annotations

import dataclasses
import operator

import numpy as np

_ORDER = {"[": operator.le, "]": operator.le, "(": operator.lt, ")": operator.lt}


def within(default, lo, hi=np.inf, closed="[)"):
    """A field from lo to hi, [lo, inf) by default; closed brackets each end: "[]", "(]", ..."""
    return dataclasses.field(default=default, metadata={"within": (lo, hi, closed)})


def one_of(default, names):
    return dataclasses.field(default=default, metadata={"one_of": tuple(names)})


def check_fields(obj) -> None:
    """Raise a ValueError, starting with the field's name, for the first field of
    the dataclass obj outside its domain. Python scalars compare as they are, so
    an int past float range cannot overflow."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if value is None or not f.metadata:
            continue
        if "one_of" in f.metadata:
            if value not in f.metadata["one_of"]:
                raise ValueError(f"{f.name} must be one of {f.metadata['one_of']}, got {value!r}")
            continue
        lo, hi, closed = f.metadata["within"]
        if isinstance(value, (list, tuple, np.ndarray)):
            value = np.asarray(value, dtype=float)  # compared elementwise
        inside = _ORDER[closed[0]](lo, value) & _ORDER[closed[1]](value, hi)
        if not (inside.all() if isinstance(inside, np.ndarray) else inside):
            raise ValueError(f"{f.name} must lie in {closed[0]}{lo:g}, {hi:g}{closed[1]}, "
                             f"got {np.asarray(value).tolist()}")
