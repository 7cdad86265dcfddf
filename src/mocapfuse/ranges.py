"""One range rule for the numeric fields of every record built from outside
input: settings, scenes, cameras and joints.  It imports nothing from the
package, so every module can use it."""

import math
import reprlib

import numpy as np

# The ranges a field can be held to; "" asks only that it be finite.
RULES = {"": lambda v: True, "> 0": lambda v: v > 0, ">= 0": lambda v: v >= 0,
         ">= 2": lambda v: v >= 2, "in [0, 1]": lambda v: 0 <= v <= 1,
         "in [0, 180]": lambda v: 0 <= v <= 180,
         "in [1, 30]": lambda v: 1 <= v <= 30}


# The types that pass as each kind: numpy's numbers as Python's.
_TYPES = {int: (int, np.integer), float: (int, np.integer, float, np.floating)}


def finite(value, kind=float):
    """Whether ``value`` is a finite ``kind``: an int passes as a float, and
    numpy's ints and floats as Python's; a bool never, nor a number beyond
    the float64 range (10**400)."""
    try:
        return (isinstance(value, _TYPES[kind]) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:
        return False


def check(owner, kind, rule, *names):
    """ValueError ``<field> must be a finite <kind> <rule>, got <value>``
    for the first field of ``owner`` among ``names`` that breaks it."""
    for name in names:
        value = getattr(owner, name)
        if not (finite(value, kind) and RULES[rule](value)):
            raise ValueError(f"{name} must be a finite {kind.__name__}"
                             f"{' ' + rule if rule else ''}, got "
                             f"{reprlib.repr(value)}")


def numeric(value):
    """Whether every element of ``value`` (nested lists and tuples, or an
    array) is an int or a float.  A bool is not, though numpy reads it as 0
    or 1, so JSON's ``true`` would pass as 1.0; nor is a string, though
    numpy parses ``"1.5"``."""
    if isinstance(value, (list, tuple)):
        return all(numeric(v) for v in value)
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "iuf"
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool))


def floats(name, value, shape):
    """``value`` as a float64 array of ``shape`` with every element finite,
    or ValueError ``<name> must be finite numbers of shape <shape>, got
    <value>``; an element that is not ``numeric`` is refused."""
    try:
        array = np.asarray(value, dtype=float)
        good = (array.shape == shape and np.isfinite(array).all()
                and numeric(value))
    except (TypeError, ValueError, OverflowError):
        good = False
    if not good:
        shown = value.tolist() if isinstance(value, np.ndarray) else value
        raise ValueError(f"{name} must be finite numbers of shape {shape}, "
                         f"got {reprlib.repr(shown)}")
    return array
