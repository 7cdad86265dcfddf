"""One range rule for the numeric fields of every record built from outside
input: settings, scenes, cameras and joints.  It imports nothing from the
package, so every module can use it."""

import math
import reprlib

# The ranges a field can be held to; "" asks only that it be finite.
RULES = {"": lambda v: True, "> 0": lambda v: v > 0, ">= 0": lambda v: v >= 0,
         ">= 2": lambda v: v >= 2, "in [0, 1]": lambda v: 0 <= v <= 1,
         "in [0, 180]": lambda v: 0 <= v <= 180}


def finite(value, kind=float):
    """Whether ``value`` is a finite ``kind``: an int passes as a float, a
    bool never, nor a number beyond the float64 range (10**400)."""
    try:
        return (isinstance(value, (int, kind)) and not isinstance(value, bool)
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
