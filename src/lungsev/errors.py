"""Exception types shared across the package, and the one place where a bad
input becomes one: every JSON document is read by read_json, each of its
fields by read_field and every other value by checked, so the message reads
"<file>: <field>: <problem>" or "<field>: <problem>".

The CLI maps these onto exit codes: anything derived from InputError is a
usage or data problem (exit 2), as is an OSError from reading or writing a
file; any other LungSevError, such as ConvergenceError, signals a broken
invariant (exit 3).
"""

import json
import math


class LungSevError(Exception):
    """Base class for all package-specific errors."""


class InputError(LungSevError, ValueError):
    """Invalid user input: bad files, bad arguments, violated preconditions."""


class HeaderError(InputError):
    """A grid or checkpoint file pair is missing, ill-formed, or inconsistent."""


class GeometryError(InputError):
    """Two grids that must share geometry do not."""


class EmptyMaskError(InputError):
    """A mask that must contain foreground voxels is empty."""


class DegenerateDataError(InputError):
    """A statistic is undefined for this input (constant series, all-tied
    ranks, a contingency table with a single occupied column, ...)."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class ConvergenceError(LungSevError):
    """An iterative numerical routine failed to converge."""


# What a check raises; OverflowError is an int too large for a float.
_REJECTED = (TypeError, ValueError, OverflowError)


def _named(exc: Exception, name, error: type) -> InputError:
    """`exc` as `error` with "name: " in front; InputError subclasses keep their class."""
    if isinstance(exc, InputError) and type(exc) is not InputError:
        error = type(exc)
    if isinstance(exc, json.JSONDecodeError):
        return error(f"{name}: ill-formed JSON: {exc}")
    return error(f"{name}: {exc}")


def read_json(path, build, error: type = InputError):
    """build(document) for the JSON object at `path`; a failure to read,
    decode or build raises `error` with a message that starts with the path."""
    try:
        with open(path) as file:
            try:
                document = json.load(file)
            except RecursionError:  # json.load's own recursion, on deep nesting
                raise ValueError("ill-formed JSON: nested too deeply") from None
        if not isinstance(document, dict):
            raise TypeError(f"expected a JSON object, got {type(document).__name__}")
        return build(document)
    except (OSError, KeyError, *_REJECTED) as exc:
        raise _named(exc, path, error) from exc


def only_fields(doc, fields) -> None:
    """Raise InputError naming each key of `doc` outside `fields`, so that a
    misspelt optional field is not silently left at its default."""
    unknown = sorted(set(doc) - set(fields))
    if unknown:
        raise InputError("unknown field(s): " + ", ".join(unknown))


def checked(name: str, value, check):
    """check(value), where a value that check rejects raises InputError naming
    `name`; each value passes through here once, in the type or function that owns it."""
    try:
        return check(value)
    except _REJECTED as exc:
        raise _named(exc, name, InputError) from exc


def read_field(doc, key: str, check):
    """check(doc[key]), where a missing key or a value that check rejects raises InputError
    naming the key; checked's rule, inlined because a report has 40 fields to read."""
    try:
        return check(doc[key])
    except KeyError:
        raise InputError(f"missing field {key!r}") from None
    except _REJECTED as exc:
        raise _named(exc, key, InputError) from exc


# Checks for checked and read_field: each returns the value it passes,
# converted where stated, and raises TypeError or ValueError for any other.

def exactly(kind):
    """A check that passes only values of type `kind` itself (true is not an int)."""
    def check(value):
        if type(value) is not kind:
            raise TypeError(f"expected {kind.__name__}, got {value!r}")
        return value
    return check


integer = exactly(int)


def at_least(low: int):
    """A check that passes an int no smaller than `low`."""
    def check(value):
        if integer(value) < low:
            raise ValueError(f"expected an integer >= {low}, got {value}")
        return value
    return check


def finite(value) -> float:
    """Pass a finite int or float (not a bool or a string), as a float."""
    kind = type(value)  # exact floats and ints, all that JSON yields, pass the first tests
    number = kind is float or kind is int or (kind is not bool and isinstance(value, (int, float)))
    if number and math.isfinite(value):
        return float(value)
    raise ValueError(f"expected a finite number, got {value!r}")


def positive(value) -> float:
    """Pass a finite number > 0, as a float."""
    if finite(value) > 0:
        return float(value)
    raise ValueError(f"expected a number > 0, got {value!r}")


def nonnegative(value) -> float:
    """Pass a finite number >= 0, as a float."""
    if finite(value) >= 0:
        return float(value)
    raise ValueError(f"expected a number >= 0, got {value!r}")


def one_of(*options: str):
    """A check that passes only the given strings."""
    def check(value):
        if value not in options:
            raise ValueError(f"unsupported value {value!r}, expected one of {options}")
        return value
    return check


def entries(check, length: int | None = None):
    """A check that passes a list (or tuple) of `length` entries (any number
    if None) that each pass `check`, as a tuple of what check returns."""
    def check_list(value):
        if type(value) not in (list, tuple):
            raise TypeError(f"expected a list, got {value!r}")
        if length is not None and len(value) != length:
            raise ValueError(f"expected {length} entries, got {len(value)}")
        return tuple(map(check, value))
    return check_list
