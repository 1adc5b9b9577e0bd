"""Exception hierarchy for the simulation engine, and the field-kind
checks that raise its :class:`ConfigurationError` on malformed input."""

from __future__ import annotations

import math
from typing import Any, Callable, Sequence, Tuple


class SimulationError(Exception):
    """Base class for every error raised by the engine."""


class ConfigurationError(SimulationError):
    """An experiment or engine parameter is invalid."""


class SchedulingError(SimulationError):
    """An event was scheduled in the past or otherwise illegally."""


class TopologyError(SimulationError):
    """The network topology is malformed (unknown node, duplicate link...)."""


class DataPlaneError(SimulationError):
    """The simulated data plane was driven into an invalid state."""


class ControlPlaneError(SimulationError):
    """An emulated control-plane component misbehaved."""


# -- field kinds --------------------------------------------------------------
#
# What a field read from a file may hold, one predicate per kind; the
# predicate's name is the phrase an error uses ("must be an integer").
# A spec's leaf values are checked with these before anything compares
# or computes with them, so a hand-edited file fails closed instead of
# raising a TypeError wherever a value is first used.


def a_number(value: Any) -> bool:
    """A finite int or float.  ``bool`` subclasses ``int``, but ``true``
    is not a number; ``NaN`` or ``Infinity`` as a duration would run
    forever."""
    if isinstance(value, float):
        return math.isfinite(value)
    return isinstance(value, int) and not isinstance(value, bool)


def a_number_or_null(value: Any) -> bool:
    return value is None or a_number(value)


def an_integer(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def a_boolean(value: Any) -> bool:
    return isinstance(value, bool)


def a_string(value: Any) -> bool:
    return isinstance(value, str)


def an_object(value: Any) -> bool:
    return isinstance(value, dict)


def a_list(value: Any) -> bool:
    return isinstance(value, list)


def a_list_of_strings(value: Any) -> bool:
    return isinstance(value, list) and all(
        isinstance(item, str) for item in value)


def a_list_of_string_pairs(value: Any) -> bool:
    return isinstance(value, list) and all(
        isinstance(pair, (list, tuple)) and len(pair) == 2
        and isinstance(pair[0], str) and isinstance(pair[1], str)
        for pair in value)


FieldKind = Callable[[Any], bool]


def expect(what: str, value: Any, kind: FieldKind) -> Any:
    """``value``, if ``kind`` (one of the predicates above) accepts it;
    else a :class:`ConfigurationError` naming ``what`` and the kind."""
    if not kind(value):
        raise ConfigurationError(
            f"{what} must be {kind.__name__.replace('_', ' ')}, "
            f"got {value!r}")
    return value


def expect_fields(owner: Any,
                  typed_fields: Sequence[Tuple[str, FieldKind]]) -> None:
    """:func:`expect` for each ``(field, kind)`` attribute of ``owner``,
    named ``<class>.<field>``.  The name is only formatted for an error:
    a symmetry workload validates thousands of injections."""
    for name, kind in typed_fields:
        value = getattr(owner, name)
        if not kind(value):
            expect(f"{type(owner).__name__}.{name}", value, kind)
