"""Typed field validators: one implementation for every body and knob.

Every field a user sets — a ``/v1/predict``, ``/v1/advise`` or
``/v1/tune`` body field, a machine-preset knob, a
:class:`~repro.machine.MachineConfig` field — is checked here.  A
validator is called as ``check(name, value)`` and returns the value
(numbers as ``float``, ranges as tuples) or raises :class:`FieldError`
naming the field in single quotes: ``'n' must be an integer >= 1, got
2.7``.  Types are strict, as JSON spells them: ``true`` is not 1,
``2.7`` is not 2, ``"3"`` is not 3 and ``"false"`` is not false.

A :class:`Field` adds a name and a default; a :func:`table` of fields
describes one request body.  The tables live beside their handlers
(``repro.model.vector``, ``repro.serve.app``); a test checks
docs/SERVING.md's field tables against them.
"""

from __future__ import annotations

import math
from types import FunctionType
from typing import Any, Callable, Dict, Mapping, Tuple

from repro.errors import ConfigurationError, ModelError


class FieldError(ModelError, ConfigurationError):
    """A malformed field, named in the message.

    It is a :class:`ModelError`, what the predict path has always
    raised, and a :class:`ConfigurationError`, what machine descriptions
    raise, so every existing handler catches it unchanged."""


def fail(name: str, value: Any, why: str) -> FieldError:
    """The error for field ``name`` holding ``value``; ``why`` reads
    after the quoted name (``"must be a string"``)."""
    return FieldError(f"{name!r} {why}, got {value!r}")


def _too_big(name: str, value: int) -> FieldError:
    # Formatting the value would overflow (or flood) the message.
    return FieldError(
        f"{name!r} must fit a float64, got an integer of "
        f"{value.bit_length()} bits"
    )


def _bounds(lo: float, hi: float) -> str:
    if hi == math.inf:
        return "" if lo == -math.inf else f" >= {lo}"
    return f" in [{lo}, {hi}]"


class Integer:
    """A JSON integer (never a bool) in ``[lo, hi]``.  With ``float64``
    it must also convert to a float64, as plans and cost models compute
    with it as one."""

    def __init__(
        self,
        lo: float = -math.inf,
        hi: float = math.inf,
        float64: bool = False,
    ) -> None:
        self.lo, self.hi, self.float64 = lo, hi, float64
        self.rule = "an integer" + _bounds(lo, hi)

    def __call__(self, name: str, value: Any) -> int:
        if value.__class__ is not int or not self.lo <= value <= self.hi:
            raise fail(name, value, f"must be {self.rule}")
        if self.float64:
            try:
                float(value)
            except OverflowError:
                raise _too_big(name, value) from None
        return value


class Number:
    """A number (never a bool) in ``[lo, hi]``, or above 0 when
    ``positive``; NaN is never in range.  Returns a float."""

    def __init__(
        self,
        lo: float = -math.inf,
        hi: float = math.inf,
        positive: bool = False,
    ) -> None:
        self.lo, self.hi, self.positive = lo, hi, positive
        self.rule = (
            "a positive number" if positive else "a number" + _bounds(lo, hi)
        )

    def __call__(self, name: str, value: Any) -> float:
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or not self.lo <= value <= self.hi
            or (self.positive and not value > 0)
        ):
            raise fail(name, value, f"must be {self.rule}")
        try:
            return float(value)
        except OverflowError:
            raise _too_big(name, value) from None


class Choice:
    """One of a fixed set of values, of the same type as the values."""

    def __init__(self, *values: Any) -> None:
        self.values = values
        self._types = {v.__class__ for v in values}

    def __call__(self, name: str, value: Any) -> Any:
        if value.__class__ not in self._types or value not in self.values:
            raise fail(name, value, f"must be one of {sorted(self.values)}")
        return value


class Instance:
    """An instance of ``cls``, described as ``what`` in the message."""

    def __init__(self, cls: type, what: str) -> None:
        self.cls, self.what = cls, what

    def __call__(self, name: str, value: Any) -> Any:
        if not isinstance(value, self.cls):
            raise fail(name, value, f"must be {self.what}")
        return value


class Nullable:
    """``null``, or what ``inner`` accepts."""

    def __init__(self, inner: Callable[[str, Any], Any]) -> None:
        self.inner = inner

    def __call__(self, name: str, value: Any) -> Any:
        return None if value is None else self.inner(name, value)


class ListOf:
    """A non-empty JSON list whose every item ``item`` accepts."""

    def __init__(self, item: Callable[[str, Any], Any]) -> None:
        self.item = item

    def __call__(self, name: str, value: Any) -> list:
        if value.__class__ is not list or not value:
            raise fail(name, value, "must be a non-empty list")
        return [self.item(name, v) for v in value]


def string(name: str, value: Any) -> str:
    if value.__class__ is not str:
        raise fail(name, value, "must be a string")
    return value


def boolean(name: str, value: Any) -> bool:
    if value is not True and value is not False:
        raise fail(name, value, "must be true or false")
    return value


def ns_range(name: str, value: Any) -> Tuple[float, float]:
    """A ``[lo, hi]`` nanosecond range with ``0 < lo <= hi``, as a tuple."""
    if value.__class__ not in (list, tuple) or len(value) != 2:
        raise fail(name, value, "must be a [lo, hi] pair of numbers")
    lo, hi = (Number()(name, v) for v in value)
    if not 0 < lo <= hi:
        raise fail(name, value, "needs 0 < lo <= hi")
    return (lo, hi)


class Field:
    """One named body field: its validator and default.  A ``None``
    default makes the field required unless the validator accepts
    ``null``; ``read(body)`` checks the field's value in a body."""

    __slots__ = ("name", "check", "default", "read")

    def __init__(
        self, name: str, check: Callable[[str, Any], Any], default: Any = None
    ) -> None:
        self.name, self.check, self.default = name, check, default
        # A bound __call__ skips the slot lookup of calling the instance:
        # a count read in the predict compile loop takes ~40% less time.
        call = check if isinstance(check, FunctionType) else check.__call__
        self.read: Callable[[Mapping], Any] = (
            lambda body: call(name, body.get(name, default))
        )


def table(*fields: Field) -> Dict[str, Field]:
    """A body's fields by name, in checking order."""
    return {f.name: f for f in fields}


def read(fields: Mapping[str, Field], body: Mapping) -> Dict[str, Any]:
    """Every field of ``fields`` read from ``body``, in table order."""
    return {f.name: f.read(body) for f in fields.values()}


def flag(kind: Callable[[str], Any], ok: Callable[[Any], bool], rule: str):
    """An argparse ``type`` that parses with ``kind`` and accepts only
    values passing ``ok``; anything else is a usage error (exit 2)."""
    import argparse

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value

    return parse
