"""Structured pass/fail results for the verification checks.

A failed identity is a first-class result, not an exception: the check
functions return a CheckResult carrying the parameters and, on failure,
a witness locating the mismatch with both exact values.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction

from .exact import format_rational

__all__ = ["CheckResult", "failed", "jsonable", "passed"]

_set = object.__setattr__


class _Frozen:
    """Base of the package's immutable value types.

    A subclass names its fields, in constructor order, as __slots__ and
    sets them in __init__ with object.__setattr__.  Instances are equal
    when of the same type with equal fields, hash over the fields, show
    as Name(field=value, ...) and refuse assignment and deletion, as a
    frozen dataclass would.  Importing dataclasses (with inspect, ast and
    dis) would add about 10 ms to every cold start, about as long as the
    rest of the import takes (CPython 3.11).
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not through setattr
        return type(self), self._fields()


class CheckResult(_Frozen):
    __slots__ = ("check", "params", "status", "witness")

    def __init__(
        self,
        check: str,
        params: Mapping[str, object] | None = None,
        status: str = "pass",
        witness: object = None,
    ):
        _set(self, "check", check)
        _set(self, "params", {} if params is None else params)
        _set(self, "status", status)
        _set(self, "witness", witness)

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    @property
    def check_id(self) -> str:
        inner = ",".join(f"{k}={_fmt(v)}" for k, v in self.params.items())
        return f"{self.check}[{inner}]"


def passed(check: str, **params) -> CheckResult:
    return CheckResult(check, params, "pass", None)


def failed(check: str, witness, **params) -> CheckResult:
    return CheckResult(check, params, "fail", witness)


def _fmt(v) -> str:
    if isinstance(v, (tuple, list)):
        return "+".join(str(x) for x in v)
    return str(v)


def jsonable(obj):
    """Recursively convert check payloads to JSON-safe values.

    Fractions become "num/den" strings so that every rational round-trips
    exactly through the serialized report.
    """
    if isinstance(obj, Fraction):
        return format_rational(obj)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj
