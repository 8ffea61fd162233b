"""Structured pass/fail results for the verification checks.

A failed identity is a first-class result, not an exception: the check
functions return a CheckResult carrying the parameters and, on failure,
a witness locating the mismatch with both exact values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Mapping

from .exact import format_rational

__all__ = ["CheckResult", "failed", "jsonable", "passed"]


@dataclass(frozen=True)
class CheckResult:
    check: str
    params: Mapping[str, Any] = field(default_factory=dict)
    status: str = "pass"
    witness: Any = None

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
