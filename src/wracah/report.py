"""Named residual checks and per-suite verification reports."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class Check:
    """One named check.

    residual is a violation measure: equality checks store the norm of the
    difference, threshold checks (something must stay away from zero) store
    the shortfall below the floor, which is 0.0 while they pass.  The pass
    flag is authoritative either way.
    """

    name: str
    residual: float
    tol: float
    passed: bool

    @staticmethod
    def residual_check(name: str, residual: float, tol: float) -> "Check":
        residual = float(residual)
        tol = float(tol)
        return Check(name, residual, tol, residual <= tol)

    @staticmethod
    def threshold_check(name: str, value: float, floor: float) -> "Check":
        value = float(value)
        floor = float(floor)
        return Check(name, max(0.0, floor - value), floor, value > floor)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "residual": self.residual,
            "tol": self.tol,
            "pass": self.passed,
        }


@dataclass(slots=True)
class VerificationReport:
    suite: str
    k: int | None = None
    r: float | None = None
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_residual(self) -> float:
        return max((c.residual for c in self.checks), default=0.0)

    def add(self, check: Check) -> None:
        self.checks.append(check)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "k": self.k,
            "r": self.r,
            "checks": [c.to_dict() for c in self.checks],
        }
