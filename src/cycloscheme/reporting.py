"""Pass/fail bookkeeping shared by all verification routines."""

from typing import NamedTuple


class CheckResult(NamedTuple):
    """One check; ``passed`` is None when the check was skipped."""

    name: str
    passed: bool | None
    detail: str = ""

    def __str__(self) -> str:
        tag = {True: "PASS", False: "FAIL", None: "SKIP"}[self.passed]
        return f"[{tag}] {self.name}" + (f": {self.detail}" if self.detail else "")


class Report:
    def __init__(self, title: str):
        self.title = title
        self.checks: list[CheckResult] = []

    def add(self, name: str, passed: bool, detail: str = "") -> CheckResult:
        """A check with a verdict, True or False; a skipped one is ``skip``."""
        if type(passed) is not bool:
            raise TypeError(f"verdict of {name!r} is {passed!r}, not a bool")
        self.checks.append(CheckResult(name, passed, detail))
        return self.checks[-1]

    def skip(self, name: str, detail: str = "") -> CheckResult:
        self.checks.append(CheckResult(name, None, detail))
        return self.checks[-1]

    def extend(self, other: "Report") -> None:
        self.checks.extend(other.checks)

    @property
    def passed(self) -> bool:
        """No check failed; skipped checks do not fail a report."""
        return not self.failures()

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if c.passed is False]

    def skipped(self) -> list[CheckResult]:
        return [c for c in self.checks if c.passed is None]

    def to_json(self) -> dict:
        return {
            "title": self.title,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }

    def __str__(self) -> str:
        lines = [f"== {self.title} =="]
        lines.extend(str(c) for c in self.checks)
        return "\n".join(lines)
