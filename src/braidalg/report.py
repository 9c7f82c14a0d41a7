"""Axiom reports: named boolean checks with first-failure witnesses."""

from __future__ import annotations

from decimal import Decimal

from .tensor import decode


def _bounded(v):
    """str(v), or v rounded as ~d.dddddde+N when str() refuses its more than 4300 digits."""
    try:
        return str(v)
    except ValueError:
        return f"~{Decimal(v.numerator) / v.denominator:.6e}"


class CheckFailed(Exception):
    """A required check failed; the message names the check and its first-failure witness."""


class Witness:
    """First basis tuple where two maps differ, with both entries (exact scalars)."""

    def __init__(self, domain_index, codomain_index, lhs, rhs):
        self.domain_index = domain_index
        self.codomain_index = codomain_index
        self.lhs = lhs
        self.rhs = rhs

    def __eq__(self, other):
        return other.__class__ is Witness and vars(self) == vars(other)

    def __str__(self):
        return (
            f"input basis {self.domain_index} / output basis {self.codomain_index}: "
            f"lhs={_bounded(self.lhs)} rhs={_bounded(self.rhs)}"
        )


class CheckResult:
    def __init__(self, name, passed, witness=None):
        self.name = name
        self.passed = passed
        self.witness = witness

    def __eq__(self, other):
        return other.__class__ is CheckResult and vars(self) == vars(other)

    def __str__(self):
        if self.passed:
            return f"PASS {self.name}"
        if self.witness is None:
            return f"FAIL {self.name}"
        return f"FAIL {self.name} @ {self.witness}"


class AxiomReport:
    """Ordered collection of named checks; passes iff every check passes."""

    def __init__(self, title=""):
        self.title = title
        self.checks = []

    def add(self, name, passed, witness=None):
        self.checks.append(CheckResult(name, bool(passed), witness))
        return self

    def compare(self, name, lhs, rhs):
        """Record whether two LinMaps agree entrywise, with a witness if not."""
        if lhs.matrix == rhs.matrix:
            self.checks.append(CheckResult(name, True))
            return True
        # entries are canonical, so they differ exactly where lhs - rhs is nonzero
        row, col = min(k for k, _ in lhs.matrix.entries.items() ^ rhs.matrix.entries.items())
        w = Witness(
            domain_index=decode(col, lhs.domain),
            codomain_index=decode(row, lhs.codomain),
            lhs=lhs.matrix.get(row, col),
            rhs=rhs.matrix.get(row, col),
        )
        self.checks.append(CheckResult(name, False, w))
        return False

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def first_failure(self):
        for c in self.checks:
            if not c.passed:
                return c
        return None

    def require(self, context):
        """This report if every check passed; otherwise raise ``CheckFailed(f"{context}: {first failure}")``."""
        failed = self.first_failure()
        if failed is not None:
            raise CheckFailed(f"{context}: {failed}")
        return self

    def __getitem__(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def __contains__(self, name):
        return any(c.name == name for c in self.checks)

    def merge(self, other):
        self.checks.extend(other.checks)
        return self

    def __str__(self):
        head = [self.title] if self.title else []
        return "\n".join(head + [str(c) for c in self.checks])
