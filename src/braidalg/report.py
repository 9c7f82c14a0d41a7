"""Axiom reports: named boolean checks with first-failure witnesses."""

from __future__ import annotations

from dataclasses import dataclass


def _decode(index, dims):
    """Split a linearised tensor index into per-factor indices (left major)."""
    out = []
    for d in reversed(dims):
        out.append(index % d)
        index //= d
    return tuple(reversed(out))


@dataclass(frozen=True)
class Witness:
    """First basis tuple where two maps differ, with both entries."""

    domain_index: tuple
    codomain_index: tuple
    lhs: str
    rhs: str

    def __str__(self):
        return (
            f"input basis {self.domain_index} / output basis {self.codomain_index}: "
            f"lhs={self.lhs} rhs={self.rhs}"
        )


@dataclass
class CheckResult:
    name: str
    passed: bool
    witness: Witness | None = None

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
        dom_dims = [s.dim for s in lhs.domain]
        cod_dims = [s.dim for s in lhs.codomain]
        w = Witness(
            domain_index=_decode(col, dom_dims) if dom_dims else (),
            codomain_index=_decode(row, cod_dims) if cod_dims else (),
            lhs=str(lhs.matrix.get(row, col)),
            rhs=str(rhs.matrix.get(row, col)),
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

    def __getitem__(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def __contains__(self, name):
        return any(c.name == name for c in self.checks)

    def names(self):
        return [c.name for c in self.checks]

    def merge(self, other, prefix=""):
        for c in other.checks:
            self.checks.append(CheckResult(prefix + c.name, c.passed, c.witness))
        return self

    def __str__(self):
        head = [self.title] if self.title else []
        return "\n".join(head + [str(c) for c in self.checks])
