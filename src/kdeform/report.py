"""Check bookkeeping and deterministic report serialization."""

from __future__ import annotations

import json


class Check:
    """A single named pass/fail result with an optional residual detail."""

    __slots__ = ("name", "passed", "detail")

    def __init__(self, name, passed, detail=""):
        self.name = name
        self.passed = bool(passed)
        self.detail = detail

    def to_dict(self):
        d = {"name": self.name, "passed": self.passed}
        if self.detail:
            d["detail"] = self.detail
        return d

    def __repr__(self):
        return "Check(%r, %s)" % (self.name, "ok" if self.passed else "FAIL")


class Report:
    """An ordered collection of checks, grouped by section."""

    def __init__(self, title, header=None):
        self.title = title
        self.header = dict(header or {})
        self.checks = []

    def add(self, name, passed, detail=""):
        c = Check(name, passed, detail)
        self.checks.append(c)
        return c

    def zero(self, name, residual):
        """Add a check that passes when ``residual`` is zero.

        The detail of a failing check is the residual's repr, cut to 160
        characters.
        """
        ok = residual.is_zero()
        detail = "" if ok else repr(residual)
        if len(detail) > 160:
            detail = detail[:160] + "..."
        return self.add(name, ok, detail)

    def extend(self, checks):
        self.checks.extend(checks)

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    @property
    def n_failed(self):
        return sum(1 for c in self.checks if not c.passed)

    def to_dict(self):
        return {
            "title": self.title,
            "header": {k: self.header[k] for k in sorted(self.header)},
            "ok": self.ok,
            "n_checks": len(self.checks),
            "n_failed": self.n_failed,
            "checks": [c.to_dict() for c in self.checks],
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def __repr__(self):
        return "Report(%r, %d checks, %d failed)" % (
            self.title,
            len(self.checks),
            self.n_failed,
        )
