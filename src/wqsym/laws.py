"""One runner for the verification laws.

A law is an identity checked on every case of a finite iterable.  The runner
owns every rule a verification report depends on, so a verifier only
lists its laws and their cases:

* shard (i, n) checks the units of ``cases`` whose index is i mod n; a
  unit is one case unless the law expands it into several; ``cases`` is
  walked once, so it may be a generator that never holds all units;
* ``failed`` is the true number of mismatches;
* a report keeps the first MAX_FAILURES failures in case order, so the
  merged reports of the shards of any split equal the unsharded report;
* a check returns a bool or the two sides of the identity, and inputs and
  sides are serialized only for a failure that is kept;
* a law that checked no case reports "empty", not "pass".
"""
from __future__ import annotations

import itertools
from typing import Callable, Iterable, NamedTuple, Optional

from .lincomb import lincomb_to_json

MAX_FAILURES = 20


class Law(NamedTuple):
    """An identity and the cases it is checked on.

    ``check(*case)`` returns a bool, or a pair (lhs, rhs) of linear
    combinations that must be equal.  ``show`` renders one entry of a
    case and ``encode`` one basis key of a side, for the failures kept.
    ``expand`` maps a unit of ``cases`` to the cases it holds, which the
    same shard checks; without it each unit is one case.
    """

    name: str
    cases: Iterable[tuple]
    check: Callable
    show: Callable
    encode: Optional[Callable] = None
    expand: Optional[Callable] = None


def _status(checked, failed):
    if failed:
        return "fail"
    return "pass" if checked else "empty"


class LawReport:
    """Tally of one law over the cases of one shard (or of all shards).

    ``failures`` holds (position, entry) pairs, where position is (unit
    index, index within the unit) and orders the failures by case.
    """

    __slots__ = ("law", "checked", "failed", "failures")

    def __init__(self, law):
        self.law = law
        self.checked = 0
        self.failed = 0
        self.failures = []

    def to_json(self):
        entry = {"law": self.law, "checked": self.checked,
                 "status": _status(self.checked, self.failed)}
        if self.failed:
            entry["failed"] = self.failed
            entry["failures"] = [failure for _, failure in self.failures]
        return entry


def _failure(law, case, lhs, rhs):
    side = lambda lc: None if lc is None else lincomb_to_json(lc, law.encode)
    return {"inputs": [law.show(x) for x in case], "lhs": side(lhs), "rhs": side(rhs)}


def run_laws(laws, shard=(0, 1)):
    """Check shard ``(i, n)`` of every law; one LawReport per law, in order."""
    idx, count = shard
    reports = []
    for law in laws:
        report = LawReport(law.name)
        for unit_index, unit in itertools.islice(enumerate(law.cases), idx, None, count):
            for pos, case in enumerate(law.expand(unit) if law.expand else (unit,)):
                report.checked += 1
                got = law.check(*case)
                if isinstance(got, tuple):
                    lhs, rhs = got
                    ok = lhs == rhs
                else:
                    ok, lhs, rhs = got, None, None
                if not ok:
                    report.failed += 1
                    if len(report.failures) < MAX_FAILURES:
                        report.failures.append(
                            ((unit_index, pos), _failure(law, case, lhs, rhs)))
        reports.append(report)
    return reports


def merge_reports(shards):
    """Combine the report lists of the shards of one split, law by law."""
    merged = {}
    for reports in shards:
        for report in reports:
            total = merged.setdefault(report.law, LawReport(report.law))
            total.checked += report.checked
            total.failed += report.failed
            total.failures = sorted(total.failures + report.failures,
                                    key=lambda f: f[0])[:MAX_FAILURES]
    return list(merged.values())


def report_to_json(laws, **meta):
    total = sum(law.checked for law in laws)
    failed = sum(law.failed for law in laws)
    summary = dict(meta)
    summary.update({"total": total, "failed": failed, "status": _status(total, failed)})
    return {"checks": [law.to_json() for law in laws], "summary": summary}


def graded_tuples(strata, arity, budget):
    """Every tuple of ``arity`` basis keys whose degrees sum to at most
    ``budget``, grouped by degree sequence in lexicographic order;
    ``strata[d]`` lists the keys of degree d."""
    return [
        case
        for degrees in itertools.product(range(budget + 1), repeat=arity)
        if sum(degrees) <= budget
        for case in itertools.product(*(strata[d] for d in degrees))
    ]
