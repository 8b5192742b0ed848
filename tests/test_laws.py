"""The law runner's report rules: true failure counts, failures in case
order whatever the sharding, lazy serialization, empty laws."""

import sys

from wqsym.hopf import context_by_name, verify_hopf
from wqsym.laws import MAX_FAILURES, Law, merge_reports, report_to_json, run_laws
from wqsym.lincomb import LinComb, lc_mul
from wqsym.morphisms import verify_annihilation, verify_morphism_laws, verify_square
from wqsym.words import perm_to_text, signed_permutations


def broken_hsym():
    """hsym at weight -1 with every product of total degree 2 doubled."""
    ctx = context_by_name("hsym", -1)
    product = ctx.product

    def doubled(a, b):
        out = product(a, b)
        return out.scale(2) if len(a) + len(b) == 2 else out

    ctx.product = doubled
    return ctx


def test_failed_is_the_true_count_past_the_cap():
    ctx = broken_hsym()
    reports = {r.law: r for r in verify_hopf(ctx, 2)}
    assoc = reports["product associativity"]

    # brute force, in the order of the summed degrees of the triple
    failing = []
    for dx in range(4):
        for dy in range(4 - dx):
            for dz in range(4 - dx - dy):
                for x in signed_permutations(dx):
                    for y in signed_permutations(dy):
                        for z in signed_permutations(dz):
                            lhs = lc_mul(ctx.product(x, y), LinComb.single(z), ctx.product)
                            rhs = lc_mul(LinComb.single(x), ctx.product(y, z), ctx.product)
                            if lhs != rhs:
                                failing.append([perm_to_text(w) for w in (x, y, z)])

    assert len(failing) > MAX_FAILURES
    assert assoc.failed == len(failing)
    entry = assoc.to_json()
    assert entry["status"] == "fail" and entry["failed"] == len(failing)
    assert [f["inputs"] for f in entry["failures"]] == failing[:MAX_FAILURES]
    report = report_to_json(list(reports.values()))
    assert report["summary"]["failed"] == sum(r.failed for r in reports.values())


def test_merged_shards_equal_the_single_run():
    solo = report_to_json(verify_hopf(broken_hsym(), 2))
    assert solo["summary"]["status"] == "fail"
    for n in (2, 3):
        shards = [verify_hopf(broken_hsym(), 2, (i, n)) for i in range(n)]
        assert report_to_json(merge_reports(shards)) == solo


def test_merge_keeps_expanded_units_in_case_order():
    """Units given as a list or as a generator, which the runner walks
    once per shard, give the same reports."""
    def law(units):
        return Law("odd sums", units, lambda a, b: (a + b) % 2 == 0,
                   str, expand=lambda unit: (unit + (b,) for b in range(9)))

    listed = lambda: [(a,) for a in range(7)]
    streamed = lambda: ((a,) for a in range(7))
    solo = report_to_json(run_laws([law(listed())]))
    assert solo["checks"][0]["failed"] == 31
    for units in (listed, streamed):
        assert report_to_json(run_laws([law(units())])) == solo
        for n in (2, 3, 5):
            merged = merge_reports([run_laws([law(units())], (i, n)) for i in range(n)])
            assert report_to_json(merged) == solo


def test_passing_suites_serialize_nothing(monkeypatch):
    calls = []

    def counting(lc, encode):
        calls.append(lc)
        return {}

    for name, module in list(sys.modules.items()):
        if name.startswith("wqsym") and hasattr(module, "lincomb_to_json"):
            monkeypatch.setattr(module, "lincomb_to_json", counting)
    reports = verify_hopf(context_by_name("hsym", -1), 2) + verify_square(3)
    reports += verify_morphism_laws(1) + verify_annihilation(3, (0, 8))
    assert report_to_json(reports)["summary"]["status"] == "pass"
    assert calls == []


def test_a_law_without_cases_is_empty():
    law = Law("nothing", [], lambda x: True, str)
    report = report_to_json(run_laws([law]))
    assert report["checks"] == [{"law": "nothing", "checked": 0, "status": "empty"}]
    assert report["summary"]["status"] == "empty"
    assert report_to_json(run_laws([law, Law("one", [(1,)], bool, str)]))[
        "summary"]["status"] == "pass"
