"""Acceptance criteria: one test per entry of ``splicezeta.selfcheck.CHECKS``,
run at the entry's full sample count, with the wall-time bounds below.

Each test is named ``test_<entry name>``.  Run with
``pytest tests/test_acceptance.py -s`` to see one pass/fail line per entry
as it completes.
"""

import time

from splicezeta.selfcheck import CHECKS

# wall-time bounds in seconds; selfcheck's verdict does not depend on time
TIME_BOUNDS = {
    "criterion_1_running_example_golden": 1.0,
    "criterion_2_splice_identity": 60.0,
    "criterion_7_realization_goldens": 10.0,
}


def _driver(check):
    def test():
        t0 = time.perf_counter()
        ok, detail = check(check.samples)
        elapsed = time.perf_counter() - t0
        bound = TIME_BOUNDS.get(check.name, float("inf"))
        mark = "PASS" if ok and elapsed < bound else "FAIL"
        print(f"ACCEPTANCE {check.name}: {mark} ({detail + ', ' if detail else ''}{elapsed:.2f}s)")
        assert ok, f"{check.name} failed: {detail}"
        assert elapsed < bound, f"{check.name} took {elapsed:.2f}s, bound {bound}s"

    test.__name__ = test.__qualname__ = f"test_{check.name}"
    return test


for _check in CHECKS:
    globals()[f"test_{_check.name}"] = _driver(_check)


def test_driver_runs_exactly_the_table():
    # every test in this module other than this one is a table entry, in
    # table order, and every time bound names an entry
    names = [c.name for c in CHECKS]
    driven = [k for k in globals() if k.startswith("test_") and k != "test_driver_runs_exactly_the_table"]
    assert driven == [f"test_{n}" for n in names]
    assert set(TIME_BOUNDS) <= set(names)
