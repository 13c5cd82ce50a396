"""The benchmark's pinned outputs, checked in tier-1.

perfbench/golden.json pins the canonical value of every benchmark
operation, and the benchmark fails a change whose operations move one.
This module builds each workload's operations from perfbench/workloads.py
(read-only), runs in process every operation that has a pin, and fails
naming each one whose value moved, so that tier-1 names every pin a change
moves and a change meant to move some lists them before it re-captures them
with `perfbench/capture_golden.py`.  The one operation without a pin (it
missed its deadline when the pins were captured) is checked against its
independent answer instead.

KNOWN_WRONG lists, under each open entry of tests/test_defects.py, the
pinned operations whose pins that entry calls wrong: the change that fixes
the entry moves those pins.
"""

import random
import sys
from pathlib import Path

import pytest

import test_defects
from conftest import clear_package_caches

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

PINS = workloads.load_golden()
# open defect entry -> the pinned operations, as (workload, name), it calls wrong
KNOWN_WRONG = {
    # odd E of rank 2: H^5(K(E, 2); C^x) is more than its Kunneth group
    "test_z3_x_z3_braided_fermionic_group_is_z3": [
        *(("survey", f"{E} fermionic braided") for E in ("Z/3 x Z/3", "Z/3 x Z/9", "Z/5 x Z/5")),
        ("groups", "obstruction_z3xz15_fermionic_braided"),
    ],
    "test_z3_x_z6_is_not_vacuum_condensable": [("survey", "Z/3 x Z/6 fermionic braided")],
    # the certificate calls 2, 2 and 4 classes free in degrees 5, 6 and 7,
    # where the top element of A(1) has rank 1, 1 and 2
    "test_free_rank_of_the_z2_smash_in_degree_5_is_one": [
        *(("algebra", f"smash_freeness_deg{N}") for N in (5, 6, 7)),
        *(("algebra", f"product_split_{r}xz2_sw5") for r in (3, 4)),
    ],
    # the two-even-factors sentence is fixed text, whatever the split says
    "test_two_even_factors_verdict_agrees_with_its_split": [
        ("survey", f"Z/2 x Z/{m} fermionic braided") for m in range(2, 17, 2)],
    "test_no_free_a1_classes_claimed_for_z4_x_z4": [
        ("survey", f"Z/4 x Z/{m} fermionic braided") for m in (4, 8)],
}


def pinned_values(workload: str) -> dict:
    """Each operation's canonical value, for those with a pin or a known
    blow-up; the caches are emptied before each operation of a workload that
    runs cold in the benchmark."""
    values = {}
    for op in workloads.OPERATIONS[workload](random.Random(0)):
        if op.name in PINS[workload] or op.known_miss:
            if workload in workloads.FRESH_CACHES:
                clear_package_caches()
            values[op.name] = op, op.canon(op.run())
    return values


@pytest.mark.parametrize("workload", sorted(workloads.OPERATIONS))
def test_every_pinned_operation_equals_its_pin(workload):
    values = pinned_values(workload)
    assert set(PINS[workload]) <= set(values)
    moved = [f"{name}: {reason}" for name, (op, value) in sorted(values.items())
             if (reason := workloads.check(op, value, PINS[workload]))]
    assert not moved, f"{workload}: {len(moved)} pinned operations moved:\n" + "\n".join(moved)


def test_known_wrong_pins_are_open_defects():
    """Each pin that KNOWN_WRONG lists exists, and each entry it names is
    still a strict xfail of the defect register: a fix that removes the
    marker fails here, naming the pins it moves."""
    fixed = {}
    for entry, pins in KNOWN_WRONG.items():
        for workload, name in pins:
            assert name in PINS[workload], (workload, name)
        marks = getattr(getattr(test_defects, entry, None), "pytestmark", [])
        if not any(m.name == "xfail" and m.kwargs.get("strict") for m in marks):
            fixed[entry] = pins
    assert not fixed, f"fixed or missing defect entries, whose pins need re-capturing: {fixed}"
