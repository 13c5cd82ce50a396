"""Every operation's output is checked, and failures are counted."""

import compileall
import json
import os
import random
import time

import layers
import run
import workloads
import worker
from speed import Speed
from surfcond.condense import Verdict

GOLDEN = workloads.load_golden()


def _survey_op(name):
    return next(op for op in workloads.build_survey(random.Random(0)) if op.name == name)


def test_a_corrupted_verdict_is_a_failure():
    op = _survey_op("Z/8 fermionic braided")
    assert not worker.run_op(op, GOLDEN["survey"])["failed"]
    good = op.run
    op.run = lambda: Verdict(**{**vars(good()), "verdict": "obstructed"})
    outcome = worker.run_op(op, GOLDEN["survey"])
    assert outcome["failed"] and "golden" in outcome["reason"]
    # the independent answer catches it even without a golden value
    op.run = lambda: Verdict(**{**vars(good()), "group": "Z/2"})
    assert worker.run_op(op, None)["failed"]


def test_a_missed_deadline_is_a_failure():
    slow = workloads.Op("slow", lambda: time.sleep(0.05), deadline_s=0.01)
    outcome = worker.run_op(slow, None)
    assert outcome["failed"] and "deadline" in outcome["reason"]


def test_an_isolated_operation_is_killed_at_its_deadline():
    hang = workloads.Op("hang", lambda: time.sleep(30), deadline_s=0.2, isolated=True)
    t0 = time.monotonic()
    outcome = worker.run_op(hang, None)
    assert time.monotonic() - t0 < 5
    assert outcome["failed"] and not outcome["known_miss"]
    hang.known_miss = True
    outcome = worker.run_op(hang, None)
    assert outcome["known_miss"] and not outcome["failed"]


def test_an_isolated_operation_that_finishes_is_checked():
    op = workloads.Op("quad", lambda: "Z/2", isolated=True, deadline_s=10,
                      oracle=lambda v: None if v == "Z/4" else "wrong")
    assert worker.run_op(op, None)["failed"]


def test_a_known_blowup_that_finishes_is_checked_against_its_closed_form():
    op = next(op for op in workloads.build_groups(random.Random(0)) if op.known_miss)
    assert op.name not in GOLDEN["groups"]
    right = workloads.quad_circle_two_group((4, 8))
    op.run = lambda: right
    outcome = worker.run_op(op, GOLDEN["groups"])
    assert not outcome["failed"] and not outcome["known_miss"], outcome["reason"]
    op.run = lambda: "Z/2"
    outcome = worker.run_op(op, GOLDEN["groups"])
    assert outcome["failed"] and "closed-form" in outcome["reason"]
    # any other operation without a golden output fails
    plain = workloads.Op("unrecorded", lambda: 1, oracle=lambda v: None)
    assert worker.run_op(plain, GOLDEN["groups"])["failed"]


def test_an_exception_is_a_failure():
    op = workloads.Op("boom", lambda: 1 / 0)
    assert "ZeroDivisionError" in worker.run_op(op, None)["reason"]


def test_traced_pass_gives_the_untraced_outputs_and_restores_attributes(capsys):
    from surfcond import ahss, condense, em_cohomology

    before = (condense.obstruction_verdict, ahss.algebra_for, em_cohomology.EmAlgebra.sq)
    for trace in (False, True):
        result = worker.run_pass("survey", 5, 0, trace, GOLDEN["survey"])
        assert len(result["ops"]) == 180
        assert not [o for o in result["ops"] if o["failed"]]
    assert result["layers"]["condense.obstruction_verdict.self_ms"] > 0
    assert result["absent"] == []
    assert (condense.obstruction_verdict, ahss.algebra_for, em_cohomology.EmAlgebra.sq) == before
    assert json.loads(capsys.readouterr().out.splitlines()[0])["ready"] > 0


def test_independent_answers():
    assert workloads.k_z2_2_series(10) == [1, 0, 1, 1, 1, 2, 2, 2, 3, 4, 4]
    assert workloads.quad_circle_two_group((2, 16)) == "Z/2 x Z/4 x Z/32"
    assert workloads.two_torsion_dual((3, 9)) == "0"
    assert workloads.convolve([1, 1, 0], [1, 2, 3]) == [1, 3, 5]
    assert len(workloads.survey_groups()) == 45


def test_times_are_rescaled_except_known_deadline_misses():
    assert run._scaled_ms({"ms": 100.0, "scale": 0.5, "known_miss": False}) == 50.0
    assert run._scaled_ms({"ms": 2000.0, "scale": 0.5, "known_miss": True}) == 2000.0
    p = {"ops": [{"ms": 100.0, "scale": 2.0, "known_miss": False},
                 {"ms": 300.0, "scale": 1.0, "known_miss": False}]}
    assert run.pass_s(p) == 0.5 and run.pass_s(p, scaled=False) == 0.4


def test_children_compile_from_source_despite_bytecode_beside_the_sources():
    # the cache a test run or an earlier import leaves in src/surfcond
    compileall.compile_dir(os.path.join(run.SRC, "surfcond"), quiet=1)
    with run.fresh_tree() as tree:
        (_wall, import_ms, _scale), = run.import_probes(Speed(), 1)
        assert import_ms > 0
        run.setup_samples(Speed(), "groups", 0)
        # the probe and the workers imported surfcond from the copy, and
        # neither found nor left bytecode there
        assert [d for d, _subdirs, _files in os.walk(tree) if "__pycache__" in d] == []
    assert not os.path.exists(tree)


def test_speed_scale_is_nominal_over_mean_reference():
    from speed import REFERENCE_S

    speed = Speed()
    before = speed.last
    _, scale = speed.around(lambda: None)
    assert scale == REFERENCE_S / ((before + speed.last) / 2)
    assert len(speed.samples) == 2


def test_percentile():
    assert run.percentile([5.0], 90) == 5.0
    assert run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert run.percentile([0.0, 10.0], 90) == 9.0


def test_benchmark_json_names_what_run_prints():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == run.WORKLOADS
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert sorted(workloads.OPERATIONS) == sorted(run.WORKLOADS)
