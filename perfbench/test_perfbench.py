"""Tests of the benchmark's own logic (not of the program it measures).

Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import suite  # noqa: E402

#: two small guests keep the operation-level tests fast
TINY = {"scales": {"mcf": 1, "perlbmk": 1}}


@pytest.mark.parametrize("cls", [suite.SteadyJit, suite.ColdGuests,
                                 suite.PaperFig8])
def test_same_seed_gives_identical_inputs(cls):
    first, again, other = cls(7), cls(7), cls(8)
    for workload in (first, again, other):
        workload.build_inputs()
    assert first.describe() == again.describe()
    assert first.digest() == again.digest()
    assert first.digest() != other.digest()


def test_digest_covers_program_words():
    workload = suite.ColdGuests(3)
    workload.build_inputs()
    before = workload.digest()
    workload._words[5] = workload._words[5][:-1] + b"\x00"
    assert workload.digest() != before


class _Clock:
    """A clock that returns the scripted times, in order."""

    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_children():
    # op [0, 10) > vm.run [1, 7) > vm.construct [2, 3) and [4, 6);
    # op > asm.assemble [8, 9)
    recorder = spans.SpanRecorder(_Clock([0, 1, 2, 3, 4, 6, 7, 8, 9, 10]))
    with recorder.span(spans.OP):
        with recorder.span(spans.VM_RUN):
            with recorder.span(spans.VM_CONSTRUCT):
                pass
            with recorder.span(spans.VM_CONSTRUCT):
                pass
        with recorder.span(spans.ASSEMBLE):
            pass
    selfs = spans.self_times(recorder.spans)
    op, vm_run, first, second, assemble = recorder.spans
    assert selfs[op.index] == 10 - 6 - 1
    assert selfs[vm_run.index] == 6 - 1 - 2
    assert selfs[first.index] == 1 and selfs[second.index] == 2
    assert selfs[assemble.index] == 1
    assert {span.op for span in recorder.spans} == {0}
    assert vm_run.parent == op.index and first.parent == vm_run.index


def test_coverage_and_overhead_metrics():
    recorder = spans.SpanRecorder(_Clock([0, 1, 3, 4, 10, 12, 18, 20]))
    for _ in range(2):
        with recorder.span(spans.OP):
            with recorder.span(spans.VM_RUN):
                pass
    metrics = spans.layer_metrics(recorder.spans, 1.5e-6, 1e-6)
    # op spans cover 4 + 10 s; vm.run covers 2 + 6 s of them
    assert metrics["trace.coverage_frac"][0] == pytest.approx(8 / 14)
    assert metrics["trace.unattributed_s"][0] == pytest.approx(6)
    assert metrics["trace.overhead_frac"][0] == pytest.approx(0.5)
    assert metrics["vm.run_s"][0] == 8


def _entry_points():
    return {(owner, attr): owner.__dict__[attr]
            for _, owners, attr, _ in spans.wrap_targets()
            for owner in owners}


def test_wrappers_are_removed_after_the_traced_run():
    originals = _entry_points()
    workload = suite.SteadyJit(1, **TINY)
    recorder = spans.SpanRecorder()
    with spans.instrumented(recorder):
        for (owner, attr), original in originals.items():
            assert owner.__dict__[attr] is not original
        assert workload.run_op(0, recorder, telemetry=True)[0].failure \
            is None
    assert _entry_points() == originals
    names = {span.name for span in recorder.spans}
    assert {spans.OP, spans.ASSEMBLE, spans.VM_CONSTRUCT,
            spans.VM_RUN} <= names
    count = len(recorder.spans)
    workload.run_op(0)
    assert len(recorder.spans) == count


def test_wrappers_are_removed_after_an_error():
    originals = _entry_points()
    with pytest.raises(RuntimeError):
        with spans.instrumented(spans.SpanRecorder()):
            raise RuntimeError("boom")
    assert _entry_points() == originals


def test_traced_pass_replays_the_first_half_of_the_rounds():
    steady = suite.SteadyJit(5, **TINY)
    assert steady.round_size == 2
    assert run.traced_indices(steady, list(range(6))) == [0, 1, 2, 3]
    # cold programs are never rerun: the traced pass takes fresh ones
    assert run.traced_indices(suite.ColdGuests(2), list(range(5))) == \
        [5, 6, 7]
    assert run.traced_indices(suite.PaperFig8(1), [0]) == [0]


def test_corrupted_reference_counts_as_failed_operation():
    workload = suite.SteadyJit(5, **TINY)
    workload.build_inputs()
    workload.expected[0] = suite.reference_run(*workload.guests[0])
    workload.expected[0]["regs"][3] ^= 1
    results, indices, rss_kb = run.measure(workload, seconds=0.0)
    assert indices == [0, 1] and rss_kb > 0
    assert [r.failure is not None for r in results] == [True, False]
    assert "naive interpreter" in results[0].failure


def test_corrupted_oracle_counts_as_failed_operation(monkeypatch):
    workload = suite.ColdGuests(2)
    workload.build_inputs()
    honest = suite.run_reference

    def corrupted(fprog, budget):
        outcome = honest(fprog, budget)
        if fprog.index == 1:
            outcome.console += "!"
        return outcome

    monkeypatch.setattr(suite, "run_reference", corrupted)
    results = run.replay(workload, [0, 1, 2])
    assert [r.failure is not None for r in results] == [False, True, False]


def test_raising_operation_counts_as_failed(monkeypatch):
    workload = suite.SteadyJit(5, **TINY)
    workload.build_inputs()
    honest = suite.run_vm

    def flaky(name, *args, **kwargs):
        if name == workload.guests[1][0]:
            raise ValueError("injected")
        return honest(name, *args, **kwargs)

    monkeypatch.setattr(suite, "run_vm", flaky)
    results = run.replay(workload, [0, 1, 2, 3])
    assert [r.failure for r in results][1::2] == ["ValueError: injected"] * 2
    assert all(r.failure is None for r in results[0::2])


def test_corrupted_golden_counts_as_failed_point(tmp_path):
    golden = json.loads(suite.GOLDEN_FIG8.read_text())
    workload = suite.PaperFig8(4, workloads=("perlbmk",),
                               golden_path=tmp_path / "golden.json")
    name = workload.workloads[0]
    golden["points"][f"{name} (original)"]["committed"] += 1
    workload.golden_path.write_text(json.dumps(golden))
    workload.prepare_checks()
    results = workload.run_op(0)
    assert len(results) == 4
    assert "committed" in results[0].failure
    assert all(r.failure is None for r in results[1:])


def test_golden_covers_every_workload_point():
    golden = json.loads(suite.GOLDEN_FIG8.read_text())
    assert golden["budget"] == suite.FIG8_BUDGET
    assert len(golden["points"]) == 4 * len(suite.WORKLOAD_NAMES)
