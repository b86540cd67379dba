"""JIT engine: compilation, parity, guarded deopt, invalidation.

The heavyweight engine-differential guarantees live in
``test_cosim_differential.py`` (all workloads, both engines) and in the
fuzz corpus replay; these are the unit-level checks for the jit
machinery itself: compile-on-first-entry, generated-source
introspection, trap deoptimisation with precise state, compile-failure
degradation, the invalidation paths (chaining patches, corruption
recovery) that must discard generated code, and the traced
differentials: generated code appends trace records inline,
field-identical to the naive engine's.
"""

import os

import pytest

import repro.vm.executor as executor_mod
from repro.asm import assemble
from repro.fuzz.corpus import load_corpus, program_from_entry
from repro.fuzz.oracle import compare_outcomes, oracle_config, \
    run_vm_outcome
from repro.harness.runner import run_vm
from repro.ildp_isa.opcodes import IFormat, IOp
from repro.isa.semantics import TrapKind
from repro.vm import CoDesignedVM, VMConfig, VMTrap
from repro.vm.executor import StalenessError
from repro.workloads import WORKLOAD_NAMES
from tests.conftest import ALL_FORMATS, CALL_KERNEL, FIG2_KERNEL
from tests.test_hostile import _SMC_HOTSTORE as SMC_HOTSTORE
from tests.test_traps import FAULTING_LOAD, GENTRAP_KERNEL

#: Like ``FAULTING_LOAD``: a hot loop whose store pointer is poisoned
#: mid-run (cmov, so no side exit), making the store trap inside
#: generated code.
_POISONED_STORE = """
_start: li r1, 90
        la r2, buf
        {poison}
        clr r3
loop:   addq r3, r1, r4
        cmpeq r1, 21, r7
        cmovne r7, r8, r2
        stq  r4, 0(r2)
        addq r4, 1, r3
        subq r1, 1, r1
        bne  r1, loop
        call_pal halt
        .data
        .align 8
buf:    .quad 17
"""
FAULTING_STORE = _POISONED_STORE.format(poison="li r8, 0x700000")
MISALIGNED_STORE = _POISONED_STORE.format(poison="la r8, buf\n"
                                                "        lda r8, 1(r8)")

#: ``tests/test_executor.py``'s staleness kernel: r2 is read through a
#: GPR later in the loop fragment, so clearing its producer's
#: operational flag makes strict mode raise mid-fragment (at an ALU).
STALE_KERNEL = """
_start: li r1, 90
loop:   addq r1, 3, r2
        addq r2, 1, r3
        addq r3, r2, r4
        subq r1, 1, r1
        bne r1, loop
        call_pal halt
"""

#: In the modified format the loop's first read of r2 is the
#: COPY_FROM_GPR feeding the store, and r16 is read only by PUTC: both
#: record *before* their staleness-checked read.
STALE_COPY_PUTC_KERNEL = """
_start: li r1, 60
        clr r6
loop:   addq r1, 3, r2
        mulq r1, r1, r3
        stq  r2, 0(r30)
        addq r6, r2, r6
        and  r3, 0x3f, r16
        call_pal putc
        subq r1, 1, r1
        bne r1, loop
        call_pal halt
"""

_CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS_ENTRIES = (load_corpus(_CORPUS_DIR)
                  + load_corpus(os.path.join(_CORPUS_DIR, "hostile")))
CORPUS_IDS = [f"{'hostile-' if entry.get('hostile') else ''}"
              f"{entry['seed']:x}-{entry['index']}"
              for entry in CORPUS_ENTRIES]


def _config(engine="jit", fmt=IFormat.MODIFIED, **overrides):
    return VMConfig(fmt=fmt, exec_engine=engine,
                    collect_trace=overrides.pop("collect_trace", False),
                    **overrides)


def _run(source, config, budget=1_000_000):
    vm = CoDesignedVM(assemble(source), config)
    vm.run(max_v_instructions=budget)
    return vm


def _run_trap(source, config, budget=1_000_000):
    vm = CoDesignedVM(assemble(source), config)
    with pytest.raises(VMTrap) as excinfo:
        vm.run(max_v_instructions=budget)
    return excinfo.value, vm


def _promoted(vm):
    return [f for f in vm.tcache.fragments if f._jit_code is not None]


class TestPromotion:
    def test_hot_fragments_promote(self):
        vm = _run(FIG2_KERNEL, _config())
        assert vm.halted
        promoted = _promoted(vm)
        assert promoted, "no fragment was compiled"
        for fragment in promoted:
            assert fragment._jit_key is not None
            assert fragment._jit_code._jit_lines > 0

    def test_fragments_compile_on_first_entry(self):
        vm = _run(FIG2_KERNEL, _config())
        executed = [f for f in vm.tcache.fragments if f.execution_count]
        assert executed
        assert all(f._jit_code is not None for f in executed)

    @pytest.mark.parametrize("engine", ("naive",))
    def test_other_engines_never_promote(self, engine):
        vm = _run(FIG2_KERNEL, _config(engine=engine))
        assert vm.halted
        assert not _promoted(vm)

    def test_generated_source_is_introspectable(self):
        vm = _run(FIG2_KERNEL, _config())
        source = _promoted(vm)[0]._jit_code._jit_source
        assert source.startswith("def _jit_f")
        # batched statistics: one compile-time-constant flush, not
        # per-instruction increments
        assert "_stats.iinstructions_executed +=" in source
        # every fragment ends in an explicit outcome
        assert "return" in source

    def test_compile_failure_degrades_to_naive(self, monkeypatch):
        def broken(_ex, fragment):
            raise RuntimeError(f"no codegen for f{fragment.fid}")

        monkeypatch.setattr(executor_mod, "_compile_fragment_jit", broken)
        vm = _run(FIG2_KERNEL, _config())
        reference = _run(FIG2_KERNEL, _config(engine="naive"))
        assert vm.halted
        assert not _promoted(vm)
        assert any(f._jit_failed for f in vm.tcache.fragments), \
            "compile failure did not pin any fragment"
        assert vm.state.regs == reference.state.regs
        assert vars(vm.stats) == vars(reference.stats)


class TestParity:
    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    @pytest.mark.parametrize("source", (FIG2_KERNEL, CALL_KERNEL),
                             ids=("fig2", "call"))
    def test_kernels_match_naive(self, source, fmt):
        jit = _run(source, _config(fmt=fmt))
        naive = _run(source, _config(engine="naive", fmt=fmt))
        assert jit.halted and naive.halted
        assert _promoted(jit), "generated code never ran"
        assert jit.state.pc == naive.state.pc
        assert jit.state.regs == naive.state.regs, \
            jit.state.diff(naive.state)
        assert jit.console_text() == naive.console_text()
        assert vars(jit.stats) == vars(naive.stats)

    def test_budget_behaviour_is_identical(self):
        jit = _run(FIG2_KERNEL, _config(), budget=800)
        naive = _run(FIG2_KERNEL, _config(engine="naive"), budget=800)
        assert not jit.halted and not naive.halted
        assert jit.state.pc == naive.state.pc
        assert jit.state.regs == naive.state.regs
        assert vars(jit.stats) == vars(naive.stats)

    def test_traced_visits_promote(self):
        """Trace-collecting runs use generated code too: it appends the
        committed trace inline, record for record identical to the naive
        engine's."""
        jit = _run(CALL_KERNEL, _config(collect_trace=True))
        naive = _run(CALL_KERNEL, _config(engine="naive",
                                          collect_trace=True))
        assert _promoted(jit), "traced run never compiled"
        assert len(jit.trace) == len(naive.trace)
        for ours, reference in zip(jit.trace, naive.trace):
            assert {s: getattr(ours, s) for s in ours.__slots__} == \
                {s: getattr(reference, s) for s in reference.__slots__}

    def test_untraced_source_has_no_trace_code(self):
        vm = _run(CALL_KERNEL, _config())
        for fragment in _promoted(vm):
            source = fragment._jit_code._jit_source
            assert "_tr" not in source and "trace" not in source, source

    def test_traced_source_shares_the_code_cache(self):
        """Record templates enter through the exec namespace, so two
        traced runs of one program compile identical source."""
        first = _run(CALL_KERNEL, _config(collect_trace=True))
        second = _run(CALL_KERNEL, _config(collect_trace=True))
        sources = [{f.fid: f._jit_code._jit_source for f in _promoted(vm)}
                   for vm in (first, second)]
        assert sources[0] == sources[1]
        assert any("_tr_append(" in text for text in sources[0].values())


def _fields(record):
    return tuple(getattr(record, slot) for slot in record.__slots__)


def _assert_same_trace(ours, reference):
    assert len(ours) == len(reference)
    for index, (mine, theirs) in enumerate(zip(ours, reference)):
        assert _fields(mine) == _fields(theirs), (index, mine, theirs)


class TestTracedParity:
    """Traced naive-vs-jit differentials: every committed record, its
    order, and the statistics must match."""

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    @pytest.mark.parametrize("workload", WORKLOAD_NAMES)
    def test_workloads_match_naive(self, workload, fmt):
        runs = {engine: run_vm(workload,
                               _config(engine=engine, fmt=fmt),
                               budget=10_000, collect_trace=True)
                for engine in ("naive", "jit")}
        jit, naive = runs["jit"], runs["naive"]
        assert _promoted(jit.vm), "generated code never ran"
        _assert_same_trace(jit.trace, naive.trace)
        assert vars(jit.stats) == vars(naive.stats)
        assert jit.vm.state.regs == naive.vm.state.regs

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    @pytest.mark.parametrize("source", (FAULTING_LOAD, FAULTING_STORE,
                                        MISALIGNED_STORE, GENTRAP_KERNEL),
                             ids=("load", "store", "unaligned", "gentrap"))
    def test_trap_kernels_match_naive(self, source, fmt):
        """A faulting load records nothing; a faulting store keeps its
        record (it precedes the access); GENTRAP records nothing."""
        jit_trap, jit_vm = _run_trap(
            source, _config(fmt=fmt, collect_trace=True,
                            telemetry=True))
        ref_trap, ref_vm = _run_trap(
            source, _config(engine="naive", fmt=fmt, collect_trace=True))
        assert _promoted(jit_vm), "trap never reached generated code"
        if source is not GENTRAP_KERNEL:
            counters = jit_vm.telemetry.summary()["counters"]
            assert counters["jit.deopts"] == 1, \
                "trap was not in generated code"
        assert jit_trap.trap.kind is ref_trap.trap.kind
        assert jit_trap.trap.vpc == ref_trap.trap.vpc
        _assert_same_trace(jit_vm.trace, ref_vm.trace)
        assert vars(jit_vm.stats) == vars(ref_vm.stats)

    @pytest.mark.parametrize("source, gpr, reader", (
        (STALE_KERNEL, 2, None),
        (STALE_COPY_PUTC_KERNEL, 2, IOp.COPY_FROM_GPR),
        (STALE_COPY_PUTC_KERNEL, 16, IOp.PUTC),
    ), ids=("alu", "copy_from_gpr", "putc"))
    def test_staleness_raise_matches_naive(self, source, gpr, reader):
        """Strict-modified staleness under the trace (the sabotage of
        ``test_executor.py``): the jit's compile-time raise leaves
        exactly the naive engine's records, including the record a
        COPY_FROM_GPR or PUTC commits before its failing read."""
        traces = {}
        for engine in ("naive", "jit"):
            config = _config(engine=engine,
                             strict_modified=True, collect_trace=True)
            vm = _run(source, config, budget=2_000)
            fragment = vm.tcache.fragments[0]
            sabotaged = [instr for instr in fragment.body
                         if instr.dest_gpr == gpr and instr.operational]
            assert sabotaged, f"kernel did not produce an operational r{gpr}"
            for instr in sabotaged:
                instr.operational = False
            rerun = CoDesignedVM(assemble(source), config)
            rerun.tcache = rerun.executor.tcache = vm.tcache
            with pytest.raises(StalenessError):
                rerun.run(max_v_instructions=50_000)
            if engine == "jit":
                assert _promoted(rerun), "stale body never compiled"
            traces[engine] = rerun.trace
        assert traces["naive"], "no record before the stale read"
        if reader is not None:
            readers = [instr.address for instr in fragment.body
                       if instr.iop is reader]
            assert traces["naive"][-1].address in readers, \
                f"the stale read was not at a {reader.name}"
        _assert_same_trace(traces["jit"], traces["naive"])

    @pytest.mark.parametrize("entry", CORPUS_ENTRIES, ids=CORPUS_IDS)
    def test_corpus_matches_naive(self, entry):
        """Fuzz and hostile corpora (SMC, protection flips, syscalls),
        traced."""
        fprog = program_from_entry(entry, shrunk=True)
        runs = {}
        for engine in ("naive", "jit"):
            config = oracle_config(exec_engine=engine).copy(
                collect_trace=True)
            runs[engine] = run_vm_outcome(fprog, config)
        (jit_outcome, jit_vm), (ref_outcome, ref_vm) = \
            runs["jit"], runs["naive"]
        assert compare_outcomes(ref_outcome, jit_outcome) in (None, [])
        _assert_same_trace(jit_vm.trace, ref_vm.trace)
        assert vars(jit_vm.stats) == vars(ref_vm.stats)

    def test_self_store_deopts_traced_tier2_code(self):
        """A store into the executing fragment raises RETRANSLATE from
        generated code mid-fragment; its record must already be in the
        trace, as in the naive engine."""
        runs = {}
        for engine in ("naive", "jit"):
            config = VMConfig(threshold=4, exec_engine=engine,
                              collect_trace=True, telemetry=True)
            runs[engine] = _run(SMC_HOTSTORE, config, budget=100_000)
        jit, naive = runs["jit"], runs["naive"]
        assert jit.halted and naive.halted
        assert jit.stats.retranslate_deopts >= 1
        assert jit.telemetry.summary()["counters"]["jit.deopts"] >= 1
        _assert_same_trace(jit.trace, naive.trace)
        assert vars(jit.stats) == vars(naive.stats)


class TestDispatchTrace:
    """A traced dispatch commits the shared dispatch routine: the lookup
    records are built once per executor and appended on every dispatch;
    only the final indirect jump's record carries the dispatch target."""

    @pytest.mark.parametrize("engine", ("naive", "jit"))
    def test_dispatch_records(self, engine):
        result = run_vm("parser", _config(engine=engine), budget=10_000,
                        collect_trace=True)
        body = result.vm.tcache.dispatch_body
        trace = result.trace
        starts = [index for index, record in enumerate(trace)
                  if record.is_dispatch and record.address == body[0].address]
        assert len(starts) > 1, "the run never dispatched twice"
        first = trace[starts[0]:starts[0] + len(body)]
        for start in starts:
            group = trace[start:start + len(body)]
            for instr, record, shared in zip(body, group, first):
                assert record.is_dispatch
                assert record.address == instr.address
                assert record.size == instr.size
                assert record.acc == instr.acc and record.acc_read
                if instr.iop is IOp.JMP_DISPATCH:
                    assert (record.op_class, record.btype, record.taken,
                            record.acc_write) == \
                        ("branch", "indirect", True, False)
                else:
                    assert record.op_class == \
                        ("load" if instr.iop is IOp.LOAD else "int")
                    assert record.acc_write and record.btype is None
                    assert record is shared
            jump = group[-1]
            after = trace[start + len(body)] \
                if start + len(body) < len(trace) else None
            if jump.target is not None and after is not None:
                # a hit jumps to the fragment whose record comes next
                assert after.address == jump.target


class TestTrapDeopt:
    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_faulting_load_matches_naive(self, fmt):
        jit_trap, jit_vm = _run_trap(FAULTING_LOAD,
                                     _config(fmt=fmt))
        ref_trap, ref_vm = _run_trap(FAULTING_LOAD,
                                     _config(engine="naive", fmt=fmt))
        assert _promoted(jit_vm), "trap never reached generated code"
        assert jit_trap.trap.kind is TrapKind.ACCESS_VIOLATION
        assert jit_trap.trap.kind is ref_trap.trap.kind
        assert jit_trap.trap.vpc == ref_trap.trap.vpc
        assert jit_trap.state.pc == ref_trap.state.pc
        assert jit_trap.state.regs == ref_trap.state.regs, \
            jit_trap.state.diff(ref_trap.state)
        assert vars(jit_vm.stats) == vars(ref_vm.stats)

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_gentrap_matches_naive(self, fmt):
        jit_trap, jit_vm = _run_trap(GENTRAP_KERNEL,
                                     _config(fmt=fmt))
        ref_trap, ref_vm = _run_trap(GENTRAP_KERNEL,
                                     _config(engine="naive", fmt=fmt))
        assert jit_trap.trap.kind is TrapKind.GENTRAP
        assert jit_trap.trap.vpc == ref_trap.trap.vpc
        assert jit_trap.state.pc == ref_trap.state.pc
        assert jit_trap.state.regs == ref_trap.state.regs
        assert vars(jit_vm.stats) == vars(ref_vm.stats)

    def test_deopts_are_counted(self):
        _trap, vm = _run_trap(FAULTING_LOAD,
                              _config(telemetry=True))
        counters = vm.telemetry.summary()["counters"]
        assert counters["jit.promotions"] >= 1
        assert counters["jit.deopts"] >= 1


#: Two alternating hot loops under one outer loop.  The ``warm`` loop is
#: compiled while its fall-through exit still points at the untranslated
#: ``cold`` region; when ``cold`` finally translates, the chaining patch
#: rewrites the *compiled* fragment — and the outer loop then enters it
#: again.
LATE_CHAIN_KERNEL = """
        .text
_start: clr  r14
        clr  r13
        li   r12, 3
outer:  li   r15, 40
warm:   addq r14, 1, r14
        subq r15, 1, r15
        bne  r15, warm
        li   r15, 40
cold:   addq r13, 2, r13
        subq r15, 1, r15
        bne  r15, cold
        subq r12, 1, r12
        bne  r12, outer
        and  r14, 0x7f, r16
        call_pal putc
        call_pal halt
"""


class TestInvalidation:
    """Chaining patches and corruption recovery must discard generated
    code."""

    def test_chaining_patch_discards_then_recompiles(self):
        """A fragment promoted before its exit is patched must be
        recompiled against the patched body: the event stream shows
        promote -> chain -> promote again for the same fragment."""
        config = VMConfig(threshold=2, exec_engine="jit",
                          telemetry=True)
        vm = _run(LATE_CHAIN_KERNEL, config)
        assert vm.halted
        assert vm.tcache.patches_applied > 0
        promoted = set()
        patched_after_promotion = set()
        repromoted = set()
        for event in vm.telemetry.events:
            if event.kind == "jit_promoted":
                fid = event.data["fid"]
                if fid in patched_after_promotion:
                    repromoted.add(fid)
                promoted.add(fid)
            elif event.kind == "fragment_chained":
                fid = event.data["fid"]
                if fid in promoted:
                    patched_after_promotion.add(fid)
        assert patched_after_promotion, \
            "no promoted fragment was ever patched"
        assert repromoted, \
            "patched fragments were never recompiled"
        # and the generated code still computes the right answer
        reference = _run(LATE_CHAIN_KERNEL, _config(engine="naive"))
        assert vm.state.regs == reference.state.regs
        assert vm.console_text() == reference.console_text()

    def test_patch_drops_generated_code_immediately(self):
        vm = _run(CALL_KERNEL, _config())
        fragment = _promoted(vm)[0]
        old_code = fragment._jit_code
        vm.tcache._invalidate(fragment)
        assert fragment._jit_code is None
        assert fragment._jit_failed is False
        # the next entry recompiles against the (patched) body
        new_code = vm.executor._jit_for(fragment)
        assert new_code is not None
        assert new_code is not old_code
        assert fragment._jit_code is new_code

    def test_corrupt_path_drops_generated_code(self):
        vm = _run(FIG2_KERNEL, _config())
        fragment = _promoted(vm)[0]
        vm.tcache._corrupt(fragment)
        assert fragment._jit_code is None

    def test_compile_failure_pin_cleared_by_invalidate(self):
        vm = _run(FIG2_KERNEL, _config())
        fragment = _promoted(vm)[0]
        fragment._jit_failed = True
        fragment.invalidate_compiled()
        assert fragment._jit_failed is False
        assert fragment._jit_code is None


class TestTelemetry:
    def test_jit_metrics_recorded(self):
        vm = _run(FIG2_KERNEL, _config(telemetry=True))
        summary = vm.telemetry.summary()
        promotions = summary["counters"]["jit.promotions"]
        assert promotions >= 1
        assert summary["counters"]["jit.compile_failures"] == 0
        histogram = summary["histograms"]["jit.code_lines"]
        assert histogram["total"] == promotions
        assert summary["events"]["by_kind"]["jit_promoted"] == promotions
        host = vm.telemetry.host_summary()
        assert host["timers"]["jit.compile"]["count"] == promotions

    def test_telemetry_is_noop_on_stats(self):
        plain = _run(FIG2_KERNEL, _config())
        observed = _run(FIG2_KERNEL, _config(telemetry=True))
        assert vars(plain.stats) == vars(observed.stats)
