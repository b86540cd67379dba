"""Translation-time specialization of fragment bodies into step closures.

QEMU-style DBTs pre-lower guest code into directly executable host forms
instead of re-interpreting an IR on every pass; this module does the same
for the functional executor.  :func:`compile_fragment` lowers a laid-out
fragment body into a flat list of pre-bound Python closures — operand
sources, ALU functions, branch predicates, load sizes, ALPHA
instruction-count weights, statistics increments and the
modified-format staleness checks are all resolved once, at compile time,
instead of being re-derived per executed instruction.

Each closure has the signature ``step(ex, regs, state)`` where ``ex`` is
the :class:`~repro.vm.executor.FragmentExecutor`; it returns the same
outcome protocol as the naive engine's ``_execute`` (``None`` to fall
through, ``("goto", (fragment, 0))`` for an intra-cache transfer,
``("exit", ExecResult)`` to leave translated code) and raises
:class:`~repro.isa.semantics.Trap` for precise traps.  All mutable
machine state is reached through ``ex`` so compiled code never captures
one executor's accumulators, memory, or statistics — a fragment can be
re-compiled for a different executor (the compiled-code cache is keyed
per executor, see ``FragmentExecutor._code_for``).

Two variants exist per fragment, selected when the executor runs:

* **trace-off** (the hot path): no :class:`TraceRecord` source/dest
  tuples are ever built, because nothing consumes them;
* **trace-on**: per-instruction statistics are still pre-bound, but the
  semantics-plus-trace work is delegated to the naive reference
  dispatch, which keeps the emitted trace byte-identical to the naive
  engine's by construction.

These closures are *tier 1* of the execution stack: under the default
``jit`` engine, fragments that stay hot past ``VMConfig.jit_threshold``
are re-lowered once more by :mod:`repro.vm.jit` into a single generated
Python function per body (same outcome protocol, same statistics,
batched; traced executors get trace records appended inline), with
these closures remaining the fallback for cold fragments and bodies the
jit declines to compile.

Direct branch targets are pre-resolved to their target fragment at
compile time: fragment entry addresses are stable for the life of the
translation cache (a flush drops every fragment, including the one being
compiled), and any patch that rewrites a branch invalidates the compiled
body (see ``TranslationCache._apply_patches``).
"""

from repro.ildp_isa.opcodes import IFormat, IOp
from repro.ildp_isa.semantics import IALU_OPS
from repro.isa.semantics import BRANCH_CONDITIONS, CMOV_CONDITIONS, Trap, \
    TrapKind
from repro.utils.bitops import MASK64, sext
from repro.vm.executor import (
    _ALPHA_WEIGHTS,
    ExecResult,
    ExitReason,
    StalenessError,
)

_ZERO_REG = 31


# -- operand access -----------------------------------------------------------

def _gpr_getter(index, track):
    """Read one GPR; with the strict modified-format staleness check."""
    if track:
        def get(ex, regs):
            if index in ex._stale:
                raise StalenessError(
                    f"r{index} read while operationally stale (usage "
                    "analysis marked it non-operational)")
            return regs[index]
    else:
        def get(ex, regs):
            return regs[index]
    return get


def _operand_getter(instr, source, track):
    """Pre-bound equivalent of the naive engine's ``_operand``."""
    if source == "acc":
        acc = instr.acc

        def get(ex, regs):
            return ex.accs[acc]
        return get
    if source == "gpr":
        return _gpr_getter(instr.gpr, track)
    if source == "gpr2":
        return _gpr_getter(instr.gpr2, track)
    if source == "imm":
        imm = instr.imm

        def get(ex, regs):
            return imm
        return get

    def get(ex, regs):  # "zero" and None
        return 0
    return get


def _commit_fn(instr, fmt, track):
    """Pre-bound equivalent of ``_commit_result`` (acc first, then GPR)."""
    acc = instr.acc
    dest = instr.dest_gpr if fmt is not IFormat.BASIC else None
    if dest == _ZERO_REG:
        dest = None        # R31 writes are discarded, and never tracked
    operational = True if fmt is IFormat.ALPHA else instr.operational

    if dest is None:
        if acc is None:
            def commit(ex, regs, result):
                return None
        else:
            def commit(ex, regs, result):
                ex.accs[acc] = result
    elif not track:
        if acc is None:
            def commit(ex, regs, result):
                regs[dest] = result & MASK64
        else:
            def commit(ex, regs, result):
                ex.accs[acc] = result
                regs[dest] = result & MASK64
    elif operational:
        if acc is None:
            def commit(ex, regs, result):
                regs[dest] = result & MASK64
                ex._stale.discard(dest)
        else:
            def commit(ex, regs, result):
                ex.accs[acc] = result
                regs[dest] = result & MASK64
                ex._stale.discard(dest)
    else:
        if acc is None:
            def commit(ex, regs, result):
                regs[dest] = result & MASK64
                ex._stale.add(dest)
        else:
            def commit(ex, regs, result):
                ex.accs[acc] = result
                regs[dest] = result & MASK64
                ex._stale.add(dest)
    return commit


def _resolve_goto(tcache, target):
    """Pre-resolved ``("goto", ...)`` outcome for a direct transfer."""
    fragment = tcache.fragment_at(target)
    if fragment is None:  # pragma: no cover - layout guarantees entries
        raise AssertionError(
            f"control transfer to non-entry address {target:#x}")
    return ("goto", (fragment, 0))


# -- per-IOp builders (trace-off fast path) -----------------------------------
#
# Every builder receives (ex, instr, fmt, track, weight) and returns a step
# closure.  ``weight``/``iop``/``v_weight`` feed the inlined statistics
# block that replaces ``VMStats.count_iinstr``.

def _build_alu(ex, instr, fmt, track, weight):
    iop, v_w = instr.iop, instr.v_weight
    op_name = instr.op
    get_a = _operand_getter(instr, instr.src_a, track)
    get_b = _operand_getter(instr, instr.src_b, track)
    commit = _commit_fn(instr, fmt, track)

    if fmt is IFormat.ALPHA and op_name in CMOV_CONDITIONS:
        cond = CMOV_CONDITIONS[op_name]
        dest = instr.dest_gpr

        if dest is None:
            def step(ex, regs, state):
                stats = ex.stats
                stats.iinstructions_executed += weight
                stats.iop_counts[iop] += 1
                stats.source_instructions_executed += v_w
                result = get_b(ex, regs) if cond(get_a(ex, regs)) else 0
                commit(ex, regs, result)
        else:
            def step(ex, regs, state):
                stats = ex.stats
                stats.iinstructions_executed += weight
                stats.iop_counts[iop] += 1
                stats.source_instructions_executed += v_w
                a = get_a(ex, regs)
                b = get_b(ex, regs)
                commit(ex, regs, b if cond(a) else regs[dest])
        return step

    op = IALU_OPS[op_name]

    def step(ex, regs, state):
        stats = ex.stats
        stats.iinstructions_executed += weight
        stats.iop_counts[iop] += 1
        stats.source_instructions_executed += v_w
        commit(ex, regs, op(get_a(ex, regs), get_b(ex, regs)))
    return step


def _build_load(ex, instr, fmt, track, weight):
    iop, v_w = instr.iop, instr.v_weight
    get_addr = _operand_getter(instr, instr.addr_src, track)
    commit = _commit_fn(instr, fmt, track)
    imm, size, vpc = instr.imm, instr.mem_size, instr.vpc
    bits = 8 * size

    if instr.mem_signed:
        def step(ex, regs, state):
            stats = ex.stats
            stats.iinstructions_executed += weight
            stats.iop_counts[iop] += 1
            stats.source_instructions_executed += v_w
            address = (get_addr(ex, regs) + imm) & MASK64
            raw = ex.memory.load(address, size, vpc=vpc)
            commit(ex, regs, sext(raw, bits))
    else:
        def step(ex, regs, state):
            stats = ex.stats
            stats.iinstructions_executed += weight
            stats.iop_counts[iop] += 1
            stats.source_instructions_executed += v_w
            address = (get_addr(ex, regs) + imm) & MASK64
            commit(ex, regs, ex.memory.load(address, size, vpc=vpc))
    return step


def _build_store(ex, instr, fmt, track, weight):
    iop, v_w = instr.iop, instr.v_weight
    get_addr = _operand_getter(instr, instr.addr_src, track)
    get_data = _operand_getter(instr, instr.data_src, track)
    imm, size, vpc = instr.imm, instr.mem_size, instr.vpc

    def step(ex, regs, state):
        stats = ex.stats
        stats.iinstructions_executed += weight
        stats.iop_counts[iop] += 1
        stats.source_instructions_executed += v_w
        address = (get_addr(ex, regs) + imm) & MASK64
        data = get_data(ex, regs)
        ex.memory.store(address, data & MASK64, size, vpc=vpc)
    return step


def _build_copy_to_gpr(ex, instr, fmt, track, weight):
    iop, v_w = instr.iop, instr.v_weight
    acc, gpr = instr.acc, instr.gpr
    if gpr == _ZERO_REG:
        def step(ex, regs, state):
            stats = ex.stats
            stats.iinstructions_executed += weight
            stats.iop_counts[iop] += 1
            stats.copies_executed += 1
            stats.source_instructions_executed += v_w
    elif track:
        def step(ex, regs, state):
            stats = ex.stats
            stats.iinstructions_executed += weight
            stats.iop_counts[iop] += 1
            stats.copies_executed += 1
            stats.source_instructions_executed += v_w
            regs[gpr] = ex.accs[acc] & MASK64
            ex._stale.discard(gpr)
    else:
        def step(ex, regs, state):
            stats = ex.stats
            stats.iinstructions_executed += weight
            stats.iop_counts[iop] += 1
            stats.copies_executed += 1
            stats.source_instructions_executed += v_w
            regs[gpr] = ex.accs[acc] & MASK64
    return step


def _build_copy_from_gpr(ex, instr, fmt, track, weight):
    iop, v_w = instr.iop, instr.v_weight
    acc = instr.acc
    get = _gpr_getter(instr.gpr, track)

    def step(ex, regs, state):
        stats = ex.stats
        stats.iinstructions_executed += weight
        stats.iop_counts[iop] += 1
        stats.copies_executed += 1
        stats.source_instructions_executed += v_w
        ex.accs[acc] = get(ex, regs)
    return step


def _build_branch(ex, instr, fmt, track, weight):
    iop, v_w = instr.iop, instr.v_weight
    cond = BRANCH_CONDITIONS[instr.op]
    get_cond = _operand_getter(instr, instr.cond_src, track)
    goto = _resolve_goto(ex.tcache, instr.target)

    def step(ex, regs, state):
        stats = ex.stats
        stats.iinstructions_executed += weight
        stats.iop_counts[iop] += 1
        stats.source_instructions_executed += v_w
        if cond(get_cond(ex, regs) & MASK64):
            return goto
        return None
    return step


def _build_br(ex, instr, fmt, track, weight):
    iop, v_w = instr.iop, instr.v_weight
    goto = _resolve_goto(ex.tcache, instr.target)

    def step(ex, regs, state):
        stats = ex.stats
        stats.iinstructions_executed += weight
        stats.iop_counts[iop] += 1
        stats.source_instructions_executed += v_w
        return goto
    return step


def _build_set_vpc_base(ex, instr, fmt, track, weight):
    iop, v_w = instr.iop, instr.v_weight

    def step(ex, regs, state):
        stats = ex.stats
        stats.iinstructions_executed += weight
        stats.iop_counts[iop] += 1
        stats.source_instructions_executed += v_w
    return step


def _build_save_vra(ex, instr, fmt, track, weight):
    iop, v_w = instr.iop, instr.v_weight
    gpr, vtarget = instr.gpr, instr.vtarget

    if gpr == _ZERO_REG:
        return _build_set_vpc_base(ex, instr, fmt, track, weight)

    def step(ex, regs, state):
        stats = ex.stats
        stats.iinstructions_executed += weight
        stats.iop_counts[iop] += 1
        stats.source_instructions_executed += v_w
        regs[gpr] = vtarget & MASK64
        if track:
            ex._stale.discard(gpr)
    return step


def _build_push_ras(ex, instr, fmt, track, weight):
    iop, v_w = instr.iop, instr.v_weight

    def step(ex, regs, state):
        stats = ex.stats
        stats.iinstructions_executed += weight
        stats.iop_counts[iop] += 1
        stats.source_instructions_executed += v_w
        ex._push_ras(instr)
    return step


def _build_ret_ras(ex, instr, fmt, track, weight):
    iop, v_w = instr.iop, instr.v_weight

    def step(ex, regs, state):
        stats = ex.stats
        stats.iinstructions_executed += weight
        stats.iop_counts[iop] += 1
        stats.source_instructions_executed += v_w
        return ex._do_ret_ras(instr, regs, fmt)
    return step


def _build_load_emb(ex, instr, fmt, track, weight):
    iop, v_w = instr.iop, instr.v_weight
    acc, vtarget = instr.acc, instr.vtarget

    def step(ex, regs, state):
        stats = ex.stats
        stats.iinstructions_executed += weight
        stats.iop_counts[iop] += 1
        stats.source_instructions_executed += v_w
        ex.accs[acc] = vtarget
    return step


def _build_call_translator(ex, instr, fmt, track, weight):
    iop, v_w = instr.iop, instr.v_weight
    exit_outcome = ("exit", ExecResult(ExitReason.UNTRANSLATED,
                                       vpc=instr.vtarget))

    def step(ex, regs, state):
        stats = ex.stats
        stats.iinstructions_executed += weight
        stats.iop_counts[iop] += 1
        stats.source_instructions_executed += v_w
        return exit_outcome
    return step


def _build_cond_call_translator(ex, instr, fmt, track, weight):
    iop, v_w = instr.iop, instr.v_weight
    cond = BRANCH_CONDITIONS[instr.op]
    get_cond = _operand_getter(instr, instr.cond_src, track)
    exit_outcome = ("exit", ExecResult(ExitReason.UNTRANSLATED,
                                       vpc=instr.vtarget))

    def step(ex, regs, state):
        stats = ex.stats
        stats.iinstructions_executed += weight
        stats.iop_counts[iop] += 1
        stats.source_instructions_executed += v_w
        if cond(get_cond(ex, regs) & MASK64):
            return exit_outcome
        return None
    return step


def _build_to_dispatch(ex, instr, fmt, track, weight):
    iop, v_w = instr.iop, instr.v_weight

    def step(ex, regs, state):
        stats = ex.stats
        stats.iinstructions_executed += weight
        stats.iop_counts[iop] += 1
        stats.source_instructions_executed += v_w
        return ex._do_dispatch(instr, regs, fmt)
    return step


def _build_halt(ex, instr, fmt, track, weight):
    iop, v_w = instr.iop, instr.v_weight
    exit_outcome = ("exit", ExecResult(ExitReason.HALT, vpc=instr.vpc))

    def step(ex, regs, state):
        stats = ex.stats
        stats.iinstructions_executed += weight
        stats.iop_counts[iop] += 1
        stats.source_instructions_executed += v_w
        return exit_outcome
    return step


def _build_putc(ex, instr, fmt, track, weight):
    iop, v_w = instr.iop, instr.v_weight
    get = _gpr_getter(16, track)

    def step(ex, regs, state):
        stats = ex.stats
        stats.iinstructions_executed += weight
        stats.iop_counts[iop] += 1
        stats.source_instructions_executed += v_w
        ex.console.append(get(ex, regs) & 0xFF)
    return step


def _build_syscall(ex, instr, fmt, track, weight):
    iop, v_w = instr.iop, instr.v_weight
    function, vpc = instr.imm, instr.vpc

    def step(ex, regs, state):
        stats = ex.stats
        stats.iinstructions_executed += weight
        stats.iop_counts[iop] += 1
        stats.source_instructions_executed += v_w
        ex.pal.call(regs, function, vpc, translated=True)
    return step


def _build_gentrap(ex, instr, fmt, track, weight):
    iop, v_w = instr.iop, instr.v_weight
    vpc = instr.vpc

    def step(ex, regs, state):
        stats = ex.stats
        stats.iinstructions_executed += weight
        stats.iop_counts[iop] += 1
        stats.source_instructions_executed += v_w
        raise Trap(TrapKind.GENTRAP, vpc=vpc)
    return step


_BUILDERS = {
    IOp.ALU: _build_alu,
    IOp.LOAD: _build_load,
    IOp.STORE: _build_store,
    IOp.COPY_TO_GPR: _build_copy_to_gpr,
    IOp.COPY_FROM_GPR: _build_copy_from_gpr,
    IOp.BRANCH: _build_branch,
    IOp.BR: _build_br,
    IOp.SET_VPC_BASE: _build_set_vpc_base,
    IOp.SAVE_VRA: _build_save_vra,
    IOp.PUSH_RAS: _build_push_ras,
    IOp.RET_RAS: _build_ret_ras,
    IOp.LOAD_EMB: _build_load_emb,
    IOp.CALL_TRANSLATOR: _build_call_translator,
    IOp.COND_CALL_TRANSLATOR: _build_cond_call_translator,
    IOp.TO_DISPATCH: _build_to_dispatch,
    IOp.HALT: _build_halt,
    IOp.PUTC: _build_putc,
    IOp.SYSCALL: _build_syscall,
    IOp.GENTRAP: _build_gentrap,
}


def _build_traced(ex, instr, fmt, index, weight):
    """Trace-on step: pre-bound statistics, naive reference semantics.

    Delegating the semantics-plus-trace work to ``_execute`` keeps the
    emitted :class:`TraceRecord` stream byte-identical to the naive
    engine's by construction; trace-collecting runs are dominated by
    record construction, not dispatch.
    """
    iop, v_w = instr.iop, instr.v_weight
    is_copy = instr.is_copy()

    def step(ex, regs, state):
        stats = ex.stats
        stats.iinstructions_executed += weight
        stats.iop_counts[iop] += 1
        if is_copy:
            stats.copies_executed += 1
        stats.source_instructions_executed += v_w
        return ex._execute(instr, iop, None, index, regs, fmt, state)
    return step


def compile_fragment(ex, fragment, traced):
    """Lower ``fragment.body`` into a flat list of step closures.

    ``traced`` selects the trace-on variant; ``ex`` supplies the config
    (strict-modified tracking) and the translation cache used to
    pre-resolve direct branch targets.  Must be called after the fragment
    is laid out (addresses, sizes and ``v_weight`` assigned) and must be
    re-run — via ``Fragment.invalidate_compiled`` — whenever a chaining
    patch rewrites a body instruction.
    """
    fmt = fragment.fmt
    track = fmt is IFormat.MODIFIED and ex.config.strict_modified
    alpha = fmt is IFormat.ALPHA
    code = []
    for index, instr in enumerate(fragment.body):
        weight = _ALPHA_WEIGHTS.get(instr.iop, 1) if alpha else 1
        if traced:
            code.append(_build_traced(ex, instr, fmt, index, weight))
        else:
            code.append(_BUILDERS[instr.iop](ex, instr, fmt, track, weight))
    return code
