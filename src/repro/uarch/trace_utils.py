"""Building timing traces from plain interpretation.

The paper's "original" configuration is the unmodified Alpha binary running
on the superscalar simulator.  This module runs the interpreter over a
program and converts each executed instruction into a
:class:`~repro.vm.events.TraceRecord`, including the branch-type
annotations the predictor models need (conventional RAS push/pop on
BSR/JSR/RET).
"""

from repro.interp.interpreter import Halted, Interpreter
from repro.isa.opcodes import Kind
from repro.translator.superblock import _is_nop
from repro.vm.events import TraceRecord

_MUL_MNEMONICS = frozenset({"mull", "mulq", "umulh"})


def _branch_type(instr):
    kind = instr.kind
    if kind is Kind.COND_BRANCH:
        return "cond"
    if kind is Kind.UNCOND_BRANCH:
        return "call" if instr.ra != 31 else "uncond"
    if kind is Kind.JUMP:
        if instr.mnemonic == "ret":
            return "ret"
        if instr.ra != 31:
            return "call_ind"
        return "indirect"
    return None


def _op_class(instr):
    kind = instr.kind
    if kind is Kind.LOAD:
        return "load"
    if kind is Kind.STORE:
        return "store"
    if kind in (Kind.COND_BRANCH, Kind.UNCOND_BRANCH, Kind.JUMP):
        return "branch"
    if instr.mnemonic in _MUL_MNEMONICS:
        return "mul"
    return "int"


#: ``id(instruction) -> (instruction, op_class, srcs, dst, btype,
#: v_weight)``: the static record fields of each decoded instruction.
#: Interpreters share their decoded instruction objects process-wide
#: (:data:`repro.interp.interpreter.DECODE_CACHE`), so a handful of
#: entries serve every record of every run.  Keying by ``id`` avoids the
#: instruction's value hash; holding the instruction in the entry keeps
#: the id from being reused, and the ``is`` check below rejects any
#: entry left by a different object.
_STATIC_FIELDS = {}


def _static_fields(instr):
    entry = (instr, _op_class(instr), instr.sources(), instr.dest(),
             _branch_type(instr), 0 if _is_nop(instr) else 1)
    _STATIC_FIELDS[id(instr)] = entry
    return entry


def record_for_event(event):
    """Convert one interpreter :class:`ExecEvent` into a trace record."""
    instr = event.instr
    entry = _STATIC_FIELDS.get(id(instr))
    if entry is None or entry[0] is not instr:
        entry = _static_fields(instr)
    _, op_class, srcs, dst, btype, v_weight = entry
    taken = event.taken
    return TraceRecord(
        event.pc, 4, op_class, srcs, dst, None, False, False, False,
        btype, taken, event.next_pc if taken else None, None,
        event.mem_addr, v_weight)


def interpreter_trace(program, max_instructions=200_000):
    """Run ``program`` under pure interpretation, collecting a trace.

    Returns ``(trace, interpreter)``; the interpreter exposes final state
    and console output for verification.
    """
    interpreter = Interpreter(program)
    trace = []
    try:
        for _ in range(max_instructions):
            event = interpreter.step()
            trace.append(record_for_event(event))
    except Halted:
        pass
    return trace, interpreter
