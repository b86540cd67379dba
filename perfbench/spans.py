"""In-memory span recording around the program's public entry points.

The traced run measures layers from outside the program: for its
duration, :func:`instrumented` replaces a fixed set of public functions
and methods with thin wrappers that open one span per call, and puts the
originals back on exit.  Nothing under ``src/`` changes, and untraced
runs never see a wrapper.

A span records its name, start, end, parent span and operation id.
Spans stay in memory until the run ends; :func:`layer_metrics` folds
them, together with the counters the wrappers harvest from the VM after
each ``run`` call, into the per-layer metrics of ``BENCHMARK.json``.
"""

import json
import time
from contextlib import contextmanager

#: span names, one per wrapped entry point
ASSEMBLE = "asm.assemble"
VM_CONSTRUCT = "vm.construct"
VM_RUN = "vm.run"
ORIGINAL = "interp.original_trace"
ILDP = "uarch.ildp"
SUPERSCALAR = "uarch.superscalar"
MISPREDICT = "uarch.mispredict"
POINT = "harness.point"
#: the benchmark's own root span around one timed operation
OP = "op"


class Span:
    """One timed call: ``[start, end)`` on the ``perf_counter`` clock."""

    __slots__ = ("index", "name", "start", "end", "parent", "op", "attrs")

    def __init__(self, index, name, start, parent, op):
        self.index = index
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.attrs = {}

    @property
    def duration(self):
        return self.end - self.start

    def to_json(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, "attrs": self.attrs}


class SpanRecorder:
    """Collects spans of one thread; nesting follows the call stack."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self._next_op = 0

    @contextmanager
    def span(self, name):
        """Record one span around the ``with`` body; yields the span so
        the caller can attach attributes."""
        parent = self._stack[-1] if self._stack else None
        if name == OP:
            op = self._next_op
            self._next_op += 1
        else:
            op = parent.op if parent is not None else None
        span = Span(len(self.spans), name, self.clock(),
                    parent.index if parent is not None else None, op)
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = self.clock()
            self._stack.pop()

    def write(self, path, **header):
        """Write every span as JSON (called once, when the run ends)."""
        payload = dict(header)
        payload["spans"] = [span.to_json() for span in self.spans]
        with open(path, "w") as handle:
            json.dump(payload, handle)


def self_times(spans):
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread, so the children of a span lie inside it
    and do not overlap each other.
    """
    covered = {}
    for span in spans:
        if span.parent is not None:
            covered[span.parent] = covered.get(span.parent, 0.0) \
                + span.duration
    return {span.index: span.duration - covered.get(span.index, 0.0)
            for span in spans}


# -- instrumentation ---------------------------------------------------------

def _vm_counters(attrs, args, result):
    """Counters of one finished ``CoDesignedVM.run`` call.

    Host timers exist only with ``telemetry=True`` (the traced run sets
    it); counts come from ``VMStats`` and the translation cache.
    """
    vm = args[0]
    timers = vm.telemetry.host_summary()["timers"]
    stats = vm.stats

    def timer(name):
        return timers.get(name, {"seconds": 0.0, "count": 0})

    attrs.update({
        "interpret_s": timer("phase.vm.interpret")["seconds"],
        "capture_s": timer("phase.vm.capture")["seconds"],
        "translated_s": timer("phase.vm.translated")["seconds"],
        "stints": timer("phase.vm.translated")["count"],
        "jit_compile_s": timer("jit.compile")["seconds"],
        "jit_compiles": timer("jit.compile")["count"],
        "translate_s": sum(t["seconds"] for name, t in timers.items()
                           if name.startswith("phase.translate.")),
        "fragments": stats.fragments_created,
        "interpreted": stats.interpreted_instructions,
        "translated_v": stats.source_instructions_executed,
        "committed": stats.total_v_instructions(),
        "code_bytes": vm.tcache.total_code_bytes(),
        "invalidations": stats.smc_invalidations
        + stats.protect_invalidations,
        "flushes": stats.tcache_flushes,
    })


def _original_records(attrs, args, result):
    trace, interpreter = result
    attrs["records"] = len(trace)
    attrs["committed"] = interpreter.instruction_count


def _model_records(attrs, args, result):
    # ILDPModel.run(self, trace) / SuperscalarModel.run(self, trace)
    attrs["records"] = len(args[1])


def _predictor_records(attrs, args, result):
    # count_mispredictions(trace, machine_config=None)
    attrs["records"] = len(args[0])


def _wrap(recorder, name, original, harvest):
    def wrapper(*args, **kwargs):
        with recorder.span(name) as span:
            result = original(*args, **kwargs)
            if harvest is not None:
                harvest(span.attrs, args, result)
            return result
    return wrapper


def wrap_targets():
    """``(span name, owners, attribute, harvest)`` for every wrapped entry
    point.  A module-level function is replaced in each module that calls
    it by its global name; ``harvest`` adds counters to the span."""
    from repro.harness import parallel, runner, runpoints
    from repro.uarch.ildp import ILDPModel
    from repro.uarch.superscalar import SuperscalarModel
    from repro.vm.system import CoDesignedVM
    from repro.workloads.base import Workload

    return (
        (ASSEMBLE, (Workload,), "program", None),
        (VM_CONSTRUCT, (CoDesignedVM,), "__init__", None),
        (VM_RUN, (CoDesignedVM,), "run", _vm_counters),
        (ORIGINAL, (runner, runpoints), "run_original", _original_records),
        (ILDP, (ILDPModel,), "run", _model_records),
        (SUPERSCALAR, (SuperscalarModel,), "run", _model_records),
        (MISPREDICT, (runpoints,), "count_mispredictions",
         _predictor_records),
        (POINT, (runpoints, parallel), "execute_point", None),
    )


@contextmanager
def instrumented(recorder):
    """Wrap every entry point of :func:`wrap_targets` for the ``with``
    body; the originals are restored on exit, also after an error."""
    patched = []
    try:
        for name, owners, attr, harvest in wrap_targets():
            for owner in owners:
                original = owner.__dict__[attr]
                setattr(owner, attr,
                        _wrap(recorder, name, original, harvest))
                patched.append((owner, attr, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


# -- per-layer metrics ---------------------------------------------------------

def layer_metrics(spans, traced_s, untraced_s):
    """Fold the traced run's spans into the per-layer metrics.

    ``traced_s`` and ``untraced_s`` are host seconds per committed guest
    instruction of the traced and untraced passes (``trace.overhead_frac``
    is their ratio minus one).  Returns ``{name: (value, unit)}``.
    """
    selfs = self_times(spans)
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def total(name):
        return sum(span.duration for span in by_name.get(name, ()))

    def self_total(name):
        return sum(selfs[span.index] for span in by_name.get(name, ()))

    def attr(name, key):
        return sum(span.attrs.get(key, 0) for span in by_name.get(name, ()))

    committed = attr(VM_RUN, "committed")
    uarch_s = total(ILDP) + total(SUPERSCALAR) + total(MISPREDICT)
    uarch_records = attr(ILDP, "records") + attr(SUPERSCALAR, "records") \
        + attr(MISPREDICT, "records")
    ops = by_name.get(OP, [])
    op_wall = sum(span.duration for span in ops)
    op_indexes = {span.index for span in ops}
    covered = sum(span.duration for span in spans
                  if span.parent in op_indexes)
    seconds, count, frac = "s", "count", "frac"
    return {
        "asm.assemble_s": (self_total(ASSEMBLE), seconds),
        "asm.programs": (len(by_name.get(ASSEMBLE, ())), count),
        "vm.construct_s": (total(VM_CONSTRUCT), seconds),
        "vm.run_s": (total(VM_RUN), seconds),
        "vm.interpret_s": (attr(VM_RUN, "interpret_s"), seconds),
        "vm.interpreted_instr": (attr(VM_RUN, "interpreted"), count),
        "vm.capture_s": (attr(VM_RUN, "capture_s"), seconds),
        "jit.compile_s": (attr(VM_RUN, "jit_compile_s"), seconds),
        "jit.compiles": (attr(VM_RUN, "jit_compiles"), count),
        "translator.translate_s": (attr(VM_RUN, "translate_s"), seconds),
        "translator.fragments": (attr(VM_RUN, "fragments"), count),
        "vm.translated_s": (attr(VM_RUN, "translated_s"), seconds),
        "vm.stints": (attr(VM_RUN, "stints"), count),
        "vm.translated_frac": (
            attr(VM_RUN, "translated_v") / committed if committed else 0.0,
            frac),
        "tcache.code_bytes": (attr(VM_RUN, "code_bytes"), "bytes"),
        "tcache.invalidations": (attr(VM_RUN, "invalidations"), count),
        "tcache.flushes": (attr(VM_RUN, "flushes"), count),
        "interp.original_trace_s": (self_total(ORIGINAL), seconds),
        "interp.original_records": (attr(ORIGINAL, "records"), count),
        "uarch.ildp_s": (total(ILDP), seconds),
        "uarch.superscalar_s": (total(SUPERSCALAR), seconds),
        "uarch.records": (uarch_records, count),
        "uarch.records_per_s": (
            uarch_records / uarch_s if uarch_s else 0.0, "1/s"),
        "harness.point_self_s": (self_total(POINT), seconds),
        "harness.points": (len(by_name.get(POINT, ())), count),
        "trace.coverage_frac": (covered / op_wall if op_wall else 0.0, frac),
        "trace.unattributed_s": (op_wall - covered, seconds),
        "trace.overhead_frac": (
            traced_s / untraced_s - 1.0 if untraced_s else 0.0, frac),
    }
