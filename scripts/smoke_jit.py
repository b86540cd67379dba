#!/usr/bin/env python
"""Smoke-test the jit execution engine against the naive reference.

Runs one workload to its natural halt under the jit engine and under
the naive engine, and checks the acceptance properties: at least one
fragment compiled to generated code, identical final register state,
program counter, console output, committed-instruction count, and every
``VMStats`` counter.  A second, traced pass checks that trace-collecting
runs compile as well and commit a trace whose records are
field-for-field identical to the naive engine's.  Exits non-zero on any
divergence.

Usage: PYTHONPATH=src python scripts/smoke_jit.py [workload] [budget]
"""

import sys

from repro.harness.runner import run_vm
from repro.vm.config import VMConfig


def _compiled(result):
    return [f for f in result.vm.tcache.fragments if f._jit_code is not None]


def _compare(label, jit, naive):
    """Divergences between a jit run and a naive run of one workload."""
    failures = []
    if not _compiled(jit):
        failures.append("no fragment was compiled to generated code")
    if jit.vm.state.regs != naive.vm.state.regs:
        failures.append("final register state differs")
    if jit.vm.state.pc != naive.vm.state.pc:
        failures.append("final PC differs")
    if jit.vm.console_text() != naive.vm.console_text():
        failures.append("console output differs")
    if jit.stats.committed_v_instructions() != \
            naive.stats.committed_v_instructions():
        failures.append("committed-instruction counts differ")
    stats_diff = [key for key in vars(naive.stats)
                  if vars(naive.stats)[key] != vars(jit.stats)[key]]
    if stats_diff:
        failures.append(f"stats counters differ: {', '.join(stats_diff)}")
    return [f"{label}: {failure}" for failure in failures]


def main(argv):
    workload = argv[1] if len(argv) > 1 else "gzip"
    budget = int(argv[2]) if len(argv) > 2 else 200_000

    runs = {(engine, traced): run_vm(workload,
                                     VMConfig(exec_engine=engine),
                                     budget=budget, collect_trace=traced)
            for engine in ("jit", "naive") for traced in (False, True)}
    jit, naive = runs["jit", False], runs["naive", False]
    traced, traced_naive = runs["jit", True], runs["naive", True]

    failures = _compare("untraced", jit, naive)
    failures += _compare("traced", traced, traced_naive)
    if len(traced.trace) != len(traced_naive.trace):
        failures.append(f"traced: {len(traced.trace)} records, "
                        f"naive engine {len(traced_naive.trace)}")
    for index, (ours, reference) in enumerate(zip(traced.trace,
                                                  traced_naive.trace)):
        if any(getattr(ours, slot) != getattr(reference, slot)
               for slot in ours.__slots__):
            failures.append(f"traced: record {index} differs: "
                            f"{ours!r} vs {reference!r}")
            break

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1

    print(f"ok: jit matches naive on {workload} "
          f"({jit.stats.committed_v_instructions()} committed V-ISA "
          f"instructions, {len(_compiled(jit))} of "
          f"{len(jit.vm.tcache.fragments)} fragments compiled)")
    print(f"ok: traced jit matches naive on {workload} "
          f"({len(traced.trace)} identical records, "
          f"{len(_compiled(traced))} fragments compiled)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
