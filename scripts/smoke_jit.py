#!/usr/bin/env python
"""Smoke-test the tier-2 jit execution engine.

Runs one workload to its natural halt under the jit engine (at a low
promotion threshold so tier-2 generated code actually executes) and
under the specialized engine, and checks the acceptance properties:
at least one fragment promoted to generated code, identical final
register state, program counter, console output, committed-instruction
count, and every ``VMStats`` counter.  A second, traced pass checks
that trace-collecting runs promote as well and commit a trace whose
records are field-for-field identical to the naive engine's.  Exits
non-zero on any divergence.

Usage: PYTHONPATH=src python scripts/smoke_jit.py [workload] [budget]
"""

import sys

from repro.harness.runner import run_vm
from repro.vm.config import VMConfig


def main(argv):
    workload = argv[1] if len(argv) > 1 else "gzip"
    budget = int(argv[2]) if len(argv) > 2 else 200_000

    jit = run_vm(workload,
                 VMConfig(exec_engine="jit", jit_threshold=2),
                 budget=budget, collect_trace=False)
    reference = run_vm(workload, VMConfig(exec_engine="specialized"),
                       budget=budget, collect_trace=False)

    promoted = [f for f in jit.vm.tcache.fragments
                if f._jit_code is not None]

    failures = []
    if not promoted:
        failures.append("no fragment was promoted to tier-2 code")
    if jit.vm.state.regs != reference.vm.state.regs:
        failures.append("final register state differs")
    if jit.vm.state.pc != reference.vm.state.pc:
        failures.append("final PC differs")
    if jit.vm.console_text() != reference.vm.console_text():
        failures.append("console output differs")
    if jit.stats.committed_v_instructions() != \
            reference.stats.committed_v_instructions():
        failures.append("committed-instruction counts differ")
    stats_diff = [key for key in vars(reference.stats)
                  if vars(reference.stats)[key] != vars(jit.stats)[key]]
    if stats_diff:
        failures.append(f"stats counters differ: {', '.join(stats_diff)}")

    traced = run_vm(workload,
                    VMConfig(exec_engine="jit", jit_threshold=2),
                    budget=budget, collect_trace=True)
    naive = run_vm(workload, VMConfig(exec_engine="naive"),
                   budget=budget, collect_trace=True)
    traced_promoted = [f for f in traced.vm.tcache.fragments
                       if f._jit_code is not None]
    if not traced_promoted:
        failures.append("traced run: no fragment was promoted")
    if len(traced.trace) != len(naive.trace):
        failures.append(f"traced run: {len(traced.trace)} records, "
                        f"naive engine {len(naive.trace)}")
    for index, (ours, reference) in enumerate(zip(traced.trace,
                                                  naive.trace)):
        if any(getattr(ours, slot) != getattr(reference, slot)
               for slot in ours.__slots__):
            failures.append(f"traced run: record {index} differs: "
                            f"{ours!r} vs {reference!r}")
            break
    if vars(traced.stats) != vars(naive.stats):
        failures.append("traced run: stats counters differ")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1

    committed = jit.stats.committed_v_instructions()
    print(f"ok: jit matches specialized on {workload} "
          f"({committed} committed V-ISA instructions, "
          f"{len(promoted)} of {len(jit.vm.tcache.fragments)} fragments "
          f"promoted)")
    print(f"ok: traced jit matches naive on {workload} "
          f"({len(traced.trace)} identical records, "
          f"{len(traced_promoted)} fragments promoted)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
