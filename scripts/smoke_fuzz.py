#!/usr/bin/env python
"""Smoke-test the fuzzing subsystem end to end.

Runs a small seeded campaign through the oracle stack and checks it
comes back clean and deterministic, proves the oracle is *sensitive*
(a deliberately corrupted I-ISA semantic must be detected and shrink to
a smaller reproducer), and round-trips a corpus record through the
on-disk format.  Exits non-zero on any failure.

Usage: PYTHONPATH=src python scripts/smoke_fuzz.py [count] [seed]
"""

import sys
import tempfile

import repro.ildp_isa.semantics as ildp_semantics
from repro.fuzz.campaign import Finding, _shrink_finding, run_campaign
from repro.fuzz.corpus import (
    entry_dict,
    load_corpus,
    program_from_entry,
    write_corpus,
)
from repro.fuzz.gen import generate
from repro.fuzz.oracle import ORACLE_BUDGET, check_program


def _check_clean_campaign(failures, count, seed):
    a = run_campaign(count, seed)
    b = run_campaign(count, seed)
    if not a.ok:
        for finding in a.findings:
            for line in finding.describe():
                print(f"  {line}")
        failures.append(f"campaign(count={count}, seed={seed}) "
                        f"reported {len(a.findings)} finding(s)")
    if sum(a.shapes.values()) == 0:
        failures.append("campaign produced no shape statistics")
    if a.shapes != b.shapes or len(a.findings) != len(b.findings):
        failures.append("campaign is not deterministic across runs")


def _check_sensitivity(failures):
    # only the naive engine runs translated ``xor`` through this table
    # (the jit inlines it), so the engine stage must flag the split
    healthy = ildp_semantics.IALU_OPS["xor"]
    ildp_semantics.IALU_OPS["xor"] = lambda a, b: (a ^ b) ^ 0x10000
    try:
        finding = None
        for index in range(10):
            fprog = generate(7, index, max_insns=24)
            report = check_program(fprog, stages=("engine",))
            if report["failures"]:
                finding = Finding(fprog, report["failures"])
                break
        if finding is None:
            failures.append("oracle missed an injected semantic bug")
            return
        _shrink_finding(finding, ORACLE_BUDGET)
        if not finding.shrunk_failures or \
                len(finding.shrunk_words) >= len(finding.program.words):
            failures.append("shrinking did not keep a smaller diverging "
                            "reproducer")
    finally:
        ildp_semantics.IALU_OPS["xor"] = healthy


def _check_corpus_roundtrip(failures, seed):
    fprog = generate(seed, 0)
    with tempfile.TemporaryDirectory() as directory:
        write_corpus(directory, [entry_dict(fprog)])
        entries = load_corpus(directory)
        if len(entries) != 1:
            failures.append(f"corpus roundtrip: {len(entries)} entries")
            return
        again = program_from_entry(entries[0])
        if again.words != fprog.words or again.data != fprog.data:
            failures.append("corpus roundtrip changed the program")


def main(argv):
    count = int(argv[1]) if len(argv) > 1 else 8
    seed = int(argv[2]) if len(argv) > 2 else 1
    failures = []

    _check_clean_campaign(failures, count, seed)
    _check_sensitivity(failures)
    _check_corpus_roundtrip(failures, seed)

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(f"fuzz smoke OK: {count} programs clean, injected bug "
          "detected and shrunk, corpus round-trips")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
