"""Smoke test of the benchmark: every workload at reduced size through the
correctness gate, plus checks that the gate rejects forged outputs and of
the helpers the workloads and the timing rest on."""

import dataclasses
import json
import random
import subprocess
import sys
from pathlib import Path

import gate
import refclock
import run
import workloads as wl

RUN = Path(__file__).resolve().parent / "run.py"


def smoke(seed: int) -> tuple[dict, dict]:
    proc = subprocess.run([sys.executable, str(RUN), "--smoke", "--seed", str(seed)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    digests = {}
    for line in lines[:-1]:
        info = json.loads(line)
        digests[info["workload"], info["trace"]] = info["digest"]
    return json.loads(lines[-1]), digests


def test_smoke_passes_the_gate_and_repeats():
    result, digests = smoke(7)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {w for w, _ in digests} == set(run.WORKLOADS)
    # tracing must not change any output, and the same seed repeats exactly
    for (workload, trace), value in digests.items():
        assert value == digests[workload, 0]
    assert smoke(7)[1] == digests


def test_gate_rejects_forged_outputs():
    heq = run.load_heq()
    inst = wl.oracle(random.Random(3), 5, 2)[2]
    report = heq.analyze([heq.ProjMat2(*m) for m in inst.hs], heq.ProjMat2(*inst.g))
    assert gate.analysis_problems(inst, report, deep=True) == []
    flipped = dataclasses.replace(inst, expected=wl.TRANSCENDENTAL, witness=None)
    assert gate.analysis_problems(flipped, report, deep=True)

    found = heq.enumerate_kernel(report.ctx, inst.oracle_len).witnesses
    assert gate.oracle_problems(inst, found, deep=True) == []
    assert gate.oracle_problems(inst, found + ((1,),), deep=True)
    without = tuple(w for w in found if w != inst.witness)
    assert gate.oracle_problems(inst, without, deep=False)

    other = dataclasses.replace(inst, name="other")
    assert gate.family_problems([inst, other], {inst.name: found, other.name: found}) == {}
    assert gate.family_problems([inst, other], {inst.name: found, other.name: found[:-1]})


def test_nielsen_reduction():
    a, b = (1,), (2,)
    assert wl.nielsen_reduced([a, b])
    assert not wl.nielsen_reduced([a, b, (1, 2)])
    assert not wl.nielsen_reduced([a, wl.invert(a)])


def test_syllable_length_matches_heq():
    heq = run.load_heq()
    rng = random.Random(5)
    for length in (1, 2, 7, 40):
        word = wl.random_free_word(rng, length)
        h = heq.ProjMat2(*wl.word_value(word, wl.SANOV))
        ctx = heq.HContext.from_matrices([h], h)
        assert wl.ab_length(word) == len(ctx.h_words[0])
    assert wl.ab_length((1, -1)) == 0


def test_scaled_mean_divides_summed_times():
    clock = refclock.RefClock()
    clock.at, clock.ref = [0.0, 1.0, 3.0], [2e-3, 1e-3, 1e-3]
    # around (0.1, 0.2): ticks 0 and 1 -> 1.5 ms; around (1.5, 2.5): 1 ms
    expected = refclock.REF_SECONDS * 1.1 / 2.5e-3
    assert abs(clock.scaled_mean([(0.1, 0.2), (1.5, 2.5)]) - expected) < 1e-12
