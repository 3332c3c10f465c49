"""Correctness gate: each operation's output against its instance's construction.

Every function returns a list of problems; an empty list is a pass.  The
checks use the 2x2 arithmetic in workloads.py, never heq's own algebra,
except for verify(), whose verdict is itself one of the checks.
"""

from __future__ import annotations

import workloads as wl


def analysis_problems(inst: wl.Instance, report, deep: bool) -> list[str]:
    """Verdict against the construction; with deep, the ideal words too.

    An algebraic report needs an ideal word that is a nontrivial equation
    and evaluates to 1 at g; a transcendental one may have none.
    """
    problems = []
    if report.verdict != inst.expected:
        problems.append(f"verdict {report.verdict}, constructed {inst.expected}")
    if inst.expected == wl.ALGEBRAIC and not report.nontrivial_ideal_equations():
        problems.append("algebraic report without a nontrivial equation")
    if deep:
        mats = wl.eq_letter_mats(inst.hs, inst.g)
        nontrivial = [w for w in report.ideal_words if wl.nontrivial_equation(w, inst.hs)]
        if inst.expected == wl.TRANSCENDENTAL and nontrivial:
            problems.append(f"{len(nontrivial)} nontrivial ideal word(s) on a free basis")
        if inst.expected == wl.ALGEBRAIC and not any(
                wl.is_identity(wl.word_value(w, mats)) for w in nontrivial):
            problems.append("no ideal word is a nontrivial equation that holds")
    return problems


def verification_problems(result) -> list[str]:
    return [f"verify failed: {name}: {detail}"
            for name, passed, detail in result.checks if not passed]


def oracle_problems(inst: wl.Instance, witnesses, deep: bool) -> list[str]:
    """Witnesses must hold, be nontrivial, freely reduced and short enough;
    a free basis has none, and a short constructed witness must be found."""
    problems = []
    if inst.expected == wl.TRANSCENDENTAL and witnesses:
        problems.append(f"{len(witnesses)} witness(es) on a free basis")
    if (inst.witness is not None and len(inst.witness) <= inst.oracle_len
            and inst.witness not in set(witnesses)):
        problems.append(f"constructed witness {inst.witness} not found")
    if deep:
        mats = wl.eq_letter_mats(inst.hs, inst.g)
        for w in witnesses:
            if (len(w) > inst.oracle_len or wl.free_reduce(w) != w
                    or not wl.is_identity(wl.word_value(w, mats))
                    or not wl.nontrivial_equation(w, inst.hs)):
                problems.append(f"witness {w} does not check out")
                break
    return problems


def family_problems(instances: list[wl.Instance], witnesses: dict[str, tuple]
                    ) -> dict[str, list[str]]:
    """Symmetric variants of one base context must have the same witness
    set once their letters are renamed back to the base's."""
    by_family: dict[str, dict[str, frozenset]] = {}
    for inst in instances:
        if inst.family is None or inst.name not in witnesses:
            continue
        back = {abs(new): old * (1 if new > 0 else -1) for old, new in inst.relabel.items()}
        base_words = frozenset(
            tuple((1 if let > 0 else -1) * back[abs(let)] for let in w)
            for w in witnesses[inst.name])
        by_family.setdefault(inst.family, {})[inst.name] = base_words
    problems: dict[str, list[str]] = {}
    for family, sets in by_family.items():
        if len(set(sets.values())) > 1:
            for name in sets:
                problems[name] = [f"witness set differs within family {family}"]
    return problems
