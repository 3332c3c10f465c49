"""End-to-end algebraicity analysis over PSL2(Z).

Given matrices h_1..h_s and g, decide whether g is algebraic over
H = <h_1..h_s> and produce equations that normally generate the ideal of
all equations g satisfies:

 1. peel the inputs (words.peel) and map them to C2 x C3 = Z/6; their
    a/b-words are expanded only in step 4, which reads them;
 2. build the Schreier graph of the subgroup of H*<x> consisting of the
    equations whose value at g lies in the free kernel F.  PSL2(Z)/F is
    C2 x C3 = Z/6, so this subgroup is the kernel of the letterwise map
    H*<x> -> Z/6 and its graph is the Cayley graph of the image of
    <h_1..h_s, g> on the letter images: at most 6 vertices, no matrix
    products;
 3. read the subgroup generators w_1(x)..w_p(x) off the non-tree edges;
 4. rewrite each value v_i = w_i(g) as a free word in {p, q}, letter by
    letter: each signed letter read at a state of the Schreier graph of F
    gives the rewriting of its a/b-word from that state, one table of these
    pieces serves all the generators, and the joined pieces are freely
    reduced (no matrix is multiplied out and peeled back, and no a/b-word of
    a value is built); the evaluated matrix re-checks the result;
 5. present V = <v_1..v_p> on those generators;
 6. push every relator through w_1..w_p and reduce: these equations
    normally generate the ideal;
 7. g is transcendental iff every resulting equation is trivial.

Each step re-checks the invariants it relies on and raises RuntimeError
rather than ever returning a silently wrong report.  Where one check
implies another it is not repeated: a relator is never expanded through
the v-words, since step 4 checks each v_i against w_i's value and step 6
checks that each substituted relator evaluates to I, and p, q freely
generate F inside PSL2(Z).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .equations import (
    EqWord,
    HContext,
    HEquation,
    evaluate,
    format_eq_word,
    parse_eq_word,
    render_equation,
    rewrite_values,
)
from .equations import reduce_equation  # noqa: F401  perfbench traces it by this name
from .freewords import (
    FreeWord,
    NotInKernel,
    format_free_word,
    parse_free_word,
    parse_word,
    pq_to_matrix,
    substitute,
)
from .freewords import matrix_to_free_word  # noqa: F401  perfbench traces it by this name
from .psl2 import IDENTITY, ProjMat2
from .schreier import SchreierGraph, build_schreier, subgroup_generators
from .stallings import PresentationOnGenerators, subgroup_presentation
from .words import WORD_BUDGET, format_ab_word, image_pair, quotient_order

VERDICT_ALGEBRAIC = "algebraic"
VERDICT_TRANSCENDENTAL = "transcendental"


@dataclass(frozen=True)
class AnalysisReport:
    """The raw data the pipeline computed, enough to re-check it.

    The report stores words only.  Their normal forms (w_equations,
    ideal_equations) are read through ctx.equation, which reduces each word
    once per context.  The positions of the nontrivial generators
    (nontrivial_indices) and the generators' trivial flags are read through
    ctx.is_trivial, which reduces only a balanced word that contains x.
    v_words runs parallel to nontrivial_indices: trivial generators stay in
    w_words but contribute nothing downstream.  ideal_words holds one
    substituted relator per presentation relator, unfiltered.
    """

    ctx: HContext
    index: int
    w_words: tuple[EqWord, ...]
    v_words: tuple[FreeWord, ...]
    presentation: PresentationOnGenerators
    ideal_words: tuple[EqWord, ...]
    verdict: str

    @property
    def w_equations(self) -> tuple[HEquation, ...]:
        return tuple(map(self.ctx.equation, self.w_words))

    @property
    def nontrivial_indices(self) -> tuple[int, ...]:
        return _nontrivial(self.w_words, self.ctx)

    @property
    def ideal_equations(self) -> tuple[HEquation, ...]:
        return tuple(map(self.ctx.equation, self.ideal_words))

    def nontrivial_ideal_equations(self) -> tuple[HEquation, ...]:
        return tuple(e for e in self.ideal_equations if not e.is_trivial())

    def to_dict(self) -> dict:
        ctx = self.ctx
        return {
            "h": [m.rows() for m in ctx.h_mats],
            "g": ctx.g_mat.rows(),
            "h_words": [format_ab_word(w) for w in ctx.h_words],
            "g_word": format_ab_word(ctx.g_word),
            "h_images": [list(image_pair(img)) for img in ctx.h_images()],
            "g_image": list(image_pair(ctx.g_image())),
            "index": self.index,
            "generators": [
                {"word": format_eq_word(w, ctx), "trivial": ctx.is_trivial(w)}
                for w in self.w_words
            ],
            "v_words": [format_free_word(v) for v in self.v_words],
            "presentation": {
                "generators": self.presentation.generator_count,
                "rank": self.presentation.rank,
                "relators": list(self.presentation.relator_names()),
            },
            "equations": [
                {
                    "word": format_eq_word(w, ctx),
                    "trivial": eq.is_trivial(),
                    "text": render_equation(eq, ctx),
                }
                for w, eq in zip(self.ideal_words, self.ideal_equations)
            ],
            "verdict": self.verdict,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AnalysisReport":
        """Parse and type-check a to_dict() mapping.  The context is read
        from h and g alone and peels the matrices, expanding no a/b-word;
        no equation word is reduced.  h_words, g_word, the images and the
        other rendered fields are not read."""
        ctx = HContext(tuple(map(ProjMat2.from_rows, data["h"])),
                       ProjMat2.from_rows(data["g"]))
        w_words = tuple(parse_eq_word(g["word"], ctx) for g in data["generators"])
        v_words = tuple(parse_free_word(v) for v in data["v_words"])
        pres = data["presentation"]
        for key, value in (("index", data["index"]), ("generators", pres["generators"]),
                           ("rank", pres["rank"])):
            if type(value) is not int:
                raise TypeError(f"{key} is {value!r}, not an integer")
        # a presentation has at most one generator per Schreier generator
        if not 0 <= pres["generators"] <= len(w_words):
            raise ValueError(f"presentation has {pres['generators']} generators, "
                             f"outside 0..{len(w_words)}")
        relnames = tuple(f"x{i}" for i in range(1, pres["generators"] + 1))
        presentation = PresentationOnGenerators(
            pres["generators"], pres["rank"],
            tuple(parse_word(r, relnames) for r in pres["relators"]),
        )
        ideal_words = tuple(parse_eq_word(e["word"], ctx) for e in data["equations"])
        return cls(ctx, data["index"], w_words, v_words, presentation, ideal_words,
                   data["verdict"])


def _nontrivial(words: Sequence[EqWord], ctx: HContext) -> tuple[int, ...]:
    """Positions of the words that are nontrivial equations."""
    return tuple(i for i, w in enumerate(words) if not ctx.is_trivial(w))


def equation_schreier_graph(ctx: HContext) -> SchreierGraph:
    """Coset graph of the equations whose value at g lies in the kernel F.

    It is built from the letter images in Z/6 alone; its index is
    re-checked against the order of the image of <h_1..h_s, g> computed by
    quotient_order.
    """
    images = [ctx.letter_image(let) for let in range(1, ctx.x_letter + 1)]
    graph = build_schreier(ctx.letter_names, images)
    order = quotient_order(images)
    if graph.index != order:
        raise RuntimeError(f"Schreier index {graph.index} != quotient order {order}")
    return graph


def analyze(h_mats: Sequence[ProjMat2], g_mat: ProjMat2) -> AnalysisReport:
    """Run the full pipeline; see the module docstring for the steps.

    Raises ValueError when the letters of a generator have a/b-words of more
    than WORD_BUDGET syllables in all, checked before any generator is
    rewritten (equations.rewrite_values), or when a relator or
    ideal word has more than WORD_BUDGET letters, since verify could not
    read such a report back.
    """
    ctx = HContext.from_matrices(h_mats, g_mat)

    graph = equation_schreier_graph(ctx)
    index = graph.index
    w_words = subgroup_generators(graph)
    expected_count = len(ctx.letter_names) * index - (index - 1)
    if len(w_words) != expected_count:
        raise RuntimeError("generator count does not match the Schreier graph")

    nontrivial = _nontrivial(w_words, ctx)
    values = [w_words[i] for i in nontrivial]
    try:
        v_words = rewrite_values(values, ctx)
    except NotInKernel as exc:
        # the generators come from the graph of F, so this is a fault here,
        # not an input error
        raise RuntimeError("generator value does not lie in the kernel F") from exc
    for w, free in zip(values, v_words):
        if pq_to_matrix(free) != evaluate(w, ctx):
            raise RuntimeError("kernel rewriting disagrees with evaluation")

    presentation = subgroup_presentation(v_words)

    ideal_words = tuple(substitute(rel, values) for rel in presentation.relators)
    # a report must stay readable: verify's word parser refuses longer words
    longest = max(map(len, presentation.relators + ideal_words), default=0)
    if longest > WORD_BUDGET:
        raise ValueError(f"a relator or ideal word of {longest} letters is over "
                         f"the budget of {WORD_BUDGET}")
    ideal_equations = tuple(map(ctx.equation, ideal_words))
    for word, eq in zip(ideal_words, ideal_equations):
        if evaluate(word, ctx) != IDENTITY or evaluate(eq, ctx) != IDENTITY:
            raise RuntimeError("ideal generator does not evaluate to the identity")

    verdict = (VERDICT_ALGEBRAIC
               if any(not eq.is_trivial() for eq in ideal_equations)
               else VERDICT_TRANSCENDENTAL)
    return AnalysisReport(ctx, index, w_words, v_words, presentation,
                          ideal_words, verdict)


@dataclass(frozen=True)
class VerificationResult:
    checks: tuple[tuple[str, bool, str], ...]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)

    def summary(self) -> str:
        return "\n".join(
            f"{'PASS' if passed else 'FAIL'} {name}: {detail}"
            for name, passed, detail in self.checks
        )


def verify(report: AnalysisReport) -> VerificationResult:
    """Re-check a report from its raw words, independently of how it was made.

    (a) every ideal generator evaluates to the identity at g;
    (b) every relator uses only letters x_1..x_n for the n v-words;
    (c) the v-words match the evaluated generators as matrices;
    (d) every generator's image in Z/6 is trivial;
    (e) the verdict agrees with the triviality of the ideal generators,
        read through ctx.is_trivial, which stops at the first nontrivial
        one and reduces only balanced words that contain x;
    (f) the index and the generators are those of the Schreier graph
        rebuilt from the context;
    (g) the presentation has one generator per nontrivial generator and
        #nontrivial - rank relators (the rank is the report's own), and the
        ideal words are its relators applied to the nontrivial generators;
        a relator letter that names no nontrivial generator fails (g).

    No relator is expanded through the v-words, which can take hundreds of
    millions of letters: (a), (c) and (g) imply that each relator kills
    them.  By (g) ideal word j is relator r_j applied to the generators,
    by (a) its value is I, and by (c) each generator's value is its
    v-word's matrix; so r_j applied to the v-words has matrix I.  p and q
    freely generate F and F embeds in PSL2(Z), so it freely reduces to the
    empty word.
    """
    ctx = report.ctx
    pres = report.presentation
    ws = [report.w_words[i] for i in report.nontrivial_indices]
    checks: list[tuple[str, bool, str]] = []

    bad = [i for i, w in enumerate(report.ideal_words)
           if evaluate(w, ctx) != IDENTITY]
    checks.append(("ideal generators evaluate to I", not bad,
                   f"{len(report.ideal_words)} equations" if not bad
                   else f"equations {bad} fail"))

    nv = len(report.v_words)
    unnamed = [i for i, rel in enumerate(pres.relators)
               if any(not 1 <= abs(let) <= nv for let in rel)]
    checks.append(("relators name only v-words", not unnamed,
                   f"{len(pres.relators)} relators" if not unnamed
                   else f"relators {unnamed} fail"))

    values = [evaluate(w, ctx) for w in ws]
    ok = (len(values) == len(report.v_words)
          and all(pq_to_matrix(v) == m for v, m in zip(report.v_words, values)))
    checks.append(("v-words match evaluated generators", ok,
                   f"{len(values)} values"))

    bad = [i for i, w in enumerate(report.w_words) if ctx.word_image(w)]
    checks.append(("generators land in the kernel", not bad,
                   f"{len(report.w_words)} generators" if not bad
                   else f"generators {bad} fail"))

    algebraic = not all(map(ctx.is_trivial, report.ideal_words))
    expected = VERDICT_ALGEBRAIC if algebraic else VERDICT_TRANSCENDENTAL
    checks.append(("verdict is consistent", report.verdict == expected,
                   f"verdict {report.verdict!r}, recomputed {expected!r}"))

    graph = equation_schreier_graph(ctx)
    checks.append(("index is the Schreier index", report.index == graph.index,
                   f"index {report.index}, rebuilt {graph.index}"))
    checks.append(("generators are the Schreier generators",
                   report.w_words == subgroup_generators(graph),
                   f"{len(report.w_words)} generators"))

    fits = pres.generator_count == len(ws)
    checks.append(("relator count is #nontrivial - rank",
                   fits and len(pres.relators) == len(ws) - pres.rank,
                   f"{len(pres.relators)} relators on {pres.generator_count} "
                   f"generators, {len(ws)} nontrivial, rank {pres.rank}"))
    # substitute takes only relator letters in 1..len(ws), and (b) checked 1..nv
    ok = (fits and not unnamed and nv == len(ws)
          and report.ideal_words == tuple(substitute(r, ws) for r in pres.relators))
    checks.append(("ideal words are the substituted relators", ok,
                   f"{len(report.ideal_words)} ideal words"))

    return VerificationResult(tuple(checks))
