import hashlib
import io
import json
import sys
from dataclasses import replace

import pytest

from heq.cli import main, parse_matrix
from heq.equations import render_equation
from heq.freewords import substitute
from heq.pipeline import AnalysisReport, analyze, verify
from heq.psl2 import ProjMat2

H1 = "[[2,-1],[-1,1]]"
H2 = "[[2,-5],[1,-2]]"
G43 = "[[5,3],[3,2]]"
G44 = "[[1,0],[-2,1]]"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_matrix_forms():
    assert parse_matrix("[[2, 1], [1, 1]]") == ProjMat2(2, 1, 1, 1)
    assert parse_matrix('{"m": [[2,1],[1,1]]}') == ProjMat2(2, 1, 1, 1)


def test_decompose_outputs(capsys):
    code, out, _ = run(capsys, "decompose", G43)
    assert code == 0 and out.strip() == "b a b^2 a b a b^2 a | pi=(0,0)"
    code, out, _ = run(capsys, "decompose", "[[1,0],[0,1]]")
    assert code == 0 and out.strip() == "(empty) | pi=(0,0)"
    code, out, _ = run(capsys, "decompose", H2)
    assert code == 0 and out.strip() == "b a b a b^2 a b^2 | pi=(1,0)"


def test_analyze_transcendental(capsys):
    code, out, _ = run(capsys, "analyze", H1, H2, G43)
    assert code == 0
    assert "VERDICT: TRANSCENDENTAL" in out
    assert "0 relator(s)" in out


def test_analyze_algebraic_with_matrices(capsys):
    code, out, _ = run(capsys, "analyze", H1, H2, G44, "--show-matrices")
    assert code == 0
    assert "VERDICT: ALGEBRAIC" in out
    assert out.count("= I") == 10
    assert "10 relator(s)" in out


def test_analyze_json_verify_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "analyze", H1, H2, G44, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "algebraic"
    assert data["index"] == 6
    path = tmp_path / "report.json"
    path.write_text(out)
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "FAIL" not in out


def test_verify_reads_report_from_stdin(capsys, monkeypatch):
    code, out, _ = run(capsys, "analyze", H1, H2, G44, "--json")
    assert code == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(out))
    code, out, err = run(capsys, "verify", "-")
    assert code == 0 and err == ""
    assert out.count("PASS") == 10 and "FAIL" not in out


def test_verify_ignores_leftover_keys(capsys, tmp_path):
    # keys of older report formats are not display fields that can lie
    code, out, _ = run(capsys, "analyze", H1, H2, G44, "--json")
    data = json.loads(out)
    data["presentation"]["basis"] = ["p", "q"]
    data["v_matrices"] = [[[1, 0], [0, 1]]]
    # reports written before to_dict dropped it carry each equation's matrix form
    report = AnalysisReport.from_dict(data)
    for entry, eq in zip(data["equations"], report.ideal_equations):
        entry["matrix_form"] = render_equation(eq, report.ctx, matrices=True)
    path = tmp_path / "old.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "FAIL" not in out
    assert "PASS rendered fields match the report" in out


def test_verify_failure_exit_code(capsys, tmp_path):
    code, out, _ = run(capsys, "analyze", H1, H2, G44, "--json")
    data = json.loads(out)
    data["verdict"] = "transcendental"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert "FAIL" in out


def test_verify_forged_context_fails_cleanly(capsys, tmp_path):
    # h_words[0] no longer is the word of h[0]: the words are rendered from
    # the matrices, so the forged one is a display field that differs
    code, out, _ = run(capsys, "analyze", H1, H2, G44, "--json")
    data = json.loads(out)
    data["h_words"][0] = "a"
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL rendered fields match the report: h_words differ"]
    assert "Traceback" not in err


def test_report_without_words_reads_back(capsys, tmp_path, h1, h2):
    # h_words and g_word are rendered from h and g, never read: a report
    # without them reads back whole and verifies, and only the re-render
    # check notices the missing keys
    report = analyze([h1, h2], ProjMat2(1, 0, -2, 1))
    data = json.loads(json.dumps(report.to_dict()))
    del data["h_words"], data["g_word"]
    restored = AnalysisReport.from_dict(data)
    assert restored == report and restored.to_dict() == report.to_dict()
    assert verify(restored).ok
    path = tmp_path / "wordless.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1 and err == ""
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL rendered fields match the report: h_words, g_word differ"]


def _forge_index(data):
    data["index"] = 1


def _forge_swapped_generators(data):
    # entry 2 is the trivial h2^2, so the nontrivial generators keep their order
    gens = data["generators"]
    gens[1], gens[2] = gens[2], gens[1]


def _forge_false_verdict(data):
    data["presentation"]["relators"] = []
    data["equations"] = []
    data["verdict"] = "transcendental"


def _forge_extra_relator_letter(data):
    # a 13th presentation generator with no v-word behind it
    pres = data["presentation"]
    pres["generators"] = 13
    pres["relators"][0] += " x13"


# the display fields below are not read back by from_dict: verify re-renders
# the report and compares them

def _forge_equation_text(data):
    data["equations"][0]["text"] = "x^2"


def _forge_trivial_flags(data):
    data["equations"][1]["trivial"] = True
    data["generators"][0]["trivial"] = True


def _forge_flag_type(data):
    # 0 == False in Python, but a JSON reader sees a number, not a flag
    data["equations"][0]["trivial"] = 0


def _forge_images(data):
    data["h_images"] = [[1, 2], [0, 0]]


def _forge_extra_h_word(data):
    # a third h-word with no matrix behind it, and g's word forged
    data["h_words"].append(data["g_word"])
    data["g_word"] = "a"


def _forge_long_equation_word(data):
    # h1^11000 has entries of over 4300 digits, more than str(int) writes:
    # verify must FAIL it without rendering the matrix
    data["equations"][0]["word"] = "h1^11000"


def _forge_relator_not_killing_v_words(data):
    # relator 1 is x1, which does not kill v_1, and equation 1 is x1 applied
    # to the generators, rendered consistently: no check expands a relator
    # through the v-words, so it is the ideal word's value that must FAIL
    data["presentation"]["relators"][0] = "x1"
    x1 = next(gen for gen in data["generators"] if not gen["trivial"])
    data["equations"][0]["word"] = x1["word"]
    data.update(AnalysisReport.from_dict(data).to_dict())
    return "ideal generators evaluate to I"


def _forge_false_verdict_with_rank(data):
    # the relator count check reads the report's own rank: 12 nontrivial
    # generators, rank 12, so no relators are due
    _forge_false_verdict(data)
    data["presentation"]["rank"] = 12


def _forge_squared_relator(data):
    # relator 1 squared, and equation 1 substituted from it and rendered
    # again: the ideal is incomplete, and no check tells r^2 from r
    report = AnalysisReport.from_dict(data)
    pres = report.presentation
    squared = pres.relators[0] * 2
    ws = [report.w_words[i] for i in report.nontrivial_indices]
    data.update(replace(
        report, presentation=replace(pres, relators=(squared, *pres.relators[1:])),
        ideal_words=(substitute(squared, ws), *report.ideal_words[1:])).to_dict())


# forgeries verify still accepts (ROADMAP item 1); strict, so the day verify
# rejects one, its mark must go
OPEN_HOLES = [
    pytest.param(_forge_false_verdict_with_rank, marks=pytest.mark.xfail(
        strict=True, reason="verify trusts the report's rank (ROADMAP item 1, forgery b)")),
    pytest.param(_forge_squared_relator, marks=pytest.mark.xfail(
        strict=True, reason="verify does not re-derive the relators (ROADMAP item 1, forgery c)")),
]


# a forgery may return the name of a check that must FAIL
@pytest.mark.parametrize("forge", [_forge_index, _forge_swapped_generators,
                                   _forge_false_verdict, _forge_extra_relator_letter,
                                   _forge_equation_text, _forge_trivial_flags,
                                   _forge_flag_type, _forge_images,
                                   _forge_extra_h_word, _forge_long_equation_word,
                                   _forge_relator_not_killing_v_words, *OPEN_HOLES])
def test_verify_rejects_forged_report(capsys, tmp_path, forge):
    code, out, _ = run(capsys, "analyze", H1, H2, G44, "--json")
    data = json.loads(out)
    failing = forge(data)
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1
    assert "FAIL" in out
    assert "Traceback" not in err and "error:" not in err
    if failing is not None:
        assert f"FAIL {failing}:" in out


def _shape_bad_matrix(data):
    data["h"][0] = [[1, 2], [3]]
    return data


def _shape_misshaped_rows(data):
    # the same four entries as h1, in rows of three and one
    data["h"][0] = [[2, -1, -1], [1]]
    return data


def _shape_float_entry(data):
    # 1.0 == 1 in Python, but a JSON reader sees a float, not an integer
    data["g"][0][0] = 1.0
    return data


def _shape_not_an_object(data):
    return [1]


def _shape_word_not_a_string(data):
    data["generators"][0]["word"] = 5
    return data


def _shape_rank_not_an_integer(data):
    data["presentation"]["rank"] = "2"
    return data


def _shape_too_many_presentation_generators(data):
    # more presentation generators than Schreier generators; 10^8 would
    # build 10^8 relator names before any check ran
    data["presentation"]["generators"] = 10**6
    return data


# a JSON object in place of a list would be read by its keys
def _shape_equations_an_object(data):
    data["equations"] = {}
    return data


def _shape_v_words_an_object(data):
    data["v_words"] = dict.fromkeys(data["v_words"], 0)
    return data


def _shape_relators_an_object(data):
    data["presentation"]["relators"] = dict.fromkeys(data["presentation"]["relators"], 0)
    return data


def _shape_verdict_not_a_string(data):
    data["verdict"] = 1
    return data


@pytest.mark.parametrize("reshape", [_shape_bad_matrix, _shape_misshaped_rows,
                                     _shape_float_entry, _shape_not_an_object,
                                     _shape_word_not_a_string, _shape_rank_not_an_integer,
                                     _shape_too_many_presentation_generators,
                                     _shape_equations_an_object, _shape_v_words_an_object,
                                     _shape_relators_an_object,
                                     _shape_verdict_not_a_string])
def test_verify_wrong_json_shape_exits_two(capsys, tmp_path, reshape):
    code, out, _ = run(capsys, "analyze", H1, H2, G44, "--json")
    path = tmp_path / "reshaped.json"
    path.write_text(json.dumps(reshape(json.loads(out))))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2
    assert err.startswith("error: ")
    assert out == ""


def _long_relator(data):
    data["presentation"]["relators"][0] = "x1^2000000"
    return data


def _long_equation_word(data):
    data["equations"][0]["word"] = "h1^2000000"
    return data


# Both words have 2*10^6 letters, over the parser's budget of 10^6, so
# verify refuses them with exit 2 before building a letter.  Without the
# budget the relator is built and checked within seconds and verify FAILs
# it with exit 1; that is the case that tells the two apart quickly.  The
# equation word would be built too, then multiplied out: h1 is hyperbolic,
# so the entries of h1^2000000 grow to millions of digits and that check
# runs for minutes.
@pytest.mark.parametrize("lengthen", [_long_relator, _long_equation_word])
def test_verify_refuses_words_over_the_budget(capsys, tmp_path, lengthen):
    code, out, _ = run(capsys, "analyze", H1, H2, G44, "--json")
    path = tmp_path / "long.json"
    path.write_text(json.dumps(lengthen(json.loads(out))))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2
    assert out == "" and err.startswith("error: ") and "budget" in err


def test_input_errors_exit_two(capsys):
    code, _, err = run(capsys, "analyze", "[[1,2],[3,4]]")
    assert code == 2 and "determinant" in err
    code, _, err = run(capsys, "analyze", "not-a-matrix")
    assert code == 2
    code, _, err = run(capsys, "decompose", "[[1,1],[1,1]]")
    assert code == 2
    code, _, err = run(capsys, "decompose", "[[true,1],[0,true]]")
    assert code == 2 and "integer entries" in err
    code, _, err = run(capsys, "verify", "/nonexistent/report.json")
    assert code == 2
    # the oracle's ball of words up to length 30 would not fit in memory
    code, out, err = run(capsys, "oracle", H1, H2, G44, "--max-len", "60")
    assert code == 2 and out == "" and err.startswith("error: max_len 60 needs more than")
    # [[1,10^9],[0,1]] expands to 2*10^9 a/b letters, over the word budget
    code, out, err = run(capsys, "decompose", "[[1,1000000000],[0,1]]")
    assert code == 2 and out == "" and "budget" in err
    # over <[[1,2],[0,1]]>, g = [[1,n],[0,1]] first has an ideal word of more
    # than 10^6 letters at n = 3466 (1000520 letters), which verify's parser
    # would refuse; at n = 3464 the longest has 999943 letters
    code, out, err = run(capsys, "analyze", "[[1,2],[0,1]]", "[[1,3466],[0,1]]", "--json")
    assert code == 2 and out == "" and "budget" in err


def test_oracle_command(capsys):
    code, out, err = run(capsys, "oracle", H1, H2, G43, "--max-len", "6")
    assert code == 0
    assert out.strip() == ""
    assert "0 witness(es)" in err
    code, out, err = run(capsys, "oracle", "[[2,1],[1,1]]", "[[2,1],[1,1]]",
                         "--max-len", "2")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert {"word": "h1^-1 x", "length": 2} in lines


def test_schreier_command(capsys):
    code, out, _ = run(capsys, "schreier", H1, H2, G44)
    assert code == 0
    assert len(out.strip().splitlines()) == 6
    code, out, _ = run(capsys, "schreier", H1, H2, G44, "--dot")
    assert code == 0
    assert out.startswith("digraph")
    assert "style=bold" in out


# sha256 of each command's stdout on the two worked examples and on a
# parabolic pair; decompose is run on every matrix of the context in turn
PINNED_CONTEXTS = {
    "transcendental": (H1, H2, G43),
    "algebraic": (H1, H2, G44),
    "parabolic": ("[[1,2],[0,1]]", "[[1,300],[0,1]]"),
}
PINNED_COMMANDS = {
    "analyze": ("analyze",),
    "analyze --show-matrices": ("analyze", "--show-matrices"),
    "analyze --json": ("analyze", "--json"),
    "schreier": ("schreier",),
    "schreier --dot": ("schreier", "--dot"),
}
PINNED_DIGESTS = {
    "transcendental": {
        "analyze": "f7581a1e81f6471fc7753c2fe99ff62e615ca8f952b632068e99a6a3cf343b6a",
        "analyze --show-matrices": "f7581a1e81f6471fc7753c2fe99ff62e615ca8f952b632068e99a6a3cf343b6a",
        "analyze --json": "f1c26abe41b3b5753f89234bd98deba3608d8b3245f47377ed8886c64cc57cc0",
        "schreier": "46d0364ec3e57cf6a4e4d9d86766a0602f99bd683805384582a5368de5f0ecf1",
        "schreier --dot": "528fe65cae17e090a013478ce84fcebffcbdff389cb6141078e9963e69578bf2",
        "decompose": "a7b6907db6491055eed547acd9f2fef9f8f20e078de45237eb4d16e59d1a8b0b",
    },
    "algebraic": {
        "analyze": "10b79ac79ff10927b9cac0eaf0412302b80cbf5e23fc20fe72551ff615f7aac1",
        "analyze --show-matrices": "c311163579682a4d3243317c85761475b56fe89bb8687980c607d8edadd3ecaa",
        "analyze --json": "380a0014883a527696ab53c9f341cc59e2827ace2685a3b20d801af6238149e4",
        "schreier": "1ec8f43da92aa796dc9e3e1d6c21743cf1c3b52b80c1fd95364a900371b7057e",
        "schreier --dot": "744e0b894e94b5c25a4a0af018aecd0ff1bedafaa1da8137f5ed4c0c736a14b1",
        "decompose": "b4c819eeb61efb093a611587d3f96a15e20e8d2f651f7220a123f440219f419c",
    },
    "parabolic": {
        "analyze": "22baa6495202307bbd61b14e557a37e14f2ae1de1d801b4a8955bb3b6e2b3bfd",
        "analyze --show-matrices": "1c246a9319a2277c0196a9046e7010f198e3209bdb144a4e3fe2d8c4b091794f",
        "analyze --json": "6d197d50d6f207ab641cf52f8c990a2342d6703f2c757066a7c596e67515771a",
        "schreier": "29c10680326d2e820f88e993df12f1feb98369fdce9bc9525d0b336da670f149",
        "schreier --dot": "32d864b4207be43c2480f6d3c649971aca61f63b8b0b31d179689cd74b9544b0",
        "decompose": "f03e2997b9a86793cb348692965602773a34ab7a91eacb6f9eb0f274de9ea9c8",
    },
}


def _output_digests(capsys, matrices):
    digests = {}
    for name, command in PINNED_COMMANDS.items():
        code, out, err = run(capsys, *command, *matrices)
        assert code == 0 and err == ""
        digests[name] = hashlib.sha256(out.encode()).hexdigest()
    outs = []
    for matrix in matrices:
        code, out, err = run(capsys, "decompose", matrix)
        assert code == 0 and err == ""
        outs.append(out)
    digests["decompose"] = hashlib.sha256("".join(outs).encode()).hexdigest()
    return digests


@pytest.mark.parametrize("context", sorted(PINNED_CONTEXTS))
def test_cli_output_is_pinned(capsys, context):
    assert _output_digests(capsys, PINNED_CONTEXTS[context]) == PINNED_DIGESTS[context]
