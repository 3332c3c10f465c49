import json

import pytest

from heq.cli import main, parse_matrix
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


def test_verify_ignores_leftover_keys(capsys, tmp_path):
    # keys of older report formats are not display fields that can lie
    code, out, _ = run(capsys, "analyze", H1, H2, G44, "--json")
    data = json.loads(out)
    data["presentation"]["basis"] = ["p", "q"]
    data["v_matrices"] = [[[1, 0], [0, 1]]]
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
    # h_words[0] no longer evaluates to h[0]: the report's context is invalid
    code, out, _ = run(capsys, "analyze", H1, H2, G44, "--json")
    data = json.loads(out)
    data["h_words"][0] = "a"
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1
    assert out.startswith("FAIL report context: ")
    assert "Traceback" not in err


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
    data["equations"][0]["matrix_form"] = "X^2"


def _forge_trivial_flags(data):
    data["equations"][1]["trivial"] = True
    data["generators"][0]["trivial"] = True


def _forge_flag_type(data):
    # 0 == False in Python, but a JSON reader sees a number, not a flag
    data["equations"][0]["trivial"] = 0


def _forge_images(data):
    data["h_images"] = [[1, 2], [0, 0]]


@pytest.mark.parametrize("forge", [_forge_index, _forge_swapped_generators,
                                   _forge_false_verdict, _forge_extra_relator_letter,
                                   _forge_equation_text, _forge_trivial_flags,
                                   _forge_flag_type, _forge_images])
def test_verify_rejects_forged_report(capsys, tmp_path, forge):
    code, out, _ = run(capsys, "analyze", H1, H2, G44, "--json")
    data = json.loads(out)
    forge(data)
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1
    assert "FAIL" in out
    assert "Traceback" not in err


def _shape_bad_matrix(data):
    data["h"][0] = [[1, 2], [3]]
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


@pytest.mark.parametrize("reshape", [_shape_bad_matrix, _shape_not_an_object,
                                     _shape_word_not_a_string, _shape_rank_not_an_integer,
                                     _shape_too_many_presentation_generators])
def test_verify_wrong_json_shape_exits_two(capsys, tmp_path, reshape):
    code, out, _ = run(capsys, "analyze", H1, H2, G44, "--json")
    path = tmp_path / "reshaped.json"
    path.write_text(json.dumps(reshape(json.loads(out))))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2
    assert err.startswith("error: ")
    assert out == ""


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
