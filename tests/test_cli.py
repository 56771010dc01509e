import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hfhat
from hfhat import cli, manifolds
from hfhat.algebra import multiply_basic
from hfhat.cli import EXIT_INTERNAL, main
from hfhat.grading import GradingElement
from hfhat.homalg import StructureError, cancel
from hfhat.pmc import antipodal_pmc, split_pmc

from algebra_sums import full_basis


@pytest.fixture()
def pmc_file(tmp_path):
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(split_pmc(1).to_json()))
    return str(path)


@pytest.fixture()
def genus2_file(tmp_path):
    path = tmp_path / "z2.json"
    path.write_text(json.dumps(split_pmc(2).to_json()))
    return str(path)


@pytest.fixture()
def word_file(tmp_path):
    path = tmp_path / "word.json"
    path.write_text(json.dumps({"genus": 1, "steps": [{"slide": {"b1": 2, "c1": 1}}]}))
    return str(path)


def test_algebra_command(pmc_file, capsys):
    assert main(["algebra", pmc_file, "--weight", "0"]) == 0
    out = capsys.readouterr().out
    assert "8 generators" in out


def test_algebra_command_json_deterministic(pmc_file, capsys):
    assert main(["--output", "json", "algebra", pmc_file]) == 0
    first = capsys.readouterr().out
    assert main(["--output", "json", "algebra", pmc_file]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["dimension"] == 8


def test_algebra_truncated_dimension(pmc_file, capsys):
    assert main(["--truncated", "--output", "json", "algebra", pmc_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dimension"] == 8  # no genus-1 weight-0 multiplicity >= 2


@pytest.mark.parametrize("circle, genus, weight, expected", [
    (split_pmc, 1, 1, 9), (split_pmc, 2, 0, 858), (split_pmc, 2, 1, 970),
    (antipodal_pmc, 2, 0, 750), (antipodal_pmc, 2, 1, 826),
], ids=["split-1-w1", "split-2-w0", "split-2-w1", "antipodal-2-w0", "antipodal-2-w1"])
def test_truncated_algebra_counts_only_kept_products(circle, genus, weight, expected, tmp_path,
                                                     capsys):
    """Over the truncated algebra a product of kept basics that truncation
    kills is zero, so it is not among the nonzero products."""
    pmc = circle(genus)
    path = tmp_path / "circle.json"
    path.write_text(json.dumps(pmc.to_json()))
    assert main(["--truncated", "--output", "json", "algebra", str(path),
                 "--weight", str(weight)]) == 0
    payload = json.loads(capsys.readouterr().out)
    kept = [a for a in full_basis(pmc) if a.weight == weight and a.kept]
    assert payload["dimension"] == len(kept)
    oracle = sum(1 for a in kept for b in kept if a.right_pairs == b.left_pairs
                 and (p := multiply_basic(a, b)) is not None and p.kept)
    assert payload["nonzero_products"] == oracle == expected


def test_verbose_is_an_option_of_the_algebra_command(pmc_file, monkeypatch, capsys):
    assert main(["algebra", pmc_file]) == 0
    plain = capsys.readouterr().out
    assert main(["algebra", pmc_file, "--verbose"]) == 0
    verbose = capsys.readouterr().out
    drawings = [g.ascii() for g in hfhat.basis(split_pmc(1), 0)]
    assert len(drawings) == 8 and all(d in verbose and d not in plain for d in drawings)
    monkeypatch.setattr(cli, "hf_hat_closed", lambda *a, **k: pytest.fail("ran the word"))
    with pytest.raises(SystemExit) as exit_info:
        main(["--verbose", "hf-hat", "--preset", "s1xs2-g1"])
    assert exit_info.value.code == 2


def test_invalid_pmc_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"points": 4, "matching": [[1, 2], [3, 4]]}))
    assert main(["algebra", str(bad)]) == 2


def test_hf_hat_word_file(word_file, capsys):
    assert main(["hf-hat", word_file]) == 0
    out = capsys.readouterr().out
    assert "total rank 2" in out


def test_hf_hat_preset_s1xs2(capsys):
    assert main(["--output", "json", "hf-hat", "--preset", "s1xs2-g1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert sum(o["rank"] for o in payload["orbits"]) == 2


@pytest.fixture()
def twist_word_file(tmp_path):
    path = tmp_path / "twist.json"
    path.write_text(json.dumps({"genus": 1, "steps": [{"dehn_twist": {"pair": 1, "power": 3}}]}))
    return str(path)


@pytest.mark.parametrize("source", ["preset", "twist word"])
def test_hf_hat_check_does_not_change_the_output(source, twist_word_file, capsys):
    target = ["--preset", "s1xs2-g1"] if source == "preset" else [twist_word_file]
    assert main(["--output", "json", "hf-hat", *target]) == 0
    plain = capsys.readouterr().out
    assert main(["--output", "json", "hf-hat", *target, "--check"]) == 0
    assert capsys.readouterr().out == plain


def test_hf_hat_check_exits_internal_on_a_stage_defect(twist_word_file, monkeypatch, capsys):
    reduced = []

    def tampered_cancel(structure):
        out = cancel(structure)
        reduced.append(out)
        if len(reduced) == 2:  # shift one rep with an arrow by half a lambda
            x = next(g for g in out.generators if out.delta[g])
            rep = out.gradings.reps[x]
            out.gradings = out.gradings.with_reps(
                {**out.gradings.reps, x: GradingElement(rep.j2 + 1, rep.chain)})
        return out

    monkeypatch.setattr(manifolds, "cancel", tampered_cancel)
    # unchecked, the defect reaches the spin-c split, whose degrees it spoils
    assert main(["hf-hat", twist_word_file]) == EXIT_INTERNAL
    assert "in its lambda orbit cannot be read" in capsys.readouterr().err
    reduced.clear()
    assert main(["hf-hat", twist_word_file, "--check"]) == EXIT_INTERNAL
    assert "stage 2" in capsys.readouterr().err


def test_hf_hat_check_exits_internal_when_the_orbits_miss_the_order_of_h1(
        twist_word_file, monkeypatch, capsys):
    # L(3,1) has three spin-c structures; plant a fourth
    monkeypatch.setattr(manifolds, "h1_order", lambda slides, genus: 4)
    assert main(["hf-hat", twist_word_file]) == 0  # unchecked, nothing is compared
    capsys.readouterr()
    assert main(["hf-hat", twist_word_file, "--check"]) == EXIT_INTERNAL
    assert "word [('twist', 1, 3)]: 3 orbit(s) of total rank 3, but |H_1| = 4" \
        in capsys.readouterr().err


def test_hf_hat_check_exits_internal_when_an_orbit_has_the_wrong_rank_parity(
        tmp_path, monkeypatch, capsys):
    # L(1,1) is S^3: one spin-c structure, so its one orbit has odd rank;
    # plant rank 2 there
    path = tmp_path / "sphere.json"
    path.write_text(json.dumps({"genus": 1, "steps": [{"dehn_twist": {"pair": 1, "power": 1}}]}))
    split = manifolds.spinc_maslov

    def planted(complex_):
        return [{**orbit, "rank": 2} for orbit in split(complex_)]

    monkeypatch.setattr(manifolds, "spinc_maslov", planted)
    assert main(["hf-hat", str(path)]) == 0  # unchecked, nothing is compared
    capsys.readouterr()
    assert main(["hf-hat", str(path), "--check"]) == EXIT_INTERNAL
    assert ("word [('twist', 1, 1)]: orbit 0 has rank 2, but |H_1| = 1 makes every orbit's "
            "rank odd") in capsys.readouterr().err


def test_a_degree_that_cannot_be_read_exits_internal(monkeypatch, capsys):
    # S1 x S2 has one orbit of two survivors; moving one by half a lambda
    # leaves it in the orbit with no integer degree from the orbit's base
    def planted(structure):
        out = cancel(structure)
        if not out.factors:
            x = out.sorted_generators()[-1]
            rep = out.gradings.reps[x]
            out.gradings = out.gradings.with_reps(
                {**out.gradings.reps, x: GradingElement(rep.j2 + 1, rep.chain)})
        return out

    pairing = manifolds.mor_complex(manifolds.cfd_zero_framed_handlebody(1),
                                    manifolds.cfd_zero_framed_handlebody(1))
    assert [o["rank"] for o in manifolds.spinc_maslov(pairing)] == [2]
    monkeypatch.setattr(manifolds, "cancel", planted)
    with pytest.raises(StructureError, match="cannot be read"):
        manifolds.spinc_maslov(pairing)
    assert main(["hf-hat", "--preset", "s1xs2-g1"]) == EXIT_INTERNAL
    assert "in its lambda orbit cannot be read" in capsys.readouterr().err


@pytest.mark.parametrize("preset", ["poincare", "self-gluing-g1", "s1xs2-g1", "s1xs2-g2"])
def test_hf_hat_check_reaches_every_preset(preset, monkeypatch):
    checks = []

    def failing_run(*args, check=False, **kwargs):
        checks.append(check)
        raise StructureError("stage 1: defect")

    monkeypatch.setattr(cli, "poincare_sphere", failing_run)
    monkeypatch.setattr(cli, "hf_hat_closed", failing_run)
    assert main(["hf-hat", "--preset", preset, "--check"]) == EXIT_INTERNAL
    assert checks == [True]


@pytest.mark.parametrize("preset", ["self-gluing-g1", "s1xs2-g1", "s1xs2-g2"])
def test_hf_hat_presets_pass_final_and_handedness(preset, monkeypatch):
    calls = []

    def recording_run(word, **kwargs):
        calls.append(kwargs)
        raise StructureError("recorded")

    monkeypatch.setattr(cli, "hf_hat_closed", recording_run)
    assert main(["hf-hat", "--preset", preset, "--final", "identity"]) == EXIT_INTERNAL
    # a twist's handedness is the sign of its power in the word; no option sets it
    expected = [{"truncated": False, "final": "identity", "check": False}]
    assert calls == expected
    with pytest.raises(SystemExit) as exit_info:
        main(["--twist-handedness", "reversed", "hf-hat", "--preset", preset])
    assert exit_info.value.code == 2
    assert calls == expected  # the refused option ran nothing


def test_hf_hat_preset_final_matches_the_empty_word_file(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"genus": 1, "steps": []}))
    assert main(["--output", "json", "hf-hat", str(path), "--final", "identity"]) == 0
    from_file = capsys.readouterr().out
    assert main(["--output", "json", "hf-hat", "--preset", "s1xs2-g1", "--final", "identity"]) == 0
    assert capsys.readouterr().out == from_file
    assert main(["--output", "json", "hf-hat", "--preset", "s1xs2-g1"]) == 0
    assert capsys.readouterr().out != from_file


@pytest.mark.parametrize("option", [["hf-hat", "--final", "identity"]], ids=["final"])
def test_hf_hat_poincare_preset_rejects_pairing_options(option, monkeypatch, capsys):
    monkeypatch.setattr(cli, "poincare_sphere", lambda **kwargs: pytest.fail("ran the preset"))
    assert main([*option, "--preset", "poincare"]) == 2
    assert "poincare" in capsys.readouterr().err


def test_hf_hat_malformed_word(tmp_path, capsys):
    bad = tmp_path / "word.json"
    bad.write_text(json.dumps({"genus": 1, "steps": [{"slide": {"b1": 1, "c1": 3}}]}))
    assert main(["hf-hat", str(bad)]) == 2


@pytest.mark.parametrize("final", ["hom", "identity"])
def test_a_word_off_the_split_circle_is_an_input_error_for_both_pairings(final, tmp_path,
                                                                        capsys):
    # slide 4 over 5 leaves the genus-2 split circle; both pairings refuse
    # it before a stage is built
    word = tmp_path / "word.json"
    word.write_text(json.dumps({"genus": 2, "steps": [{"slide": {"b1": 4, "c1": 5}}]}))
    assert main(["hf-hat", str(word), "--final", final]) == 2
    assert capsys.readouterr().err == "input error: word does not return to the split circle\n"


SLIDE = {"slide": {"b1": 2, "c1": 1}}


@pytest.mark.parametrize("word", [
    {"steps": [SLIDE]},
    {"genus": 1, "steps": [{"slide": {"b1": 2}}]},
    {"genus": "1", "steps": [SLIDE]},
    {"genus": 1, "steps": [{"dehn_twist": {"pair": 1, "power": 1.5}}]},
    [SLIDE],
    {"genus": -1, "steps": []},
    {"genus": 1, "steps": [{**SLIDE, "dehn_twist": {"pair": 1}}]},
], ids=["no-genus", "slide-without-c1", "string-genus", "fractional-power", "top-level-list",
        "negative-genus", "slide-and-twist"])
def test_hf_hat_malformed_word_file_is_an_input_error(word, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "hf_hat_closed", lambda *a, **kwargs: pytest.fail("ran a word"))
    bad = tmp_path / "word.json"
    bad.write_text(json.dumps(word))
    assert main(["hf-hat", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("input error: ")


def test_a_directory_in_place_of_an_input_file_is_an_input_error(tmp_path, capsys):
    assert main(["hf-hat", str(tmp_path)]) == 2
    assert main(["algebra", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("input error: ")


def test_circle_file_without_matching_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "circle.json"
    bad.write_text(json.dumps({"points": 4}))
    assert main(["algebra", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("input error: ")


@pytest.mark.parametrize("command", ["hf-hat", "algebra"])
def test_undecodable_and_unreachable_input_files_are_input_errors(command, tmp_path, capsys):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00")
    assert main([command, str(binary)]) == 2
    assert main([command, str(binary / "inner.json")]) == 2  # a file as a directory
    assert capsys.readouterr().err.count("input error: ") == 2


def test_a_slide_that_is_not_on_the_circle_is_an_input_error(pmc_file, capsys):
    assert main(["dd-slide", pmc_file, "1", "3"]) == 2
    assert capsys.readouterr().err.startswith("input error: ")


def test_an_internal_value_error_exits_internal(monkeypatch, capsys):
    def mismatched(self, other):
        raise ValueError("grading elements live over different factor lists")

    monkeypatch.setattr(GradingElement, "__mul__", mismatched)
    assert main(["hf-hat", "--preset", "s1xs2-g1"]) == EXIT_INTERNAL
    assert capsys.readouterr().err.startswith("internal invariant failure: grading elements")


def test_hf_hat_needs_word_or_preset(capsys):
    assert main(["hf-hat"]) == 2


@pytest.mark.parametrize("preset", ["poincare", "s1xs2-g2"])
def test_hf_hat_rejects_a_word_file_with_a_preset(preset, word_file, monkeypatch, capsys):
    monkeypatch.setattr(cli, "poincare_sphere", lambda **kwargs: pytest.fail("ran the preset"))
    monkeypatch.setattr(cli, "hf_hat_closed", lambda *a, **kwargs: pytest.fail("ran a word"))
    assert main(["hf-hat", word_file, "--preset", preset]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert "not both" in captured.err


def test_dd_slide_dump(pmc_file, capsys):
    assert main(["dd-slide", pmc_file, "2", "1"]) == 0
    out = capsys.readouterr().out
    assert "near-chords" in out and "generators" in out


def test_dd_slide_counts_the_near_chords_of_a_genus_two_over_slide(genus2_file, capsys):
    assert main(["dd-slide", genus2_file, "5", "4"]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first == "over-slide of 5 over 4; 134 near-chords (20 indeterminate)"


def _dd_slide_dumps(circle_file, b1, c1, capsys, *flags):
    """The text dump's header and its (from, to, coefficients) lines, then
    the JSON dump's arrows in the same form; the text dump's count line
    must name the JSON dump's generators and coefficients."""
    argv = [*flags, "dd-slide", circle_file, str(b1), str(c1)]
    assert main(argv) == 0
    header, count, *lines = capsys.readouterr().out.splitlines()
    text = []
    for line in lines:
        ends, coefficients = line.strip().split("  ", 1)
        text.append((*ends.split(" -> "), ast.literal_eval(coefficients)))
    assert main(["--output", "json", *argv]) == 0
    payload = json.loads(capsys.readouterr().out)
    arrows = [(e["from"], e["to"], e["coefficients"]) for e in payload["arrows"]]
    n_arrows = sum(len(coefficients) for *_, coefficients in arrows)
    assert count == f"{len(payload['generators'])} generators, {n_arrows} arrows"
    return header, text, arrows


def test_dd_slide_text_and_json_dumps_list_the_same_arrows(genus2_file, capsys):
    # one build serves both dumps: the JSON dump lists the text dump's
    # arrows, and only the text dump has the near-chord header
    header, text, arrows = _dd_slide_dumps(genus2_file, 5, 4, capsys)
    assert header == "over-slide of 5 over 4; 134 near-chords (20 indeterminate)"
    assert text == arrows and sum(len(c) for *_, c in arrows) == 122


@pytest.mark.parametrize("b1, c1, kind", [(2, 3, "over"), (3, 2, "under")])
@pytest.mark.parametrize("flags", [[], ["--truncated"]], ids=["plain", "truncated"])
def test_dd_slide_dumps_agree_on_the_antipodal_genus_two_circle(b1, c1, kind, flags, tmp_path,
                                                                  capsys):
    path = tmp_path / "antipodal.json"
    path.write_text(json.dumps(antipodal_pmc(2).to_json()))
    header, text, arrows = _dd_slide_dumps(str(path), b1, c1, capsys, *flags)
    assert header.startswith(f"{kind}-slide of {b1} over {c1}; ")
    assert text == arrows and arrows


def test_dd_slide_text_dump_enumerates_near_chords_once(genus2_file, monkeypatch, capsys):
    # the bimodule is built on the near-chords the header counts, however
    # the enumeration is looked up; the slide cache starts cold
    from hfhat import slides

    calls = []
    for module in (slides, cli):
        def counted(slide, inner=module.enumerate_near_chords):
            calls.append(slide)
            return inner(slide)

        monkeypatch.setattr(module, "enumerate_near_chords", counted)
    monkeypatch.setattr(slides, "_slide_dd_cache", {})
    assert main(["dd-slide", genus2_file, "5", "4"]) == 0
    assert capsys.readouterr().out.startswith("over-slide of 5 over 4; 134 near-chords")
    assert len(calls) == 1


def test_a_closed_stdout_exits_quietly(genus2_file):
    # the reader is gone before the first write, as with `| head -1` on a
    # long dump, so every write fails with EPIPE
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(Path(hfhat.__file__).parents[1])}
    try:
        done = subprocess.run([sys.executable, "-m", "hfhat.cli", "dd-slide", genus2_file, "5", "4"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr == b""


def test_dd_id_dump_json(pmc_file, capsys):
    assert main(["--output", "json", "dd-id", pmc_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["generators"]) == 4


def test_aa_id_summary(pmc_file, capsys):
    assert main(["aa-id", pmc_file]) == 0
    out = capsys.readouterr().out
    assert "30 generators" in out and "homology rank 2" in out


def test_aa_id_json_counts_cancelled_pairs(pmc_file, capsys):
    assert main(["--output", "json", "aa-id", pmc_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dg_generators"] == 30
    assert len(payload["homology_generators"]) == 2
    assert payload["differential_pairs"] == 14


@pytest.mark.parametrize("command, full, truncated", [
    (["dd-slide", "5", "4"], "20 generators, 122 arrows", "20 generators, 120 arrows"),  # over
    (["dd-slide", "3", "4"], "20 generators, 116 arrows", "20 generators, 108 arrows"),  # under
    (["dd-id"], "16 generators, 96 arrows", "16 generators, 96 arrows"),
], ids=["over-slide", "under-slide", "identity"])
def test_truncated_dumps_on_the_genus_two_split_circle(genus2_file, capsys, command, full,
                                                       truncated):
    argv = [command[0], genus2_file, *command[1:]]
    assert main(argv) == 0
    assert full in capsys.readouterr().out.splitlines()
    assert main(["--truncated", *argv]) == 0
    assert truncated in capsys.readouterr().out.splitlines()


def test_truncated_aa_id_on_the_genus_two_split_circle(genus2_file, capsys):
    assert main(["--truncated", "--output", "json", "aa-id", genus2_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dg_generators"] == 2950
    assert len(payload["homology_generators"]) == 6
    assert payload["differential_pairs"] == 1472
