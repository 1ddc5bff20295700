"""CLI tests: commands, inline grammar, JSON output, exit codes."""

import argparse
import contextlib
import io
import json
import re
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resemi import cli, semigroups
from resemi.cli import build_parser, main
from resemi.family import family_class
from resemi.linear_semigroup import LInstance
from resemi.transform_semigroup import TInstance


KIND_LINE = 'instance JSON needs "kind": "transformation" or "linear"'
# A Python exception's repr in an error line: a shape refused by accident
EXCEPTION_REPR = re.compile(r"(Key|Type|Index|Attribute)Error\(")
MISSING = object()  # no input file (``None`` is the JSON null)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def choices_shown(*choices):
    """The choice list of argparse's invalid-choice error as this Python
    prints it: each choice by its repr up to 3.13.0, by its str in later
    3.13 releases (found by asking argparse itself)."""
    probe = argparse.ArgumentParser(exit_on_error=False)
    probe.add_argument("x", choices=["a"])
    try:
        probe.parse_args(["b"])
    except argparse.ArgumentError as exc:
        show = str if "(choose from a)" in str(exc) else repr
    return ", ".join(map(show, choices))


class TestBuild:
    def test_text_output(self, capsys):
        code, out, _ = run(
            capsys, "build", "--kind", "t", "--n", "3", "--y", "0,1", "--sy", "0,1;1,0",
        )
        assert code == 0
        assert "semigroup size: 6" in out
        assert "two-sided identity: yes" in out

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "build", "--kind", "t", "--n", "3", "--y", "0,1",
            "--sy", "0,1;1,0", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        # units are the two bijections [0,1,2] and [1,0,2]; idempotents the
        # three maps [0,1,k] fixing their own image of 2
        assert data["size"] == 6 and data["units"] == 2 and data["idempotents"] == 3

    def test_linear_build(self, capsys):
        code, out, _ = run(
            capsys, "build", "--kind", "l", "--p", "2", "--n", "2", "--w", "1,0",
            "--sw", "1", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["size"] == 4

    def test_validation_exit_code(self, capsys):
        code, _, err = run(capsys, "build", "--kind", "t", "--n", "3")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("block, flag", [("elements", "--sy"), ("generators", "--gens")])
    def test_empty_y_inline_equals_json(self, capsys, tmp_path, fmt, block, flag):
        # with an empty Y, "" is the empty map and the build is all of T(X)
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"kind": "transformation", "n": 2, "Y": [], "sY": {block: [[]]}}))
        from_file = run(capsys, "build", "--input", str(path), "--format", fmt)
        inline = run(capsys, "build", "--kind", "t", "--n", "2", "--y", "", flag, "",
                     "--format", fmt)
        assert inline == from_file
        assert inline[0] == 0 and ("semigroup size: 4" in inline[1] or '"size": 4' in inline[1])

    @pytest.mark.parametrize("flags, data", [
        (["--kind", "l", "--p", "2", "--n", "2", "--w", "1,0", "--sw", "1|0"],
         {"kind": "linear", "p": 2, "n": 2, "W": [[1, 0]], "sW": {"elements": [[[1]], [[0]]]}}),
        (["--kind", "l", "--p", "3", "--n", "1", "--w", "", "--gens", ""],
         {"kind": "linear", "p": 3, "n": 1, "W": [], "sW": {"generators": [[]]}}),
        (["--kind", "t", "--n", "3", "--y", "0,2", "--gens", "1,0"],
         {"kind": "transformation", "n": 3, "Y": [0, 2], "sY": {"generators": [[1, 0]]}}),
        # Y's members may come in any order
        (["--kind", "t", "--n", "3", "--y", "2,0", "--gens", "1,0"],
         {"kind": "transformation", "n": 3, "Y": [2, 0], "sY": {"generators": [[1, 0]]}}),
        (["--kind", "t", "--n", "3", "--y", "0,1", "--sy", "0,1;1,0"],
         {"kind": "transformation", "n": 3, "Y": [0, 1], "sY": {"elements": [[0, 1], [1, 0]]}}),
        (["--kind", "l", "--p", "3", "--n", "2", "--w", "2,2", "--gens", "2"],
         {"kind": "linear", "p": 3, "n": 2, "W": [[2, 2]], "sW": {"generators": [[[2]]]}}),
        (["--kind", "l", "--p", "2", "--n", "2", "--w", "1,1;0,1", "--sw", "0,1;1,0|1,0;0,1"],
         {"kind": "linear", "p": 2, "n": 2, "W": [[1, 1], [0, 1]],
          "sW": {"elements": [[[0, 1], [1, 0]], [[1, 0], [0, 1]]]}}),
        (["--kind", "t", "--n", "2", "--y", "", "--sy", ""],
         {"kind": "transformation", "n": 2, "Y": [], "sY": {"elements": [[]]}}),
    ], ids=["l", "l-zero-w", "t-gens", "t-unsorted-y", "t-elements", "l-gens", "l-w-is-v",
            "t-empty-y"])
    def test_inline_equals_json(self, capsys, tmp_path, flags, data):
        # inline flags are read as the instance JSON they spell
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(data))
        from_file = run(capsys, "classify", "--input", str(path), "--format", "json")
        assert run(capsys, "classify", *flags, "--format", "json") == from_file
        assert from_file[0] == 0

    # Each family's non-block flags with a value, its block flag with a
    # value, and the refusal of a missing non-block flag.
    INLINE_FLAGS = {
        "t": ({"--n": "3", "--y": "0,1"}, ("--sy", "0,1"), "--kind t needs --n and --y"),
        "l": ({"--p": "2", "--n": "2", "--w": "1,0"}, ("--sw", "1"),
              "--kind l needs --p, --n and --w"),
    }

    @pytest.mark.parametrize("kind, missing, with_block", [
        (kind, missing, with_block)
        for kind, (flags, _, _) in INLINE_FLAGS.items()
        for r in range(1, len(flags) + 1) for missing in combinations(flags, r)
        for with_block in (True, False)])
    def test_a_missing_inline_flag_is_refused_by_the_familys_flags(
            self, capsys, kind, missing, with_block):
        # the refusal lists every non-block flag, whichever are missing, and
        # comes before the one of a missing block
        flags, block_argv, message = self.INLINE_FLAGS[kind]
        argv = ["build", "--kind", kind, *(a for flag, value in flags.items()
                                          if flag not in missing for a in (flag, value))]
        if with_block:
            argv += block_argv
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    # The field flags of the other family only, with a value each.
    FOREIGN_FLAGS = {"t": {"--p": "5", "--w": "1,0", "--sw": "7"},
                     "l": {"--y": "0,1", "--sy": "0,1"}}

    @pytest.mark.parametrize("command", ["build", "classify", "element"])
    @pytest.mark.parametrize("kind, flag", [
        (kind, flag) for kind, flags in FOREIGN_FLAGS.items() for flag in flags])
    def test_a_field_flag_of_the_other_family_is_refused(self, capsys, command, kind, flag):
        flags, block_argv, _ = self.INLINE_FLAGS[kind]
        argv = [command, "--kind", kind, *(a for item in flags.items() for a in item),
                *block_argv, flag, self.FOREIGN_FLAGS[kind][flag]]
        if command == "element":
            argv += ["--f", "0,1,0" if kind == "t" else "1,0;0,1"]
        assert run(capsys, *argv) == (2, "", f"error: --kind {kind} does not take {flag}\n")

    @pytest.mark.parametrize("kind", ["t", "l"])
    def test_every_field_flag_of_the_other_family_is_named(self, capsys, kind):
        flags, block_argv, message = self.INLINE_FLAGS[kind]
        foreign = self.FOREIGN_FLAGS[kind]
        # refused before a missing flag of the family's own
        argv = ["build", "--kind", kind, *(a for item in foreign.items() for a in item)]
        refusal = f"error: --kind {kind} does not take {', '.join(foreign)}\n"
        assert run(capsys, *argv) == (2, "", refusal)
        assert run(capsys, *argv[:3]) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("kind", ["t", "l"])
    def test_a_missing_block_is_refused_by_the_familys_block_flag(self, capsys, kind):
        flags, block_argv, _ = self.INLINE_FLAGS[kind]
        argv = ["build", "--kind", kind, *(a for item in flags.items() for a in item)]
        message = f"error: --kind {kind} needs {block_argv[0]} or --gens\n"
        assert run(capsys, *argv) == (2, "", message)
        assert run(capsys, *argv, *block_argv)[0] == 0
        assert run(capsys, *argv, "--gens", block_argv[1])[0] == 0

    @pytest.mark.parametrize("y", ["0,0", "1,0,1"])
    def test_repeated_y_members_refused(self, capsys, y):
        # a repeated member would be dropped, building another Y than given
        code, out, err = run(capsys, "build", "--kind", "t", "--n", "3", "--y", y, "--sy", "0")
        assert code == 2 and out == "" and "'Y'" in err

    def test_non_closed_elements_rejected(self, capsys):
        argv = ["build", "--kind", "t", "--n", "3", "--y", "0,1,2"]
        code, _, err = run(capsys, *argv, "--sy", "1,2,0")
        assert code == 2 and "not closed" in err
        code, out, _ = run(capsys, *argv, "--gens", "1,2,0", "--format", "json")
        assert code == 0 and json.loads(out)["size"] == 3

    @pytest.mark.parametrize("argv", [
        ("classify", "--kind", "t", "--n", "3", "--y", "0,1", "--gens", "1,0", "--sy", "0,0"),
        ("build", "--kind", "l", "--p", "2", "--n", "2", "--w", "1,0", "--gens", "1", "--sw", "0"),
    ], ids=["t", "l"])
    def test_generators_and_elements_conflict(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and "not both" in err and out == ""

    @pytest.mark.parametrize("data", [
        {"kind": "transformation", "n": 3, "Y": [0, 1],
         "sY": {"generators": [[1, 0]], "elements": [[0, 0]]}},
        {"kind": "linear", "p": 2, "n": 2, "W": [[1, 0]],
         "sW": {"generators": [[[1]]], "elements": [[[0]]]}},
    ], ids=["t", "l"])
    def test_generators_and_elements_conflict_in_json(self, capsys, tmp_path, data):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "build", "--input", str(path))
        assert code == 2 and "not both" in err and out == ""

    L_SHAPE = "S(W) elements must be dim(W) x dim(W) matrices over GF(p)"

    @pytest.mark.parametrize("argv, rule", [
        (("--kind", "l", "--p", "2", "--n", "2", "--w", "1,0", "--sw", "1,0;0,1"), L_SHAPE),
        (("--kind", "l", "--p", "2", "--n", "2", "--w", "1,0", "--gens", "1,0;0,1"), L_SHAPE),
        (("--kind", "l", "--p", "2", "--n", "2", "--w", "2,0", "--sw", "1"), L_SHAPE),  # W = 0
        (("--kind", "l", "--p", "2", "--n", "2", "--w", "1,0", "--gens", "1|1,0;0,1"), L_SHAPE),
        (("--kind", "t", "--n", "3", "--y", "0,1", "--gens", "1,0;0,0,1"),
         "S(Y) elements must be transformations on |Y| points"),
    ], ids=["l-elements", "l-generators", "l-zero-w", "l-mixed-generators", "t-mixed-generators"])
    def test_wrong_shaped_prescribed_refused(self, capsys, monkeypatch, argv, rule):
        # one error line naming the family's shape rule, before any closure
        monkeypatch.setattr(semigroups, "generate", lambda gens: pytest.fail("closure ran"))
        code, out, err = run(capsys, "classify", *argv)
        assert (code, out, err) == (2, "", f"error: {rule}\n")


class TestTableCap:
    # T_S(Y)(X) for n = 6, Y = {0}, S(Y) trivial: 6^5 = 7,776 elements,
    # past the 4,096-element Cayley table
    PAST_TABLE = ("--kind", "t", "--n", "6", "--y", "0", "--sy", "0")

    @pytest.mark.parametrize("argv", [
        ("build", *PAST_TABLE),
        ("classify", *PAST_TABLE),
        ("element", *PAST_TABLE, "--f", "0,0,0,0,0,0"),
        ("build", "--kind", "t", "--n", "6", "--y", "0,1,2,3,4,5",
         "--gens", "1,2,3,4,5,0;1,0,2,3,4,5;0,0,2,3,4,5"),  # closure is T(6)
    ], ids=["build", "classify", "element", "gens-closure"])
    def test_refused_up_front(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 5
        assert code == 3 and "size cap" in err and out == ""

    @pytest.mark.parametrize("argv", [
        ("--kind", "t", "--n", "1000000", "--y", "", "--sy", ""),
        ("--kind", "l", "--p", "2", "--n", "400", "--w", "", "--sw", ""),
        ("--kind", "l", "--p", "101", "--n", "3000000", "--w", "", "--sw", ""),
    ], ids=["t-large-n", "l-large-n", "l-huge-n"])
    def test_large_space_refused_at_once(self, capsys, argv):
        # all of T(X) for |X| = 10^6, all of L(GF(2)^400) and of
        # L(GF(101)^3000000): refused without computing n^n or p^n, listing
        # X or the columns of V, or inverting an n x n matrix, each of
        # which takes seconds
        start = time.perf_counter()
        code, out, err = run(capsys, "build", *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, "")
        assert err == ("error: size cap exceeded: more than 4096 elements, "
                       "the Cayley table's TABLE_CAP\n")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_sweep_past_the_table_exits_3(self, capsys, fmt):
        # every build of T_S(Y)(X) with n = 6, |Y| = 1 has 7,776 elements
        code, out, err = run(capsys, "sweep", "--kind", "t", "--ns", "6", "--sizes", "1",
                             "--format", fmt)
        assert code == 3
        assert err == ("error: size cap exceeded by all 6 selected instances: "
                       "more than 4096 elements, the Cayley table's TABLE_CAP\n")
        if fmt == "json":
            report = json.loads(out)
            assert report["instances_run"] == 0 and len(report["skipped"]) == 6
        else:
            assert "instances run: 0" in out and "skipped: 6" in out

    @pytest.mark.parametrize("argv", [
        ("--kind", "t", "--ns", "5", "--sizes", "5"),
        ("--kind", "t", "--ns", "6", "--sizes", "6"),
        ("--kind", "t", "--ns", "4"),
        ("--kind", "l", "--pn", "2,3"),
    ], ids=["5", "6", "t-default-sizes", "l-default-sizes"])
    def test_exhaustive_sweep_refused_up_front(self, capsys, argv):
        # T(5) and T(6) are far past the 27-element exhaustive base, and so
        # are T(4) and L(GF(2)^3), the last bases of their default sizes,
        # whose tractable cells would otherwise all run first
        start = time.perf_counter()
        code, out, err = run(capsys, "sweep", *argv)
        assert time.perf_counter() - start < 5
        assert (code, out) == (3, "")
        assert err == ("error: intractable exhaustive request: "
                       "more than 27 elements, the exhaustive base bound\n")

    @pytest.mark.parametrize("argv", [
        ("--kind", "t", "--ns", "6", "--sizes", "6", "--seed", "233"),
        ("--kind", "l", "--pn", "3,3", "--sizes", "3", "--seed", "4"),
    ], ids=["t6", "l33"])
    def test_seeded_sweep_past_the_table_runs(self, capsys, argv):
        # the bases T(6) and L(GF(3)^3) are past the table; of these four
        # draws only one closure is, and it goes under "skipped"
        code, out, _ = run(capsys, "sweep", *argv, "--source", "seeded", "--samples", "4",
                           "--element-cap", "0")
        report = json.loads(out)
        assert code == 0 and report["instances_run"] == 3 and not report["mismatches"]
        assert [s["reason"] for s in report["skipped"]] == ["size cap exceeded"]

    def test_largest_table_still_builds(self, capsys):
        # 4,096 elements in one Froidure-Pin pass
        start = time.perf_counter()
        code, out, _ = run(capsys, "build", "--kind", "l", "--p", "2", "--n", "4",
                           "--w", "1,0,0,0", "--sw", "1")
        assert time.perf_counter() - start < 30
        assert code == 0 and "semigroup size: 4096" in out


class TestClassify:
    def test_sym_instance(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--kind", "t", "--n", "3", "--y", "0,1",
            "--sy", "0,1;1,0", "--mode", "regular", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        (result,) = data["results"]
        assert result["theorem"] is True and result["oracle"] is True and result["agree"] is True
        assert "subgroup" in result["clause"]

    def test_default_modes_and_text(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--kind", "l", "--p", "2", "--n", "2",
            "--w", "1,0", "--sw", "1",
        )
        assert code == 0
        assert "regular: theorem=True" in out
        assert "inverse: theorem=False" in out

    def test_no_oracle_marks_skipped(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--kind", "t", "--n", "3", "--y", "0,1",
            "--sy", "0,1;1,0", "--mode", "regular", "--no-oracle", "--format", "json",
        )
        assert code == 0
        (result,) = json.loads(out)["results"]
        assert result["oracle"] == "skipped" and result["agree"] == "skipped"

    @pytest.mark.parametrize("command, extra", [("classify", []), ("element", ["--f", "0,1,0"])])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_repeated_mode_refused(self, capsys, command, extra, fmt):
        # a repeated mode would be decided and printed twice, as a sweep
        # would count it twice
        code, out, err = run(capsys, command, *T_FLAGS, *extra, "--mode", "regular",
                             "--mode", "regular", "--format", fmt)
        assert code == 2 and out == "" and err.startswith("error: --mode")

    @pytest.mark.parametrize("sw, argv, message", [
        ("1", ("classify", "--mode", "bogus"), 'unknown semigroup mode "bogus" for L_S(W)(V)'),
        ("1", ("element", "--f", "1,0,0,0;0,0,0,0;0,0,0,0;0,0,0,0", "--mode", "inverse"),
         'unknown element mode "inverse" for L_S(W)(V)'),
        ("0", ("classify", "--mode", "unit_regular"), "identity required"),
        ("0", ("element", "--f", "0,0,0,0;0,0,0,0;0,0,0,0;0,0,0,0", "--mode", "unit_regular"),
         "identity required"),
    ], ids=["classify-bogus", "element-inverse", "classify-no-identity", "element-no-identity"])
    def test_mode_refused_before_the_build(self, capsys, sw, argv, message):
        # the build of L(GF(2)^4) over a line W is the 4,096-element table,
        # seconds of work that a mode the theorem cannot decide never needs
        command, *extra = argv
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--kind", "l", "--p", "2", "--n", "4",
                             "--w", "1,0,0,0", "--sw", sw, *extra)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "") and message in err

    @pytest.mark.parametrize("flags, instance, f, refused", [
        (("--kind", "t", "--n", "2", "--y", "0", "--sy", "0"),
         {"kind": "transformation", "n": 2, "Y": [0], "sY": {"elements": [[0]]}}, "0,0",
         ({"completely_regular"}, {"inverse", "completely_regular"})),
        (("--kind", "t", "--n", "3", "--y", "0,1", "--sy", "0,0"),
         {"kind": "transformation", "n": 3, "Y": [0, 1], "sY": {"elements": [[0, 0]]}}, "0,0,0",
         ({"unit_regular", "completely_regular"},
          {"unit_regular", "inverse", "completely_regular"})),
        (("--kind", "l", "--p", "2", "--n", "2", "--w", "1,0", "--sw", "1"),
         {"kind": "linear", "p": 2, "n": 2, "W": [[1, 0]], "sW": {"elements": [[[1]]]}},
         "1,0;0,1", (set(), {"inverse", "completely_regular"})),
        (("--kind", "l", "--p", "2", "--n", "2", "--w", "1,0", "--sw", "0"),
         {"kind": "linear", "p": 2, "n": 2, "W": [[1, 0]], "sW": {"elements": [[[0]]]}},
         "0,0;0,0", ({"unit_regular"}, {"unit_regular", "inverse", "completely_regular"})),
    ], ids=["t-identity", "t-no-identity", "l-identity", "l-no-identity"])
    def test_one_mode_rule_for_theorems_and_commands(self, capsys, flags, instance, f, refused):
        # thm_semigroup and classify, and thm_element and element, refuse
        # the same modes with the same message: the instance's one rule
        inst = family_class(instance["kind"]).from_dict(instance)
        element = inst.parse_element(f)
        for (command, extra, theorem), expected in zip((
            ("classify", (), inst.thm_semigroup),
            ("element", ("--f", f), lambda mode: inst.thm_element(element, mode)),
        ), refused):
            for mode in ("regular", "unit_regular", "inverse", "completely_regular", "bogus"):
                try:
                    theorem(mode)
                    want = (0, "")
                except ValueError as exc:
                    want = (2, f"error: {exc}\n")
                code, _, err = run(capsys, command, *flags, *extra, "--mode", mode, "--no-oracle")
                assert (code, err) == want, (command, mode)
                assert (code == 2) == (mode in expected | {"bogus"}), (command, mode)


class TestElement:
    def test_linear_regular_false(self, capsys):
        code, out, _ = run(
            capsys, "element", "--kind", "l", "--p", "2", "--n", "2", "--w", "1,0",
            "--sw", "0", "--f", "0,0;1,0", "--mode", "regular", "--format", "json",
        )
        assert code == 0
        (result,) = json.loads(out)["results"]
        assert result["theorem"] is False and result["oracle"] is False

    def test_transformation_unit_regular_witness(self, capsys):
        code, out, _ = run(
            capsys, "element", "--kind", "t", "--n", "3", "--y", "0,1",
            "--sy", "0,1;1,0", "--f", "0,1,0", "--mode", "unit_regular",
            "--format", "json",
        )
        assert code == 0
        (result,) = json.loads(out)["results"]
        assert result["theorem"] is True and result["theorem_witness"] is not None

    def test_witnesses_checked_without_the_table(self, capsys, monkeypatch):
        # the build has 5^6 = 15,625 elements: no table, no oracle, so the
        # product check is the only one that can run
        checked = []
        check = LInstance.witness_problem

        def spy(inst, f, w, mode):
            checked.append((mode, w.to_text(), check(inst, f, w, mode)))
            return checked[-1][2]

        monkeypatch.setattr(LInstance, "witness_problem", spy)
        code, out, _ = run(
            capsys, "element", "--kind", "l", "--p", "5", "--n", "3", "--w", "1,0,0",
            "--sw", "1", "--f", "1,0,0;0,1,0;0,0,0", "--no-oracle", "--format", "json",
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert [(r["mode"], r["theorem"], r["oracle"]) for r in results] == [
            ("regular", True, "skipped"), ("unit_regular", True, "skipped")]
        assert checked == [(r["mode"], r["theorem_witness"], None) for r in results]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("oracle", [[], ["--no-oracle"]])
    def test_bad_witness_exits_4(self, capsys, monkeypatch, fmt, oracle):
        from resemi import transform_semigroup as tsg
        from resemi.semigroups import PropertyVerdict

        predicate = tsg.TInstance.thm_element

        def wrong(inst, f, mode):
            v = predicate(inst, f, mode)
            return PropertyVerdict(v.prop, v.holds, witness=f, clause=v.clause)

        monkeypatch.setattr(tsg.TInstance, "thm_element", wrong)
        code, out, _ = run(
            capsys, "element", "--kind", "t", "--n", "3", "--y", "0,1",
            "--sy", "0,1;1,0", "--f", "0,1,0", "--mode", "unit_regular",
            "--format", fmt, *oracle,
        )
        assert code == 4
        problem = "unit-regular witness is not bijective"  # f itself is no unit
        if fmt == "json":
            (result,) = json.loads(out)["results"]
            assert result["theorem_witness"] == "0,1,0" and result["witness_problem"] == problem
        else:
            assert out.rstrip().endswith(f"<< BAD WITNESS: {problem}")

    def test_unit_regular_preimage_is_solved_not_searched(self, capsys):
        # e1 spans W and R(f|W); its preimage with free variables zero is
        # e0, outside W.  The first null-space correction into W, in
        # lexicographic order, comes after 100 * 101^4 others: solved, not
        # searched for
        n = 6
        row = ",".join(["0", "1"] + ["0"] * (n - 2))
        f = ";".join([row, row] + [",".join(["0"] * n)] * (n - 2))
        start = time.perf_counter()
        code, out, _ = run(capsys, "element", "--kind", "l", "--p", "101", "--n", str(n),
                           "--w", row, "--sw", "1", "--f", f, "--mode", "unit_regular",
                           "--no-oracle", "--format", "json")
        assert time.perf_counter() - start < 1
        (result,) = json.loads(out)["results"]
        assert code == 0 and result["theorem"] is True

    def test_outsider_is_validation_error(self, capsys):
        code, _, err = run(
            capsys, "element", "--kind", "t", "--n", "3", "--y", "0,1",
            "--sy", "0,1;1,0", "--f", "2,0,1", "--mode", "regular",
        )
        assert code == 2 and "not in T_S(Y)(X)" in err

    def test_outsider_refused_before_the_build(self, capsys, monkeypatch):
        # the build of L(GF(2)^4) over a line W is the 4,096-element table,
        # which an f of the wrong size never needs
        def no_build(inst):
            raise AssertionError("the instance was built")

        monkeypatch.setattr(LInstance, "build", no_build)
        start = time.perf_counter()
        code, out, err = run(capsys, "element", "--kind", "l", "--p", "2", "--n", "4",
                             "--w", "1,0,0,0", "--sw", "1", "--f", "1")
        assert time.perf_counter() - start < 5
        assert (code, out) == (2, "") and "f not in L_S(W)(V): wrong ambient size" in err

    # The bytes of both L witnesses through ``main``: the pseudo-inverse,
    # then the invertible witness.  A line W (CI's console-script case); a
    # plane W that meets R(f) in a line, neither 0 nor W; W = 0, where the
    # witnesses differ from the oracle's partners; and W = V, where each
    # witness is the partner in S(W), here the inverse of an element of
    # order 3.
    @pytest.mark.parametrize("flags, witnesses", [
        (["--p", "2", "--n", "3", "--w", "1,0,0", "--sw", "1", "--f", "1,0,0;0,0,1;0,0,0"],
         ["1,0,0;0,0,0;0,1,0", "1,0,0;0,0,1;0,1,0"]),
        (["--p", "2", "--n", "3", "--w", "1,0,0;0,1,0", "--gens", "0,1;1,0|1,1;0,1|1,0;0,0",
          "--f", "1,0,0;0,0,0;0,0,1"],
         ["1,0,0;0,0,0;0,0,1", "1,1,0;0,1,0;0,0,1"]),
        (["--p", "2", "--n", "3", "--w", "", "--sw", "", "--f", "1,1,0;0,0,1;0,0,0"],
         ["0,0,0;1,0,0;0,1,0", "0,0,1;1,0,1;0,1,0"]),
        (["--p", "2", "--n", "2", "--w", "1,0;0,1", "--gens", "0,1;1,1", "--f", "0,1;1,1"],
         ["1,1;1,0", "1,1;1,0"]),
    ], ids=["line", "plane-meeting-R(f)-in-a-line", "W=0", "W=V"])
    def test_linear_witness_bytes(self, capsys, flags, witnesses):
        code, out, _ = run(capsys, "element", "--kind", "l", *flags, "--format", "json")
        results = json.loads(out)["results"]
        assert code == 0 and [r["mode"] for r in results] == ["regular", "unit_regular"]
        assert [r["theorem_witness"] for r in results] == witnesses


class TestSweep:
    @pytest.mark.parametrize("flags", [
        ["--kind", "t", "--ns", "-1"],
        ["--kind", "t", "--ns", "3", "--sizes", "-2"],
        ["--kind", "l", "--pn", "2,-1"],
        ["--kind", "t", "--ns", "2", "--source", "seeded", "--samples", "-1"],
        # negative caps: -1 would switch element checks off or skip every build
        ["--kind", "t", "--ns", "2", "--element-cap", "-1"],
    ])
    def test_negative_sizes_refused(self, capsys, flags):
        code, out, err = run(capsys, "sweep", *flags, "--format", "text")
        assert code == 2 and not out and "non-negative" in err

    @pytest.mark.parametrize("flags, field", [
        (["--kind", "t", "--ns", "2,2"], "ns"),
        (["--kind", "t", "--ns", "2", "--sizes", "1,1"], "subset_sizes"),
        (["--kind", "l", "--pn", "2,1;2,1"], "pns"),
        # the other family's size field is refused, not dropped
        (["--kind", "t", "--ns", "2", "--pn", "2,1"], "pns"),
        (["--kind", "l", "--pn", "2,1", "--ns", "3"], "ns"),
    ])
    def test_repeated_or_foreign_sizes_refused(self, capsys, flags, field):
        code, out, err = run(capsys, "sweep", *flags, "--format", "text")
        assert code == 2 and out == "" and err.startswith(f"error: plan field '{field}' must be")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("flags", [
        ["--kind", "t", "--ns", "0"],
        ["--kind", "t", "--ns", "2", "--source", "seeded", "--samples", "0"],
        ["--kind", "t", "--ns", "3", "--sizes", "5"],
        ["--kind", "l", "--pn", "2,2", "--sizes", "3"],
        ["--input", "empty-plan.json"],
    ])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_plan_selecting_no_instance_refused(self, capsys, tmp_path, monkeypatch,
                                                flags, fmt):
        # a sweep that runs nothing must not read as clean
        monkeypatch.chdir(tmp_path)
        (tmp_path / "empty-plan.json").write_text(
            json.dumps({"family": "transformation", "ns": []}))
        code, out, err = run(capsys, "sweep", *flags, "--format", fmt)
        assert (code, out, err) == (2, "", "error: the plan selects no instance\n")

    @pytest.mark.parametrize("key, value", [("modez", ["inverse"]), ("element_capp", 0)])
    def test_plan_file_with_an_unknown_key_refused(self, capsys, tmp_path, key, value):
        # a misspelled field is refused, not dropped for its default
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"family": "transformation", "ns": [2], key: value}))
        code, out, err = run(capsys, "sweep", "--input", str(path), "--format", "text")
        assert code == 2 and out == "" and err.startswith(f'error: unknown plan key "{key}" ')
        assert err.count("\n") == 1

    def test_explicit_empty_y(self, capsys):
        # T sweeps take |Y| = 0 when asked, as L sweeps take dim W = 0
        code, out, _ = run(capsys, "sweep", "--kind", "t", "--ns", "2", "--sizes", "0",
                           "--format", "json")
        report = json.loads(out)
        assert code == 0 and report["instances_run"] == 1 and not report["mismatches"]
        assert report["element_checks"] == {"regular": 4, "unit_regular": 4}

    def test_inline_sweep_clean(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--kind", "t", "--ns", "1,2", "--sizes", "1,2",
            "--source", "exhaustive", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["instances_run"] > 0 and data["mismatches"] == []

    def test_plan_file_round_trip(self, capsys, tmp_path):
        from resemi.sweep import SweepPlan, SweepReport

        plan = SweepPlan(family="linear", pns=((2, 1),), source=("exhaustive",),
                         modes=("regular", "inverse"))
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_dict()))
        code, out, _ = run(capsys, "sweep", "--input", str(path), "--format", "json")
        assert code == 0
        report = SweepReport.from_dict(json.loads(out))
        assert report.plan == plan.to_dict()

    def test_text_summary(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--kind", "t", "--ns", "2", "--source", "exhaustive",
            "--format", "text",
        )
        assert code == 0
        assert "instances run:" in out and "mismatches: 0" in out


class TestDisagreementExitCode:
    def test_classify_flags_disagreement(self, capsys, monkeypatch):
        # force the oracle to contradict the predicate: the disagreement must
        # be rendered prominently and flip the exit code
        import resemi.cli as cli_mod
        from resemi.semigroups import PropertyVerdict

        real = cli_mod.semigroup_oracle
        monkeypatch.setattr(
            cli_mod, "semigroup_oracle",
            lambda s, mode: PropertyVerdict(mode, not real(s, mode).holds),
        )
        code, out, _ = run(
            capsys, "classify", "--kind", "t", "--n", "3", "--y", "0,1",
            "--sy", "0,1;1,0", "--mode", "regular",
        )
        assert code == 4 and "DISAGREEMENT" in out


class TestConsoleEntry:
    def test_module_invocation(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "resemi.cli", "build", "--kind", "t", "--n", "2",
             "--y", "0", "--sy", "0", "--format", "json"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["size"] == 2


class TestInputFile:
    def test_instance_json(self, capsys, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(
            {"kind": "linear", "p": 2, "n": 2, "W": [[1, 0]], "sW": {"elements": [[[1]]]}}
        ))
        code, out, _ = run(capsys, "classify", "--input", str(path), "--format", "json")
        assert code == 0
        data = json.loads(out)
        modes = {r["mode"]: r for r in data["results"]}
        assert modes["completely_regular"]["theorem"] is True

    def test_input_and_inline_are_exclusive(self, capsys, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text("{}")
        code, _, err = run(capsys, "classify", "--input", str(path), "--kind", "t")
        assert code == 2 and "mutually exclusive" in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, _ = run(capsys, "classify", "--input", str(path))
        assert code == 2

    @pytest.mark.parametrize("command", ["classify", "sweep"])
    def test_deeply_nested_json(self, capsys, tmp_path, command):
        # past the decoder's recursion limit: one error line, not a traceback
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--input", str(path))
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (2, "", f"error: {path}: JSON nested too deeply\n")

    @pytest.mark.parametrize("command, text, message", [
        ("classify", '{"kind": "transformation", "n": 2, "Y": %s, "sY": {"elements": [[0]]}}',
         "instance field 'Y' must be a list of integers, not [[[["),
        ("sweep", '{"family": "transformation", "ns": %s}', "plan field 'ns' nests lists too deeply"),
    ])
    def test_nested_field_is_refused_in_one_short_line(self, capsys, tmp_path, command, text,
                                                       message):
        # within the decoder's recursion limit, 900 lists deep: refused by
        # the field's name, and the value quoted in the refusal is cut short
        path = tmp_path / "nested.json"
        path.write_text(text % ("[" * 900 + "]" * 900))
        code, out, err = run(capsys, command, "--input", str(path))
        assert (code, out) == (2, "") and err.startswith(f"error: {message}")
        assert err.count("\n") == 1 and len(err) < 200

    LONG = "x" * 5000
    T2 = ("--kind", "t", "--n", "2", "--y", "0,1", "--sy", "0,1")
    # 3,000 points: the transposition of 0 and 1 and the map fusing them,
    # whose products (the identity among them) are missing
    POINTS = ",".join(map(str, range(2, 3000)))
    UNCLOSED = f"1,0,{POINTS};0,0,{POINTS}"

    @pytest.mark.parametrize("argv, plan, message", [
        (("sweep",), {"family": "transformation", "ns": [2], LONG: 1}, "unknown plan key"),
        (("sweep", "--kind", "t", "--ns", "2", "--mode", LONG), None, "mode"),
        (("classify", *T2, "--mode", LONG), None, "unknown semigroup mode"),
        (("classify", *T2, "--mode", LONG, "--mode", LONG), None, "--mode must name distinct"),
        (("classify", "--kind", "t", "--n", "1", "--y", ",".join(["0"] * 20_000), "--sy", "0"),
         None, "instance field 'Y' must list distinct integers"),
        (("build", "--kind", "t", "--n", "3000", "--y", f"0,1,{POINTS}", "--sy", UNCLOSED),
         None, "not closed under composition"),
    ], ids=["plan-key", "plan-mode", "instance-mode", "repeated-mode", "repeated-y", "unclosed"])
    def test_outside_input_is_quoted_in_one_short_line(self, capsys, tmp_path, argv, plan,
                                                       message):
        # each refusal quotes the value it refuses cut short, however long
        if plan is not None:
            path = tmp_path / "plan.json"
            path.write_text(json.dumps(plan))
            argv = (*argv, "--input", str(path))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith(f"error: {message}")
        assert err.count("\n") == 1 and len(err.encode()) <= 200

    # each row with a text its one error line must hold: the field whose
    # form is wrong, or the kind or plan line where no field is; or None
    @pytest.mark.parametrize("command, data, names", [
        ("classify", {"kind": "transformation", "Y": [0]}, "'n'"),  # no "n"
        ("classify", {"kind": "transformation", "n": 2, "Y": 0, "sY": {"elements": [[0]]}}, "'Y'"),
        ("classify", [{"kind": "transformation"}], KIND_LINE),  # not an object
        ("classify", None, KIND_LINE),
        ("classify", [], KIND_LINE),
        ("classify", {"kind": [[0]]}, KIND_LINE),  # a kind that is not a string
        # non-integer sizes and moduli, which would be truncated
        ("classify", {"kind": "transformation", "n": 3.9, "Y": [0], "sY": {"elements": [[0]]}},
         "'n'"),
        ("classify", {"kind": "transformation", "n": "3", "Y": [0], "sY": {"elements": [[0]]}},
         "'n'"),
        ("classify", {"kind": "transformation", "n": True, "Y": [0], "sY": {"elements": [[0]]}},
         "'n'"),
        ("classify", {"kind": "linear", "p": 2.9, "n": 1, "W": [[1]], "sW": {"elements": [[[1]]]}},
         "'p'"),
        ("classify", {"kind": "linear", "p": 2, "n": True, "W": [[1]],
                      "sW": {"elements": [[[1]]]}}, "'n'"),
        ("classify", {"kind": "linear", "p": "2", "n": 1, "W": [[1]], "sW": {"elements": [[[1]]]}},
         "'p'"),
        # a repeated member of Y, which would be dropped, and a boolean,
        # which would be read as 0 or 1
        ("build", {"kind": "transformation", "n": 3, "Y": [0, 0], "sY": {"elements": [[0]]}},
         "'Y'"),
        ("build", {"kind": "transformation", "n": 3, "Y": [1, 0, 1], "sY": {"elements": [[0]]}},
         "'Y'"),
        ("build", {"kind": "transformation", "n": 3, "Y": [True], "sY": {"elements": [[0]]}},
         "'Y'"),
        ("build", {"kind": "transformation", "n": 3, "Y": [0, False], "sY": {"elements": [[0]]}},
         "'Y'"),
        # elements given as inline text, not as lists
        ("build", {"kind": "transformation", "n": 2, "Y": [0], "sY": {"elements": "0,0"}}, "'sY'"),
        ("sweep", {"ns": [2], "source": ["exhaustive"]}, "'family'"),  # plan without "family"
        ("sweep", {"ns": [2]}, "'family'"),
        # a plan that is not an object
        *[("sweep", plan, "plan JSON must be an object") for plan in (5, None, [], "ab")],
        # a family or source that is no name: the field, and the value as JSON text
        ("sweep", {"family": [[0]]}, "plan field 'family' names an unknown family, [[0]]"),
        ("sweep", {"family": "transformation", "ns": [2], "source": [{"n": 0}]},
         'plan field \'source\' names an unknown source, [{"n": 0}]'),
        # wrongly typed plan fields
        ("sweep", {"family": "transformation", "ns": 3}, "'ns'"),
        ("sweep", {"family": "transformation", "ns": [2], "subset_sizes": 5}, "'subset_sizes'"),
        ("sweep", {"family": "linear", "pns": [2]}, "'pns'"),
        # negative sizes and counts, which would run nothing and read clean
        ("sweep", {"family": "transformation", "ns": [-1]}, "'ns'"),
        ("sweep", {"family": "transformation", "ns": [3], "subset_sizes": [-2]}, "'subset_sizes'"),
        ("sweep", {"family": "linear", "pns": [[2, -1]]}, "'pns'"),
        ("sweep", {"family": "transformation", "ns": [2], "source": ["seeded", -1, "0"]}, None),
        ("sweep", {"family": "transformation", "ns": [2], "element_cap": -1}, "'element_cap'"),
        # a repeated mode, which would count every semigroup check twice
        ("sweep", {"family": "transformation", "ns": [2], "modes": ["regular", "regular"]},
         "'modes'"),
        # a boolean seed, which would be read as True
        ("sweep", {"family": "transformation", "ns": [2], "source": ["seeded", 3, True]}, None),
        # a boolean inside S(Y), W or S(W), which would be read as 0 or 1
        ("build", {"kind": "transformation", "n": 2, "Y": [0], "sY": {"elements": [[False]]}},
         "'sY'"),
        ("build", {"kind": "transformation", "n": 2, "Y": [0], "sY": {"generators": [[False]]}},
         "'sY'"),
        ("build", {"kind": "linear", "p": 2, "n": 2, "W": [[True, False]],
                   "sW": {"elements": [[[1]]]}}, "'W'"),
        ("build", {"kind": "linear", "p": 2, "n": 2, "W": [[1, 0]], "sW": {"elements": [[[True]]]}},
         "'sW'"),
        # a flag the command ignores: build has no oracle and no modes
        *[(f"build {flag}", {"kind": "transformation", "n": 2, "Y": [0], "sY": {"elements": [[0]]}},
           None) for flag in ("--mode regular", "--no-oracle")],
        # an inline plan flag next to a plan file, which would be ignored
        *[(f"sweep {flag}", {"family": "transformation", "ns": [2]}, None)
          for flag in ("--mode regular", "--source exhaustive", "--samples 5", "--seed 1",
                       "--element-cap 10")],
        # --samples or --seed without a seeded source (no input file)
        ("sweep --kind t --ns 2 --samples 5", MISSING, None),
        ("sweep --kind t --ns 2 --seed 1", MISSING, None),
    ])
    def test_malformed_shape_is_validation_error(self, capsys, tmp_path, command, data, names):
        argv = command.split()
        if data is not MISSING:
            path = tmp_path / "input.json"
            path.write_text(json.dumps(data))
            argv += ["--input", str(path)]
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error: ")
        assert err.count("\n") == 1 and not EXCEPTION_REPR.search(err)
        assert names is None or names in err

    @pytest.mark.parametrize("command, data, message", [
        ("build", {"n": 2, "Y": [0], "sY": {"elements": [[0]]}},
         'instance JSON needs "kind": "transformation" or "linear"'),
        ("build --n 2 --y 0 --sy 0", None, "--kind t|l (or --input) is required"),
        ("sweep --ns 2", None, "sweep needs --kind t|l or --input plan.json"),
        ("build", {"kind": "transformation", "n": 2, "Y": [0], "sY": {}},
         "neither elements nor generators given"),
        ("build", {"kind": "transformation", "n": 2, "Y": [0], "sY": {"generators": []}},
         "at least one generator required"),
    ], ids=["no-kind-json", "no-kind-inline", "sweep-no-kind", "empty-sy", "no-generators"])
    def test_missing_kind_or_s_refused(self, capsys, tmp_path, command, data, message):
        argv = command.split()
        if data is not None:
            path = tmp_path / "input.json"
            path.write_text(json.dumps(data))
            argv += ["--input", str(path)]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")


    def test_report_instance_key_is_refused_by_field(self, capsys, tmp_path):
        # a sweep report names an instance by its key, whose sY lists element
        # texts, not the {"elements" | "generators": [...]} block a file holds
        code, out, _ = run(capsys, "sweep", "--kind", "t", "--ns", "6", "--sizes", "1")
        assert code == 3
        path = tmp_path / "key.json"
        path.write_text(json.dumps(json.loads(out)["skipped"][0]["instance"]))
        code, out, err = run(capsys, "classify", "--input", str(path))
        assert (code, out) == (2, "") and err.count("\n") == 1 and "'sY'" in err

    @pytest.mark.parametrize("cls, data", [
        (TInstance, {"kind": "transformation", "n": 2, "Y": [0], "sY": {"elements": [[0]]}}),
        (LInstance, {"kind": "linear", "p": 2, "n": 1, "W": [[1]], "sW": {"elements": [[[1]]]}}),
    ], ids=["t", "l"])
    def test_internal_error_while_loading_is_not_a_validation_error(
            self, tmp_path, monkeypatch, cls, data):
        # only the declared shape decides exit 2: an error raised inside the
        # loader of a well-formed file surfaces as the error it is
        def broken(cls, *values):
            raise TypeError("internal")

        monkeypatch.setattr(cls, "from_fields", classmethod(broken))
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(data))
        with pytest.raises(TypeError, match="internal"):
            main(["classify", "--input", str(path)])


# Valid instance and plan files, small enough that every mutant that still
# loads runs in milliseconds, and one value of each JSON type a mutation
# puts in place of a value of another.
VALID_INPUTS = [
    ("classify", {"kind": "transformation", "n": 2, "Y": [0], "sY": {"elements": [[0]]}}),
    ("classify", {"kind": "transformation", "n": 3, "Y": [0, 1], "sY": {"generators": [[1, 0]]}}),
    ("classify", {"kind": "linear", "p": 2, "n": 2, "W": [[1, 0]],
                  "sW": {"elements": [[[1]], [[0]]]}}),
    ("classify", {"kind": "linear", "p": 2, "n": 1, "W": [], "sW": {"generators": [[]]}}),
    ("sweep", {"family": "transformation", "ns": [2], "subset_sizes": [1], "modes": ["regular"],
               "source": ["seeded", 2, "0"], "element_cap": 10}),
    ("sweep", {"family": "linear", "pns": [[2, 1]], "modes": ["regular", "inverse"]}),
]
OTHER_VALUES = [None, True, 0, 0.5, "0", [0], {"n": 0}]


def _json_type(value) -> str:
    """A value's JSON type, an integer apart from other numbers."""
    return "bool" if isinstance(value, bool) else type(value).__name__


def _paths(value, path=()):
    """The path of every value in a JSON document, the root's first."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) \
        if isinstance(value, list) else ()
    for key, v in items:
        yield from _paths(v, path + (key,))


@st.composite
def mutated_inputs(draw):
    """A valid input with one mutation: the value at one path (the whole
    document at the root) replaced by one of another JSON type, or one key
    dropped; with the command, the path and the new value (``MISSING``
    for a dropped key)."""
    command, doc = draw(st.sampled_from(VALID_INPUTS))
    doc = json.loads(json.dumps(doc))
    path = draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return command, draw(st.sampled_from(OTHER_VALUES)), path, None
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    new = draw(st.sampled_from([v for v in OTHER_VALUES if _json_type(v) != _json_type(old)]))
    if isinstance(path[-1], str) and draw(st.booleans()):
        del parent[path[-1]]
        return command, doc, path, MISSING
    parent[path[-1]] = new
    return command, doc, path, new


@settings(max_examples=250, derandomize=True, database=None, deadline=None)
@given(mutated_inputs())
def test_mutated_input_files_are_refused_by_field(tmp_path_factory, mutant):
    # whatever one mutation makes of a valid file, main answers with an
    # exit code, and a refusal is one line from the declared shapes, never
    # a Python exception's repr; one that breaks an instance field's form
    # (drops it, or retypes it or a value inside it; a null or dropped
    # "elements" or "generators" is read as not given) names the field
    command, doc, path, new = mutant
    file = tmp_path_factory.mktemp("mutant") / "input.json"
    file.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command, "--input", str(file)])
    assert code in (0, 2, 3, 4)
    err = err.getvalue()
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not EXCEPTION_REPR.search(err)
    if command == "classify" and path and path[0] != "kind":  # kind intact, so fields known
        fields = family_class(doc["kind"]).FIELDS
        not_given = len(path) == 2 and path[0] == fields[-1][0] and new in (None, MISSING)
        if path[0] in dict(fields) and not not_given:
            assert code == 2 and repr(path[0]) in err


def _grammar_texts(digits: str, max_size: int):
    """Texts over the inline grammar's alphabet: any string of it, or
    ';'-separated comma lists of single digits, which parse."""
    lists = st.lists(st.sampled_from(digits), min_size=1, max_size=3).map(",".join)
    return (st.text(alphabet=digits + ",;|- ", max_size=max_size)
            | st.lists(lists, max_size=3).map(";".join))


# Instances stay small (n <= 3, p in {2, 3, 4}) and sweeps stay over
# n <= 2: every number in a plan flag is one digit 0..2.
GRAMMAR_TEXT = _grammar_texts("0123", 8)
PLAN_TEXT = _grammar_texts("012", 7).map(
    lambda text: re.sub(r"\d{2,}", lambda m: m.group()[-1], text))


@st.composite
def inline_argv(draw):
    command = draw(st.sampled_from(["build", "classify", "element", "sweep"]))
    kind = draw(st.sampled_from(["t", "l"]))
    argv = [command, "--kind", kind]
    if command == "sweep":
        texts, flags = PLAN_TEXT, ["--ns", "--pn", "--sizes"]
    else:
        texts, flags = GRAMMAR_TEXT, ["--y", "--sy"] if kind == "t" else ["--w", "--sw"]
        flags += ["--gens", "--f"] if command == "element" else ["--gens"]
        argv += ["--n", str(draw(st.integers(0, 3)))]
        if kind == "l":
            argv += ["--p", str(draw(st.sampled_from([2, 3, 4])))]
    for flag in flags:
        text = draw(st.none() | texts)
        if text is not None:
            argv.append(f"{flag}={text}")  # '=' keeps a leading '-' a value
    return argv


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(inline_argv())
def test_grammar_fuzz_never_raises(argv):
    # one parser reads every inline text: malformed input exits 2, never a
    # traceback
    assert main(argv) in (0, 2, 3, 4)


@pytest.mark.parametrize("flag", ["--sw=--", "--gens=--", "--mode=--"])
def test_double_dash_value_refused(capsys, flag):
    # argparse reads "--flag=--" as an empty list, which no command expects
    code, out, err = run(capsys, "classify", *L_FLAGS, flag)
    assert (code, out) == (2, "") and "'--'" in err


T_FLAGS = ["--kind", "t", "--n", "3", "--y", "0,1", "--sy", "0,1;1,0"]
L_FLAGS = ["--kind", "l", "--p", "2", "--n", "2", "--w", "1,0", "--sw", "1|0"]
T_KEY = {"Y": [0, 1], "kind": "transformation", "n": 3, "sY": ["0,1", "1,0"]}
L_KEY = {"W": [[1, 0]], "kind": "linear", "n": 2, "p": 2, "sW": ["0", "1"]}


@pytest.mark.parametrize("argv", [
    ["element", *T_FLAGS, "--f", "0,a,1"],
    ["element", *T_FLAGS, "--f", "a"],
    ["element", *L_FLAGS, "--f", "1,0;a,1"],
    ["build", "--kind", "t", "--n", "3", "--y", "0,a", "--sy", "0,1"],
    ["classify", "--kind", "t", "--n", "3", "--y", "a", "--gens", "0"],
    ["sweep", "--kind", "t", "--ns", "1,a"],
    ["sweep", "--kind", "t", "--ns", "a", "--format", "text"],
], ids=["f-t", "f-t-alone", "f-l", "y", "y-alone", "ns", "ns-alone"])
def test_a_part_that_is_not_an_integer_is_refused_by_its_text(capsys, argv):
    assert run(capsys, *argv) == (2, "", 'error: not an integer: "a"\n')


def _result(mode, clause, theorem, oracle_witness, witness_key, witness=None):
    return {"agree": True, "clause": clause, "mode": mode, "oracle": theorem,
            "oracle_witness": oracle_witness, "theorem": theorem, witness_key: witness}


class TestGoldenOutput:
    """Exact stdout of classify and element for one instance per family."""

    GOLDEN = {
        ("classify", "t"): (T_FLAGS, [
            "regular: theorem=True (S(Y) is a subgroup of Sym(Y)), oracle=True",
            "inverse: theorem=False (Y != X and |X| != 2), oracle=False",
            "unit_regular: theorem=True (S(Y) is a subgroup of Sym(Y) and X \\ Y is finite),"
            " oracle=True",
        ], {"build_size": 6, "command": "classify", "instance": T_KEY, "results": [
            _result("regular", "S(Y) is a subgroup of Sym(Y)", True, None, "witness"),
            _result("inverse", "Y != X and |X| != 2", False, ["0,1,0", "0,1,1"], "witness"),
            _result("unit_regular", "S(Y) is a subgroup of Sym(Y) and X \\ Y is finite", True,
                    None, "witness"),
        ]}),
        ("classify", "l"): (L_FLAGS, [
            "regular: theorem=False (neither clause holds), oracle=False",
            "inverse: theorem=False (W != V and dim V != 1), oracle=False",
            "unit_regular: theorem=False (neither clause holds), oracle=False",
            "completely_regular: theorem=False (W != V and the codim-1 clause fails),"
            " oracle=False",
        ], {"build_size": 8, "command": "classify", "instance": L_KEY, "results": [
            _result("regular", "neither clause holds", False, "0,0;1,0", "witness"),
            _result("inverse", "W != V and dim V != 1", False, "0,0;1,0", "witness"),
            _result("unit_regular", "neither clause holds", False, "0,0;1,0", "witness"),
            _result("completely_regular", "W != V and the codim-1 clause fails", False,
                    "0,0;1,0", "witness"),
        ]}),
        ("element", "t"): (T_FLAGS + ["--f", "0,1,0"], [
            "regular: theorem=True (restriction regular and image trace matches), oracle=True",
            "unit_regular: theorem=True (all three element conditions hold), oracle=True",
        ], {"command": "element", "element": "0,1,0", "instance": T_KEY, "results": [
            _result("regular", "restriction regular and image trace matches", True, "0,1,0",
                    "theorem_witness"),
            _result("unit_regular", "all three element conditions hold", True, "0,1,2",
                    "theorem_witness", "0,1,2"),
        ]}),
        ("element", "l"): (L_FLAGS + ["--f", "1,0;1,0"], [
            "regular: theorem=True (restriction regular and image trace matches), oracle=True",
            "unit_regular: theorem=True (all three element conditions hold), oracle=True",
        ], {"command": "element", "element": "1,0;1,0", "instance": L_KEY, "results": [
            _result("regular", "restriction regular and image trace matches", True, "1,0;0,0",
                    "theorem_witness", "1,0;0,0"),
            _result("unit_regular", "all three element conditions hold", True, "1,0;0,1",
                    "theorem_witness", "1,0;0,1"),
        ]}),
    }

    @pytest.mark.parametrize("case", list(GOLDEN))
    def test_text_and_json(self, capsys, case):
        command, _ = case
        flags, lines, data = self.GOLDEN[case]
        code, out, _ = run(capsys, command, *flags, "--format", "text")
        assert code == 0 and out == "".join(line + "\n" for line in lines)
        code, out, _ = run(capsys, command, *flags, "--format", "json")
        assert code == 0 and out == json.dumps(data, sort_keys=True, indent=2) + "\n"


# Argument lists that parse, and lists that a command's flags refuse: each
# command's own parser must read them as the full parser does.
VALIDATION_ARGV = [
    ["build", "--kind", "t", "--n", "3"],
    ["build", "--kind", "t", "--n", "3", "--y", "0,0", "--sy", "0"],
    ["classify", "--kind", "t", "--n", "3", "--y", "0,1", "--gens", "1,0", "--sy", "0,0"],
    ["build", "--kind", "l", "--p", "2", "--n", "2", "--w", "1,0", "--gens", "1", "--sw", "0"],
    ["classify", *L_FLAGS, "--mode", "regular", "--mode", "regular"],
    ["element", *T_FLAGS, "--f", "0,1,0", "--mode", "bogus", "--no-oracle"],
    ["element", *L_FLAGS, "--f=--"],
    ["classify", "--input", "inst.json", "--kind", "t"],
    ["sweep", "--kind", "t", "--ns", "-1", "--format", "text"],
    ["sweep", "--kind", "t", "--ns", "2", "--source", "seeded", "--samples", "0", "--seed", "7"],
    ["sweep", "--kind", "l", "--pn", "2,1;2,1", "--mode", "inverse", "--element-cap", "0"],
    ["sweep", "--input", "plan.json"],
    ["sweep"],
    # usage errors: a flag the command does not take, a missing value, a
    # value outside its choices, a value of the wrong type
    ["build", *T_FLAGS, "--mode", "regular"],
    ["build", *T_FLAGS, "--size-cap", "2"],
    ["classify", "--kind"],
    ["element", "--kind", "x"],
    ["classify", "--n", "two"],
    ["sweep", "--kind", "x"],
    ["sweep", "--samples", "x"],
    ["sweep", "--f", "0"],
    ["build", "classify"],
]


def _parsed(parser, argv):
    """The namespace ``parser`` reads from ``argv``, or its error text."""
    try:
        return parser.parse_args(argv)
    except ValueError as exc:
        return f"error: {exc}"


def _declined_or_equal(argv):
    """Asserts that the plain reading of ``argv`` declines it or reads the
    namespace that the command's argparse parser reads; returns the plain
    reading."""
    command, rest = argv[0], argv[1:]
    read = cli._read_plain(command, rest)
    if read is not None:
        parsed = _parsed(build_parser(command), rest)
        assert not isinstance(parsed, str), (argv, parsed)
        assert vars(read) == vars(parsed)
    return read


HELP = """\
usage: resemi [-h] {build,classify,element,sweep} ...

Build and classify semigroups of (linear) transformations constrained by their restriction to an invariant subset/subspace.

positional arguments:
  {build,classify,element,sweep}

options:
  -h, --help            show this help message and exit

inline grammar:
  transformation   comma list of images, e.g. "0,0,1" (2 maps to 1);
                   several elements separated by ';'   -> --sy "0,1;1,0";
                   with an empty --y, "" is the empty map -> --sy ""
  matrix           ';'-separated rows of ',' entries, e.g. "1,0;1,1";
                   several elements separated by '|'   -> --sw "1|0"
  subspace         ';'-separated spanning rows          -> --w "1,0;0,1"
exit codes: 0 ok, 2 validation error, 3 work past a stated bound, 4 disagreement/mismatch
"""

BUILD_HELP = """\
usage: resemi build [-h] [--input INPUT] [--kind {t,l}] [--n N] [--y Y]
                    [--sy SY] [--p P] [--w W] [--sw SW] [--gens GENS]
                    [--format {text,json}]

options:
  -h, --help            show this help message and exit
  --input INPUT         instance JSON file (exclusive with inline flags)
  --kind {t,l}          t: transformations, l: linear maps
  --n N                 ambient size (|X| or dim V)
  --y Y                 subset Y as comma list, e.g. 0,1
  --sy SY               S(Y) elements, ';'-separated transformations
  --p P                 prime modulus
  --w W                 subspace W as ';'-separated spanning rows
  --sw SW               S(W) elements, '|'-separated matrices
  --gens GENS           generators instead of elements (closure is applied)
  --format {text,json}
"""


class TestParserPerCommand:
    """``main`` builds only the named command's flat parser and reads the
    arguments after the command's name with it; what it reads, prints and
    refuses is what the full parser would."""

    @pytest.fixture(autouse=True)
    def _width(self, monkeypatch):
        # help and usage wrap at the terminal width argparse reads
        monkeypatch.setenv("COLUMNS", "80")

    GOLDEN_ARGV = [[command, *flags, "--format", fmt]
                   for (command, _), (flags, _, _) in TestGoldenOutput.GOLDEN.items()
                   for fmt in ("text", "json")]

    @pytest.mark.parametrize("argv", GOLDEN_ARGV + VALIDATION_ARGV)
    def test_command_parser_reads_as_the_full_one(self, argv):
        full = _parsed(build_parser(), argv)
        assert _parsed(build_parser(argv[0]), argv[1:]) == full
        if not isinstance(full, str):
            assert full.command == argv[0]

    @pytest.mark.parametrize("argv", GOLDEN_ARGV)
    def test_plain_reading_reads_every_golden_argv(self, argv):
        assert _declined_or_equal(argv) is not None

    @pytest.mark.parametrize("argv", VALIDATION_ARGV)
    def test_plain_reading_declines_or_reads_as_argparse(self, argv):
        _declined_or_equal(argv)

    def test_full_parser_has_every_command(self):
        assert build_parser().format_usage() == HELP.splitlines()[0] + "\n"
        assert build_parser("sweep").format_usage().startswith("usage: resemi sweep [-h] ")

    @pytest.mark.parametrize("argv, err", [
        ([], "error: the following arguments are required: command\n"),
        (["bogus"], "error: argument command: invalid choice: 'bogus' (choose from "
                    f"{choices_shown('build', 'classify', 'element', 'sweep')})\n"),
        (["build", "--bogus"], "error: unrecognized arguments: --bogus\n"),
        (["sweep", "--kind", "x"], "error: argument --kind: invalid choice: 'x' "
                                   f"(choose from {choices_shown('t', 'l')})\n"),
    ])
    def test_usage_errors(self, capsys, argv, err):
        assert run(capsys, *argv) == (2, "", err)

    @pytest.mark.parametrize("argv, text", [(["--help"], HELP), (["build", "--help"], BUILD_HELP)])
    def test_help_text(self, capsys, argv, text):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 0 and capsys.readouterr().out == text

    @pytest.mark.parametrize("command", ["build", "classify", "element", "sweep"])
    def test_command_help_is_the_full_parsers(self, capsys, command):
        texts = []
        for parse in (main, build_parser().parse_args):
            with pytest.raises(SystemExit):
                parse([command, "--help"])
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1] and texts[0].startswith(f"usage: resemi {command} ")


# Values for the plain reading's fuzz: empty, negative, the separator, not
# an int, ints, an inline text, a mode, and none of any flag's choices.
PLAIN_VALUES = ["", "-1", "--", "x", "0", "3", "0,1", "regular", "bogus"]


@st.composite
def flag_table_argv(draw):
    """A command and arguments drawn from its flags in ``cli._COMMANDS``:
    flags given as ``flag value`` or ``flag=value`` (a store-true flag
    bare), repeated or not, each value one that fits the flag (one of its
    choices, an int, an inline text) three times in four and one of
    ``PLAIN_VALUES`` or any flag's choices otherwise; then up to two odd
    tokens put anywhere: a flag bare (so also a trailing flag with no
    value), an abbreviation, an unknown flag, a store-true flag with a
    value, or a stray value."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    flags = cli._COMMANDS[command][1]
    names = [flag for flag, *_ in flags]
    choices = sorted({choice for _, _, among, *_ in flags for choice in among or ()})
    any_value = st.sampled_from(PLAIN_VALUES + choices)
    argv = []
    for flag, read, among, action, _, _ in draw(st.lists(st.sampled_from(flags), max_size=6)):
        if action == "store_true":
            argv.append(flag)
            continue
        fits = st.sampled_from(sorted(among) if among else
                               ["0", "3"] if read is int else ["", "0,1", "regular"])
        value = draw(st.one_of(fits, fits, fits, any_value))
        argv += draw(st.sampled_from([[flag, value], [f"{flag}={value}"]]))
    abbreviated = st.sampled_from([f for f in names if len(f) > 4]).flatmap(
        lambda f: st.integers(3, len(f) - 1).map(lambda k: f[:k]))
    unknown = st.sampled_from(["--bogus", "--size-cap", "-n", "--no-oracle=x"])
    for token in draw(st.lists(st.sampled_from(names) | abbreviated | unknown | any_value,
                               max_size=2)):
        argv.insert(draw(st.integers(0, len(argv))), token)
    return [command, *argv]


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(flag_table_argv())
def test_fuzzed_argv_is_declined_or_read_as_argparse(argv):
    _declined_or_equal(argv)
