"""CLI tests: golden stdout and exit codes for every subcommand.

``CASES`` and ``MALFORMED`` are the one list of CLI behaviours.  Each
``CASES`` entry runs ``cli.run(argv)`` in-process and compares stdout byte for
byte with ``tests/golden/<case>.out``; each ``MALFORMED`` entry writes its text
to a file and must exit 1 with nothing on stdout.  Every entry of both also
runs through the entry point, ``python -m doeblin.cli``, in a fresh
interpreter, which must give the same exit code and stdout and no
``Traceback`` on stderr.  A new CLI check is added as a ``CASES`` or
``MALFORMED`` entry, not as a step of the CI workflow.  Exit codes: 0 on
success, 1 on invalid input or an unknown command or flag, 2 on an infeasible
request.  To record the golden files again after a deliberate output change,
run ``PYTHONPATH=src python tests/test_cli.py``.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from doeblin import ValidationError, channel, cli, lp
from doeblin import bayesnet as bn
from helpers import reference_dumps

HERE = Path(__file__).resolve().parent
FIX = HERE / "fixtures"
GOLDEN = HERE / "golden"


def _f(name: str) -> str:
    return str(FIX / name)


# Every non-source node of chain25.json: an output factor of 2 x 2^24 entries.
CHAIN25_ALL = ",".join(f"N{i}" for i in range(1, 25))

# case name -> (argv, expected exit code)
CASES = {
    "coef": (["coef", _f("channel.json")], 0),
    "coef_csv_quad": (["coef", _f("quad.csv")], 0),
    "couple_max": (["couple", "--kind", "max", _f("trio.json")], 0),
    "couple_max_expand": (["couple", "--kind", "max", "--expand", _f("trio.json")], 0),
    "couple_max_expand_past_cap": (["couple", "--kind", "max", "--expand", _f("wide.json")], 0),
    "couple_min": (["couple", "--kind", "min", _f("trio.json")], 0),
    "couple_min_expand": (["couple", "--kind", "min", "--expand", _f("trio.json")], 0),
    "couple_min_supercritical": (["couple", "--kind", "min", _f("sym08.json")], 0),
    "couple_min3_supercritical": (
        ["couple", "--kind", "min", "--expand", _f("sym08.json")],
        0,
    ),
    "couple_joint": (["couple", "--kind", "joint", _f("joints.json")], 0),
    "couple_joint_past_cap": (["couple", "--kind", "joint", _f("joints_past_cap.json")], 0),
    "degroot": (["degroot", "--prior", "[0.5, 0.5]", _f("channel.json")], 0),
    "degroot_id": (["degroot", "--prior", "[0.25, 0.75]", "--loss", "id", _f("channel.json")], 0),
    "bayesnet_all": (["bayesnet", _f("net.json"), "--target", "T"], 0),
    "bayesnet_source_target": (["bayesnet", _f("net.json"), "--target", "X"], 0),
    "bayesnet_two_targets": (["bayesnet", _f("net.json"), "--target", "A,B", "--bound", "sfpaths"], 0),
    "bayesnet_mc": (["bayesnet", _f("net.json"), "--target", "T", "--bound", "perc", "--mc", "200", "7"], 0),
    "bayesnet_past_cap": (["bayesnet", _f("chain25.json"), "--target", "N24", "--bound", "perc"], 0),
    "bayesnet_composite_past_cap": (["bayesnet", _f("chain25.json"), "--target", CHAIN25_ALL], 0),
    "bayesnet_perc_past_cap": (["bayesnet", _f("chain30.json"), "--target", "N29"], 0),
    # A 1,000,000-letter source as target: refused before its factors are allocated.
    "bayesnet_source_past_cap": (["bayesnet", _f("wide_source.json"), "--target", "X"], 0),
    "fuse": (["fuse", _f("beliefs.json")], 0),
    "verify_estimator": (["verify", "--problem", "estimator", _f("channel.json")], 0),
    "verify_estimator_max_witness": (
        ["verify", "--problem", "estimator", "--sense", "max", "--witness", _f("channel.json")],
        0,
    ),
    "verify_diag": (["verify", "--problem", "diag", _f("trio.json")], 0),
    "verify_diag_exact": (["verify", "--problem", "diag", "--exact", _f("trio.json")], 0),
    "verify_diag_exact_zero_tail": (["verify", "--problem", "diag", "--exact", _f("zero_tail.json")], 0),
    "verify_union_witness": (["verify", "--problem", "union", "--witness", _f("sym08.json")], 0),
    "verify_union_open": (["verify", "--problem", "union", _f("quad.csv")], 0),
    "verify_union_max": (["verify", "--problem", "union", "--sense", "max", _f("trio.json")], 0),
    "verify_union_max_witness": (
        ["verify", "--problem", "union", "--sense", "max", "--witness", _f("trio.json")],
        0,
    ),
    "verify_union_exact": (["verify", "--problem", "union", "--exact", _f("trio.json")], 0),
    "verify_estimator_exact_witness": (
        ["verify", "--problem", "estimator", "--exact", "--witness", _f("channel.json")],
        0,
    ),
    "bayesnet_dag200_recursion": (
        ["bayesnet", _f("dag200.json"), "--target", "N198,N199", "--bound", "recursion"],
        0,
    ),
    # More than PATH_CAP shortcut-free paths reach N59 or N60: the path sum
    # becomes a note and the other bounds stay in the report.
    "bayesnet_ladder60_path_cap": (["bayesnet", _f("ladder60.json"), "--target", "N59,N60"], 0),
    # Invalid input, unknown commands and flags exit 1.
    "coef_invalid": (["coef", _f("bad_channel.json")], 1),
    "coef_missing_file": (["coef", _f("no_such_file.json")], 1),
    "unknown_command": (["bogus"], 1),
    "unknown_flag": (["coef", "--bogus", _f("channel.json")], 1),
    "bayesnet_unknown_target": (["bayesnet", _f("net.json"), "--target", "Z"], 1),
    "bayesnet_mc_negative_seed": (
        ["bayesnet", _f("net.json"), "--target", "T", "--bound", "perc", "--mc", "10", "-3"],
        1,
    ),
    "joint_two_files": (["couple", "--kind", "joint", _f("joints.json"), _f("joints.json")], 1),
    # Infeasible requests exit 2.
    "couple_min_open": (["couple", "--kind", "min", _f("quad.csv")], 2),
    "fuse_no_consensus": (["fuse", _f("disjoint.json")], 2),
}


def _net_without_alphabet() -> str:
    net = json.loads((FIX / "net.json").read_text())
    del net["nodes"][1]["alphabet"]
    return json.dumps(net)


def _net_with_null_name() -> str:
    net = json.loads((FIX / "net.json").read_text())
    net["nodes"][3]["name"] = None
    return json.dumps(net)


def _net_with_repeated_parent() -> str:
    net = json.loads((FIX / "net.json").read_text())
    net["nodes"][1]["parents"] = ["X", "X"]
    net["nodes"][1]["cpt"] = [[0.9, 0.1], [0.0, 1.0], [1.0, 0.0], [0.2, 0.8]]
    return json.dumps(net)


def _net_with_boolean_cpt() -> str:
    net = json.loads((FIX / "net.json").read_text())
    net["nodes"][1]["cpt"] = [[True, False], [0.2, 0.8]]
    return json.dumps(net)


JOINT = "[[0.25, 0.25], [0.25, 0.25]]"

# Malformed input text: case name -> (argv with INPUT for the file, file text).
# Every case exits 1 with nothing on stdout.
MALFORMED = {
    "coef_ragged_rows": (["coef", "INPUT"], '{"rows": [[0.5, 0.5], [1.0]]}'),
    "coef_null_entry": (["coef", "INPUT"], '{"rows": [[0.5, null], [0.5, 0.5]]}'),
    "coef_string_entry": (["coef", "INPUT"], '{"rows": [[0.5, "a"], [0.5, 0.5]]}'),
    "coef_numeric_string_entry": (["coef", "INPUT"], '{"rows": [[0.5, "0.5"], [0.5, 0.5]]}'),
    "coef_flat_rows": (["coef", "INPUT"], '{"rows": [0.5, 0.5]}'),
    "coef_scalar_rows": (["coef", "INPUT"], '{"rows": 5}'),
    "coef_nan_entry": (["coef", "INPUT"], '{"rows": [[0.5, NaN], [0.5, 0.5]]}'),
    "coef_tiny_negative": (["coef", "INPUT"], '{"rows": [[1.0, -1e-13], [0.5, 0.5]]}'),
    "coef_csv_ragged": (["coef", "INPUT"], "0.5,0.5\n1.0\n"),
    "coef_scalar_labels": (["coef", "INPUT"], '{"rows": [[0.5, 0.5], [0.2, 0.8]], "output_labels": 3}'),
    "coef_string_labels": (["coef", "INPUT"], '{"rows": [[0.5, 0.5], [0.2, 0.8]], "input_labels": "ab"}'),
    "fuse_deep_nesting": (["fuse", "INPUT"], "[" * 100_000),
    "fuse_string_entry": (["fuse", "INPUT"], '[[0.5, 0.5], [0.5, "a"]]'),
    "fuse_huge_integer": (["fuse", "INPUT"], "[[1%s, 0], [0, 1]]" % ("0" * 400)),
    "fuse_tiny_negative": (["fuse", "INPUT"], '[[1.0, -1e-13], [0.5, 0.5]]'),
    "couple_string_entry": (["couple", "--kind", "max", "INPUT"], '[[0.5, 0.5], ["a", 0.5]]'),
    "verify_string_entry": (["verify", "--problem", "diag", "INPUT"], '[[0.5, 0.5], [0.5, "a"]]'),
    "joint_ragged": (["couple", "--kind", "joint", "INPUT"], '{"joints": [[[0.5, 0.5], [0.0]], %s]}' % JOINT),
    "joint_nan": (["couple", "--kind", "joint", "INPUT"], '{"joints": [[[0.5, NaN], [0.25, 0.25]], %s]}' % JOINT),
    "joint_not_a_list": (["couple", "--kind", "joint", "INPUT"], '{"joints": 3}'),
    "bayesnet_no_alphabet": (["bayesnet", "INPUT", "--target", "T"], _net_without_alphabet()),
    "bayesnet_repeated_parent": (["bayesnet", "INPUT", "--target", "A"], _net_with_repeated_parent()),
    "bayesnet_null_name": (["bayesnet", "INPUT", "--target", "None"], _net_with_null_name()),
    # JSON booleans are not numbers, wherever an array holds them.
    "coef_boolean_rows": (["coef", "INPUT"], '{"rows": [[true, false], [false, true]]}'),
    "coef_boolean_entry": (["coef", "INPUT"], '{"rows": [[true, 0.0], [0.5, 0.5]]}'),
    "degroot_boolean_prior": (
        ["degroot", "--prior", "[true, false]", "INPUT"],
        (FIX / "channel.json").read_text(),
    ),
    "joint_boolean_entry": (["couple", "--kind", "joint", "INPUT"], '{"joints": [[[true, 0], [0, 0]], %s]}' % JOINT),
    "bayesnet_boolean_cpt": (["bayesnet", "INPUT", "--target", "T"], _net_with_boolean_cpt()),
    "fuse_boolean_rows": (["fuse", "INPUT"], "[[true, false], [false, true]]"),
    # 400 x 300: 120,000 estimator variables, past the LP cap.
    "verify_estimator_past_cap": (
        ["verify", "--problem", "estimator", "INPUT"],
        json.dumps([[1.0] + [0.0] * 299] * 400),
    ),
    # Two 316-symbol rows: 99,856 coupling variables, but a 632 x 100,488 tableau.
    "verify_union_past_tableau_cap": (
        ["verify", "--problem", "union", "INPUT"],
        json.dumps([[1 / 316] * 316] * 2),
    ),
    # Two 10,000 x 1 tables: a 1.49 GiB free-factor pool, refused before it is allocated.
    "joint_pool_past_cap": (["couple", "--kind", "joint", "INPUT"], json.dumps({"joints": [[[1e-4]] * 10_000] * 2})),
}


def _invoke(argv):
    """Run the CLI in-process; argparse errors surface as SystemExit."""
    try:
        return cli.run(argv)
    except SystemExit as exc:
        return exc.code


def _run_cli(argv):
    """Run the CLI in a fresh interpreter, as ``python -m doeblin.cli``."""
    env = dict(os.environ)
    src = str(HERE.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    # Every run here takes well under a second; 20 s catches a hang.
    proc = subprocess.run(
        [sys.executable, "-m", "doeblin.cli", *argv], capture_output=True, text=True, env=env, timeout=20
    )
    assert "Traceback" not in proc.stderr, proc.stderr
    return proc


def _malformed_argv(name, tmp_path):
    """MALFORMED[name]'s argv, with its text written to a file in place of INPUT."""
    argv, text = MALFORMED[name]
    path = tmp_path / "input.json"
    path.write_text(text)
    return [str(path) if a == "INPUT" else a for a in argv]


def test_one_golden_per_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, capsys):
    argv, code = CASES[name]
    assert _invoke(argv) == code
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.out").read_text()


@pytest.mark.parametrize("name", sorted(CASES))
def test_entry_point_matches_golden(name):
    argv, code = CASES[name]
    proc = _run_cli(argv)
    assert proc.returncode == code
    assert proc.stdout == (GOLDEN / f"{name}.out").read_text()


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_input_exits_1(name, tmp_path, capsys):
    assert _invoke(_malformed_argv(name, tmp_path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid input:" in captured.err


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_entry_point_malformed_exits_1(name, tmp_path):
    proc = _run_cli(_malformed_argv(name, tmp_path))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "invalid input:" in proc.stderr


def test_entry_point_twenty_marginals():
    # The union-minimal coupling of 20 PMFs: too large for a golden file, so
    # its size and hash are pinned.
    proc = _run_cli(["couple", "--kind", "min", _f("peaked20.json")])
    assert proc.returncode == 0
    out = proc.stdout.encode()
    assert len(out) == 1_332_009
    assert hashlib.sha256(out).hexdigest() == "3ebc1ee7d15eabe68598048ba8cac180e13d3f443a127ac0ba3cf1623534e6c4"


def test_expand_past_cap_notes_skip(capsys):
    assert _invoke(CASES["couple_max_expand_past_cap"][0]) == 0
    captured = capsys.readouterr()
    assert '"expanded"' not in captured.out
    assert "expansion skipped" in captured.err


def test_joint_past_cap_notes_skip(capsys):
    # Six tables on 3 x 4: 12^6 product tuples, past the cap.
    assert _invoke(CASES["couple_joint_past_cap"][0]) == 0
    captured = capsys.readouterr()
    assert "expansion skipped" in captured.err
    coupling = json.loads(captured.out)["coupling"]
    assert "table" not in coupling
    assert [c["glued"] for c in coupling["components"]][0] == list(range(6))


def test_expand_below_cap_has_table(capsys):
    assert _invoke(CASES["couple_max_expand"][0]) == 0
    assert '"expanded"' in capsys.readouterr().out


def test_verify_estimator_exact_has_no_gap(monkeypatch, capsys):
    # --exact pivots in rational arithmetic for the estimator problem too.
    modes = []
    solve = lp.solve

    def recording_solve(problem, exact=False):
        modes.append(exact)
        return solve(problem, exact=exact)

    monkeypatch.setattr(lp, "solve", recording_solve)
    assert _invoke(["verify", "--problem", "estimator", "--exact", _f("channel.json")]) == 0
    assert modes == [True]
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == out["closed_form"] == 0.375
    assert out["gap"] == 0


def test_couple_rows_across_files_match_one_file(tmp_path, capsys):
    # A JSON array and a CSV file holding trio.json's rows between them.
    first = tmp_path / "first.json"
    first.write_text("[[0.5, 0.3, 0.2], [0.2, 0.5, 0.3]]")
    second = tmp_path / "second.csv"
    second.write_text("0.3,0.2,0.5\n")
    assert _invoke(["couple", "--kind", "max", str(first), str(second)]) == 0
    split = capsys.readouterr().out
    assert _invoke(CASES["couple_max"][0]) == 0
    assert split == capsys.readouterr().out


@pytest.mark.parametrize("text", ['{"rows": [0.5, 0.5]}', "[[[0.5, 0.5]]]"])
def test_each_of_several_files_must_hold_a_table(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert _invoke(["fuse", _f("beliefs.json"), str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"invalid input: channel in {bad} must be a nonempty 2-D matrix" in captured.err


def test_coef_and_degroot_read_a_json_array(tmp_path, capsys):
    # One reader: channel.json's rows as a bare JSON array print the same bytes.
    rows = tmp_path / "rows.json"
    rows.write_text(json.dumps(json.loads((FIX / "channel.json").read_text())["rows"]))
    for name in ("coef", "degroot"):
        argv = [str(rows) if a == _f("channel.json") else a for a in CASES[name][0]]
        assert _invoke(argv) == 0
        assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()


def test_each_input_validated_once(monkeypatch, capsys):
    seen = []
    validate = channel._as_prob_vector

    def counting(values, *, what="pmf"):
        seen.append(what)
        return validate(values, what=what)

    # Every module's binding, the names other modules imported included.
    for name, mod in list(sys.modules.items()):
        if name == "doeblin" or name.startswith("doeblin."):
            for attr in [a for a, obj in vars(mod).items() if obj is validate]:
                monkeypatch.setattr(mod, attr, counting)
    assert _invoke(["verify", "--problem", "union", _f("trio.json")]) == 0
    assert seen == ["channel"]
    seen.clear()
    assert _invoke(CASES["couple_max"][0]) == 0
    assert seen == ["channel"]
    seen.clear()
    # All the tables in one call.
    assert _invoke(CASES["couple_joint"][0]) == 0
    assert seen == ["joint distribution"]
    seen.clear()
    assert _invoke(CASES["couple_min_supercritical"][0]) == 0
    assert seen == ["channel"]
    seen.clear()
    # The prior once; the channel once and one estimator kernel per loss.
    assert _invoke(CASES["degroot"][0]) == 0
    assert sorted(seen) == ["channel", "channel", "channel", "pmf"]


def test_joint_two_files_named_in_error(capsys):
    assert _invoke(CASES["joint_two_files"][0]) == 1
    assert "--kind joint reads one file of joints, got 2" in capsys.readouterr().err


def test_bayesnet_repeated_target_counts_once(capsys):
    # The bounds are computed for the target set, so T,T reports as T.
    assert _invoke(["bayesnet", _f("net.json"), "--target", "T, T"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "bayesnet_all.out").read_text()


def test_open_union_regime_notes(capsys):
    assert _invoke(CASES["verify_union_open"][0]) == 0
    assert "no closed form is known" in capsys.readouterr().err


def test_bayesnet_past_cap_notes(capsys):
    # The composite channel and the recursion bound pass the factor cap;
    # the other bounds are still reported.
    assert _invoke(CASES["bayesnet_composite_past_cap"][0]) == 0
    captured = capsys.readouterr()
    assert "exceeds the enumeration cap" in captured.err
    out = json.loads(captured.out)
    assert out["tau"] is None
    assert "factor of more than" in out["bounds"]["recursion"]["note"]
    assert out["bounds"]["percolation"]["method"] == "exact"
    assert out["bounds"]["shortcut_free"]["paths"] == [["N0", "N1"]]


def test_bayesnet_exact_percolation_past_cap_notes(capsys):
    assert _invoke(CASES["bayesnet_perc_past_cap"][0]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["tau"] is not None
    assert "exact percolation supports at most" in out["bounds"]["percolation"]["note"]
    assert set(out["bounds"]) == {"recursion", "percolation", "shortcut_free"}


def test_bayesnet_path_cap_keeps_the_other_bounds(monkeypatch, capsys):
    # 265 shortcut-free paths reach N19 or N20 on the ladder; past the path
    # cap the path sum becomes a note and every other field stays as it was.
    argv = ["bayesnet", _f("ladder60.json"), "--target", "N19,N20"]
    assert _invoke(argv) == 0
    uncapped = json.loads(capsys.readouterr().out)
    assert len(uncapped["bounds"]["shortcut_free"]["paths"]) > 100
    monkeypatch.setattr(bn, "PATH_CAP", 100)
    assert _invoke(argv) == 0
    capped = json.loads(capsys.readouterr().out)
    assert capped["bounds"]["shortcut_free"] == {"note": "more than 100 shortcut-free source-to-target paths"}
    assert capped["bounds"]["percolation"]["method"] == "exact"
    for key in ("target", "tau", "gamma"):
        assert capped[key] == uncapped[key]
    for key in ("recursion", "percolation"):
        assert capped["bounds"][key] == uncapped["bounds"][key]


def test_bayesnet_other_errors_exit_1(monkeypatch, capsys):
    # Only the state cap is reported as a note; any other invalid input fails.
    def broken(net, targets):
        raise ValidationError("broken table")

    monkeypatch.setattr(bn, "composite_channel", broken)
    assert _invoke(CASES["bayesnet_all"][0]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "broken table" in captured.err


def test_bayesnet_repeated_parent_names_the_node(tmp_path, capsys):
    assert _invoke(_malformed_argv("bayesnet_repeated_parent", tmp_path)) == 1
    assert "node A: parents must be distinct" in capsys.readouterr().err


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_bayesnet_mc_nonpositive_samples_exit_1(samples, capsys):
    argv = ["bayesnet", _f("net.json"), "--target", "T", "--bound", "perc", "--mc", samples, "7"]
    assert _invoke(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "positive sample count" in captured.err


def test_bayesnet_mc_negative_seed_names_seed(capsys):
    assert _invoke(CASES["bayesnet_mc_negative_seed"][0]) == 1
    assert "non-negative seed" in capsys.readouterr().err


# -- no raw exception escapes the CLI ------------------------------------------

FIELDS = ["rows", "input_labels", "output_labels", "joints", "nodes", "source", "name", "alphabet", "parents", "cpt"]
LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-2, 3), st.floats(), st.text(max_size=3))
JSON_VALUES = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.sampled_from(FIELDS), inner, max_size=4)
    ),
    max_leaves=12,
)
# Valid tables, so that the fields beside them are reached.
ROWS = st.one_of(st.sampled_from([[[0.5, 0.5], [0.2, 0.8]], [[1, 0], [0, 1]], [[1], [1]]]), JSON_VALUES)
JOINTS = st.one_of(st.sampled_from([[[[0.5, 0], [0, 0.5]], [[0.25, 0.25], [0.25, 0.25]]]]), JSON_VALUES)
# Every subcommand that reads PMFs.  --exact, and bayesnet's --mc below, are
# left out: their run time grows with the drawn table or sample count.
PMF_COMMANDS = [
    ["coef"],
    ["degroot", "--prior", "[0.5, 0.5]"],
    ["couple", "--kind", "max", "--expand"],
    ["couple", "--kind", "min"],
    ["verify", "--problem", "diag", "--witness"],
    ["verify", "--problem", "union", "--sense", "max"],
    ["verify", "--problem", "estimator", "--witness"],
    ["fuse"],
]
NET_FIELDS = [("source",), ("nodes",)] + [
    ("nodes", k, *key) for k in range(4) for key in [(), ("name",), ("alphabet",), ("parents",), ("cpt",)]
]


@st.composite
def cli_inputs(draw):
    """(argv with INPUT for the file, file text) with a drawn value in one input slot."""
    slot = draw(st.sampled_from(["channel", "pmfs", "joints", "prior", "net"]))
    if slot in ("channel", "pmfs"):
        command = draw(st.sampled_from(PMF_COMMANDS))
        if slot == "channel":
            labels = dict.fromkeys(["input_labels", "output_labels"], st.one_of(LEAVES, JSON_VALUES))
            value = draw(st.one_of(st.fixed_dictionaries({"rows": ROWS}, optional=labels), JSON_VALUES))
        else:
            value = draw(st.one_of(ROWS, st.lists(JSON_VALUES, max_size=4)))
        files = ["INPUT"] if command[0] in ("coef", "degroot") else ["INPUT", _f("channel.json")]
        return command + files[: draw(st.integers(1, len(files)))], json.dumps(value)
    if slot == "joints":
        value = draw(st.one_of(JSON_VALUES, st.fixed_dictionaries({"joints": JOINTS})))
        return ["couple", "--kind", "joint", "INPUT"], json.dumps(value)
    if slot == "prior":
        return ["degroot", f"--prior={json.dumps(draw(JSON_VALUES))}", "INPUT"], (FIX / "channel.json").read_text()
    net = json.loads((FIX / "net.json").read_text())
    *path, last = draw(st.sampled_from(NET_FIELDS))
    parent = net
    for key in path:
        parent = parent[key]
    parent[last] = draw(JSON_VALUES)
    return ["bayesnet", "INPUT", "--target", "T"], json.dumps(net)


@settings(max_examples=200, deadline=None)
@example((["coef", "INPUT"], '{"rows": [[0.5, 0.5], [0.2, 0.8]], "output_labels": 3}'))
@given(cli_inputs())
def test_no_raw_exception_escapes(tmp_path_factory, case):
    argv, text = case
    path = tmp_path_factory.getbasetemp() / "fuzz_input.json"
    path.write_text(text)
    assert cli.run([str(path) if a == "INPUT" else a for a in argv]) in (0, 1, 2)


# -- the emitter against its one-call-per-value reference ----------------------


class _Str(str):
    pass


class _List(list):
    pass


class _Float(float):
    pass


TRICKY_STRINGS = [
    '"', "\\", 'a "quoted" \\path\\', "\n\t\r\x00\x1f\x7f", "caf\u00e9", "\u2603 \U0001f600", "\ud800",
]

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1e16, 0.1, -1.5e-300, 123456789.0]),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(np.float32),
    st.floats(allow_nan=False, allow_infinity=False).map(_Float),
    st.text(max_size=24),
    st.sampled_from(TRICKY_STRINGS),
    st.text(max_size=8).map(_Str),
)
KEYS = st.one_of(st.text(max_size=12), st.sampled_from(TRICKY_STRINGS), st.integers(-(10**6), 10**6))
PAYLOADS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=15),
        st.lists(inner, max_size=15).map(tuple),
        st.lists(inner, max_size=4).map(_List),
        st.dictionaries(KEYS, inner, max_size=6),
        st.dictionaries(KEYS, inner, max_size=3).map(OrderedDict),
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(PAYLOADS)
def test_dumps_matches_reference(payload):
    assert cli.dumps(payload) == reference_dumps(payload)


def test_dumps_matches_reference_on_twenty_marginals(monkeypatch):
    emitted = []
    monkeypatch.setattr(cli, "_emit", emitted.append)
    assert cli.run(["couple", "--kind", "min", _f("peaked20.json")]) == 0
    (payload,) = emitted
    text = cli.dumps(payload)
    assert len(text) > 10**6
    assert text == reference_dumps(payload)


@pytest.mark.parametrize(
    "bad",
    [
        float("nan"), float("inf"), -float("inf"), np.float32("nan"), np.float64("-inf"), np.bool_(True), {1},
        pytest.param(_Float("inf"), id="float_subclass_inf"),
    ],
)
@pytest.mark.parametrize(
    "wrap", [lambda x: x, lambda x: [0.5, x], lambda x: {"a": [1, {"b": x}]}, lambda x: (x,)]
)
def test_dumps_refuses_as_reference_does(bad, wrap):
    payload = wrap(bad)
    with pytest.raises((TypeError, ValueError)) as want:
        reference_dumps(payload)
    with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
        cli.dumps(payload)


def test_expansion_cap_flag_rejected(capsys):
    assert _invoke(["--expansion-cap", "5", "coef", _f("channel.json")]) == 1
    assert capsys.readouterr().out == ""


def test_long_chain_path_bound_runs(tmp_path):
    # 1,500 nodes: a recursive path search would pass the recursion limit.
    nodes = [{"name": "N0", "alphabet": 2}] + [
        {"name": f"N{i}", "alphabet": 2, "parents": [f"N{i - 1}"], "cpt": [[0.9, 0.1], [0.2, 0.8]]}
        for i in range(1, 1500)
    ]
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"source": "N0", "nodes": nodes}))
    proc = _run_cli(["bayesnet", str(path), "--target", "N1499", "--bound", "sfpaths"])
    assert proc.returncode == 0
    paths = json.loads(proc.stdout)["bounds"]["shortcut_free"]["paths"]
    assert paths == [[f"N{i}" for i in range(1500)]]


def _record() -> None:
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    for name, (argv, code) in sorted(CASES.items()):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            got = _invoke(argv)
        if got != code:
            raise SystemExit(f"{name}: exit {got}, expected {code}")
        (GOLDEN / f"{name}.out").write_text(buf.getvalue())


if __name__ == "__main__":
    _record()
