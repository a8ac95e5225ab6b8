import argparse
import codecs
import importlib
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from ctxtree import CStree, Dataset, StateSpace, random_cstree, sample, write_csv
from ctxtree.cli import _build_parser, main
from oracles import csv_module_write_csv

cli_module = importlib.import_module("ctxtree.cli")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_count_only(capsys):
    code, out, _ = run(capsys, "enumerate", "--cards", "2,2", "--beta", "2", "--count-only")
    assert code == 0
    assert out.strip() == "8"


def test_enumerate_listing(capsys):
    code, out, _ = run(capsys, "enumerate", "--cards", "2,2", "--beta", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 8
    parsed = [json.loads(line) for line in lines]
    assert parsed[0] == [{}]
    assert all(isinstance(entry, list) for entry in parsed)
    assert len({line for line in lines}) == 8


def test_enumerate_usable_restriction(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--cards", "2,2,2", "--usable", "0", "--count-only"
    )
    assert code == 0
    assert out.strip() == "2"
    code, out, err = run(
        capsys, "enumerate", "--cards", "2,2", "--usable", "0,0", "--count-only"
    )
    assert (code, out) == (2, "")
    assert "distinct" in err


def test_enumerate_beta3_rejected(capsys):
    code, _, err = run(capsys, "enumerate", "--cards", "2,2", "--beta", "3", "--count-only")
    assert code == 2
    assert "beta" in err


def test_usage_error_exit_1(capsys):
    code, _, err = run(capsys, "enumerate", "--no-such-flag")
    assert code == 1
    code, _, _ = run(capsys, "bogus-command")
    assert code == 1
    # learn and score take no --threads flag: the count table is built on one thread
    for command in (("learn", "--out", "m.json"), ("score",)):
        code, _, err = run(capsys, *command, "--data", "d.csv", "--threads", "2")
        assert code == 1
        assert "--threads" in err


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "kl", "--p", "/nonexistent.json", "--q", "/nonexistent.json")
    assert code == 2


def test_generate_sample_learn_kl_pipeline(tmp_path, capsys):
    truth = tmp_path / "truth.json"
    data = tmp_path / "data.csv"
    model = tmp_path / "model.json"
    trace = tmp_path / "trace.tsv"

    code, _, _ = run(
        capsys, "generate", "--cards", "2,2,2,2,2", "--beta", "2", "--seed", "11",
        "--out", str(truth),
    )
    assert code == 0
    code, _, _ = run(
        capsys, "sample", "--model", str(truth), "-n", "4000", "--seed", "12",
        "--out", str(data),
    )
    assert code == 0
    code, _, _ = run(
        capsys, "learn", "--data", str(data), "--beta", "2", "--ess", "1.0",
        "--iterations", "1500", "--burn-in", "300", "--seed", "13",
        "--out", str(model), "--trace", str(trace),
    )
    assert code == 0
    code, out, _ = run(capsys, "kl", "--p", str(truth), "--q", str(model))
    assert code == 0
    kl = float(out.strip())
    assert 0.0 <= kl < 0.5
    assert len(trace.read_text().strip().split("\n")) == 1200

    code, out, _ = run(capsys, "kl", "--p", str(truth), "--q", str(model), "--both-directions")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("pq\t") and lines[1].startswith("qp\t")


def test_kl_self_is_zero(tmp_path, capsys):
    model = tmp_path / "m.json"
    run(capsys, "generate", "--cards", "2,2,2", "--seed", "3", "--out", str(model))
    code, out, _ = run(capsys, "kl", "--p", str(model), "--q", str(model))
    assert code == 0
    assert abs(float(out.strip())) <= 1e-12


def test_kl_rejects_uncovered_outcome(tmp_path, capsys):
    # level 1 has the stage {X0=0} only: refused at load (exit 2), not KL 0
    model = tmp_path / "m.json"
    model.write_text(json.dumps({
        "order": [0, 1],
        "cards": [2, 2],
        "stagings": [
            [{"context": {}, "probs": [0.5, 0.5]}],
            [{"context": {"0": 0}, "probs": [0.3, 0.7]}],
        ],
    }))
    code, out, err = run(capsys, "kl", "--p", str(model), "--q", str(model))
    assert code == 2
    assert out == ""
    assert "level-1 stages cover 1 of the level's 2 outcomes" in err


def model_commands(model, out):
    """Subcommands that load ``model``; those that write a file write ``out``."""
    return {
        "sample": ["sample", "--model", model, "-n", "20", "--seed", "1", "--out", out],
        "kl": ["kl", "--p", model, "--q", model],
        "ldag": ["ldag", "--model", model],
        "ldag-dot": ["ldag", "--model", model, "--dot", out],
    }


@pytest.mark.parametrize("command", ["sample", "kl", "ldag", "ldag-dot"])
def test_non_partition_model_exit_2(tmp_path, capsys, non_partition_doc, command):
    model, out = tmp_path / "m.json", tmp_path / "out"
    model.write_text(json.dumps(non_partition_doc))
    code, stdout, err = run(capsys, *model_commands(str(model), str(out))[command])
    assert code == 2
    assert stdout == ""
    assert not out.exists()
    assert "level-1 stages" in err


@pytest.mark.parametrize("command", ["sample", "kl"])
def test_nan_probs_model_exit_2(tmp_path, capsys, nan_probs_doc, command):
    model, out = tmp_path / "m.json", tmp_path / "out"
    model.write_text(json.dumps(nan_probs_doc))
    code, stdout, err = run(capsys, *model_commands(str(model), str(out))[command])
    assert code == 2
    assert stdout == ""
    assert not out.exists()
    assert "finite" in err


def test_malformed_model_exit_2(tmp_path, capsys, malformed_model_doc):
    model, out = tmp_path / "m.json", tmp_path / "out.csv"
    model.write_text(json.dumps(malformed_model_doc))
    code, stdout, _ = run(capsys, *model_commands(str(model), str(out))["sample"])
    assert code == 2
    assert stdout == ""
    assert not out.exists()


def test_repeated_key_model_exit_2(tmp_path, capsys):
    # json.load alone would keep the last "probs", a valid distribution
    model, out = tmp_path / "m.json", tmp_path / "out.csv"
    model.write_text(
        '{"order": [0], "cards": [2], "stagings": '
        '[[{"context": {}, "probs": [0.5, 0.6], "probs": [0.5, 0.5]}]]}'
    )
    code, stdout, err = run(capsys, *model_commands(str(model), str(out))["sample"])
    assert (code, stdout) == (2, "")
    assert "repeated key 'probs'" in err
    assert not out.exists()


@pytest.mark.parametrize("field", ["order", "cards", "context"])
def test_non_integral_model_exit_2(tmp_path, capsys, field):
    # each non-integer was once truncated, giving a valid model
    stage = {"context": {}, "probs": [0.5, 0.5]}
    doc = {"order": [0, 1], "cards": [2, 2], "stagings": [[stage], [stage]]}
    if field == "context":
        doc["stagings"][1] = [{**stage, "context": {"0": x}} for x in (0, 1.7)]
    else:
        doc[field] = {"order": [0.2, 1.5], "cards": [2.5, 2]}[field]
    model, out = tmp_path / "m.json", tmp_path / "out.csv"
    model.write_text(json.dumps(doc))
    code, stdout, err = run(capsys, *model_commands(str(model), str(out))["sample"])
    assert code == 2
    assert stdout == ""
    assert not out.exists()
    assert "must be an integer" in err


def test_model_roundtrip_byte_identical(tmp_path, capsys):
    model = tmp_path / "m.json"
    run(capsys, "generate", "--cards", "2,3,2", "--seed", "5", "--out", str(model))
    text = model.read_text()
    again = CStree.from_json(model)
    assert again.to_json() + "\n" == text


def test_sample_deterministic(tmp_path, capsys):
    model = tmp_path / "m.json"
    a, b, want = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "want.csv"
    run(capsys, "generate", "--cards", "2,12,3", "--seed", "1", "--out", str(model))
    run(capsys, "sample", "--model", str(model), "-n", "50", "--seed", "9", "--out", str(a))
    run(capsys, "sample", "--model", str(model), "-n", "50", "--seed", "9", "--out", str(b))
    assert a.read_text() == b.read_text()
    # the file is the one the csv module writes for the same draw
    csv_module_write_csv(sample(CStree.from_json(model), 50, np.random.default_rng(9)), want)
    assert a.read_bytes() == want.read_bytes()


def test_seed_echoed_when_absent(tmp_path, capsys):
    model = tmp_path / "m.json"
    code, _, err = run(capsys, "generate", "--cards", "2,2", "--out", str(model))
    assert code == 0
    assert "seed:" in err


def test_ldag_outputs(tmp_path, capsys, four_var_tree_a):
    model = tmp_path / "m.json"
    dot = tmp_path / "g.dot"
    js = tmp_path / "g.json"
    four_var_tree_a.to_json(model)
    code, out, _ = run(capsys, "ldag", "--model", str(model))
    assert code == 0
    assert "digraph" in out
    code, _, _ = run(capsys, "ldag", "--model", str(model), "--dot", str(dot), "--json", str(js))
    assert code == 0
    assert '0 -> 3 [label="(0,1),(*,0)"]' in dot.read_text()
    doc = json.loads(js.read_text())
    assert doc["p"] == 4


def test_ldag_rejects_name_dot_cannot_quote(tmp_path, capsys, four_var_tree_a):
    model = tmp_path / "m.json"
    doc = four_var_tree_a.to_json_dict()
    doc["names"] = ["a", "b", "c", "d\\"]
    with open(model, "w") as fh:
        json.dump(doc, fh)
    code, out, err = run(capsys, "ldag", "--model", str(model))
    assert (code, out) == (2, "")
    assert "ends in a backslash" in err


def test_ldag_dot_quotes_keywords_and_rejects_equal_names(tmp_path, capsys, four_var_tree_a):
    model, dot, js = tmp_path / "m.json", tmp_path / "g.dot", tmp_path / "g.json"
    doc = four_var_tree_a.to_json_dict()
    doc["names"] = ["node", "Edge", "c", "d"]
    model.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "ldag", "--model", str(model))
    assert code == 0
    assert '  "node";\n  "Edge";\n' in out and '"node" -> d' in out
    doc["names"] = ["a", "b", "a", "d"]
    model.write_text(json.dumps(doc))
    for argv in (["--dot", str(dot)], [], ["--dot", str(dot), "--json", str(js)]):
        code, out, err = run(capsys, "ldag", "--model", str(model), *argv)
        assert (code, out) == (2, "")
        assert "variables 0 and 2 have the same DOT node id a" in err
        assert not dot.exists() and not js.exists()
    # the JSON export names variables by index, so equal names do not matter
    code, out, _ = run(capsys, "ldag", "--model", str(model), "--json", str(js))
    assert (code, out) == (0, "")
    assert json.loads(js.read_text())["names"] == ["a", "b", "a", "d"]


def test_learn_skips_byte_order_mark(tmp_path, capsys):
    rng = np.random.default_rng(5)
    plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
    write_csv(sample(random_cstree(StateSpace([2, 2, 3]), 2, rng), 200, rng), plain)
    marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
    models = []
    for path in (plain, marked):
        out = tmp_path / f"{path.stem}.json"
        argv = ["learn", "--data", str(path), "--iterations", "50", "--seed", "1", "--out", str(out)]
        assert run(capsys, *argv)[0] == 0
        models.append(out.read_text())
    assert models[0] == models[1]
    assert json.loads(models[1])["names"] == ["X0", "X1", "X2"]


def test_score_subcommand(tmp_path, capsys):
    rng = np.random.default_rng(0)
    truth = random_cstree(StateSpace([2, 2, 2]), 2, rng)
    data = sample(truth, 300, rng)
    csv_path = tmp_path / "d.csv"
    write_csv(data, csv_path)
    model = tmp_path / "m.json"
    truth.to_json(model)
    dump = tmp_path / "z.tsv"

    code, out, _ = run(
        capsys, "score", "--data", str(csv_path), "--order", "0,1,2",
        "--dump-scores", str(dump),
    )
    assert code == 0
    assert out.startswith("log_order_score\t")
    float(out.strip().split("\t")[1])
    assert len(dump.read_text().strip().split("\n")) == 27  # 9 contexts x 3 vars

    code, out, _ = run(capsys, "score", "--data", str(csv_path), "--model", str(model))
    assert code == 0
    lines = dict(line.split("\t") for line in out.strip().split("\n"))
    assert set(lines) == {"log_marginal_likelihood", "log_order_score"}

    code, _, _ = run(capsys, "score", "--data", str(csv_path))
    assert code == 2


def test_score_bad_order_exit_2(tmp_path, capsys):
    rng = np.random.default_rng(0)
    data = sample(random_cstree(StateSpace([2, 2, 2]), 2, rng), 50, rng)
    csv_path = tmp_path / "d.csv"
    write_csv(data, csv_path)
    for order in ["0,0,1", "0,1", "0,1,7"]:
        code, out, err = run(capsys, "score", "--data", str(csv_path), "--order", order)
        assert (code, out) == (2, "")
        assert "not a permutation" in err
    code, out, err = run(capsys, "score", "--data", str(csv_path), "--order", "0,x,1")
    assert (code, out) == (2, "")
    assert "bad --order list" in err
    code, out, err = run(capsys, "enumerate", "--cards", "2,2", "--usable", "a", "--count-only")
    assert (code, out) == (2, "")
    assert "bad --usable list" in err


@pytest.mark.parametrize(
    "raw, message",
    [
        (b"a,b\n0,1\n99999999999999999999,0\n1,0\n", "column 'a'"),
        (b"a,b\n0,1\n\xff\xfe,0\n1,0\n", "not UTF-8"),
    ],
)
def test_learn_unreadable_data_exit_2(tmp_path, capsys, raw, message):
    csv_path = tmp_path / "d.csv"
    csv_path.write_bytes(raw)
    out_path = tmp_path / "m.json"
    code, out, err = run(
        capsys, "learn", "--data", str(csv_path), "--cards-row", "auto",
        "--iterations", "10", "--out", str(out_path),
    )
    assert (code, out) == (2, "")
    assert message in err
    assert not out_path.exists()


def test_score_unreadable_header_exit_2(tmp_path, capsys):
    csv_path = tmp_path / "d.csv"
    csv_path.write_bytes(b"a\xff,b\n0,1\n1,0\n")
    code, out, err = run(capsys, "score", "--data", str(csv_path), "--order", "0,1")
    assert (code, out) == (2, "")
    assert "not UTF-8 text" in err


def test_learn_empty_file_exit_2(tmp_path, capsys):
    csv_path = tmp_path / "d.csv"
    csv_path.write_bytes(b"")
    out_path = tmp_path / "m.json"
    code, out, err = run(capsys, "learn", "--data", str(csv_path), "--out", str(out_path))
    assert (code, out) == (2, "")
    assert "empty file" in err
    assert not out_path.exists()


def test_memory_error_exit_3(tmp_path, child_env):
    # the rows asked for pass the address space, so the allocation fails at
    # once and nothing is allocated
    tree = random_cstree(StateSpace([2, 2, 2]), 2, np.random.default_rng(1))
    tree.to_json(tmp_path / "m.json")
    proc = subprocess.run(
        [sys.executable, "-m", "ctxtree.cli", "sample", "--model", str(tmp_path / "m.json"),
         "-n", str(10**14), "--seed", "1", "--out", str(tmp_path / "d.csv")],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("resource error: ")
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "d.csv").exists()


@pytest.mark.parametrize("beta, message", [("-1", "nonnegative"), ("3", "not supported")])
def test_bad_beta_exit_2(tmp_path, capsys, beta, message):
    rng = np.random.default_rng(2)
    csv_path = tmp_path / "d.csv"
    write_csv(sample(random_cstree(StateSpace([2, 2, 2]), 2, rng), 30, rng), csv_path)
    out_path = tmp_path / "m.json"
    for argv in (
        ["learn", "--iterations", "10", "--out", str(out_path)],
        ["score", "--order", "0,1,2"],
    ):
        code, out, err = run(capsys, *argv, "--data", str(csv_path), "--beta", beta)
        assert (code, out) == (2, "")
        assert message in err
    assert not out_path.exists()


@pytest.mark.parametrize("ess", ["inf", "nan", "0"])
def test_bad_ess_exit_2(tmp_path, capsys, recwarn, ess):
    # rejected before the rows are read, so no evidence is computed or warned about
    rng = np.random.default_rng(2)
    csv_path = tmp_path / "d.csv"
    write_csv(sample(random_cstree(StateSpace([2, 2, 2]), 2, rng), 30, rng), csv_path)
    out_path = tmp_path / "m.json"
    code, out, err = run(
        capsys, "learn", "--data", str(csv_path), "--iterations", "10",
        "--ess", ess, "--out", str(out_path),
    )
    assert (code, out) == (2, "")
    assert "ess must be finite and positive" in err
    assert not out_path.exists()
    assert not recwarn.list


def test_resource_cap_exit_3(tmp_path, capsys):
    rng = np.random.default_rng(1)
    rows = rng.integers(0, 2, size=(5, 18))
    from ctxtree import Dataset

    csv_path = tmp_path / "wide.csv"
    write_csv(Dataset(rows, StateSpace([2] * 18)), csv_path)
    code, _, err = run(
        capsys, "learn", "--data", str(csv_path), "--iterations", "10",
        "--burn-in", "1", "--seed", "0", "--out", str(tmp_path / "m.json"),
    )
    assert code == 3
    assert "resource" in err


def test_console_script_version(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "ctxtree.cli", "--version"],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert proc.returncode == 0
    assert "ctxtree" in proc.stdout


def test_resource_cap_checked_before_counting(tmp_path, capsys, monkeypatch):
    # the attribute ``ctxtree.learn`` is the function, so fetch the module
    learn_module = importlib.import_module("ctxtree.learn")

    def no_counting(*args, **kwargs):
        raise AssertionError("build_count_table called before the |K| cap check")

    # learn counts through its own module's name, score through the CLI's
    monkeypatch.setattr(learn_module, "build_count_table", no_counting)
    monkeypatch.setattr(cli_module, "build_count_table", no_counting)
    rng = np.random.default_rng(3)
    csv_path = tmp_path / "wide.csv"
    write_csv(Dataset(rng.integers(0, 2, size=(50, 20)), StateSpace([2] * 20)), csv_path)
    out_path = tmp_path / "m.json"
    for argv in (
        ["learn", "--iterations", "10", "--seed", "0", "--out", str(out_path)],
        ["score", "--order", ",".join(map(str, range(20)))],
    ):
        code, out, err = run(capsys, *argv, "--data", str(csv_path))
        assert (code, out) == (3, "")
        assert "exceeds the cap 16" in err
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["learn", "sample", "generate"])
def test_negative_seed_exit_2(tmp_path, capsys, command):
    model, csv_path, out_path = tmp_path / "m.json", tmp_path / "d.csv", tmp_path / "out"
    run(capsys, "generate", "--cards", "2,2", "--seed", "1", "--out", str(model))
    run(capsys, "sample", "--model", str(model), "-n", "20", "--seed", "1", "--out", str(csv_path))
    argv = {
        "learn": ["learn", "--data", str(csv_path), "--iterations", "10", "--seed", "-1"],
        "sample": ["sample", "--model", str(model), "-n", "5", "--seed", "-2"],
        "generate": ["generate", "--cards", "2,2", "--seed", "-3"],
    }[command]
    code, out, err = run(capsys, *argv, "--out", str(out_path))
    assert (code, out) == (2, "")
    assert "nonnegative" in err
    assert not out_path.exists()


def _subcommand_actions(name):
    parser = _build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {opt: a for a in subs.choices[name]._actions for opt in a.option_strings}


# each flag of `learn` and `score` that sets up the count and score tables,
# with its default and choices
SHARED_FLAGS = {
    "--data": (None, None),
    "--beta": (2, None),
    "--prior": ("bdeu-path", ("bdeu-path", "unit")),
    "--ess": (1.0, None),
    "--possible-parents": (None, None),
    "--cards-row": ("auto", ("auto", "yes", "no")),
}


@pytest.mark.parametrize("flag", SHARED_FLAGS)
def test_learn_and_score_share_flag(flag):
    actions = [_subcommand_actions(name)[flag] for name in ("learn", "score")]
    for action in actions:
        assert (action.default, action.choices) == SHARED_FLAGS[flag]
    fields = [(a.dest, a.type, a.required, a.nargs) for a in actions]
    assert fields[0] == fields[1]


def test_learn_and_score_flag_sets():
    shared = set(SHARED_FLAGS) | {"-h", "--help"}
    assert set(_subcommand_actions("learn")) - shared == {
        "--iterations", "--burn-in", "--thin", "--seed", "--estimator", "--out", "--trace",
    }
    assert set(_subcommand_actions("score")) - shared == {"--order", "--model", "--dump-scores"}


MALFORMED_POSSIBLE_PARENTS = {
    "string-member": {"0": ["x"]},
    "scalar-members": {"0": 5},
    "three-node-edge": {"directed": [[0, 1, 2]]},
    "float-member": {"0": [1.5]},
    "bool-member": {"0": [True]},
    "repeated-key": '{"0": [1], "0": [2]}',
    "leading-zero-key": {"0": [1], "00": [2]},
}


@pytest.mark.parametrize(
    "bad", ["cards-row", *MALFORMED_POSSIBLE_PARENTS], ids=lambda b: b
)
def test_learn_and_score_fail_alike(tmp_path, capsys, bad):
    rng = np.random.default_rng(4)
    csv_path = tmp_path / "d.csv"
    write_csv(sample(random_cstree(StateSpace([2, 2, 2]), 2, rng), 30, rng), csv_path)
    if bad == "cards-row":
        flags, expected = ["--cards-row", "bogus"], 1
    else:
        pp_path = tmp_path / "pp.json"
        doc = MALFORMED_POSSIBLE_PARENTS[bad]
        pp_path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        flags, expected = ["--possible-parents", str(pp_path)], 2
    out_path = tmp_path / "m.json"
    results = [
        run(capsys, *argv, "--data", str(csv_path), *flags)
        for argv in (
            ["learn", "--iterations", "10", "--seed", "0", "--out", str(out_path)],
            ["score", "--order", "0,1,2"],
        )
    ]
    assert results[0] == results[1]
    code, out, err = results[0]
    assert (code, out) == (expected, "")
    assert err
    assert not out_path.exists()


@pytest.mark.parametrize("quoted", [False, True], ids=["plain-header", "quoted-header"])
def test_k_cap_checked_before_rows_are_parsed(tmp_path, capsys, monkeypatch, quoted):
    def no_body(*args, **kwargs):
        raise AssertionError("rows parsed before the |K| cap check")

    monkeypatch.setattr(cli_module, "_parse_csv", no_body)
    names = ",".join(f'"v {j}"' if quoted else f"v{j}" for j in range(20))
    csv_path = tmp_path / "wide.csv"
    csv_path.write_text(names + "\n" + ",".join("0" * 20) + "\n")
    out_path = tmp_path / "m.json"
    for argv in (
        ["learn", "--iterations", "10", "--seed", "0", "--out", str(out_path)],
        ["score", "--order", ",".join(map(str, range(20)))],
    ):
        code, out, err = run(capsys, *argv, "--data", str(csv_path))
        assert (code, out) == (3, "")
        assert "exceeds the cap 16" in err
    assert not out_path.exists()



def test_learn_staging_cap_exit_3(tmp_path, capsys):
    # cards (300, 2, 3, 2, 5, 1000) and |K_i| = 3: a level over all of K_i
    # has far more than 2**24 admissible stagings, so learn stops at once
    cards = [300, 2, 3, 2, 5, 1000]
    rows = np.random.default_rng(2).integers(0, cards, size=(200, 6))
    csv_path, pp_path, out_path = tmp_path / "d.csv", tmp_path / "pp.json", tmp_path / "m.json"
    write_csv(Dataset(rows, StateSpace(cards)), csv_path)
    pp_path.write_text(json.dumps({str(i): [(i + 1) % 6, (i + 2) % 6, (i + 3) % 6] for i in range(6)}))
    start = time.perf_counter()
    code, out, err = run(
        capsys, "learn", "--data", str(csv_path), "--possible-parents", str(pp_path),
        "--iterations", "10", "--seed", "0", "--out", str(out_path),
    )
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert f"more than {2**24} admissible stagings" in err
    assert not out_path.exists()


def test_learn_reads_data_from_a_pipe(tmp_path, capsys, child_env):
    # a pipe can be read only once, so the header and the rows must come
    # from one read of the file
    model, csv_path = tmp_path / "m.json", tmp_path / "d.csv"
    run(capsys, "generate", "--cards", "2,3,2", "--seed", "4", "--out", str(model))
    run(capsys, "sample", "--model", str(model), "-n", "200", "--seed", "4", "--out", str(csv_path))
    flags = ["--iterations", "50", "--burn-in", "5", "--seed", "0"]
    from_file, from_pipe = tmp_path / "file.json", tmp_path / "pipe.json"
    assert run(capsys, "learn", "--data", str(csv_path), *flags, "--out", str(from_file))[0] == 0
    proc = subprocess.run(
        [sys.executable, "-m", "ctxtree.cli", "learn", "--data", "/dev/stdin", *flags, "--out", str(from_pipe)],
        input=csv_path.read_bytes(),
        capture_output=True,
        env=child_env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert from_pipe.read_text() == from_file.read_text()
