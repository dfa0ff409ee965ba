"""CLI: exit codes, byte determinism, file outputs."""

import json

import pytest

from adncount import new_schedule
from adncount.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_star_golden(capsys):
    code, out, _ = run_cli(capsys, "generate", "--family", "star", "--n", "4")
    assert code == 0
    assert json.loads(out) == {"n": 4, "leader": 0, "edges": [[0, 1], [0, 2], [0, 3]]}


def test_generate_is_byte_deterministic(capsys):
    args = ["generate", "--family", "tree", "--n", "5", "--delta", "2", "--seed", "7"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    topo = json.loads(out1)
    assert topo["n"] == 5
    assert len(topo["edges"]) == 4


def test_generate_infeasible_delta_exits_2(capsys):
    code, out, err = run_cli(capsys, "generate", "--family", "tree",
                             "--n", "5", "--delta", "1")
    assert code == 2
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize("argv", [
    ["--family", "gnp", "--n", "1", "--p", "0.5"],
    ["--family", "gnp", "--n", "5", "--p", "1.5"],
    ["--family", "star", "--n", "1"],
    ["--family", "tree", "--n", "5", "--delta", "5"],
])
def test_generate_bad_parameters_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, "generate", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("argv, schedule", [
    (["--family", "tree", "--n", "12", "--delta", "3", "--seed", "5"],
     ("random-tree", 12, 3, 1, 5)),
    (["--family", "gnp", "--n", "12", "--p", "0.3", "--seed", "5"],
     ("gnp", 12, 11, 1, 5, 0.3)),
])
def test_generate_prints_round_one_snapshot(capsys, argv, schedule):
    code, out, _ = run_cli(capsys, "generate", *argv)
    assert code == 0
    expected = new_schedule(*schedule).topology_at(1).to_json_dict()
    assert out == json.dumps(expected) + "\n"


def test_generate_gnp_needs_p(capsys):
    code, _, err = run_cli(capsys, "generate", "--family", "gnp", "--n", "6")
    assert code == 2
    assert "p" in err


def test_generate_to_file(tmp_path, capsys):
    out_file = tmp_path / "topo.json"
    code, out, _ = run_cli(capsys, "generate", "--family", "path", "--n", "3",
                           "--out", str(out_file))
    assert code == 0
    assert out == ""
    assert json.loads(out_file.read_text())["edges"] == [[0, 1], [1, 2]]


def test_run_n2_path(capsys):
    code, out, _ = run_cli(capsys, "run", "--family", "path", "--n", "2",
                           "--delta", "1", "--T", "inf", "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["estimate"] == 2
    assert rec["rounds_total"] == 9
    assert rec["T"] == "inf"


def test_run_n5_path(capsys):
    code, out, _ = run_cli(capsys, "run", "--family", "path", "--n", "5",
                           "--delta", "2", "--T", "inf", "--json")
    assert code == 0
    assert json.loads(out)["estimate"] == 5


def test_run_gnp_auto_tolerant(capsys):
    code, out, _ = run_cli(capsys, "run", "--family", "gnp", "--n", "10",
                           "--p", "0.3", "--T", "10", "--seed", "1", "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["estimate"] == 10
    assert rec["disconnection_tolerant"] is True


def test_run_round_limit_exits_3(capsys):
    code, out, _ = run_cli(capsys, "run", "--family", "path", "--n", "8",
                           "--delta", "2", "--T", "inf", "--max-rounds", "10",
                           "--json")
    assert code == 3
    rec = json.loads(out)
    assert rec["status"] == "round_limit"
    assert rec["estimate"] is None


def test_run_human_readable(capsys):
    code, out, _ = run_cli(capsys, "run", "--family", "star", "--n", "4",
                           "--delta", "3")
    assert code == 0
    assert "estimate: 4" in out
    assert "status: ok" in out


def test_run_is_byte_deterministic(capsys):
    args = ["run", "--family", "tree", "--n", "6", "--delta", "2", "--T", "10",
            "--seed", "3", "--json"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def write_spec(tmp_path, **overrides):
    spec = {
        "families": ["path"],
        "n_range": [3, 3],
        "T_set": ["inf"],
        "repetitions": 2,
        "master_seed": 9,
        "delta_rule": "largest-power-of-two",
    }
    spec.update(overrides)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    return str(spec_path)


def test_sweep_writes_csv(tmp_path, capsys):
    spec_path = write_spec(tmp_path)
    out_csv = tmp_path / "result.csv"
    code, out, _ = run_cli(capsys, "sweep", "--spec", spec_path,
                           "--out-csv", str(out_csv))
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert len(lines) == 3  # header + 2 reps
    assert lines[0].startswith("family,n,delta,T,p,mode,c,seed,rep,estimate")


def test_sweep_worker_bytes_identical(tmp_path, capsys):
    spec_path = write_spec(tmp_path, n_range=[3, 4], repetitions=2)
    csv1 = tmp_path / "w1.csv"
    csv4 = tmp_path / "w4.csv"
    assert run_cli(capsys, "sweep", "--spec", spec_path, "--out-csv", str(csv1),
                   "--workers", "1")[0] == 0
    assert run_cli(capsys, "sweep", "--spec", spec_path, "--out-csv", str(csv4),
                   "--workers", "4")[0] == 0
    assert csv1.read_bytes() == csv4.read_bytes()


def test_sweep_stdout_when_no_outputs(tmp_path, capsys):
    spec_path = write_spec(tmp_path, repetitions=1)
    code, out, _ = run_cli(capsys, "sweep", "--spec", spec_path)
    assert code == 0
    assert out.startswith("family,n,delta")
    assert len(out.splitlines()) == 2


def test_sweep_invalid_spec_exits_2(tmp_path, capsys):
    spec_path = write_spec(tmp_path, families=["gnp"], T_set=["inf"],
                           p_set=[0.3])
    code, out, err = run_cli(capsys, "sweep", "--spec", spec_path)
    assert code == 2
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize("overrides", [
    {"T_set": [1.5]},  # not truncated to T = 1
    {"T_set": ["x"]},
    {"n_range": [3]},
    {"repetitions": "2"},
    {"families": ["gnp"], "T_set": [10], "p_set": ["a"]},
    {"n_range": 3},
    {"master_seed": "9"},
    {"delta_cap": "2"},
    {"c": "x"},
    {"max_rounds": 1.5},
    # empty grids: no power-of-two degree bound fits
    {"n_range": [3, 4], "T_set": [1], "delta_cap": 1},
    {"n_range": [2, 2]},
    {"families": ["random-tree"], "n_range": [2, 2], "T_set": [1]},
    {"families": ["star", "path"], "n_range": [2, 2]},  # path has no run
    {"max_round": 5},  # a misspelled key is not ignored
    # repeated grid points, and inputs that no run would read
    {"families": ["tree", "random-tree"], "n_range": [4, 4], "T_set": [1]},
    {"families": ["path", "path"]},
    {"T_set": [1, 1.0]},
    {"T_set": ["inf", "inf"]},
    {"families": ["gnp"], "T_set": [10], "p_set": [0.3, 0.3]},
    {"p_set": [0.3]},  # no gnp family
    {"delta_rule": "fixed-n-minus-1", "delta_cap": 2},
])
def test_sweep_malformed_spec_exits_2(tmp_path, capsys, overrides):
    code, out, err = run_cli(capsys, "sweep", "--spec", write_spec(tmp_path, **overrides))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_sweep_spec_tree_alias(tmp_path, capsys):
    # the CLI alias is accepted in spec files; exports name the family
    outputs = []
    for family in ("tree", "random-tree"):
        spec_dir = tmp_path / family
        spec_dir.mkdir()
        out_csv, out_json = spec_dir / "runs.csv", spec_dir / "runs.json"
        spec_path = write_spec(spec_dir, families=[family], n_range=[4, 5], T_set=[1])
        code, _, _ = run_cli(capsys, "sweep", "--spec", spec_path,
                             "--out-csv", str(out_csv), "--out-json", str(out_json))
        assert code == 0
        outputs.append((out_csv.read_bytes(), out_json.read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0].count(b"\nrandom-tree,") == 4


def test_sweep_spec_not_an_object_exits_2(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text("[]")
    code, _, err = run_cli(capsys, "sweep", "--spec", str(spec_path))
    assert code == 2
    assert err.startswith("error:")


def test_sweep_spec_with_full_exits_2(tmp_path, capsys):
    # --full sizes the standard grids; a spec file carries its own grid
    code, out, err = run_cli(capsys, "sweep", "--spec", write_spec(tmp_path), "--full")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--full" in err


def test_sweep_missing_spec_file_exits_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "sweep", "--spec", str(tmp_path / "nope.json"))
    assert code == 2


def test_check_tables(capsys):
    code, out, _ = run_cli(capsys, "check-tables", "--n-max", "8")
    assert code == 0
    assert "sizes: 1,1,2,4,9,20,48,115" in out
    assert out.strip().endswith("PASS")
    assert run_cli(capsys, "check-tables", "--n-max", "1")[0] == 0


@pytest.mark.parametrize("n_max", ["0", "-3", "17"])  # 17: past CHECK_TABLES_N_MAX
def test_check_tables_bad_n_max_exits_2(capsys, n_max):
    code, out, err = run_cli(capsys, "check-tables", "--n-max", n_max)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_check_bound_reads_sweep_json(tmp_path, capsys):
    spec_path = write_spec(tmp_path)
    out_json = tmp_path / "result.json"
    run_cli(capsys, "sweep", "--spec", spec_path, "--out-json", str(out_json))
    code, out, _ = run_cli(capsys, "check-bound", "--in-json", str(out_json))
    assert code == 0
    assert "within=True" in out
    assert "bound=162" in out  # 2 * 3^4


def test_sweep_theoretical_spec_beyond_gate_exits_2(tmp_path, capsys):
    spec_path = write_spec(tmp_path, mode="theoretical", c=2.4, n_range=[3, 9])
    out_csv = tmp_path / "result.csv"
    code, out, err = run_cli(capsys, "sweep", "--spec", spec_path, "--out-csv", str(out_csv))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "n=9" in err
    assert not out_csv.exists()


def test_run_theoretical_beyond_gate_names_no_setting(capsys):
    code, out, err = run_cli(capsys, "run", "--family", "path", "--n", "10", "--delta", "2",
                             "--mode", "theoretical", "--c", "2.4")
    assert code == 2
    assert out == ""
    assert err.startswith("error: theoretical mode is gated")
    assert "override" not in err


def sweep_json(tmp_path, capsys):
    """An exported sweep of ``write_spec``'s grid, as a JSON object."""
    out_json = tmp_path / "result.json"
    run_cli(capsys, "sweep", "--spec", write_spec(tmp_path), "--out-json", str(out_json))
    return json.loads(out_json.read_text())


def edit_record(data, **fields):
    """``data`` with the first row's record fields replaced."""
    first = data["rows"][0]
    return {**data, "rows": [{**first, "record": {**first["record"], **fields}}]}


@pytest.mark.parametrize("corrupt", [
    lambda data: [data],  # top level is a list
    lambda data: {**data, "rows": None},
    lambda data: {**data, "rows": [7]},  # a row that is no object
    lambda data: {**data, "rows": [{**data["rows"][0], "record": []}]},
    lambda data: {**data, "rows": [{**data["rows"][0], "config_index": 1}]},  # one config
    lambda data: {**data, "rows": [{**data["rows"][0], "config_index": -1}]},
    lambda data: {**data, "rows": [{**data["rows"][0], "config_index": "0"}]},
    lambda data: {**data, "rows": data["rows"] * 2},  # every (config_index, rep) twice
    lambda data: {**data, "rows": [data["rows"][0], {**data["rows"][1], "rep": 0}]},
    lambda data: {**data, "rows": [{**data["rows"][0], "rep": "zero"}]},
    lambda data: {**data, "rows": [{**data["rows"][0], "rep": 2}]},  # two repetitions
    lambda data: {**data, "rows": [{**data["rows"][0], "rep": -1}]},
    lambda data: edit_record(data, per_k_trace=None),
    lambda data: edit_record(data, per_k_trace=[7]),
    lambda data: edit_record(data, rounds_total="12"),
    lambda data: edit_record(data, n=3.0),
    lambda data: edit_record(data, T="never"),
    lambda data: edit_record(data, status="done"),
    lambda data: edit_record(data, diagnostics={"min_energy": 0.0}),
    lambda data: edit_record(data, diagnostics=None),
    # a well-formed record whose inputs are not those of its row's run
    lambda data: edit_record(data, family="ring"),
    lambda data: edit_record(data, n=4),
    lambda data: edit_record(data, delta=1),
    lambda data: edit_record(data, seed=data["rows"][1]["record"]["seed"]),
    lambda data: edit_record(data, T=5),
    lambda data: edit_record(data, p=0.5),
    lambda data: edit_record(data, mode="theoretical"),
    lambda data: edit_record(data, c=7.5),
    lambda data: edit_record(data, max_rounds=10),
    lambda data: edit_record(data, disconnection_tolerant=True),
], ids=["list", "rows-null", "row-not-object", "record-not-object", "config-past-grid",
        "config-negative", "config-string", "rows-doubled", "rep-repeated", "rep-string",
        "rep-past-repetitions", "rep-negative", "trace-null", "trace-entry-not-object",
        "rounds-string", "n-float", "T-string", "status-unknown", "diagnostics-partial",
        "diagnostics-null", "family-unknown", "n-other", "delta-other", "seed-other", "T-other",
        "p-set", "mode-other", "c-other", "max-rounds-other", "tolerance-flipped"])
def test_check_bound_malformed_json_exits_2(tmp_path, capsys, corrupt):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(corrupt(sweep_json(tmp_path, capsys))))
    code, out, err = run_cli(capsys, "check-bound", "--in-json", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_sweep_spec_and_grid_are_exclusive(tmp_path, capsys):
    spec_path = write_spec(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--spec", spec_path, "--grid", "path"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--grid", "torus"])
    assert info.value.code == 2


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["run", "--family", "path", "--n", "3", "--frobnicate"])
    assert info.value.code == 2


def test_bad_T_value_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["run", "--family", "path", "--n", "3", "--delta", "2", "--T", "soon"])
    assert info.value.code == 2


def test_missing_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
