"""Command line interface: config merging, outputs, and exit codes."""

import argparse
import enum
import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from readers import read_grid_csv, read_grid_json, read_state, read_weak_map_csv

import zenoport.cli as cli
from zenoport.cli import load_config, main, state_to_obj
from zenoport.counterport import FidelityGrid, counterport
from zenoport.cqze import BobQubit, ProtocolConfig
from zenoport.qstate import ConservationError, StateVector, label


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_config_precedence(tmp_path):
    cfg = load_config("counterport", None, {})
    assert cfg["m"] == 10 and cfg["n"] == 20
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"m": 5, "eps_reflect": 0.2}))
    cfg = load_config("counterport", str(path), {})
    assert cfg["m"] == 5 and cfg["eps_reflect"] == 0.2
    cfg = load_config("counterport", str(path), {"m": 7})
    assert cfg["m"] == 7 and cfg["eps_reflect"] == 0.2  # flag beats file


def test_config_rejects_unknown_keys(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"m": 5, "zeta": 1}))
    assert main(["counterport", "--config", str(path)]) == 2
    assert "zeta" in capsys.readouterr().err


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["counterport", "--config", str(bad)]) == 2
    assert main(["counterport", "--config", str(tmp_path / "missing.json")]) == 2
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    assert main(["counterport", "--config", str(listy)]) == 2
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe")
    assert main(["histories", "--config", str(binary)]) == 2
    capsys.readouterr()


def test_bad_control_amplitudes(capsys):
    assert main(["counterport", "--alpha", "xyz"]) == 2
    assert main(["counterport", "--alpha", "1", "--beta", "1"]) == 2
    assert main(["counterport", "--alpha", "nan", "--beta", "0"]) == 2
    capsys.readouterr()
    # |alpha|^2 overflows a float: an error line, not a traceback
    assert main(["counterport", "--alpha", "1e155", "--beta", "0"]) == 2
    assert capsys.readouterr().err == "error: control qubit norm^2 = inf, expected 1\n"


@pytest.mark.parametrize("amps", [{"alpha": 1e200, "beta": 0}, {"alpha": "1", "beta": "1e155+1e155j"}])
def test_overflowing_control_amplitude_in_config_exits_2(amps, tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(amps))
    assert main(["counterport", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: control qubit norm^2 = inf")


@pytest.mark.parametrize("key", ["alpha", "beta"])
def test_boolean_control_amplitude_in_config_exits_2(key, tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"alpha": 1.0, "beta": 0.0, key: key == "alpha"}))
    assert main(["counterport", "--config", str(path)]) == 2
    assert capsys.readouterr().err == \
        f"error: {key} must be a number or a complex literal, not a boolean\n"


# Bad config-file values per key, with the error line each one draws.  A key
# keeps its rule, and so its message, in every subcommand that takes it.
_CHOICES = {
    "eps_block_per": "['inner', 'outer']",
    "scheme": "['fibonacci', 'seeded-uniform']",
    "fidelity_mode": "['loss-inclusive', 'post-selected']",
}
_BAD_VALUES = {
    **{key: [("abc", f"config key {key!r} must be an integer"),
             (True, f"config key {key!r} must be an integer"),
             (1.5, f"config key {key!r} must be an integer"),
             (0, f"config key {key!r} must be >= 1")]
       for key in ("m_max", "n_max", "samples", "workers", "m", "n")},
    "seed": [(None, "config key 'seed' must be an integer"),
             (2.0, "config key 'seed' must be an integer")],
    "av_rounds": [(-1, "config key 'av_rounds' must be >= 0"),
                  (False, "config key 'av_rounds' must be an integer")],
    **{key: [(True, f"config key {key!r} must be a number"),
             ("1", f"config key {key!r} must be a number"),
             (-0.5, f"config key {key!r} must lie in [0.0, 1.0]"),
             (float("nan"), f"config key {key!r} must lie in [0.0, 1.0]"),
             (10 ** 400, f"config key {key!r} must lie in [0.0, 1.0]")]  # beyond any float
       for key in ("eps_reflect", "eps_block")},
    "epsilon": [(None, "config key 'epsilon' must be a number"),
                (0, "config key 'epsilon' must lie in [1e-12, 0.5]"),
                (1, "config key 'epsilon' must lie in [1e-12, 0.5]"),
                (10 ** 400, "config key 'epsilon' must lie in [1e-12, 0.5]")],
    **{key: [("abc", f"config key {key!r} must be one of {choices}"),
             (None, f"config key {key!r} must be one of {choices}")]
       for key, choices in _CHOICES.items()},
    "out_dir": [(None, "config key 'out_dir' must be a string path"),
                (0, "config key 'out_dir' must be a string path")],
    **{key: [(0, f"config key {key!r} must be a string path"),
             ([], f"config key {key!r} must be a string path")]
       for key in ("out", "json_out", "family_file")},
    **{key: [(True, f"{key} must be a number or a complex literal, not a boolean"),
             ("abc", f"{key} is not a complex literal: 'abc'"),
             (None, f"{key} is not a complex literal: None")]
       for key in ("alpha", "beta")},
    "boundaries": [(v, "boundaries must be 'end-to-end' or 'cycle<k>'")
                   for v in ("cycle0", None, "cycle\u00b2", "cycle\u0662")],  # ², Arabic-Indic 2
    "family": [("", "family must be a non-empty name"),
               (" ", "family must be a non-empty name"),
               (0, "family must be a non-empty name")],
}


@pytest.mark.parametrize("sub, key", [(sub, key) for sub, keys in cli._DEFAULTS.items()
                                      for key in keys])
def test_bad_config_value_exits_2_with_the_key_rule_message(sub, key, tmp_path, capsys):
    path = tmp_path / "c.json"
    for value, message in _BAD_VALUES[key]:
        path.write_text(json.dumps({key: value}))
        assert main([sub, "--config", str(path)]) == 2, (key, value)
        assert capsys.readouterr().err == f"error: {message}\n", (key, value)


def test_load_config_applies_each_key_rule(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"m": 3, "eps_reflect": 0, "eps_block": 1, "alpha": 0.6,
                                "beta": "0.8j"}))
    cfg = load_config("counterport", str(path), {"eps_block_per": "outer"})
    assert cfg["m"] == 3 and type(cfg["m"]) is int
    assert type(cfg["eps_reflect"]) is float and type(cfg["eps_block"]) is float
    assert cfg["alpha"] == 0.6 + 0j and cfg["beta"] == 0.8j
    assert type(cfg["alpha"]) is complex and type(cfg["beta"]) is complex
    assert cfg["eps_block_per"] == "outer"
    cfg = load_config("paradox", None, {"epsilon": None})
    assert type(cfg["epsilon"]) is float and cfg["epsilon"] == 1e-3
    assert load_config("counterport", None, {})["alpha"] == 1 + 0j


def _exit_code(argv) -> int:
    """main's return code, or the code of the SystemExit argparse raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


_EXTREME = ["nan", "inf", "-inf", "1e155", "1e308", "5e-324"]
_NUMERIC_FLAGS = [
    ("counterport", "--alpha"), ("counterport", "--beta"),
    ("counterport", "--eps-reflect"), ("counterport", "--eps-block"),
    ("sweep", "--eps-reflect"), ("sweep", "--eps-block"),
    ("paradox", "--epsilon"),
]


@pytest.mark.parametrize("value", _EXTREME)
@pytest.mark.parametrize("sub, flag", _NUMERIC_FLAGS)
def test_extreme_numeric_values_exit_cleanly(sub, flag, value, tmp_path, capsys):
    argv = [sub, f"{flag}={value}"]
    if sub == "sweep":
        argv += ["--m-max", "2", "--n-max", "2", "--samples", "2", "--out-dir", str(tmp_path)]
    assert _exit_code(argv) in (0, 2, 3)
    assert "Traceback" not in capsys.readouterr().err


def test_negative_complex_amplitudes_as_separate_values(capsys):
    code, out = run(capsys, ["counterport", "--alpha", "-0.6j",
                             "--beta", "-0.3+0.7416198487095663j"])
    assert code == 0
    assert json.loads(out)["bob"] == [[0.0, -0.6], [-0.3, 0.7416198487095663]]
    code, out = run(capsys, ["counterport", "--alpha", "0.6", "--beta", "-0.8"])
    assert code == 0
    assert json.loads(out)["bob"] == [[0.6, 0.0], [-0.8, 0.0]]


def test_no_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


TOP_USAGE = "usage: zenoport [-h] {sweep,counterport,paradox,weakvalues,histories} ...\n"


def _usage_error(argv, capsys) -> str:
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("argv, extra", [
    (["counterport", "--m", "3", "--bogus", "1"], "--bogus 1"),
    (["counterport", "--m", "3", "sweep"], "sweep"),
    (["counterport", "--alpha", "-0.3+0.4j", "--zz"], "--zz"),
    (["sweep", "--m-max", "2", "extra", "words"], "extra words"),
])
def test_words_left_after_a_subcommand_are_a_top_level_usage_error(argv, extra, capsys,
                                                                    monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert _usage_error(argv, capsys) == (
        TOP_USAGE + f"zenoport: error: unrecognized arguments: {extra}\n")


@pytest.mark.parametrize("argv, message", [
    (["--m", "3", "counterport"], "argument cmd: invalid choice: '3'"),
    (["--", "counterport"], "argument cmd: invalid choice: '--'"),
    (["bogus"], "argument cmd: invalid choice: 'bogus'"),
    ([], "the following arguments are required: cmd"),
    (["counterport", "--m"], "argument --m: expected one argument"),
    (["counterport", "--m", "x"], "argument --m: invalid int value: 'x'"),
])
def test_usage_errors_read_as_the_whole_parser_reports_them(argv, message, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    err = _usage_error(argv, capsys)
    assert message in err.splitlines()[-1]
    with pytest.raises(SystemExit):  # as the top-level parser reports it over the whole argv
        cli._parsers()[0].parse_args(argv)
    assert err == capsys.readouterr().err


def test_an_abbreviated_help_flag_prints_the_subcommand_help(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["counterport", "--he"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: zenoport counterport [-h]")
    with pytest.raises(SystemExit):
        cli._parsers()[0].parse_args(["counterport", "--help"])
    assert capsys.readouterr().out == out


def test_a_subcommand_first_is_parsed_in_one_pass(monkeypatch, capsys):
    calls = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    assert main(["counterport", "--m", "3", "--n", "4", "--alpha", "0.6", "--beta", "0.8"]) == 0
    assert calls == ["zenoport counterport"]
    capsys.readouterr()


def test_reused_parser_gives_the_same_run_after_a_rejection(capsys):
    argv = ["counterport", "--m", "30", "--n", "700", "--alpha", "0.6", "--beta", "-0.8j"]
    first = run(capsys, argv)
    assert first[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["counterport", "--m", "three"])
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
    assert run(capsys, argv) == first
    assert cli._parsers()[0] is cli._parsers()[0]


@pytest.mark.parametrize("argv", [["--help"], ["counterport", "--help"], ["sweep", "-h"]])
def test_help_of_the_reused_parser_matches_a_fresh_one(argv, capsys):
    fresh, _ = cli._parsers.__wrapped__()
    main(["paradox"])  # the memo has parsed a run before the help request
    capsys.readouterr()
    outs = []
    for parser in (cli._parsers()[0], fresh):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        assert exc.value.code == 0
        outs.append(capsys.readouterr().out)
    with pytest.raises(SystemExit):
        main(argv)
    assert capsys.readouterr().out == outs[0] == outs[1] != ""


def test_counterport_default_run(capsys):
    code, out = run(capsys, ["counterport"])
    assert code == 0
    rec = json.loads(out)
    assert rec["config"] == {"M": 10, "N": 20, "eps_reflect": 0.0,
                             "eps_block": 0.0, "av_rounds": 0,
                             "eps_block_per": "inner"}
    assert rec["fidelity_post_selected"] == 1.0
    assert set(rec["rounds"]) == {"round1", "between_rounds", "round2_ports", "final"}


def test_counterport_deep_equator_run(tmp_path, capsys):
    r = repr(1.0 / math.sqrt(2.0))
    out_path = tmp_path / "run.json"
    code, out = run(capsys, ["counterport", "--m", "100", "--n", "40000",
                             "--alpha", r, "--beta", r, "--out", str(out_path)])
    assert code == 0 and out == ""
    rec = json.loads(out_path.read_text())
    assert rec["fidelity_post_selected"] > 0.9999
    assert rec["bob_purity"]["Port2"] > 0.9999999


def test_counterport_deep_dwell_exits_0(capsys):
    code, out = run(capsys, ["counterport", "--m", "100", "--n", "400000",
                             "--alpha", "0.6", "--beta", "0.8"])
    assert code == 0
    rec = json.loads(out)
    assert abs(rec["p_success"] + rec["p_lost"] - 1.0) < 1e-12


def test_counterport_lossy_regression(capsys):
    code, out = run(capsys, ["counterport", "--eps-reflect", "0.10",
                             "--eps-block", "0.05",
                             "--alpha", "0.6", "--beta", "0.8"])
    assert code == 0
    rec = json.loads(out)
    assert abs(rec["fidelity"] - 0.28871437412195633) < 1e-12
    assert abs(rec["fidelity_post_selected"] - 0.9146526380128509) < 1e-12
    assert abs(rec["p_success"] - 0.3156546672726044) < 1e-12
    assert abs(sum(rec["loss_breakdown"].values()) - rec["p_lost"]) < 1e-12


def test_state_json_round_trip(capsys):
    s = StateVector({label("F", "H", "0"): 0.6, label("F", "V", "1"): 0.8j})
    assert read_state(state_to_obj(s)) == s
    code, out = run(capsys, ["counterport", "--m", "3", "--n", "4",
                             "--alpha", "0.6", "--beta", "0.8j"])
    assert code == 0
    rounds = json.loads(out)["rounds"]
    want = counterport(BobQubit(0.6, 0.8j), ProtocolConfig(M=3, N=4)).round_trace
    assert sorted(rounds) == sorted(want)
    for name, rows in rounds.items():
        assert read_state(rows) == want[name]


def sweep_args(out_dir, extra=()):
    return ["sweep", "--m-max", "3", "--n-max", "3", "--samples", "5",
            "--fidelity-mode", "post-selected", "--out-dir", str(out_dir),
            *extra]


def test_sweep_outputs(tmp_path, capsys):
    code, out = run(capsys, sweep_args(tmp_path))
    assert code == 0
    assert "best avg fidelity" in out
    grid = read_grid_csv((tmp_path / "sweep.csv").read_text())
    assert grid.cell(2, 3)[0] > 2.0 / 3.0 > grid.cell(1, 1)[0]
    loaded = json.loads((tmp_path / "sweep.json").read_text())
    again = read_grid_json(loaded)
    assert again.cell(2, 3) == grid.cell(2, 3)
    svg = (tmp_path / "sweep.svg").read_text()
    ET.fromstring(svg)  # must be well formed
    assert "#d62728" in svg  # the classical-limit contour is drawn


def test_sweep_is_deterministic(tmp_path, capsys):
    run(capsys, sweep_args(tmp_path / "a"))
    run(capsys, sweep_args(tmp_path / "b"))
    run(capsys, sweep_args(tmp_path / "c", ["--workers", "2"]))
    a = (tmp_path / "a" / "sweep.csv").read_bytes()
    assert a == (tmp_path / "b" / "sweep.csv").read_bytes()
    assert a == (tmp_path / "c" / "sweep.csv").read_bytes()
    for name in ("sweep.json", "sweep.svg"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "c" / name).read_bytes()


@pytest.mark.parametrize("how", ["flag", "config-key"])
def test_sweep_ideal_flag_and_config_key_exit_2(how, tmp_path, capsys):
    # --eps-reflect 0 --eps-block 0 runs the ideal protocol
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"ideal": True}))
    argv = ["sweep", "--ideal"] if how == "flag" else ["sweep", "--config", str(path)]
    assert _exit_code(argv + ["--out-dir", str(tmp_path)]) == 2
    assert not (tmp_path / "sweep.json").exists()
    err = capsys.readouterr().err
    assert ("unrecognized arguments: --ideal" if how == "flag"
            else "unknown config keys for 'sweep': ['ideal']") in err


def test_sweep_best_cell_breaks_ties_toward_larger_m_then_n(monkeypatch, tmp_path, capsys):
    fid = np.array([[0.9, 0.5], [0.9, 0.9], [0.2, 0.9]])
    grid = FidelityGrid((1, 2, 3), (1, 2), fid, np.full((3, 2), 0.5), {})
    monkeypatch.setattr(cli, "sweep", lambda *args, **kwargs: grid)
    code, out = run(capsys, ["sweep", "--out-dir", str(tmp_path)])
    assert code == 0
    assert out.splitlines()[-1] == "best avg fidelity 0.900000 at (M,N)=(3,2)"


def test_sweep_into_a_path_under_a_file_exits_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out_dir = blocker / "out"
    assert main(["sweep", "--m-max", "1", "--n-max", "1", "--samples", "1",
                 "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out_dir / 'sweep.csv'}: ")
    assert err.count("\n") == 1


def test_output_file_makes_missing_directories_only(tmp_path, monkeypatch, capsys):
    nested = tmp_path / "a" / "b" / "histories.json"
    assert main(["histories", "--json-out", str(nested)]) == 0
    first = nested.read_bytes()
    made = []
    monkeypatch.setattr(cli.Path, "mkdir", lambda self, *a, **k: made.append(self))
    assert main(["histories", "--json-out", str(nested)]) == 0
    assert made == [] and nested.read_bytes() == first
    capsys.readouterr()


@pytest.mark.parametrize("under", ["out.json", "a/out.json"])
def test_output_file_under_a_regular_file_exits_2(under, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    path = blocker / under
    assert main(["histories", "--json-out", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1


def test_a_shorter_output_replaces_a_longer_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("x" * 5000)
    cli._write_text(path, "short\n")
    assert path.read_bytes() == b"short\n"


@pytest.mark.parametrize("argv", [["counterport", "--m", "20", "--n", "400", "--beta", "0.8j",
                                   "--alpha", "0.6", "--eps-reflect", "0.05"],
                                  ["weakvalues", "--boundaries", "cycle1"]],
                         ids=["counterport", "weakvalues"])
def test_out_file_holds_the_stdout_text(argv, tmp_path, capsys):
    code, out = run(capsys, argv)
    assert code == 0 and out
    path = tmp_path / "out"
    assert main(argv + ["--out", str(path)]) == 0
    assert path.read_bytes() == out.encode()


def test_a_record_written_seven_bytes_per_call_is_whole(tmp_path, monkeypatch, capsys):
    argv = ["counterport", "--m", "20", "--n", "400", "--alpha", "0.6", "--beta", "0.8j"]
    code, out = run(capsys, argv)
    write, calls = cli.os.write, []

    def short_write(fd, data):
        calls.append(len(data))
        return write(fd, data[:7])

    monkeypatch.setattr(cli.os, "write", short_write)
    path = tmp_path / "run.json"
    assert main(argv + ["--out", str(path)]) == 0
    assert path.read_bytes() == out.encode()
    assert len(calls) == -(-len(out) // 7)


def test_sweep_rejects_bad_mode(capsys):
    assert main(["sweep", "--fidelity-mode", "hopeful"]) == 2
    capsys.readouterr()


def test_paradox_table_and_json(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out = run(capsys, ["paradox", "--json-out", str(out_path)])
    assert code == 0
    assert "channel probe [end-to-end]:" in out
    rep = json.loads(out_path.read_text())
    by = {(r["boundaries"], r["arm"], r["stamp"]): r for r in rep["rows"]}
    assert abs(by[("end-to-end", "C", "c1.in1")]["weak_value"][0] - 0.5) < 1e-10
    assert abs(by[("cycle1", "C", "c1.in1")]["weak_value"][0]) < 1e-10


def test_paradox_epsilon_bounds(capsys):
    assert main(["paradox", "--epsilon", "0.9"]) == 2
    assert main(["paradox", "--epsilon", "0"]) == 2
    capsys.readouterr()


def test_weakvalues_csv_output(capsys):
    code, out = run(capsys, ["weakvalues"])
    assert code == 0
    trace = read_weak_map_csv(out)
    assert abs(trace[("A", "c1.in1")] - 1.0) < 1e-10
    assert abs(trace[("C", "c2.in1")]) < 1e-10
    stamps = {stamp for _, stamp in trace}
    arms = {arm for arm, _ in trace}
    for stamp in stamps:
        total = sum(trace[(a, stamp)] for a in arms)
        assert abs(total - 1.0) < 1e-10


def test_weakvalues_cycle_window(capsys):
    code, out = run(capsys, ["weakvalues", "--boundaries", "cycle1"])
    assert code == 0
    trace = read_weak_map_csv(out)
    assert trace[("A", "t_final")] is None
    assert abs(trace[("C", "c1.in1")]) < 1e-10
    for bad in ("sideways", "cycle\u00b2", "cycle\u0662"):  # not ASCII digits: ², Arabic-Indic 2
        assert main(["weakvalues", "--boundaries", bad]) == 2
        assert capsys.readouterr().err == "error: boundaries must be 'end-to-end' or 'cycle<k>'\n"


def test_weakvalues_cycle_beyond_m_exits_2(capsys):
    assert main(["weakvalues", "--m", "2", "--boundaries", "cycle3"]) == 2
    assert capsys.readouterr().err == "error: cycle must be in 1..2\n"


def test_histories_all(capsys):
    code, out = run(capsys, ["histories"])
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 4
    assert sum("NOT consistent" in l for l in lines) == 1


def test_histories_single_and_json(tmp_path, capsys):
    out_path = tmp_path / "h.json"
    code, out = run(capsys, ["histories", "--family", "final_via_cycle1",
                             "--json-out", str(out_path)])
    assert code == 0
    rep = json.loads(out_path.read_text())
    entry = rep["families"]["final_via_cycle1"]
    assert entry["n_histories"] == 18
    assert not entry["consistent"]
    assert entry["offending_pair"] == [["A", "A", "A"], ["D", "B", "B"]]
    assert entry["probabilities"] is None
    assert entry["weights"]["(D,C,B)"] > 1e-10
    assert main(["histories", "--family", "nope"]) == 2
    capsys.readouterr()


def test_histories_json_weights_are_floats(tmp_path, capsys):
    # an empty history ket's weight is 0.0, not the int 0
    out_path = tmp_path / "h.json"
    code, _ = run(capsys, ["histories", "--json-out", str(out_path)])
    assert code == 0
    weights = [w for fam in json.loads(out_path.read_text())["families"].values()
               for w in fam["weights"].values()]
    assert 0.0 in weights
    assert all(type(w) is float for w in weights)


def test_histories_family_file(tmp_path, capsys):
    from zenoport.analysis import builtin_families, family_to_text
    from zenoport.optics import build_paradox_circuit
    fam = builtin_families(build_paradox_circuit(2, 2))["cycle2"]
    path = tmp_path / "fam.txt"
    path.write_text(family_to_text(fam))
    code, out = run(capsys, ["histories", "--family-file", str(path)])
    assert code == 0
    assert "consistent" in out
    garbage = tmp_path / "garbage.txt"
    garbage.write_text("not a family\n")
    assert main(["histories", "--family-file", str(garbage)]) == 2
    assert main(["histories", "--family-file", str(tmp_path / "nope.txt")]) == 2
    capsys.readouterr()


_FAMILY_HEAD = "zenoport-family v1\nname broken\n"
_FAMILY_PRE = "pre t0 S H - 1.0 0.0\n"
_FAMILY_SLOT = 'slot c1.in1 A {"paths": ["A"]}\n'


@pytest.mark.parametrize("text", [
    _FAMILY_HEAD + _FAMILY_PRE + 'post t_final {"paths": ["F"], "pols": ["X"]}\n'
    + _FAMILY_SLOT,
    _FAMILY_HEAD + "pre t0 S H - 1.0\n" + 'post t_final {"paths": ["F"]}\n' + _FAMILY_SLOT,
    _FAMILY_HEAD + _FAMILY_PRE + "post t_final paths=F\n" + _FAMILY_SLOT,
    _FAMILY_HEAD + _FAMILY_PRE + 'post t_final ["F"]\n' + _FAMILY_SLOT,
    b"\xff\xfe not text",
], ids=["unknown-polarization", "short-pre-line", "non-json-spec", "list-spec",
        "not-utf8"])
def test_histories_malformed_family_file_exits_2(tmp_path, capsys, text):
    path = tmp_path / "fam.txt"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    assert main(["histories", "--family-file", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("text, message", [
    (_FAMILY_HEAD + _FAMILY_PRE + "pre t1 A H - 0.0 0.0\n" + 'post t_final {"paths": ["F"]}\n'
     + _FAMILY_SLOT, "pre lines must share one stamp"),
    (_FAMILY_HEAD + _FAMILY_PRE + 'post t_final {"paths": ["F"]}\n' + _FAMILY_SLOT
     + "note hello\n", "unknown family line kind 'note'"),
    (_FAMILY_HEAD + _FAMILY_PRE + 'post t_final {"paths": ["F"]}\n',
     "family text needs pre, post and at least one slot line"),
    # R names a circular polarization, not H
    (_FAMILY_HEAD + "pre t0 S R - 1.0 0.0\n" + 'post t_final {"paths": ["F"]}\n' + _FAMILY_SLOT,
     "unknown polarization 'R'"),
], ids=["two-pre-stamps", "unknown-line-kind", "no-slot-line", "circular-polarization"])
def test_histories_family_file_structure_errors_exit_2(tmp_path, capsys, text, message):
    path = tmp_path / "fam.txt"
    path.write_text(text)
    assert main(["histories", "--family-file", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("slots", [
    'slot c1.in1 X {"paths": ["A"]}\nslot c1.in1 X {"paths": ["B"]}\n'
    'slot c1.in1 Y {"paths": ["C"]}\n',
    'slot c1.t1 A,B {"paths": ["A"]}\nslot c1.t1 A {"paths": ["D"]}\n'
    'slot c1.in1 C {"paths": ["A"]}\nslot c1.in1 B,C {"paths": ["B"]}\n',
], ids=["repeated-name", "comma-in-name"])
def test_histories_whose_labels_would_collide_exit_2(tmp_path, capsys, slots):
    path = tmp_path / "fam.txt"
    path.write_text(_FAMILY_HEAD + _FAMILY_PRE + 'post t_final {"paths": ["F"]}\n' + slots)
    assert main(["histories", "--family-file", str(path),
                 "--json-out", str(tmp_path / "h.json")]) == 2
    assert capsys.readouterr().err.startswith("error: slot at ")
    assert not (tmp_path / "h.json").exists()


def test_histories_nan_pre_amplitude_is_not_normalized(tmp_path, capsys):
    path = tmp_path / "fam.txt"
    path.write_text(_FAMILY_HEAD + "pre t0 S H - nan 0.0\n"
                    + 'post t_final {"paths": ["F"]}\n' + _FAMILY_SLOT)
    assert main(["histories", "--family-file", str(path)]) == 2
    assert "normalized" in capsys.readouterr().err


def test_histories_evaluates_each_family_in_one_pass(analysis_work, capsys):
    code, _ = run(capsys, ["histories", "--m", "2", "--n", "2", "--family", "all"])
    assert code == 0
    # 4 families of 18 histories: one validation per family, and each shared
    # prefix evolved once (4 evolutions per history would make 288 calls)
    assert analysis_work == {"validate": 4, "evolve": 44, "steps": 78}


def test_conservation_breach_exits_3(monkeypatch, capsys):
    def boom(bob, cfg):
        raise ConservationError("probability budget violated")
    monkeypatch.setattr(cli, "counterport", boom)
    assert main(["counterport"]) == 3
    assert "conservation breach" in capsys.readouterr().err


# ------------------------------------------------------------------ JSON text

def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


_TRICKY_TEXT = st.text(st.sampled_from(['"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f",
                                        "é", "\u2028", "\U0001f600", "a", " ", "{", "}",
                                        "[", "]", ",", ":"]))
_STRINGS = st.one_of(st.text(), _TRICKY_TEXT)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=2 ** 64),
    st.integers(max_value=-(2 ** 64)), st.floats(),
    st.sampled_from([-0.0, 5e-324, math.nan, math.inf, -math.inf]), _STRINGS)


def _dicts(values):
    return st.dictionaries(_STRINGS, values, max_size=4)


def _rows(values):
    """Lists of rows: containers of scalars, some of which hold an empty container."""
    return st.lists(st.one_of(_dicts(values), st.lists(values, max_size=3)),
                    min_size=1, max_size=4)


def _containers(children):
    return st.one_of(st.lists(children, max_size=4), _dicts(children), _rows(_SCALARS),
                     _rows(st.one_of(_SCALARS, st.sampled_from([[], {}]))))


# record-shaped values: dicts with str keys, lists and exact scalars
_JSON_VALUES = st.recursive(_SCALARS, _containers, max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(_JSON_VALUES)
def test_json_text_matches_json_dumps(value):
    assert cli._json_text(value) == _dumps(value)


class _Float(float):
    pass


class _Str(str):
    pass


class _Dict(dict):
    pass


class _List(list):
    pass


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


@pytest.mark.parametrize("value", [
    (1, 2), {"a": [1, (2,)]}, {1: "a"}, {2.5: 0}, {None: 0},
    _Float(0.25), {"x": [_Float(-1.5), _Float("nan")]}, _Str("s\n\u00e9"), {"a": _Str("v")},
    _Dict(b=[1], a=_Dict()), {"a": _Dict()}, _List([1, 2]), [1, _List()],
    _Level.HIGH, {"l": [_Level.LOW]}, {_Level.HIGH: 1},
], ids=["tuple", "tuple-in-list", "int-key", "float-key", "none-key", "float", "float-in-list",
        "str", "str-in-dict", "dict", "dict-in-dict", "list", "list-in-list", "int-enum",
        "int-enum-in-list", "int-enum-key"])
def test_json_text_rejects_what_no_record_holds(value):
    # each of these is json.dumps text, but no record holds it
    with pytest.raises(TypeError):
        cli._json_text(value)


@pytest.mark.parametrize("value", [
    {1, 2}, {"a": {1}}, [{"a": 1}, {"b": {2}}], [[1, {2}]], {"a": [1.0, {3}]}, {(1, 2): 3},
], ids=["top", "in-dict", "in-row", "in-list-row", "in-mixed-dict", "tuple-key"])
def test_json_text_rejects_a_set_like_json_dumps(value):
    with pytest.raises(TypeError):
        _dumps(value)
    with pytest.raises(TypeError):
        cli._json_text(value)


@pytest.fixture
def json_texts(monkeypatch):
    """(object, text) of every record a subcommand serializes."""
    seen = []
    real = cli._json_text

    def spy(obj):
        text = real(obj)
        seen.append((obj, text))
        return text

    monkeypatch.setattr(cli, "_json_text", spy)
    return seen


_FAMILY_FILE = "family.txt"


@pytest.mark.parametrize("argv, written", [
    (["counterport", "--m", "3", "--n", "4", "--alpha", "0.6", "--beta", "0.8j"], None),
    (["counterport", "--m", "100", "--n", "40000", "--alpha", "0.6", "--beta", "0.48+0.64j",
      "--eps-reflect", "0.05", "--eps-block", "0.02", "--eps-block-per", "outer",
      "--out", "{dir}/counterport.json"], "counterport.json"),
    (sweep_args("{dir}", ["--workers", "1"]), "sweep.json"),
    (sweep_args("{dir}", ["--workers", "2", "--eps-reflect", "0.13"]), "sweep.json"),
    (["paradox", "--av-rounds", "1", "--json-out", "{dir}/paradox.json"], "paradox.json"),
    (["histories", "--family", "all", "--json-out", "{dir}/histories.json"], "histories.json"),
    (["histories", "--family-file", "{dir}/" + _FAMILY_FILE,
      "--json-out", "{dir}/histories.json"], "histories.json"),
], ids=["counterport-loop-tier", "counterport-exact-tier-lossy", "sweep-1-worker",
        "sweep-2-workers", "paradox-av-rounds", "histories-all", "histories-family-file"])
def test_cli_records_are_json_dumps_text(argv, written, json_texts, tmp_path, capsys):
    from zenoport.analysis import builtin_families, family_to_text
    from zenoport.optics import build_paradox_circuit
    fam = builtin_families(build_paradox_circuit(2, 2))["final_via_cycle1"]
    (tmp_path / _FAMILY_FILE).write_text(family_to_text(fam))
    code, out = run(capsys, [a.replace("{dir}", str(tmp_path)) for a in argv])
    assert code == 0
    [(record, text)] = json_texts
    assert text == _dumps(record)
    assert text == (out if written is None else (tmp_path / written).read_text())
