"""Presence CLI output, byte for byte against recorded golden files.

The files in tests/golden/ hold the stdout text (.txt, .csv) and the
--json-out record (.json) of each command below.  CI runs the same
commands through the console script and compares them with cmp.
"""
from pathlib import Path

import pytest

from zenoport.cli import main

GOLDEN = Path(__file__).parent / "golden"
MN = ["--m", "4", "--n", "12"]

# (argv, golden stdout file, golden --json-out file or None)
RUNS = [
    (["paradox", *MN, "--av-rounds", "2"], "paradox_m4_n12_av2.txt", "paradox_m4_n12_av2.json"),
    (["weakvalues", *MN], "weakvalues_m4_n12.csv", None),
    (["weakvalues", *MN, "--boundaries", "cycle1"], "weakvalues_m4_n12_cycle1.csv", None),
    (["histories", *MN, "--family", "all"], "histories_m4_n12.txt", "histories_m4_n12.json"),
]


@pytest.mark.parametrize("argv, stdout_file, json_file", RUNS,
                         ids=[name for _, name, _ in RUNS])
def test_presence_output_matches_its_golden_file(argv, stdout_file, json_file, tmp_path,
                                                 capsys):
    json_out = tmp_path / "out.json"
    assert main(argv + (["--json-out", str(json_out)] if json_file else [])) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / stdout_file).read_bytes()
    if json_file:
        assert json_out.read_bytes() == (GOLDEN / json_file).read_bytes()
