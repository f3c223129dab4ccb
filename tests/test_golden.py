"""Command output, byte for byte against recorded golden files.

The files in tests/golden/ hold the stdout text (.txt, .csv) and the
--json-out record (.json) of each presence command below, and the family
file (.family) that one of them reads; the stdout text (.txt) and the
sweep.csv, sweep.json and sweep.svg (.csv, .json, .svg) of each sweep, run
with --out-dir . from its own directory; and the JSON record (.json) of
each counterport run, whose signed zeros pin the types of the module's
transfers.  CI runs the same commands through the console script and
compares them with cmp.  The .hex file holds the blocked circuit's weak
trace through the library, one cell per line with its value as float hex.
"""
from pathlib import Path

import pytest

from zenoport.analysis import cycle_boundaries, end_to_end_boundaries, weak_trace_map
from zenoport.cli import main
from zenoport.optics import build_paradox_circuit

GOLDEN = Path(__file__).parent / "golden"
MN = ["--m", "4", "--n", "12"]

# (argv, golden stdout file, golden --json-out file or None)
RUNS = [
    (["paradox", *MN, "--av-rounds", "2"], "paradox_m4_n12_av2.txt", "paradox_m4_n12_av2.json"),
    (["weakvalues", *MN], "weakvalues_m4_n12.csv", None),
    (["weakvalues", *MN, "--boundaries", "cycle1"], "weakvalues_m4_n12_cycle1.csv", None),
    # entrance-block sinks, and a window that starts mid-circuit
    (["weakvalues", *MN, "--av-rounds", "2", "--boundaries", "cycle2"],
     "weakvalues_m4_n12_av2_cycle2.csv", None),
    (["histories", *MN, "--family", "all"], "histories_m4_n12.txt", "histories_m4_n12.json"),
    # a post projector that matches the fresh sinks, so the engines step full states
    (["histories", *MN, "--family-file", str(GOLDEN / "final_via_cycle1_any_path_h.family")],
     "histories_m4_n12_any_path_h.txt", "histories_m4_n12_any_path_h.json"),
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


# (argv, golden file stem): two lossy grids, both schemes and both fidelity modes
SWEEPS = [
    (["sweep", "--m-max", "4", "--n-max", "5", "--samples", "7"], "sweep_m4_n5_s7"),
    (["sweep", "--m-max", "5", "--n-max", "4", "--samples", "9", "--scheme", "seeded-uniform",
      "--seed", "3", "--av-rounds", "1", "--eps-block-per", "outer",
      "--fidelity-mode", "post-selected"], "sweep_m5_n4_s9_post"),
]


@pytest.mark.parametrize("argv, stem", SWEEPS, ids=[stem for _, stem in SWEEPS])
def test_sweep_output_matches_its_golden_files(argv, stem, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out-dir", "."]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{stem}.txt").read_bytes()
    for ext in ("csv", "json", "svg"):
        assert (tmp_path / f"sweep.{ext}").read_bytes() == (GOLDEN / f"{stem}.{ext}").read_bytes()


LOSSY = ["--alpha", "0.6", "--eps-reflect", "0.05", "--eps-block", "0.02"]
# (argv, golden stdout file): a loop-tier and two exact-tier runs, each with a complex
# beta; the last powers its rounds between entrance blocks and retains bit 1 per dwell
COUNTERPORTS = [
    (["counterport", "--m", "10", "--n", "20", "--av-rounds", "1", *LOSSY,
      "--beta", "-0.48+0.64j"], "counterport_m10_n20_av1.json"),
    (["counterport", "--m", "100", "--n", "40000", *LOSSY, "--beta", "0.48+0.64j"],
     "counterport_m100_n40000.json"),
    (["counterport", "--m", "300", "--n", "5000", "--av-rounds", "3", *LOSSY,
      "--eps-block-per", "outer", "--beta", "0.8j"], "counterport_m300_n5000_av3_outer.json"),
]


@pytest.mark.parametrize("argv, stdout_file", COUNTERPORTS,
                         ids=[name for _, name in COUNTERPORTS])
def test_counterport_record_matches_its_golden_file(argv, stdout_file, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / stdout_file).read_bytes()


def blocked_weak_trace_text() -> str:
    """Every cell of the blocked (4, 12) circuit's weak trace for end-to-end and
    cycle1 boundaries: boundaries, arm, stamp, then re and im as float hex or None."""
    c = build_paradox_circuit(4, 12, block_channel=True)
    lines = []
    for name, b in (("end-to-end", end_to_end_boundaries(c)), ("cycle1", cycle_boundaries(c, 1))):
        for (arm, stamp), w in weak_trace_map(c, b).items():
            value = "None" if w is None else f"{w.real.hex()} {w.imag.hex()}"
            lines.append(f"{name} {arm} {stamp} {value}\n")
    return "".join(lines)


def test_blocked_weak_trace_matches_its_golden_file():
    assert blocked_weak_trace_text() == (GOLDEN / "weak_trace_blocked_m4_n12.hex").read_text()
