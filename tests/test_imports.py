"""Import graph: numpy loads only where a sweep or a short loop-tier dwell runs,
the process pool only where a sweep starts one, and mpmath, which only the test
oracle uses, never loads.

Each test starts a fresh interpreter, since this test process has long since
imported numpy.  A child blocks numpy with ``sys.modules["numpy"] = None``,
which makes every later ``import numpy`` raise ImportError.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = ("numpy", "concurrent.futures", "multiprocessing")

# argv[1] is "block" or "allow"; argv[2] a directory for outputs.  Prints the
# exit codes and which of HEAVY ended up loaded, as JSON.
PRESENCE_CHILD = """
import contextlib, io, json, sys
from pathlib import Path
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
from zenoport.cli import main
out = Path(sys.argv[2])
runs = {
    "paradox": ["paradox", "--m", "3", "--n", "7", "--av-rounds", "1",
                "--json-out", str(out / "paradox.json")],
    "weak-end": ["weakvalues", "--m", "3", "--n", "7", "--boundaries", "end-to-end",
                 "--out", str(out / "weak-end.csv")],
    "weak-cycle2": ["weakvalues", "--m", "3", "--n", "7", "--boundaries", "cycle2",
                    "--out", str(out / "weak-cycle2.csv")],
    "histories": ["histories", "--family", "all", "--json-out", str(out / "histories.json")],
}
codes = {}
for name, argv in runs.items():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        codes[name] = main(argv)
    (out / (name + ".stdout")).write_text(buf.getvalue())
print(json.dumps({"codes": codes,
                  "loaded": [m for m in %r if sys.modules.get(m) is not None]}))
""" % (HEAVY,)

# argv[1] is "block" or "allow"; argv[2] the JSON output path; argv[3] and
# argv[4] M and N.  Prints the exit code and which of HEAVY ended up loaded.
COUNTERPORT_CHILD = """
import sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
from zenoport.cli import main
code = main(["counterport", "--m", sys.argv[3], "--n", sys.argv[4], "--alpha", "0.6",
             "--beta", "0.8j", "--eps-reflect", "0.05", "--eps-block", "0.02",
             "--out", sys.argv[2]])
print(code, [m for m in %r if sys.modules.get(m) is not None])
""" % (HEAVY,)


def child(code: str, *args) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_package_and_cli_loads_no_numpy_or_pool():
    out = child("import sys, zenoport, zenoport.cli; "
                f"print([m for m in {HEAVY!r} if m in sys.modules])")
    assert out.strip() == "[]"


def test_presence_commands_run_byte_identically_with_numpy_blocked(tmp_path):
    results = {}
    for mode in ("block", "allow"):
        (tmp_path / mode).mkdir()
        results[mode] = json.loads(child(PRESENCE_CHILD, mode, tmp_path / mode))
    for mode, r in results.items():
        assert set(r["codes"].values()) == {0}, (mode, r)
        assert r["loaded"] == [], mode  # numpy importable or not, none of HEAVY loads
    names = sorted(p.name for p in (tmp_path / "allow").iterdir())
    assert len(names) == 8
    assert sorted(p.name for p in (tmp_path / "block").iterdir()) == names
    for name in names:
        assert (tmp_path / "block" / name).read_bytes() == (tmp_path / "allow" / name).read_bytes()
    assert (tmp_path / "allow" / "paradox.stdout").read_text().startswith("M=3 N=7")


def assert_counterport_loads_no_numpy(tmp_path, m, n):
    outs = {}
    for mode in ("block", "allow"):
        outs[mode] = tmp_path / f"{mode}.json"
        out = child(COUNTERPORT_CHILD, mode, outs[mode], m, n)
        assert out.splitlines()[-1] == "0 []", mode
    assert outs["block"].read_bytes() == outs["allow"].read_bytes()


def test_exact_tier_counterport_loads_no_numpy(tmp_path):
    # (100, 40000) lies past LOOP_BUDGET: both module runs are exact-tier
    # integer powers and the transport runs on plain Python numbers
    assert_counterport_loads_no_numpy(tmp_path, 100, 40000)


def test_long_dwell_loop_tier_counterport_loads_no_numpy(tmp_path):
    # (20, 400) lies below LOOP_BUDGET, but N is past DWELL_LOOP_MAX: the
    # dwell is the exact tier's rounded once and the outer loop runs on floats
    assert_counterport_loads_no_numpy(tmp_path, 20, 400)


def test_counterport_fails_with_numpy_blocked():
    # the blocker really blocks: the default (10, 20) run is loop tier with a
    # short dwell, whose extended-precision loop (`cqze._dwell_loop`) needs numpy
    out = child('import sys; sys.modules["numpy"] = None\n'
                "from zenoport.cli import main\n"
                "try:\n"
                "    main(['counterport'])\n"
                "except ImportError:\n"
                "    print('ImportError')\n")
    assert out.strip() == "ImportError"


def test_sweep_loads_numpy_but_starts_no_pool_with_one_worker(tmp_path):
    out = child("import sys; from zenoport.cli import main; "
                "code = main(['sweep', '--m-max', '2', '--n-max', '2', '--samples', '4', "
                "'--workers', '1', '--out-dir', sys.argv[1]]); "
                "print(code, 'numpy' in sys.modules, "
                "'concurrent.futures.process' in sys.modules)", tmp_path)
    assert out.splitlines()[-1] == "0 True False"


def test_mpmath_loads_neither_on_import_nor_in_a_run(tmp_path):
    out = child("import sys, zenoport, zenoport.cli\n"
                "loaded = ['mpmath' in sys.modules]\n"
                "main, out = zenoport.cli.main, sys.argv[1]\n"
                "codes = [main(['counterport', '--out', out + '/cp.json']),\n"
                "         main(['sweep', '--m-max', '2', '--n-max', '2', '--samples', '4',\n"
                "               '--workers', '1', '--out-dir', out])]\n"
                "loaded.append('mpmath' in sys.modules)\n"
                "print(codes, loaded)", tmp_path)
    assert out.splitlines()[-1] == "[0, 0] [False, False]"
    assert not any("mpmath" in p.read_text() for p in SRC.rglob("*.py"))
