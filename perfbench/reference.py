"""Reference values for the default seed, and the script that records them.

For a prefix of each workload's op stream at seed 0, the reference file
holds every op's exit codes and the values its checks extracted, as
integers in units of 1e-10.  A run at seed 0 fails an op whose values
differ from the reference by more than 1e-9 (relative above magnitude 1).
Ops past the prefix, and ops that failed when the reference was recorded,
are checked for parsing, agreement and range only.

Record the files again only when the op generators change:

    python3 perfbench/reference.py [workload ...]
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

DEFAULT_SEED = 0
SCALE = 1e10
ATOL = 1e-9
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_OPS = {"sweep_grid": 40, "deep_chain": 300, "presence": 48}


def path_for(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def encode(values: list) -> list:
    return [None if v is None else round(v * SCALE) for v in values]


def load(workload: str) -> dict[int, dict]:
    obj = json.loads(path_for(workload).read_text())
    if obj["workload"] != workload or obj["seed"] != DEFAULT_SEED:
        raise ValueError(f"{path_for(workload)} is not the seed-{DEFAULT_SEED} {workload} reference")
    return {rec["index"]: rec for rec in obj["ops"]}


def mismatch(ref: dict, codes: list[int], values: list) -> str | None:
    """Why an op that exited 0 disagrees with its reference record, or None."""
    stored = ref["values"]
    if stored is None:
        return None  # the op failed when recorded: nothing to compare
    if len(stored) != len(values):
        return f"{len(values)} values against {len(stored)} in the reference"
    for i, (v, r) in enumerate(zip(values, stored)):
        if (v is None) != (r is None):
            return f"value {i} is {v!r}, reference {r!r}"
        if v is not None:
            ref_v = r / SCALE
            if abs(v - ref_v) > ATOL * max(1.0, abs(ref_v)):
                return f"value {i} is {v!r}, reference {ref_v!r}"
    return None


def main(argv: list[str]) -> int:
    import run  # the benchmark runner beside this file

    run.load_program()
    from workloads import WORKLOADS

    names = argv or list(WORKLOADS)
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names:
        workload = WORKLOADS[name]
        records = []
        with run.workdir_for(name) as workdir:
            ops = workload.ops(DEFAULT_SEED)
            for _ in range(REFERENCE_OPS[name]):
                op = next(ops)
                _, codes, values, why = run.run_op(workload, op, workdir)
                records.append({"index": op.index, "codes": codes,
                                "values": None if why else encode(values)})
        text = (f'{{"workload": "{name}", "seed": {DEFAULT_SEED}, "ops": [\n'
                + ",\n".join(json.dumps(r, separators=(",", ":")) for r in records)
                + "\n]}\n")
        path_for(name).write_text(text)
        failed = sum(1 for r in records if r["values"] is None)
        print(f"{name}: {len(records)} ops, {failed} failed, {len(text)} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
