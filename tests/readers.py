"""Readers for the files the CLI writes, so tests can check their shape.

Each reader asserts the layout it expects (header, full grid, field
count) and fails on anything else.
"""

import numpy as np

from zenoport.counterport import FidelityGrid
from zenoport.qstate import StateVector, label

GRID_HEADER = "M,N,avg_fidelity,avg_success_prob"
WEAK_MAP_HEADER = "arm,stamp,re,im"


def read_grid_csv(text: str) -> FidelityGrid:
    """The grid a sweep CSV holds; every (M, N) cell must be present once."""
    rows = [l.strip() for l in text.splitlines() if l.strip()]
    assert rows and rows[0] == GRID_HEADER, f"grid CSV header is {rows[:1]}"
    cells: dict[tuple[int, int], tuple[float, float]] = {}
    for row in rows[1:]:
        m_s, n_s, f_s, p_s = row.split(",")
        assert (int(m_s), int(n_s)) not in cells, f"cell {m_s},{n_s} repeated"
        cells[(int(m_s), int(n_s))] = (float(f_s), float(p_s))
    m_values = tuple(sorted({m for m, _ in cells}))
    n_values = tuple(sorted({n for _, n in cells}))
    assert len(cells) == len(m_values) * len(n_values), "grid CSV is not a full rectangle"
    fid = np.array([[cells[m, n][0] for n in n_values] for m in m_values])
    prob = np.array([[cells[m, n][1] for n in n_values] for m in m_values])
    return FidelityGrid(m_values, n_values, fid, prob)


def read_grid_json(obj: dict) -> FidelityGrid:
    """The grid a sweep JSON holds; both tables must be M rows of N cells."""
    assert set(obj) == {"m_values", "n_values", "avg_fidelity", "avg_success_prob", "meta"}
    m_values, n_values = tuple(obj["m_values"]), tuple(obj["n_values"])
    shape = (len(m_values), len(n_values))
    fid = np.array(obj["avg_fidelity"], dtype=float)
    prob = np.array(obj["avg_success_prob"], dtype=float)
    assert fid.shape == prob.shape == shape, f"grid tables are {fid.shape}, {prob.shape}"
    return FidelityGrid(m_values, n_values, fid, prob, dict(obj["meta"]))


def read_weak_map_csv(text: str) -> dict[tuple[str, str], complex | None]:
    """(arm, stamp) -> weak value from a weakvalues CSV; None where undefined."""
    rows = [l for l in text.splitlines() if l.strip()]
    assert rows and rows[0] == WEAK_MAP_HEADER, f"weak-value CSV header is {rows[:1]}"
    out: dict[tuple[str, str], complex | None] = {}
    for row in rows[1:]:
        arm, stamp, re_s, im_s = row.split(",")
        out[(arm, stamp)] = None if re_s == "" else complex(float(re_s), float(im_s))
    return out


def read_state(rows: list[dict]) -> StateVector:
    """The state one counterport JSON round holds (a list of label rows)."""
    amps = {}
    for r in rows:
        assert set(r) == {"path", "pol", "bob", "re", "im"}, f"state row keys {sorted(r)}"
        amps[label(r["path"], r["pol"], r["bob"])] = complex(r["re"], r["im"])
    return StateVector(amps)
