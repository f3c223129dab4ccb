"""Command line front end.

Five subcommands drive the simulator: ``sweep`` (fidelity grid with CSV,
JSON and SVG heatmap output), ``counterport`` (single transport run as a
JSON record), ``paradox`` (weak-value contrast table), ``weakvalues``
(full arm-by-stamp weak trace as CSV) and ``histories`` (consistency
report for projector families).

Configuration precedence is flags > config file (JSON) > built-in
defaults.  Exit codes: 0 success, 2 configuration error, 3 numerical
conservation breach.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .analysis import (
    BoundaryPair,
    arm_paths,
    builtin_families,
    cycle_boundaries,
    end_to_end_boundaries,
    evaluate_family,
    family_from_text,
    paradox_report,
    weak_trace_map,
)
from .counterport import FIDELITY_MODES, FidelityGrid, counterport, sample_bloch, sweep
from .cqze import BobQubit, ProtocolConfig
from .optics import build_paradox_circuit
from .qstate import ConservationError, QStateError, StateVector, _is_int, _is_real

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONSERVATION = 3

CLASSICAL_LIMIT = 2.0 / 3.0

_DEFAULTS: dict[str, dict] = {
    "sweep": {
        "m_max": 20, "n_max": 20, "eps_reflect": 0.10, "eps_block": 0.05,
        "av_rounds": 0, "eps_block_per": "inner", "samples": 100,
        "scheme": "fibonacci", "seed": 0, "fidelity_mode": "loss-inclusive",
        "workers": 1, "out_dir": ".",
    },
    "counterport": {
        "m": 10, "n": 20, "alpha": "1", "beta": "0", "eps_reflect": 0.0,
        "eps_block": 0.0, "av_rounds": 0, "eps_block_per": "inner", "out": None,
    },
    "paradox": {
        "m": 2, "n": 2, "av_rounds": 0, "epsilon": 1e-3, "json_out": None,
    },
    "weakvalues": {
        "m": 2, "n": 2, "av_rounds": 0, "boundaries": "end-to-end", "out": None,
    },
    "histories": {
        "m": 2, "n": 2, "family": "all", "family_file": None, "json_out": None,
    },
}


def _rule(ok, what: str):
    """A rule that returns each value ok accepts and says what the others must be."""
    def rule(key, v):
        if not ok(v):
            raise QStateError(f"config key {key!r} must {what}")
        return v
    return rule


def _integer(lo: int):
    is_int = _rule(_is_int, "be an integer")
    at_least = _rule(lambda v: v >= lo, f"be >= {lo}")
    return lambda key, v: at_least(key, is_int(key, v))


def _number(lo: float, hi: float):
    is_number = _rule(_is_real, "be a number")
    within = _rule(lambda v: lo <= v <= hi, f"lie in [{lo}, {hi}]")
    # an int is compared exactly, so one too large for a float fails the range
    return lambda key, v: float(within(key, is_number(key, v)))


def _choice(*choices: str):
    return _rule(lambda v: v in choices, f"be one of {list(choices)}")


def _complex(key, v) -> complex:
    if isinstance(v, bool):
        raise QStateError(f"{key} must be a number or a complex literal, not a boolean")
    if isinstance(v, (int, float, complex)):
        return complex(v)
    try:
        return complex(str(v).replace(" ", ""))
    except ValueError:
        raise QStateError(f"{key} is not a complex literal: {v!r}") from None


def _boundaries(key, v):
    if v != "end-to-end" and not (isinstance(v, str) and v.startswith("cycle")
                                  and v[5:].isascii() and v[5:].isdigit()
                                  and int(v[5:]) >= 1):
        raise QStateError("boundaries must be 'end-to-end' or 'cycle<k>'")
    return v


def _family(key, v):
    if not isinstance(v, str) or not v.strip():
        raise QStateError("family must be a non-empty name")
    return v


# One rule per config key, whatever subcommand takes it: a rule checks a value
# and returns the value to use.
_RULES = {
    **dict.fromkeys(("m_max", "n_max", "m", "n", "samples", "workers"), _integer(1)),
    "seed": _integer(-(2 ** 63)),
    "av_rounds": _integer(0),
    "eps_reflect": _number(0.0, 1.0),
    "eps_block": _number(0.0, 1.0),
    "epsilon": _number(1e-12, 0.5),
    "eps_block_per": _choice("inner", "outer"),
    "scheme": _choice("fibonacci", "seeded-uniform"),
    "fidelity_mode": _choice(*FIDELITY_MODES),
    "alpha": _complex,
    "beta": _complex,
    "boundaries": _boundaries,
    "family": _family,
    "out_dir": _rule(lambda v: isinstance(v, str), "be a string path"),
    **dict.fromkeys(("out", "json_out", "family_file"),
                    _rule(lambda v: v is None or isinstance(v, str), "be a string path")),
}


def load_config(sub: str, config_path: str | None, flag_values: dict) -> dict:
    """Merge defaults, optional JSON config file and explicit flags, and
    apply each key's rule."""
    params = dict(_DEFAULTS[sub])
    if config_path is not None:
        try:
            text = Path(config_path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise QStateError(f"cannot read config file {config_path!r}: {exc}") from None
        try:
            file_params = json.loads(text)
        except json.JSONDecodeError as exc:
            raise QStateError(f"config file {config_path!r} is not valid JSON: {exc}") from None
        if not isinstance(file_params, dict):
            raise QStateError(f"config file {config_path!r} must hold a JSON object")
        unknown = sorted(set(file_params) - set(params))
        if unknown:
            raise QStateError(f"unknown config keys for {sub!r}: {unknown}")
        params.update(file_params)
    for key, value in flag_values.items():
        if value is not None:
            params[key] = value
    return {key: _RULES[key](key, value) for key, value in params.items()}


_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def _write_text(path: Path, text: str) -> None:
    """Write text to path, making missing directories, in one os-level write
    where the system takes it whole.  Every output is ASCII, so its UTF-8
    bytes are those any ASCII-compatible locale's text mode would write."""
    data = memoryview(text.encode())
    try:
        try:
            fd = os.open(path, _WRITE_FLAGS, 0o666)
        except FileNotFoundError:  # the directories are made only when missing
            path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(path, _WRITE_FLAGS, 0o666)
        try:
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
    except OSError as exc:
        raise QStateError(f"cannot write {path}: {exc}") from None


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _write_text(Path(out), text)


# ----------------------------------------------------------------- JSON text

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# each scalar's text by its exact type, as json writes it
_SCALAR = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: lambda x: _NON_FINITE.get(text := float.__repr__(x), text),
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _indented(obj, outer: str) -> str:
    """obj as json.dumps writes it with sorted keys and an indent of 2,
    nested at the indent that outer ("\n" and spaces) carries.  obj is a
    record: dicts with str keys, lists, and values whose exact type is a key
    of _SCALAR; anything else raises TypeError.  Each item's exact type is
    looked up first: most are scalars, and a call costs more."""
    write = _SCALAR.get(type(obj))
    if write is not None:
        return write(obj)
    inner = outer + "  "
    if type(obj) is dict:  # encode_basestring_ascii raises TypeError for a non-str key
        items = [f"{encode_basestring_ascii(k)}: "
                 f"{w(v) if (w := _SCALAR.get(type(v))) else _indented(v, inner)}"
                 for k, v in sorted(obj.items())]
        o, c = "{", "}"
    elif type(obj) is list:
        items = [w(v) if (w := _SCALAR.get(type(v))) else _indented(v, inner) for v in obj]
        o, c = "[", "]"
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return o + inner + ("," + inner).join(items) + outer + c if items else o + c


def _json_text(obj) -> str:
    """obj as json.dumps writes it with sorted keys and an indent of 2, then
    a newline, byte for byte."""
    return _indented(obj, "\n") + "\n"


# ---------------------------------------------------------------- state JSON

def state_to_obj(s: StateVector) -> list[dict]:
    """JSON-friendly form of a state: one row per label, sorted."""
    return [{"path": k.path, "pol": k.pol, "bob": k.bob, "re": v.real, "im": v.imag}
            for k, v in sorted(s.items())]


# --------------------------------------------------------------- weak map CSV

def weak_map_to_csv(c, trace: dict) -> str:
    """CSV form of a weak trace map; empty value fields mark undefined cells."""
    lines = ["arm,stamp,re,im"]
    for arm in arm_paths(c):
        for stamp in c.stamps:
            v = trace[(arm, stamp)]
            if v is None:
                lines.append(f"{arm},{stamp},,")
            else:
                lines.append(f"{arm},{stamp},{v.real!r},{v.imag!r}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------ sweep SVG

def _ramp_color(v: float) -> str:
    v = min(1.0, max(0.0, v))
    # from (20, 42, 94) at 0 to (250, 236, 120) at 1
    return f"#{round(20 + 230 * v):02x}{round(42 + 194 * v):02x}{round(94 + 26 * v):02x}"


def svg_heatmap(grid: FidelityGrid) -> str:
    """Self-contained SVG heatmap of avg_fidelity with the classical limit's contour."""
    cell = 22
    ml, mt, mr, mb = 70, 46, 130, 64
    rows = len(grid.m_values)
    cols = len(grid.n_values)
    width = ml + cols * cell + mr
    height = mt + rows * cell + mb
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="11">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{ml}" y="20" font-size="14">average transport fidelity</text>',
    ]
    vals = grid.avg_fidelity.tolist()
    for i in range(rows):
        for j in range(cols):
            x = ml + j * cell
            y = mt + i * cell
            parts.append(f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                         f'fill="{_ramp_color(vals[i][j])}"/>')
    # contour: edges where neighbours straddle the classical limit
    seg = []
    for i in range(rows):
        for j in range(cols):
            here = vals[i][j] >= CLASSICAL_LIMIT
            if j + 1 < cols and here != (vals[i][j + 1] >= CLASSICAL_LIMIT):
                x = ml + (j + 1) * cell
                seg.append(f'M{x} {mt + i * cell} V{mt + (i + 1) * cell}')
            if i + 1 < rows and here != (vals[i + 1][j] >= CLASSICAL_LIMIT):
                y = mt + (i + 1) * cell
                seg.append(f'M{ml + j * cell} {y} H{ml + (j + 1) * cell}')
    if seg:
        parts.append(f'<path d="{" ".join(seg)}" stroke="#d62728" stroke-width="2.5" fill="none"/>')
    # axis ticks
    xstep = max(1, cols // 10)
    for j in range(0, cols, xstep):
        x = ml + j * cell + cell // 2
        parts.append(f'<text x="{x}" y="{mt + rows * cell + 16}" '
                     f'text-anchor="middle">{grid.n_values[j]}</text>')
    ystep = max(1, rows // 10)
    for i in range(0, rows, ystep):
        y = mt + i * cell + cell // 2 + 4
        parts.append(f'<text x="{ml - 8}" y="{y}" text-anchor="end">{grid.m_values[i]}</text>')
    parts.append(f'<text x="{ml + cols * cell // 2}" y="{height - 14}" '
                 f'text-anchor="middle">N (inner cycles)</text>')
    parts.append(f'<text x="18" y="{mt + rows * cell // 2}" text-anchor="middle" '
                 f'transform="rotate(-90 18 {mt + rows * cell // 2})">M (outer cycles)</text>')
    # color legend
    lx = ml + cols * cell + 24
    lh = max(rows * cell, 60)
    steps = 24
    for k in range(steps):
        v = 1.0 - k / (steps - 1)
        y = mt + round(k * (lh - lh / steps))
        parts.append(f'<rect x="{lx}" y="{y}" width="16" height="{lh // steps + 1}" '
                     f'fill="{_ramp_color(v)}"/>')
    parts.append(f'<text x="{lx + 22}" y="{mt + 10}">1.0</text>')
    parts.append(f'<text x="{lx + 22}" y="{mt + lh}">0.0</text>')
    cy = mt + round((1.0 - CLASSICAL_LIMIT) * (lh - 1))
    parts.append(f'<line x1="{lx - 4}" y1="{cy}" x2="{lx + 20}" y2="{cy}" '
                 f'stroke="#d62728" stroke-width="2.5"/>')
    parts.append(f'<text x="{lx + 22}" y="{cy + 4}" fill="#d62728">2/3</text>')
    parts.append('</svg>')
    return "\n".join(parts) + "\n"


# -------------------------------------------------------------- subcommands

def cmd_sweep(p: dict) -> int:
    template = ProtocolConfig(M=1, N=1, eps_reflect=p["eps_reflect"], eps_block=p["eps_block"],
                              av_rounds=p["av_rounds"], eps_block_per=p["eps_block_per"])
    sample = sample_bloch(p["samples"], p["scheme"], p["seed"])
    grid = sweep(p["m_max"], p["n_max"], template, sample,
                 fidelity_mode=p["fidelity_mode"], workers=p["workers"])
    out_dir = Path(p["out_dir"])
    csv_path = out_dir / "sweep.csv"
    json_path = out_dir / "sweep.json"
    svg_path = out_dir / "sweep.svg"
    _write_text(csv_path, grid.to_csv())
    _write_text(json_path, _json_text(grid.to_json()))
    _write_text(svg_path, svg_heatmap(grid))
    best = max((f, m, n) for m, row in zip(grid.m_values, grid.avg_fidelity.tolist())
               for n, f in zip(grid.n_values, row))
    print(f"wrote {csv_path} {json_path} {svg_path}")
    print(f"best avg fidelity {best[0]:.6f} at (M,N)=({best[1]},{best[2]})")
    return EXIT_OK


def cmd_counterport(p: dict) -> int:
    bob = BobQubit(p["alpha"], p["beta"])
    pcfg = ProtocolConfig(M=p["m"], N=p["n"], eps_reflect=p["eps_reflect"],
                          eps_block=p["eps_block"], av_rounds=p["av_rounds"],
                          eps_block_per=p["eps_block_per"])
    res = counterport(bob, pcfg)
    record = {
        "config": vars(pcfg),
        "bob": [[bob.alpha.real, bob.alpha.imag], [bob.beta.real, bob.beta.imag]],
        "p_port1": res.p_port1,
        "p_port2": res.p_port2,
        "p_success": res.p_success,
        "p_lost": res.p_lost,
        "loss_breakdown": res.loss_breakdown,
        "fidelity": res.fidelity,
        "fidelity_post_selected": res.fidelity_post_selected,
        "bob_purity": res.bob_purity,
        "rounds": {name: state_to_obj(sv) for name, sv in res.round_trace.items()},
    }
    _emit(_json_text(record), p["out"])
    return EXIT_OK


def _format_cell(value) -> str:
    if value is None:
        return "undefined"
    if isinstance(value, (list, tuple)):
        return f"{value[0]:+.6f}{value[1]:+.6f}j"
    return f"{value:+.3e}"


def cmd_paradox(p: dict) -> int:
    report = paradox_report(p["m"], p["n"], av_rounds=p["av_rounds"], epsilon=p["epsilon"])
    print(f"M={report['M']} N={report['N']} av_rounds={report['av_rounds']} "
          f"epsilon={report['epsilon']:g}")
    print(f"{'boundaries':<15} {'arm':<4} {'stamp':<8} {'weak value':>20} {'probe signal':>13}")
    for row in report["rows"]:
        print(f"{row['boundaries']:<15} {row['arm']:<4} {row['stamp']:<8} "
              f"{_format_cell(row['weak_value']):>20} {_format_cell(row['probe_signal']):>13}")
    for name, sig in report["channel_probe_signal"].items():
        print(f"channel probe [{name}]: {sig:+.6e}")
    if p["json_out"] is not None:
        _write_text(Path(p["json_out"]), _json_text(report))
    return EXIT_OK


def _boundaries_for(c, spec: str) -> BoundaryPair:
    if spec == "end-to-end":
        return end_to_end_boundaries(c)
    return cycle_boundaries(c, int(spec[5:]))


def cmd_weakvalues(p: dict) -> int:
    c = build_paradox_circuit(p["m"], p["n"], av_rounds=p["av_rounds"])
    b = _boundaries_for(c, p["boundaries"])
    trace = weak_trace_map(c, b)
    _emit(weak_map_to_csv(c, trace), p["out"])
    return EXIT_OK


def cmd_histories(p: dict) -> int:
    c = build_paradox_circuit(p["m"], p["n"])
    if p["family_file"] is not None:
        try:
            text = Path(p["family_file"]).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise QStateError(f"cannot read family file {p['family_file']!r}: {exc}") from None
        fam = family_from_text(text)
        families = {fam.name or "custom": fam}
    else:
        available = builtin_families(c)
        if p["family"] == "all":
            families = available
        elif p["family"] in available:
            families = {p["family"]: available[p["family"]]}
        else:
            raise QStateError(f"unknown family {p['family']!r}; "
                              f"choose from {sorted(available)} or 'all'")
    report: dict = {"M": p["m"], "N": p["n"], "families": {}}
    for name, fam in families.items():
        ev = evaluate_family(fam, c)
        pair = ev.offending_pair
        names = [str(k.history) for k in ev.kets]
        report["families"][name] = {
            "n_histories": len(names),
            "consistent": pair is None,
            "offending_pair": None if pair is None else [list(pair[0].names),
                                                         list(pair[1].names)],
            "weights": dict(zip(names, (k.weight for k in ev.kets))),
            "probabilities": None if pair is not None else dict(zip(names, ev.probabilities())),
        }
        verdict = "consistent" if pair is None else f"NOT consistent ({pair[0]} vs {pair[1]})"
        print(f"{name}: {len(names)} histories, {verdict}")
    if p["json_out"] is not None:
        _write_text(Path(p["json_out"]), _json_text(report))
    return EXIT_OK


_DISPATCH = {
    "sweep": cmd_sweep,
    "counterport": cmd_counterport,
    "paradox": cmd_paradox,
    "weakvalues": cmd_weakvalues,
    "histories": cmd_histories,
}


def _add_common(sp, keys: dict) -> None:
    sp.add_argument("--config", metavar="FILE", default=None,
                    help="JSON config file (flags override its keys)")
    for key, default in keys.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(default, int):
            sp.add_argument(flag, type=int, default=None, help=f"(default {default})")
        elif isinstance(default, float):
            sp.add_argument(flag, type=float, default=None, help=f"(default {default})")
        else:
            sp.add_argument(flag, default=None, help=f"(default {default})")


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The zenoport parser and its subcommands' parsers by name, built on
    first use and shared by later calls; do not modify them."""
    parser = argparse.ArgumentParser(
        prog="zenoport",
        description="Exchange-free qubit transport simulator and analysis toolkit.")
    sub = parser.add_subparsers(dest="cmd", required=True)
    helps = {
        "sweep": "average-fidelity grid over (M, N); writes CSV, JSON and SVG",
        "counterport": "one transport run; JSON record with per-round states",
        "paradox": "weak-value and probe contrast for the nested circuit",
        "weakvalues": "weak value of every arm at every stamp, as CSV",
        "histories": "consistency check and probabilities for history families",
    }
    for name, defaults in _DEFAULTS.items():
        sp = sub.add_parser(name, help=helps[name])
        _add_common(sp, defaults)
    return parser, sub.choices


def _bind_complex_values(argv: list[str]) -> list[str]:
    """Rewrite ``--alpha VALUE`` and ``--beta VALUE`` as ``--flag=VALUE``
    when VALUE is a complex literal starting with a minus sign.

    argparse takes such a token (``-0.3+0.7j``) for an option, since only
    plain negative reals pass as values.
    """
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in ("--alpha", "--beta") and tok.startswith("-"):
            try:
                complex(tok)
            except ValueError:
                pass
            else:
                out[-1] += "=" + tok
                continue
        out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = _bind_complex_values(sys.argv[1:] if argv is None else argv)
    parser, subcommands = _parsers()
    if argv and argv[0] in subcommands:  # one pass: the subcommand's parser reads the rest
        args, extra = subcommands[argv[0]].parse_known_args(argv[1:],
                                                            argparse.Namespace(cmd=argv[0]))
        if extra:  # left over, as the top-level parser reports them
            parser.error("unrecognized arguments: " + " ".join(extra))
    else:  # help, usage errors and whatever else the top-level parser makes of argv
        args = parser.parse_args(argv)
    flag_values = {key: getattr(args, key) for key in _DEFAULTS[args.cmd]}
    try:
        return _DISPATCH[args.cmd](load_config(args.cmd, args.config, flag_values))
    except ConservationError as exc:
        print(f"conservation breach: {exc}", file=sys.stderr)
        return EXIT_CONSERVATION
    except QStateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
