"""The three workloads: seeded op generators, op execution and output checks.

An op is one unit a user waits for, run in process through the public
API: one ``sweep`` CLI call, one ``counterport`` CLI call, or one
configuration's four-call presence study.  Every op draws its own
configuration, so the dwell cache and the cached schedule maps never carry
over from one op to the next.

The inputs that set an op's cost (grid extents and sample counts, chain
depths, circuit sizes) follow a Halton sequence that is the same for every
seed: any prefix of the op stream covers their ranges evenly, and runs at
different seeds measure the same mix of cheap and costly ops.  In
``deep_chain`` the inputs that decide a conservation breach follow one
schedule for every seed as well.  The seed draws everything else (loss
coefficients of sweeps, the control qubit's phases, sampling schemes and
seeds, probe strengths, options) from a ``random.Random`` seeded with the
workload name and the seed.

Every flag is passed as ``--flag=value``: argparse reads a separate
negative complex value such as ``-0.3+0.2j`` as an option.
"""
from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import random
import sys
import traceback
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from itertools import count
from pathlib import Path

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONSERVATION = 3
EXIT_CRASH = 1  # an uncaught exception: the CLI process would exit 1

ATOL_SUM = 1e-12       # the program's own conservation tolerance
ATOL_IDENTITY = 1e-9   # weak values of all arms at one stamp sum to 1
SCHEMES = ("fibonacci", "seeded-uniform")
BLOCK_PER = ("inner", "outer")
FIDELITY_MODES = ("loss-inclusive", "post-selected")
BOUNDARIES = ("end-to-end", "cycle1")
PRIMES = (2, 3, 5, 7)


class BenchmarkBug(Exception):
    """A generated op was rejected as a configuration error (exit 2)."""


class CheckFailed(Exception):
    """An op's outputs do not parse, disagree with each other or leave their range."""


@dataclass(frozen=True)
class Op:
    index: int
    params: dict


@dataclass
class Outcome:
    codes: list[int]
    texts: list[str]   # captured stdout and stderr of each CLI call
    extra: object = None


def _radical_inverse(i: int, base: int) -> float:
    inv, f = 0.0, 1.0 / base
    while i:
        i, digit = divmod(i, base)
        inv += digit * f
        f /= base
    return inv


def _halton(i: int, dims: int) -> list[float]:
    """Point i of the Halton sequence in [0, 1)^dims; every prefix is evenly spread."""
    return [_radical_inverse(i + 1, PRIMES[d]) for d in range(dims)]


def _pick(u: float, choices):
    return choices[min(int(u * len(choices)), len(choices) - 1)]


def fmt_complex(z: complex) -> str:
    sign = "-" if z.imag < 0 or (z.imag == 0 and math.copysign(1.0, z.imag) < 0) else "+"
    return f"{z.real!r}{sign}{abs(z.imag)!r}j"


def call_cli(argv: list[str]) -> tuple[int, str]:
    """One ``zenoport`` invocation in process; returns the exit code and its output."""
    main = sys.modules["zenoport.cli"].main  # looked up per call so a tracer sees it
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else EXIT_CRASH
        except Exception:  # a crash fails the op; the run goes on
            traceback.print_exc()
            code = EXIT_CRASH
    return code, buf.getvalue()


def _in_unit(x, what: str) -> None:
    if not isinstance(x, (int, float)) or not 0.0 <= x <= 1.0:
        raise CheckFailed(f"{what} = {x!r} lies outside [0, 1]")


def _finite(x, what: str) -> float:
    if not isinstance(x, (int, float)) or not math.isfinite(x):
        raise CheckFailed(f"{what} = {x!r} is not a finite number")
    return float(x)


def _load_json(path: Path) -> dict:
    try:
        obj = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path.name} does not parse: {exc}") from None
    if not isinstance(obj, dict):
        raise CheckFailed(f"{path.name} holds no JSON object")
    return obj


def check_weak_map(cells: dict[tuple[str, str], complex | None], stamps: list[str],
                   arms: list[str], what: str) -> list:
    """Complete arm x stamp table, finite values, S at the first stamp is 1,
    and at every defined stamp the arms' weak values sum to 1."""
    if len(cells) != len(arms) * len(stamps):
        raise CheckFailed(f"{what}: {len(cells)} cells for {len(arms)} arms x {len(stamps)} stamps")
    values: list = []
    for stamp in stamps:
        row = [cells.get((arm, stamp), "missing") for arm in arms]
        if "missing" in row:
            raise CheckFailed(f"{what}: stamp {stamp} lacks an arm")
        if any(v is None for v in row):
            values.extend([None, None] * len(row))
            continue
        for v in row:
            values.extend([_finite(v.real, what), _finite(v.imag, what)])
        if abs(sum(row) - 1.0) > ATOL_IDENTITY:
            raise CheckFailed(f"{what}: arms sum to {sum(row)!r} at stamp {stamp}")
    first = cells[("S", stamps[0])]
    if first is None or abs(first - 1.0) > ATOL_IDENTITY:
        raise CheckFailed(f"{what}: source arm weak value at {stamps[0]} is {first!r}, not 1")
    return values


# --------------------------------------------------------------- sweep_grid

class SweepGrid:
    """``zenoport sweep`` over small (M, N) grids with lossy, varied options."""

    name = "sweep_grid"
    rate = 1.3  # ops per second at the reference host speed
    trace_ops = 10

    def ops(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        for i in count():
            u = _halton(i, 4)
            params = {
                "m_max": 4 + _pick(u[0], range(5)),
                "n_max": 4 + _pick(u[1], range(5)),
                "samples": _pick(u[2], (50, 100)),
                "av_rounds": _pick(u[3], (0, 1)),
                "scheme": rng.choice(SCHEMES),
                "sample_seed": rng.randrange(2 ** 31),
                "eps_reflect": rng.uniform(0.01, 0.2),
                "eps_block": rng.uniform(0.005, 0.1),
                "eps_block_per": rng.choice(BLOCK_PER),
                "fidelity_mode": rng.choice(FIDELITY_MODES),
            }
            yield Op(i, params)

    def configs(self, op: Op, protocol_config) -> set:
        p = op.params
        return {protocol_config(M=m, N=n, eps_reflect=p["eps_reflect"],
                                eps_block=p["eps_block"], av_rounds=p["av_rounds"],
                                eps_block_per=p["eps_block_per"])
                for m in range(1, p["m_max"] + 1) for n in range(1, p["n_max"] + 1)}

    def argv(self, op: Op, workdir: Path) -> list[str]:
        p = op.params
        return ["sweep", f"--m-max={p['m_max']}", f"--n-max={p['n_max']}",
                f"--samples={p['samples']}", f"--scheme={p['scheme']}",
                f"--seed={p['sample_seed']}", f"--eps-reflect={p['eps_reflect']!r}",
                f"--eps-block={p['eps_block']!r}", f"--av-rounds={p['av_rounds']}",
                f"--eps-block-per={p['eps_block_per']}",
                f"--fidelity-mode={p['fidelity_mode']}", "--workers=1",
                f"--out-dir={workdir}"]

    def execute(self, op: Op, workdir: Path) -> Outcome:
        code, text = call_cli(self.argv(op, workdir))
        return Outcome([code], [text])

    def check(self, op: Op, out: Outcome, workdir: Path) -> list:
        p = op.params
        grid = _load_json(workdir / "sweep.json")
        try:
            csv_text = (workdir / "sweep.csv").read_text()
            svg = ET.fromstring((workdir / "sweep.svg").read_text())
        except (OSError, ET.ParseError) as exc:
            raise CheckFailed(f"sweep output does not parse: {exc}") from None
        m_values = list(range(1, p["m_max"] + 1))
        n_values = list(range(1, p["n_max"] + 1))
        if grid.get("m_values") != m_values or grid.get("n_values") != n_values:
            raise CheckFailed("sweep.json grid axes differ from the requested extents")
        meta = grid.get("meta", {})
        want = {"eps_reflect": p["eps_reflect"], "eps_block": p["eps_block"],
                "av_rounds": p["av_rounds"], "eps_block_per": p["eps_block_per"],
                "sample_count": p["samples"], "sample_scheme": p["scheme"],
                "fidelity_mode": p["fidelity_mode"]}
        if meta != want:
            raise CheckFailed(f"sweep.json meta {meta} differs from the request {want}")
        fid, prob = grid["avg_fidelity"], grid["avg_success_prob"]
        rows = csv_text.splitlines()
        if rows[0] != "M,N,avg_fidelity,avg_success_prob":
            raise CheckFailed("sweep.csv header is wrong")
        expect = [f"{m},{n},{fid[i][j]!r},{prob[i][j]!r}"
                  for i, m in enumerate(m_values) for j, n in enumerate(n_values)]
        parsed = []
        for row in rows[1:]:
            try:
                m_s, n_s, f_s, p_s = row.split(",")
                parsed.append(f"{int(m_s)},{int(n_s)},{float(f_s)!r},{float(p_s)!r}")
            except ValueError:
                raise CheckFailed(f"sweep.csv row {row!r} does not parse") from None
        if parsed != expect:
            raise CheckFailed("sweep.csv and sweep.json disagree")
        if not svg.tag.endswith("svg") or len(svg.findall(".//{*}rect")) < len(expect):
            raise CheckFailed("sweep.svg lacks the heatmap cells")
        values = []
        for i, m in enumerate(m_values):
            for j, n in enumerate(n_values):
                _in_unit(fid[i][j], f"avg_fidelity({m},{n})")
                _in_unit(prob[i][j], f"avg_success_prob({m},{n})")
                values.extend([fid[i][j], prob[i][j]])
        best = max((fid[i][j], m, n) for i, m in enumerate(m_values)
                   for j, n in enumerate(n_values))
        line = f"best avg fidelity {best[0]:.6f} at (M,N)=({best[1]},{best[2]})"
        if line not in out.texts[0].splitlines():
            raise CheckFailed(f"sweep summary line is not {line!r}")
        return values


# --------------------------------------------------------------- deep_chain

class DeepChain:
    """``zenoport counterport`` at deep chains, ideal and lossy."""

    name = "deep_chain"
    rate = 10.0  # ops per second at the reference host speed
    trace_ops = 120

    def ops(self, seed: int):
        # Whether an op breaches conservation depends on its chain, its losses
        # and the control qubit's weights: all of them follow one schedule for
        # every seed, so every seed meets the same breaches.  The seed draws
        # the control qubit's phases.
        schedule = random.Random(f"{self.name}:schedule")
        rng = random.Random(f"{self.name}:{seed}")
        seen: set = set()
        log_n_span = math.log10(4e5) - 2.0
        for i in count():
            u = _halton(i, 3)
            m = round(10.0 ** (1.0 + 3.0 * u[0]))
            n = round(10.0 ** (2.0 + log_n_span * u[1]))
            lossy = u[2] >= 0.5
            z = schedule.uniform(-1.0, 1.0)
            er = schedule.uniform(0.01, 0.2) if lossy else 0.0
            eb = schedule.uniform(0.005, 0.1) if lossy else 0.0
            per = schedule.choice(BLOCK_PER) if lossy else "inner"
            phi = rng.uniform(0.0, 2.0 * math.pi)
            chi = rng.uniform(0.0, 2.0 * math.pi)  # global phase: complex alpha too
            theta = math.acos(z)
            alpha = cmath.exp(1j * chi) * math.cos(theta / 2.0)
            beta = cmath.exp(1j * (chi + phi)) * math.sin(theta / 2.0)
            while (m, n, er, eb, per) in seen:
                n += 1
            seen.add((m, n, er, eb, per))
            params = {"m": m, "n": n, "alpha": alpha, "beta": beta,
                      "eps_reflect": er, "eps_block": eb, "eps_block_per": per}
            yield Op(i, params)

    def configs(self, op: Op, protocol_config) -> set:
        p = op.params
        return {protocol_config(M=p["m"], N=p["n"], eps_reflect=p["eps_reflect"],
                                eps_block=p["eps_block"], eps_block_per=p["eps_block_per"])}

    def argv(self, op: Op, workdir: Path) -> list[str]:
        p = op.params
        return ["counterport", f"--m={p['m']}", f"--n={p['n']}",
                f"--alpha={fmt_complex(p['alpha'])}", f"--beta={fmt_complex(p['beta'])}",
                f"--eps-reflect={p['eps_reflect']!r}", f"--eps-block={p['eps_block']!r}",
                f"--eps-block-per={p['eps_block_per']}",
                f"--out={workdir / 'counterport.json'}"]

    def execute(self, op: Op, workdir: Path) -> Outcome:
        code, text = call_cli(self.argv(op, workdir))
        return Outcome([code], [text])

    def check(self, op: Op, out: Outcome, workdir: Path) -> list:
        p = op.params
        rec = _load_json(workdir / "counterport.json")
        want = {"M": p["m"], "N": p["n"], "eps_reflect": p["eps_reflect"],
                "eps_block": p["eps_block"], "av_rounds": 0,
                "eps_block_per": p["eps_block_per"]}
        if rec.get("config") != want:
            raise CheckFailed(f"config echo {rec.get('config')} differs from {want}")
        a, b = p["alpha"], p["beta"]
        if rec.get("bob") != [[a.real, a.imag], [b.real, b.imag]]:
            raise CheckFailed("control qubit echo differs from the request")
        try:
            p1, p2, lost = rec["p_port1"], rec["p_port2"], rec["p_lost"]
            scalars = [p1, p2, lost, rec["fidelity"], rec["fidelity_post_selected"]]
            losses = [v for _, v in sorted(rec["loss_breakdown"].items())]
            purity = [rec["bob_purity"].get(port) for port in ("Port1", "Port2")]
            final = rec["rounds"]["final"]
            final_p = sum(_finite(r["re"], "amplitude") ** 2 + _finite(r["im"], "amplitude") ** 2
                          for r in final)
            for name in ("round1", "between_rounds", "round2_ports"):
                for r in rec["rounds"][name]:
                    _finite(r["re"], name)
                    _finite(r["im"], name)
        except (KeyError, TypeError, AttributeError) as exc:
            raise CheckFailed(f"counterport record is malformed: {exc!r}") from None
        for name, v in zip(("p_port1", "p_port2", "p_lost", "fidelity",
                            "fidelity_post_selected"), scalars):
            _in_unit(v, name)
        for v in losses:
            _in_unit(v, "loss_breakdown")
        for v in purity:
            if v is not None:
                _in_unit(v, "bob_purity")
        _in_unit(rec["p_success"], "p_success")
        if rec["p_success"] != p1 + p2:
            raise CheckFailed("p_success is not p_port1 + p_port2")
        if abs(p1 + p2 + lost - 1.0) > ATOL_SUM or abs(sum(losses) - lost) > ATOL_SUM:
            raise CheckFailed("port and loss probabilities do not add up")
        if abs(final_p - (p1 + p2)) > ATOL_SUM:
            raise CheckFailed(f"final state norm {final_p!r} differs from p_success")
        return scalars + losses + purity


# ------------------------------------------------------------------ presence

class Presence:
    """One configuration's presence study: paradox, weakvalues, histories,
    and the weak trace of the blocked circuit through the library."""

    name = "presence"
    rate = 2.0  # ops per second at the reference host speed
    trace_ops = 20

    def ops(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        for i in count():
            u = _halton(i, 3)
            params = {"m": _pick(u[0], (2, 3, 4)), "n": _pick(u[1], range(2, 13)),
                      "boundaries": _pick(u[2], BOUNDARIES),
                      "epsilon": 10.0 ** rng.uniform(-4.0, -2.0)}
            yield Op(i, params)

    def configs(self, op: Op, protocol_config) -> set:
        return {tuple(op.params.values())}

    def argvs(self, op: Op, workdir: Path) -> list[list[str]]:
        p = op.params
        mn = [f"--m={p['m']}", f"--n={p['n']}"]
        return [["paradox", *mn, "--av-rounds=1", f"--epsilon={p['epsilon']!r}",
                 f"--json-out={workdir / 'paradox.json'}"],
                ["weakvalues", *mn, f"--boundaries={p['boundaries']}",
                 f"--out={workdir / 'weakvalues.csv'}"],
                ["histories", *mn, "--family=all", f"--json-out={workdir / 'histories.json'}"]]

    def execute(self, op: Op, workdir: Path) -> Outcome:
        codes, texts = [], []
        for argv in self.argvs(op, workdir):
            code, text = call_cli(argv)
            codes.append(code)
            texts.append(text)
        optics = sys.modules["zenoport.optics"]
        analysis = sys.modules["zenoport.analysis"]
        qstate = sys.modules["zenoport.qstate"]
        try:
            c = optics.build_paradox_circuit(op.params["m"], op.params["n"], block_channel=True)
            b = (analysis.end_to_end_boundaries(c) if op.params["boundaries"] == "end-to-end"
                 else analysis.cycle_boundaries(c, 1))
            extra = (list(c.stamps), analysis.weak_trace_map(c, b))
            code, text = EXIT_OK, ""
        except qstate.ConservationError as exc:
            extra, code, text = None, EXIT_CONSERVATION, str(exc)
        except qstate.QStateError as exc:
            extra, code, text = None, EXIT_CONFIG, str(exc)
        except Exception:  # a crash fails the op; the run goes on
            extra, code, text = None, EXIT_CRASH, traceback.format_exc()
        codes.append(code)
        texts.append(text)
        return Outcome(codes, texts, extra)

    def check(self, op: Op, out: Outcome, workdir: Path) -> list:
        p = op.params
        return (self._check_paradox(p, _load_json(workdir / "paradox.json"), out.texts[0])
                + self._check_weakvalues(workdir / "weakvalues.csv")
                + self._check_histories(p, _load_json(workdir / "histories.json"),
                                        out.texts[2])
                + self._check_blocked(*out.extra))

    @staticmethod
    def _check_paradox(p: dict, rep: dict, text: str) -> list:
        if (rep.get("M"), rep.get("N"), rep.get("av_rounds"), rep.get("epsilon")) != (
                p["m"], p["n"], 1, p["epsilon"]):
            raise CheckFailed("paradox report echoes another configuration")
        rows, channel = rep.get("rows", []), rep.get("channel_probe_signal", {})
        if sorted(channel) != ["end-to-end", "end-to-end+av"]:
            raise CheckFailed(f"paradox channel signals are {sorted(channel)}")
        if len(text.splitlines()) != 2 + len(rows) + len(channel):
            raise CheckFailed("paradox table has the wrong number of lines")
        first = rows[0] if rows else {}
        if (first.get("arm"), first.get("stamp")) != ("S", "t0") or first.get("weak_value") is None \
                or abs(complex(*first["weak_value"]) - 1.0) > ATOL_IDENTITY:
            raise CheckFailed("paradox sanity row (source arm at t0) is not 1")
        values: list = []
        for row in rows:
            wv, sig = row.get("weak_value"), row.get("probe_signal")
            values.extend([None, None] if wv is None else
                          [_finite(wv[0], "weak value"), _finite(wv[1], "weak value")])
            if sig is not None and abs(_finite(sig, "probe signal")) > 1.0:
                raise CheckFailed(f"probe signal {sig!r} outside [-1, 1]")
            values.append(sig)
        for name in sorted(channel):
            if abs(_finite(channel[name], "channel signal")) > 1.0:
                raise CheckFailed(f"channel probe signal {channel[name]!r} outside [-1, 1]")
            values.append(channel[name])
        return values

    @staticmethod
    def _check_weakvalues(path: Path) -> list:
        try:
            rows = path.read_text().splitlines()
        except OSError as exc:
            raise CheckFailed(f"weakvalues.csv unreadable: {exc}") from None
        if not rows or rows[0] != "arm,stamp,re,im":
            raise CheckFailed("weakvalues.csv header is wrong")
        cells: dict = {}
        arms: list[str] = []
        stamps: list[str] = []
        for row in rows[1:]:
            try:
                arm, stamp, re_s, im_s = row.split(",")
                cells[(arm, stamp)] = (None if re_s == im_s == ""
                                       else complex(float(re_s), float(im_s)))
            except ValueError:
                raise CheckFailed(f"weakvalues.csv row {row!r} does not parse") from None
            if arm not in arms:
                arms.append(arm)
            if stamp not in stamps:
                stamps.append(stamp)
        return check_weak_map(cells, stamps, arms, "weakvalues.csv")

    @staticmethod
    def _check_histories(p: dict, rep: dict, text: str) -> list:
        if (rep.get("M"), rep.get("N")) != (p["m"], p["n"]):
            raise CheckFailed("histories report echoes another configuration")
        fams = rep.get("families", {})
        if len(fams) != 4 or len(text.splitlines()) != len(fams):
            raise CheckFailed(f"histories reports {len(fams)} families")
        values: list = []
        for name, entry in sorted(fams.items()):
            weights = entry["weights"]
            if entry["n_histories"] != len(weights):
                raise CheckFailed(f"family {name}: history count differs from its weights")
            for h, w in sorted(weights.items()):
                _in_unit(w, f"{name} weight {h}")
                values.append(w)
            probs = entry["probabilities"]
            if entry["consistent"] != (entry["offending_pair"] is None) \
                    or entry["consistent"] != (probs is not None):
                raise CheckFailed(f"family {name}: verdict, pair and probabilities disagree")
            if probs is not None:
                for h, pr in sorted(probs.items()):
                    _in_unit(pr, f"{name} probability {h}")
                    values.append(pr)
                if abs(sum(probs.values()) - 1.0) > ATOL_IDENTITY:
                    raise CheckFailed(f"family {name}: probabilities sum to {sum(probs.values())!r}")
            values.append(1.0 if entry["consistent"] else 0.0)
        return values

    @staticmethod
    def _check_blocked(stamps: list[str], trace: dict) -> list:
        arms = list(dict.fromkeys(arm for arm, _ in trace))
        return check_weak_map(trace, stamps, arms, "blocked weak trace")


WORKLOADS = {w.name: w for w in (SweepGrid(), DeepChain(), Presence())}
