"""Self-tests of the benchmark's own machinery.

* One seed gives one op list, and no two ops of it share a configuration
  (for sweep_grid and deep_chain, a ``ProtocolConfig``; a sweep op owns
  one per grid cell).
* The tracer sees one ``cli.main`` and one ``counterport.counterport`` call
  for one ``zenoport counterport`` run, and uninstalling it restores every
  patched name.

``run.py`` runs the generator test at the start of every run and the
tracer test before a traced run.  Run all of them with

    python3 perfbench/selftest.py
"""
from __future__ import annotations

import sys
from itertools import islice
from pathlib import Path

from tracer import LAYERS, METHODS, Tracer, layer_module
from workloads import WORKLOADS, call_cli

GENERATOR_OPS = 64


class SelfTestFailed(Exception):
    """The benchmark's own machinery misbehaves; its figures would mean nothing."""


def check_generator(workload, seed: int, n: int = GENERATOR_OPS) -> None:
    first = list(islice(workload.ops(seed), n))
    again = list(islice(workload.ops(seed), n))
    if first != again:
        raise SelfTestFailed(f"{workload.name}: seed {seed} gives two op lists")
    protocol_config = layer_module("cqze").ProtocolConfig
    owner: dict = {}
    for op in first:
        for cfg in workload.configs(op, protocol_config):
            if cfg in owner:
                raise SelfTestFailed(f"{workload.name}: ops {owner[cfg]} and {op.index} "
                                     f"share the configuration {cfg}")
            owner[cfg] = op.index


def _bindings() -> dict:
    """Every module global (dicts by content) and every traced method."""
    out = {(layer, name): dict(obj) if isinstance(obj, dict) else obj
           for layer in LAYERS for name, obj in vars(layer_module(layer)).items()}
    for layer, cls, meth, _ in METHODS:
        out[(layer, cls, meth)] = vars(getattr(layer_module(layer), cls))[meth]
    return out


def check_tracer(workdir: Path) -> None:
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        code, text = call_cli(["counterport", "--m=3", "--n=5", "--alpha=0.6",
                               "--beta=-0.8j", f"--out={workdir / 'selftest.json'}"])
    finally:
        tracer.uninstall()
    if code != 0:
        raise SelfTestFailed(f"tracer self-test run exited {code}: {text}")
    got = (tracer.calls("cli.main"), tracer.calls("counterport.counterport"))
    if got != (1, 1):
        raise SelfTestFailed(f"tracer counted cli.main, counterport.counterport = {got}, not (1, 1)")
    if _bindings() != before:
        raise SelfTestFailed("uninstalling the tracer left patched names behind")


def main() -> int:
    import run  # the benchmark runner beside this file

    run.load_program()
    for workload in WORKLOADS.values():
        for seed in (0, 1, 12345):
            check_generator(workload, seed)
        print(f"{workload.name}: op lists repeat, configurations distinct")
    with run.workdir_for("selftest") as workdir:
        check_tracer(workdir)
    print("tracer: one counterport run counts cli.main 1, counterport.counterport 1")
    return 0


if __name__ == "__main__":
    sys.exit(main())
