"""Command-line entry points.

Subcommands: gen, show, formulate, gates, simulate, gas, metrics.  The
library is the primary interface; these commands cover file-based workflows
(QAPLIB .dat instances in, JSON/CSV artifacts out).
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis, gas as gas_mod
from .circuits import build_state_prep, count_gates, width_for_range
from .encodings import FormulationKind, encode
from .qap import brute_force_optimum, format_qaplib, parse_qaplib, random_instance
from .sim import MAX_QUBITS, StateVector, signed_value
from .space import value_bounds

KIND_CHOICES = [k.value for k in FormulationKind]


def _load_instance(path: str):
    return parse_qaplib(Path(path).read_text())


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_gen(args: argparse.Namespace) -> int:
    inst = random_instance(args.n, args.seed)
    _write_or_print(format_qaplib(inst), args.out)
    return 0


def cmd_show(args: argparse.Namespace) -> int:
    inst = _load_instance(args.file)
    print(f"{inst.name}: N={inst.size_n}")
    with np.printoptions(precision=3, suppress=True):
        print("flow:")
        print(inst.flow)
        print("dist:")
        print(inst.dist)
    if args.optimum:
        perm, value = brute_force_optimum(inst)
        print(f"optimum: {perm.mapping} value {value:.6f}")
    return 0


def cmd_formulate(args: argparse.Namespace) -> int:
    inst = _load_instance(args.infile)
    form = encode(inst, args.kind)
    payload = {
        "kind": form.kind.value,
        "n": form.num_vars,
        "size": form.size_n,
        "penalties": list(form.penalties),
        "terms": [
            {"vars": list(key), "coeff": float(c)} for key, c in sorted(form.poly.terms.items())
        ],
    }
    if form.code_table is not None:
        payload["code_table"] = [list(code) for code in form.code_table.codes]
    _write_or_print(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_gates(args: argparse.Namespace) -> int:
    from .qap import dense_instance

    inst = dense_instance(args.n, args.seed)
    form = encode(inst, args.kind)
    _, m = analysis.register_widths(args.n, args.kind)
    prep = build_state_prep(form, m)
    counts = count_gates(prep)
    rows = [
        ("n", args.n),
        ("kind", args.kind),
        ("model", args.model),
        ("qubits", counts.num_qubits),
        ("value_qubits", counts.num_value),
        ("initial_hadamards", counts.initial_hadamard_count),
        ("cnot_total", counts.cnot_r_model if args.model == "r" else counts.cnot_rz_model),
        ("rotations", counts.rotations_r_model if args.model == "r" else counts.rotations_rz_model),
        ("iqft_cphase", counts.iqft_cphase_count),
    ]
    rows += [(f"c{k}r_gates", v) for k, v in sorted(counts.term_rank_histogram.items())]
    text = "\n".join(f"{name},{value}" for name, value in rows) + "\n"
    _write_or_print(text, args.csv)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    inst = _load_instance(args.infile)
    form = encode(inst, args.kind)
    # One fixed y: the register needs exactly the range of E(x) - y.
    lo, hi = value_bounds(form)
    need = width_for_range(lo - args.y, hi - args.y)
    if args.m is not None and args.m < need:
        sys.exit(
            f"qap simulate: --m {args.m} cannot hold E(x) - y in [{lo - args.y:g}, "
            f"{hi - args.y:g}]; it needs at least {need} value qubits"
        )
    m = need if args.m is None else args.m
    if form.num_vars + m > MAX_QUBITS:
        sys.exit(
            f"qap simulate: {form.num_vars} variable and {m} value qubits exceed the "
            f"{MAX_QUBITS}-qubit statevector cap"
        )
    prep = build_state_prep(form, m, threshold=args.y)
    sv = StateVector(prep.num_qubits).apply_all(prep.gates)
    # Column x holds the value register's distribution for variable state x.
    probs = sv.probabilities().reshape(1 << m, 1 << form.num_vars)
    totals = probs.sum(axis=0)
    keep = np.flatnonzero(totals >= 1e-12)
    lines = ["x_bits,value_register,probability"]
    for x, peak, total in zip(keep.tolist(), probs.argmax(axis=0)[keep].tolist(), totals[keep].tolist()):
        bits = format(x, f"0{form.num_vars}b")[::-1]
        lines.append(f"{bits},{signed_value(peak, m)},{total:.6g}")
    _write_or_print("\n".join(lines) + "\n", args.csv)
    return 0


def cmd_gas(args: argparse.Namespace) -> int:
    inst = _load_instance(args.infile)
    form = encode(inst, args.kind)
    root = np.random.SeedSequence(args.seed)
    seeds = root.spawn(args.runs)
    if args.backend == "emulated":
        shared = {"space": gas_mod.SearchSpace(form)}
    else:
        shared = {"engine": gas_mod.ExactEngine(form, scale=args.scale)}
    termination: gas_mod.Termination
    if args.stall:
        termination = gas_mod.ThresholdStall(args.stall)
    else:
        _, optimum = brute_force_optimum(inst)
        termination = gas_mod.KnownOptimum(optimum)
    rows = []
    for run_id in range(args.runs):
        config = gas_mod.GasConfig(
            termination=termination,
            backend=args.backend,
            seed=seeds[run_id],
            max_iterations=args.max_iterations,
        )
        trace = gas_mod.run_gas(form, config, **shared)
        rows.append(
            (run_id, trace.queries, trace.queries_with_init, len(trace.records),
             f"{trace.best_value:.9g}")
        )
    out = ["run_id,queries,queries_with_init,iterations,found_value"]
    out += [",".join(str(v) for v in row) for row in rows]
    _write_or_print("\n".join(out) + "\n", args.csv)
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    kinds = tuple(KIND_CHOICES) if args.kinds == "all" else (args.kinds,)
    rows = analysis.metrics_rows(args.n_min, args.n_max, kinds, fig_compat=args.fig_compat)
    _write_or_print(analysis.metrics_csv(rows), args.csv)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random normalized instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("show", help="print an instance (optionally its optimum)")
    p.add_argument("file")
    p.add_argument("--optimum", action="store_true")
    p.set_defaults(func=cmd_show)

    p = sub.add_parser("formulate", help="encode an instance and dump JSON")
    p.add_argument("--kind", choices=KIND_CHOICES, required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_formulate)

    p = sub.add_parser("gates", help="gate counts for a generic instance")
    p.add_argument("--kind", choices=KIND_CHOICES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--model", choices=["r", "rz"], default="rz")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_gates)

    p = sub.add_parser("simulate", help="statevector readout table for small instances")
    p.add_argument("--kind", choices=KIND_CHOICES, required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--y", type=float, default=0.0)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("gas", help="repeated adaptive-search runs, CSV per run")
    p.add_argument("--kind", choices=KIND_CHOICES, required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--backend", choices=["emulated", "exact"], default="emulated")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=float, default=None,
                   help="exact backend: value-register scale (default: the objective's common "
                        "denominator, which makes the register exact)")
    p.add_argument("--stall", type=int, default=0,
                   help="stop after this many non-improving iterations instead of at the optimum")
    p.add_argument("--max-iterations", type=int, default=100_000)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_gas)

    p = sub.add_parser("metrics", help="closed-form metric table across sizes")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=16)
    p.add_argument("--kinds", default="all", choices=["all", *KIND_CHOICES])
    p.add_argument("--fig4-compat", dest="fig_compat", action="store_true",
                   help="price the hubo-hw row penalty at N^2 like the column penalty")
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_metrics)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
