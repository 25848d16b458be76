"""Command-line front end: runs, sweeps, table dumps, and verification.

Exit codes: 0 success, 1 acceptance failure, 2 usage or input error.
Outputs are deterministic for a fixed configuration and seed; floats are
printed in their shortest round-trip form.  The default seed comes from
the ETELEPORT_SEED environment variable when set.

Only the standard library is imported here: each command imports the
library modules it runs when it runs, so a process loads no module its
command does not use.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys

SEED_ENV_VAR = "ETELEPORT_SEED"
DEFAULT_SEED = 12345
MAX_GRID_POINTS = 100_000


class UsageError(ValueError):
    pass


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None


def parse_grid(spec: str) -> list[float]:
    """Parse 'start:stop:step' (inclusive within half a step) or a comma list."""
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise UsageError(f"grid must be start:stop:step, got {spec!r}")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            raise UsageError(f"non-numeric grid bound in {spec!r}") from None
        if not all(map(math.isfinite, (start, stop, step))):
            raise UsageError(f"grid bounds must be finite, got {spec!r}")
        if step <= 0.0:
            raise UsageError("grid step must be positive")
        span = (stop - start) / step + 0.5
        if not span < MAX_GRID_POINTS:  # checked before the list is built; inf fails too
            raise UsageError(f"grid {spec!r} has more than {MAX_GRID_POINTS} points")
        count = int(math.floor(span)) + 1
        if count < 1:
            raise UsageError(f"empty grid {spec!r}")
        return [start + k * step for k in range(count)]
    try:
        values = [float(p) for p in spec.split(",") if p.strip()]
    except ValueError:
        raise UsageError(f"non-numeric value in list {spec!r}") from None
    if not values:
        raise UsageError(f"empty value list {spec!r}")
    return values


def _write_rows(rows: list[dict], fmt: str, stream) -> None:
    if fmt == "json":
        import json

        json.dump(rows, stream, indent=2)
        stream.write("\n")
    else:
        import csv

        writer = csv.DictWriter(stream, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _cell(v) for k, v in row.items()})


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return value


def _emit(rows: list[dict], args) -> None:
    if args.output:
        with open(args.output, "w", newline="") as handle:
            _write_rows(rows, args.format, handle)
    else:
        buffer = io.StringIO()
        _write_rows(rows, args.format, buffer)
        sys.stdout.write(buffer.getvalue())


def _add_io_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output encoding"
    )
    parser.add_argument("--output", help="write to this path instead of stdout")


def _ideal_rows(R: float, phi: float) -> list[dict]:
    import numpy as np

    from . import protocol

    params = protocol.TeleportParams(R, phi)
    state = protocol.run_premeasurement(params)
    reference = protocol.input_bloch(params)
    blank = {"bloch_x": None, "bloch_y": None, "bloch_z": None, "fidelity": None}
    rows: list[dict] = []
    for outcome in protocol.ALL_OUTCOMES:
        prob = protocol.povm_element(outcome).expectation(state)
        row = {"record": "outcome", "key": outcome.label, "probability": prob, **blank}
        if outcome.is_paired:
            qubit = protocol.bob_conditional(params, outcome)
            bloch = protocol.apply_feedforward(qubit, outcome).bloch
            row["bloch_x"], row["bloch_y"], row["bloch_z"] = map(float, bloch)
            row["fidelity"] = protocol.jozsa_fidelity(bloch, reference)
        rows.append(row)
    for label, flag in (("with_feedforward", True), ("without_feedforward", False)):
        efficiency = protocol.efficiency(flag, params)
        rows.append({"record": "efficiency", "key": label, "probability": efficiency, **blank})
    reconstructed = protocol.tomography_bloch(params)
    rows.append(
        {
            "record": "tomography",
            "key": "reconstructed_vs_input",
            "probability": float(np.max(np.abs(reconstructed - reference))),
            "bloch_x": float(reconstructed[0]),
            "bloch_y": float(reconstructed[1]),
            "bloch_z": float(reconstructed[2]),
            "fidelity": protocol.jozsa_fidelity(reconstructed, reference),
        }
    )
    return rows


def cmd_ideal(args) -> int:
    rows = _ideal_rows(args.R, args.phi)
    if args.format != "text":
        _emit(rows, args)
        return 0
    def num(x: float) -> str:
        return f"{x:.12g}"

    lines = [f"ideal run: R = {num(args.R)}, phi = {num(args.phi)}", ""]
    lines.append("outcome probabilities (teleporting patterns marked *):")
    for row in rows:
        if row["record"] != "outcome":
            continue
        mark = "*" if row["fidelity"] is not None else " "
        lines.append(f" {mark} p({row['key']}) = {num(row['probability'])}")
        if row["fidelity"] is not None:
            lines.append(
                f"      corrected Bloch ({num(row['bloch_x'])}, {num(row['bloch_y'])}, "
                f"{num(row['bloch_z'])}), fidelity to input {num(row['fidelity'])}"
            )
    lines.append("")
    for row in rows:
        if row["record"] == "efficiency":
            lines.append(f"efficiency {row['key']} = {num(row['probability'])}")
    tomo = next(row for row in rows if row["record"] == "tomography")
    lines.append(
        f"tomography Bloch ({num(tomo['bloch_x'])}, {num(tomo['bloch_y'])}, "
        f"{num(tomo['bloch_z'])}); max deviation from input {tomo['probability']:.3e}"
    )
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_saw(args) -> int:
    if args.n_states < 2:
        raise UsageError(f"--n-states must be at least 2, got {args.n_states}")
    grid = parse_grid(args.sigma2)
    from . import scalar

    rows = []
    samples = scalar.sampled_fidelity(grid, args.n_states, args.seed)
    for sigma2, (mean, stderr) in zip(grid, samples):
        rows.append(
            {
                "sigma2": sigma2,
                "fidelity_analytic": scalar.average_fidelity(sigma2),
                "fidelity_sampled": mean,
                "stderr": stderr,
                "n_states": args.n_states,
            }
        )
    _emit(rows, args)
    return 0


def cmd_leviton(args) -> int:
    gammas = parse_grid(args.gamma)
    taus = parse_grid(args.tau)
    from . import scalar

    rows = scalar.fidelity_curve(gammas, taus, series_tol=args.tol)
    _emit(rows, args)
    return 0


_UNITS = {"I": "e/T", "P": "e^2/T", "Q": "e^3/T"}


def cmd_correlators(args) -> int:
    if not 0.0 < args.tolerance < math.inf:
        raise UsageError(f"--tolerance must be positive and finite, got {args.tolerance}")
    from . import leviton, protocol

    protocol.TeleportParams(args.R, args.phi)  # a rejected point named as `ideal` names it
    settings = ("X", "Y", "Z") if args.setting == "all" else (args.setting,)
    rows = []
    worst = 0.0
    for setting in settings:
        simulated = leviton.zero_T_correlators(args.R, args.phi, setting).values.tolist()
        reference = leviton.reference_correlators(args.R, args.phi, setting).values.tolist()
        for labels, value, ref in zip(leviton.KEYS, simulated, reference):
            kind = "IPQ"[len(labels) - 1]
            worst = max(worst, abs(value - ref))
            rows.append(
                {
                    "setting": setting,
                    "quantity": f"{kind}_{'_'.join(labels)} [{_UNITS[kind]}]",
                    "simulated": value,
                    "reference": ref,
                    "abs_error": abs(value - ref),
                }
            )
    _emit(rows, args)
    status = "<" if worst < args.tolerance else ">="
    print(
        f"# max deviation {status} {args.tolerance:g} (measured {worst:.3e})",
        file=sys.stderr,
    )
    return 0 if worst < args.tolerance else 1


def cmd_circuit_check(args) -> int:
    with open(args.path) as handle:
        text = handle.read()
    import numpy as np

    from . import circuit

    try:
        description = circuit.parse_circuit(text)
        network = circuit.compose(description)
    except ValueError as exc:  # syntax errors carry their line and column
        print(f"{args.path}: {exc}", file=sys.stderr)
        return 2
    re, im = network.matrix.real, network.matrix.imag
    # U^H U as outer products of rows added in row order, real and imaginary
    # parts apart: a BLAS product would round the printed defect by the kernel
    gram = sum(map(np.outer, re, re)) + sum(map(np.outer, im, im))
    gram = gram + 1j * (sum(map(np.outer, re, im)) - sum(map(np.outer, im, re)))
    defect = float(np.max(np.abs(gram - np.eye(len(re)))))
    print(
        f"{args.path}: {len(description.modes)} modes, "
        f"{len(description.elements)} elements, unitarity defect {defect:.3e}"
    )
    return 0


def cmd_verify(args) -> int:
    from . import acceptance

    results = acceptance.run_all(printer=print)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eteleport",
        description=(
            "Simulate on-demand teleportation of dual-rail single-electron "
            "qubits: ideal-protocol probabilities and conditional states, "
            "phase-damping fidelity sweeps, driven-implementation correlator "
            "tables, and the acceptance suite."
        ),
        epilog=f"The default random seed is read from ${SEED_ENV_VAR} when set.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ideal", help="outcome table, conditional states, tomography")
    p.add_argument("--R", type=float, default=0.5, help="input-qubit reflection")
    p.add_argument("--phi", type=float, default=0.0, help="input-qubit phase")
    p.add_argument(
        "--format", choices=("text", "csv", "json"), default="text",
        help="output encoding",
    )
    p.add_argument("--output", help="write to this path instead of stdout")
    p.set_defaults(func=cmd_ideal)

    p = sub.add_parser("saw", help="phase-damping fidelity sweep")
    p.add_argument("--sigma2", default="0,0.5,1,2", help="variance grid or list")
    p.add_argument("--n-states", type=int, default=100_000, dest="n_states")
    p.add_argument("--seed", type=int, default=None)
    _add_io_arguments(p)
    p.set_defaults(func=cmd_saw)

    p = sub.add_parser("leviton", help="finite-temperature fidelity sweep")
    p.add_argument("--gamma", default="0.02,0.05,0.1", help="pulse width list")
    p.add_argument("--tau", default="0:2:0.05", help="temperature grid")
    p.add_argument("--tol", type=float, default=1e-12, help="series tolerance")
    _add_io_arguments(p)
    p.set_defaults(func=cmd_leviton)

    p = sub.add_parser("correlators", help="correlator table vs closed form")
    p.add_argument("--R", type=float, default=0.5)
    p.add_argument("--phi", type=float, default=0.7)
    p.add_argument("--setting", choices=("X", "Y", "Z", "all"), default="all")
    p.add_argument("--tolerance", type=float, default=1e-10)
    _add_io_arguments(p)
    p.set_defaults(func=cmd_correlators)

    p = sub.add_parser("circuit-check", help="parse and check a circuit file")
    p.add_argument("path")
    p.set_defaults(func=cmd_circuit_check)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", None) is None and hasattr(args, "seed"):
            args.seed = _default_seed()
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
