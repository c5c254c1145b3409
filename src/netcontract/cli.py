"""Command-line interface.

Every run prints a JSON manifest to stdout: subcommand, input paths, echoed
parameters, package version, wall-clock duration, and a result summary.
Result files requested with --output are deterministic for fixed inputs
(matrices as 17-significant-digit CSV, structured results as sorted JSON).
Exit codes: 0 success, 1 usage/data errors, 2 valid run whose certificate or
feasibility check fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time

import numpy as np

from netcontract import __version__
from netcontract import fhn
from netcontract.balancing import balance, imbalance
from netcontract.hierarchy import (
    BlockNorm,
    BlockPartition,
    block_bound_matrix,
    synthesize_gains,
)
from netcontract.matrixio import read_matrix, read_vector, write_matrix_csv
from netcontract.metzler import spectral_abscissa
from netcontract.stabilization import minimal_effort_stabilize

FEASIBILITY_TOL = 1e-8


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


@functools.cache
def _build_parser() -> _Parser:
    p = _Parser(prog="netcontract",
                description="Contraction certificates and minimum-effort gains "
                            "for networked dynamical systems.")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("balance", help="balance a Metzler matrix by diagonal similarity")
    b.add_argument("--input", required=True, help="matrix file (Matrix Market or CSV)")
    b.add_argument("--tol", type=float, default=1e-10)
    b.add_argument("--output", "--out", dest="output", help="write result JSON here")
    b.add_argument("--balanced-output", dest="balanced_output",
                   help="write the balanced matrix as CSV here")
    b.set_defaults(handler=_cmd_balance)

    s = sub.add_parser("stabilize", help="minimum-effort diagonal stabilization")
    s.add_argument("--input", required=True, help="matrix file (Matrix Market or CSV)")
    s.add_argument("--weights", help="weight vector file (default: all ones)")
    s.add_argument("--target", type=float, required=True,
                   help="target spectral abscissa of the closed loop")
    s.add_argument("--tol", type=float, default=1e-10)
    s.add_argument("--output", "--out", dest="output", help="write result JSON here")
    s.set_defaults(handler=_cmd_stabilize)

    bd = sub.add_parser("bound", help="block-reduced Metzler bound of a matrix")
    bd.add_argument("--input", required=True, help="matrix file (Matrix Market or CSV)")
    bd.add_argument("--partition", required=True,
                    help="comma-separated block sizes, e.g. 2,2,3")
    bd.add_argument("--norms",
                    help="comma-separated per-block norms from {1,2,inf} "
                         "(default: all 2)")
    bd.add_argument("--output", "--out", dest="output",
                    help="write the bound matrix as CSV here")
    bd.set_defaults(handler=_cmd_bound)

    sy = sub.add_parser("synthesize", help="gains for a reduced Jacobian bound")
    sy.add_argument("--jhat", required=True,
                    help="bound matrix file (Matrix Market or CSV)")
    sy.add_argument("--weights", help="weight vector file (default: all ones)")
    sy.add_argument("--rate", type=float, required=True,
                    help="required contraction rate eta > 0")
    sy.add_argument("--tol", type=float, default=1e-10)
    sy.add_argument("--output", "--out", dest="output", help="write result JSON here")
    sy.set_defaults(handler=_cmd_synthesize)

    f = sub.add_parser("fhn", help="FitzHugh-Nagumo network experiments")
    fsub = f.add_subparsers(dest="fhn_command", required=True)

    fs = fsub.add_parser("simulate", help="integrate the closed-loop network")
    fs.add_argument("--config", required=True, help="network config JSON")
    fs.add_argument("--output", "--out", dest="output", help="write trajectory CSV here")
    fs.add_argument("--seed", type=int, help="override the config seed")
    fs.add_argument("--t-end", type=float, dest="t_end", help="override the horizon")
    fs.add_argument("--step", type=float, help="override the integration step")
    fs.set_defaults(handler=_cmd_fhn_simulate)

    fc = fsub.add_parser("certify", help="check the contraction certificate")
    fc.add_argument("--config", required=True, help="network config JSON")
    fc.add_argument("--output", "--out", dest="output", help="write certificate JSON here")
    fc.set_defaults(handler=_cmd_fhn_certify)

    fg = fsub.add_parser("gains", help="minimum-effort gains for the config's rate")
    fg.add_argument("--config", required=True, help="network config JSON")
    fg.add_argument("--output", "--out", dest="output", help="write gains JSON here")
    fg.set_defaults(handler=_cmd_fhn_gains)
    return p


def _write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _payload(res, *drop) -> dict:
    """JSON-ready fields of a result dataclass, arrays as lists."""
    out = {}
    for f in dataclasses.fields(res):
        if f.name not in drop:
            v = getattr(res, f.name)
            out[f.name] = v.tolist() if isinstance(v, np.ndarray) else v
    return out


def _emit(args, payload: dict) -> dict:
    """Write the payload to --output if given; the manifest result adds the path."""
    if args.output:
        _write_json(args.output, payload)
    return {**payload, "output": args.output}


def _read_weights(path, n: int) -> np.ndarray:
    if path is None:
        return np.ones(n)
    return read_vector(path)


def _cmd_balance(args):
    M = read_matrix(args.input)
    res = balance(M, tol=args.tol)
    result = _emit(args, _payload(res, "balanced"))
    if args.balanced_output:
        write_matrix_csv(args.balanced_output, res.balanced)
    result["balanced_output"] = args.balanced_output
    return ({"input": args.input}, {"tol": args.tol}, result, 0)


def _cmd_stabilize(args):
    M = read_matrix(args.input)
    w = _read_weights(args.weights, M.shape[0])
    res = minimal_effort_stabilize(M, w, args.target, tol=args.tol)
    result = _emit(args, _payload(res))
    code = 0 if res.feasibility_residual <= FEASIBILITY_TOL else 2
    return ({"input": args.input, "weights": args.weights},
            {"target": args.target, "tol": args.tol}, result, code)


def _parse_partition(args) -> BlockPartition:
    try:
        sizes = tuple(int(s) for s in args.partition.split(","))
    except ValueError:
        raise ValueError(f"cannot parse partition {args.partition!r}") from None
    kinds = args.norms.split(",") if args.norms else ["two"] * len(sizes)
    return BlockPartition(sizes, tuple(BlockNorm(k) for k in kinds))


def _cmd_bound(args):
    M = read_matrix(args.input)
    B = block_bound_matrix(M, _parse_partition(args))
    if args.output:
        write_matrix_csv(args.output, B)
    result = {
        "b": B.tolist(),
        # B is Metzler, its off-diagonal entries being norms.
        "abscissa": spectral_abscissa(B),
        "imbalance": imbalance(B),
        "output": args.output,
    }
    return ({"input": args.input},
            {"partition": args.partition, "norms": args.norms}, result, 0)


def _cmd_synthesize(args):
    J = read_matrix(args.jhat)
    w = _read_weights(args.weights, J.shape[0])
    res = synthesize_gains(J, w, args.rate, tol=args.tol)
    result = _emit(args, _payload(res))
    ok = abs(res.closed_loop_abscissa + res.rate) <= FEASIBILITY_TOL * (1.0 + res.rate)
    return ({"jhat": args.jhat, "weights": args.weights},
            {"rate": args.rate, "tol": args.tol}, result, 0 if ok else 2)


def _cmd_fhn_simulate(args):
    config = fhn.load_config(args.config)
    overrides = {k: getattr(args, k) for k in ("seed", "t_end", "step")
                 if getattr(args, k) is not None}
    if overrides:
        config = dataclasses.replace(config, **overrides)
    traj = fhn.simulate(config)
    if args.output:
        fhn.write_trajectory_csv(args.output, traj)
    result = {
        "n_neurons": traj.n_neurons,
        "n_samples": int(traj.times.shape[0]),
        "t_end": float(traj.times[-1]),
        "final_state": traj.states[-1].tolist(),
        "output": args.output,
    }
    params = {"seed": config.seed, "t_end": config.t_end, "step": config.step}
    return ({"config": args.config}, params, result, 0)


def _certificate_payload(cert: fhn.ContractionCertificate) -> dict:
    return {**dataclasses.asdict(cert), "passed": cert.passed}


def _cmd_fhn_certify(args):
    config = fhn.load_config(args.config)
    cert = fhn.certify(config)
    result = _emit(args, _certificate_payload(cert))
    return ({"config": args.config}, {"eta": config.eta}, result,
            0 if cert.passed else 2)


def _cmd_fhn_gains(args):
    config = fhn.load_config(args.config)
    ell = fhn.resolved_gains(config)
    cert = fhn.certify(config)
    result = _emit(args, {"gains": ell.tolist(), "eta": config.eta,
                          "certificate": _certificate_payload(cert)})
    return ({"config": args.config}, {"eta": config.eta}, result,
            0 if cert.passed else 2)


def dispatch(argv) -> int:
    try:
        args = _build_parser().parse_args(list(argv))
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else int(exc.code)
    name = args.command if args.command != "fhn" else f"fhn {args.fhn_command}"
    start = time.perf_counter()
    try:
        inputs, params, result, code = args.handler(args)
    except (ValueError, RuntimeError, OSError, KeyError, MemoryError,
            json.JSONDecodeError) as exc:
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
        print(f"error: {detail}", file=sys.stderr)
        return 1
    manifest = {
        "subcommand": name,
        "inputs": inputs,
        "params": params,
        "version": __version__,
        "duration_s": round(time.perf_counter() - start, 6),
        "result": result,
    }
    print(json.dumps(manifest, indent=2, sort_keys=True))
    return code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
