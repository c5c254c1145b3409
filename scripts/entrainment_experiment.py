#!/usr/bin/env python3
"""Entrainment experiment on the six-neuron network.

Certifies contraction of the closed loop, integrates several trajectories
from random initial conditions under the shared periodic input, and reports
how fast they collapse onto one periodic orbit.  Trajectories and pairwise
scaled gaps are written as CSV for plotting.
"""

import argparse
import dataclasses
import json
import sys
from itertools import combinations
from pathlib import Path

import numpy as np

from netcontract.fhn import (
    Trajectory,
    certify,
    entrainment_check,
    initial_state,
    load_config,
    resolved_gains,
    simulate,
    write_trajectory_csv,
)

DEFAULT_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "fhn6.json"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=str(DEFAULT_CONFIG), help="network config JSON")
    ap.add_argument("--out-dir", default="entrainment_out", help="output directory")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2],
                    help="one trajectory per seed")
    ap.add_argument("--t-end", type=float, default=None, help="override the horizon")
    args = ap.parse_args(argv)

    config = load_config(args.config)
    if args.t_end is not None:
        config = dataclasses.replace(config, t_end=args.t_end)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    cert = certify(config)
    print(f"gains: {np.array2string(resolved_gains(config), precision=4)}")
    print(f"certificate: {'PASS' if cert.passed else 'FAIL'} "
          f"(requested eta {cert.eta_requested:g}, certified {cert.eta_certified:.6g})")
    for check in cert.checks:
        print(f"  {check.name}: {'ok' if check.passed else 'VIOLATED'} "
              f"(residual {check.residual:.3g})")
    if not cert.passed:
        print("certificate failed; trajectories need not entrain", file=sys.stderr)

    x0 = np.stack([initial_state(config, np.random.default_rng(s)) for s in args.seeds])
    batch = simulate(config, x0=x0)
    trajs = [Trajectory(batch.times, batch.states[:, i], batch.input_trace)
             for i in range(len(args.seeds))]
    for seed, traj in zip(args.seeds, trajs):
        write_trajectory_csv(out / f"trajectory_seed{seed}.csv", traj)

    report = entrainment_check(config, trajs)
    # report.gaps holds one row per pair, in combinations order.
    gap_names = [f"gap_{si}_{sj}" for si, sj in combinations(args.seeds, 2)]
    table = np.column_stack([batch.times, report.gaps.T])
    np.savetxt(out / "gaps.csv", table, delimiter=",", fmt="%.17g",
               header=",".join(["t"] + gap_names), comments="")

    print(f"\nentrainment over {len(trajs)} trajectories "
          f"({report.n_pairs} pairs, horizon {config.t_end:g}):")
    print(f"  envelope slack  : {report.gap_slack:.4f}  (<= 1 means the "
          f"e^(-eta t) bound holds with room)")
    print(f"  fitted decay    : {report.decay_rate:.4f}  (certified {report.eta:g})")
    print(f"  periodicity     : {report.periodicity_residual:.3e} over the last period")
    print(f"  voltage spread  : {report.sync_spread:.3e} across neurons")
    print(f"\nwrote {len(trajs)} trajectory files and gaps.csv to {out}/")

    (out / "report.json").write_text(json.dumps({
        "seeds": args.seeds,
        "eta": report.eta,
        "gap_slack": report.gap_slack,
        "decay_rate": report.decay_rate,
        "periodicity_residual": report.periodicity_residual,
        "sync_spread": report.sync_spread,
        "certificate_passed": cert.passed,
    }, indent=2, sort_keys=True) + "\n")
    return 0 if cert.passed else 2


if __name__ == "__main__":
    sys.exit(main())
