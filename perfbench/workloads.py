"""The four workloads: inputs made from a seed, one job, and its checks.

A run builds its inputs once from the run's seed and then repeats one job,
a fixed list of operations.  An operation is one library pipeline call or
one CLI invocation.  Only the program call is timed; its output is then
checked apart from the program (see checks.py).  An operation fails when it
raises, when its check fails, or when an operation it needs failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.io
import scipy.sparse

import netcontract as nc
from netcontract import cli
from generators import random_connected_adjacency, random_irreducible_metzler

import checks

# FitzHugh-Nagumo parameters of the paper's example, shared by the FHN inputs.
FHN = {"a": 0.0, "b": 2.0, "c": 6.0, "gamma": 0.05, "eta": 0.05}


@dataclass
class Outcome:
    op: str
    ok: bool
    known_fault: bool
    detail: str | None
    seconds: float = 0.0  # wall time of the program call


@dataclass
class Job:
    """Timed program calls and the outcome of each operation of one job."""

    wrap: object = None  # tracer hook for the benchmark's own callbacks
    seconds: float = 0.0
    outcomes: list = field(default_factory=list)

    def run(self, op, call, check, needs=True, known_fault=False):
        """Time `call()`, then check its output; return it, or None on failure."""
        if not needs:
            self.outcomes.append(Outcome(op, False, known_fault, "needed operation failed"))
            return None
        start = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # an operation that raises counts as failed
            self._done(Outcome(op, False, known_fault, f"raised {exc!r}"), start)
            return None
        outcome = self._done(Outcome(op, True, known_fault, None), start)
        try:
            outcome.detail = check(out)
        except Exception as exc:  # malformed output, e.g. a manifest that is not JSON
            outcome.detail = f"check raised {exc!r}"
        outcome.ok = outcome.detail is None
        return out if outcome.ok else None

    def _done(self, outcome, start):
        outcome.seconds = time.perf_counter() - start
        self.seconds += outcome.seconds
        self.outcomes.append(outcome)
        return outcome


def _dispatch(argv):
    """One in-process CLI invocation: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.dispatch(argv)
    return code, out.getvalue()


class Mixed:
    """Random well-mixed networks: Osborne needs about 12 sweeps, so time goes
    to per-sweep and per-mat-vec cost on dense n = 2000 arrays."""

    n, density, target = 2000, 0.01, -1.0

    def build(self, rng, workdir):
        A = random_irreducible_metzler(rng, self.n, density=self.density)
        return {"A": A, "w": rng.uniform(0.5, 2.0, self.n)}

    def job(self, x, job):
        A, w, t = x["A"], x["w"], self.target
        res = job.run("minimal_effort_stabilize",
                      lambda: nc.minimal_effort_stabilize(A, w, t),
                      lambda r: checks.stabilization(A, w, t, r.ell_star, r.d_star))
        job.run("verify_optimality",
                lambda: nc.verify_optimality(A, w, t, res.ell_star),
                lambda rep: checks.optimality_report(rep, A, res.ell_star, res.d_star, t),
                needs=res is not None)


def grid_metzler(rng, side):
    """Metzler matrix on a side x side grid: both directions of every edge
    weighted U(0.5, 1.5), diagonal U(-1, 0.5)."""
    n = side * side
    idx = np.arange(n).reshape(side, side)
    src = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    dst = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    A = np.zeros((n, n))
    A[src, dst] = rng.uniform(0.5, 1.5, src.size)
    A[dst, src] = rng.uniform(0.5, 1.5, src.size)
    A[np.arange(n), np.arange(n)] = rng.uniform(-1.0, 0.5, n)
    return A


def ring_adjacency(n):
    adj = np.zeros((n, n))
    i = np.arange(n)
    adj[i, (i + 1) % n] = adj[(i + 1) % n, i] = 1.0
    return adj


class Lattice:
    """Large-diameter networks through the CLI: a 15 x 15 grid `stabilize`
    and two `fhn certify` calls on a 100-ring, whose near-tied spectrum runs
    the mu_2 power iteration to its cap.  The second certify lowers the
    closed-form gains by 2e-5: eigvalsh says it fails, the program says it
    passes (metzler.dominant_symmetric_eigenvalue returns a lower bound at
    its cap).  That ring does not depend on the seed, so this operation
    fails in every job."""

    side, ring, delta, target = 15, 100, 2e-5, -1.0

    def build(self, rng, workdir):
        A = grid_metzler(rng, self.side)
        w = rng.uniform(0.5, 2.0, A.shape[0])
        paths = {k: str(workdir / f) for k, f in (
            ("grid", "grid.mtx"), ("weights", "weights.csv"), ("out", "gains.json"),
            ("ring", "ring.json"), ("detuned", "ring_detuned.json"))}
        scipy.io.mmwrite(paths["grid"], scipy.sparse.coo_matrix(A), precision=17)
        np.savetxt(paths["weights"], w[:, None], delimiter=",", fmt="%.17g")
        adj = ring_adjacency(self.ring)
        gains = checks.closed_form_gains(adj, FHN["c"], FHN["gamma"], FHN["eta"])
        detuned = gains - self.delta
        for key, g in (("ring", "auto"), ("detuned", detuned.tolist())):
            cfg = dict(FHN, N=self.ring, adjacency=adj.astype(int).tolist(), gains=g)
            Path(paths[key]).write_text(json.dumps(cfg))
        return {"A": A, "w": w, "adj": adj, "gains": gains, "detuned": detuned,
                "paths": paths}

    def _certify(self, job, op, x, path, gains, known_fault=False):
        want = checks.certificate_verdict(x["adj"], gains, FHN["c"], FHN["gamma"],
                                          FHN["eta"], FHN["b"])

        def check(result):
            code, out = result
            passed = json.loads(out)["result"]["passed"]
            if code != (0 if passed else 2):
                return f"exit {code} with passed={passed}"
            if passed != want:
                return f"certificate says passed={passed}, eigvalsh says {want}"
            return None

        job.run(op, lambda: _dispatch(["fhn", "certify", "--config", path]), check,
                known_fault=known_fault)

    def job(self, x, job):
        p, t = x["paths"], self.target

        def check_stabilize(result):
            code, _ = result
            if code != 0:
                return f"stabilize exited {code}"
            out = json.loads(Path(p["out"]).read_text())
            return checks.stabilization(x["A"], x["w"], t, out["ell_star"], out["d_star"])

        job.run("cli stabilize",
                lambda: _dispatch(["stabilize", "--input", p["grid"], "--weights",
                                   p["weights"], "--target", repr(t), "--output", p["out"]]),
                check_stabilize)
        self._certify(job, "cli fhn certify", x, p["ring"], x["gains"])
        self._certify(job, "cli fhn certify detuned", x, p["detuned"], x["detuned"],
                      known_fault=True)


class Entrain:
    """The paper's demonstration on a random connected topology: minimum
    gains, certificate, a batch of trajectories over 18 input periods and
    the entrainment diagnostics.  The RK4 step loop dominates."""

    n, batch, t_end, step = 30, 4, 18.0, 0.002

    def build(self, rng, workdir):
        return {"adj": random_connected_adjacency(rng, self.n),
                "x0": rng.uniform(-4.0, 4.0, size=(self.batch, 2 * self.n))}

    def job(self, x, job):
        adj, x0 = x["adj"], x["x0"]
        c, gamma, eta = FHN["c"], FHN["gamma"], FHN["eta"]
        gains = job.run("fhn_gains", lambda: nc.fhn_gains(nc.laplacian(adj), c, gamma, eta),
                        lambda g: checks.fhn_gains(adj, g, c, gamma, eta))
        cfg = None
        if gains is not None:
            cfg = nc.FhnConfig(adjacency=adj, gains=gains, t_end=self.t_end,
                               step=self.step, **FHN)

        def check_certificate(cert):
            if not cert.passed:
                return "certificate fails for the minimum gains"
            if not checks.certificate_verdict(adj, gains, c, gamma, eta, FHN["b"]):
                return "certificate passes, eigvalsh says it fails"
            return None

        cert = job.run("certify", lambda: nc.certify(cfg), check_certificate,
                       needs=cfg is not None)
        traj = job.run("simulate", lambda: nc.simulate(cfg, x0=x0),
                       lambda tr: checks.trajectory(tr, x0, self.t_end),
                       needs=cert is not None)

        def entrainment():
            trajs = [nc.Trajectory(traj.times, traj.states[:, k], traj.input_trace)
                     for k in range(self.batch)]
            return nc.entrainment_check(cfg, trajs)

        job.run("entrainment_check", entrainment, lambda r: checks.entrainment(r, eta),
                needs=traj is not None)


class Hier:
    """The hierarchical route: the sampled sup of an 8-neuron FHN Jacobian's
    block bound, one (v_i, w_i) block per neuron in the 2-norm scaled by
    (1, c), then gains for that reduced bound.  Thousands of small
    block_bound_matrix calls dominate.  The v-range is off-centre, so the
    sampled diagonal stays below its supremum c.  It also keeps v^2 away from
    1 + b/c^2, where a block's two eigenvalues tie: the power iteration's
    cost there depends on how near a random sample falls (one seed in ten
    doubled the job), and `lattice` already measures the tied case."""

    n, samples = 8, 100
    box = ((-0.9, 0.6), (-1.0, 1.0))  # (v range, w range) of every neuron

    def build(self, rng, workdir):
        adj = random_connected_adjacency(rng, self.n)
        lo = np.tile([self.box[0][0], self.box[1][0]], self.n)
        hi = np.tile([self.box[0][1], self.box[1][1]], self.n)
        return {"adj": adj, "w": rng.uniform(0.5, 2.0, self.n), "domain": (lo, hi),
                "sample_seed": int(rng.integers(2 ** 31))}

    def job(self, x, job):
        adj, n, c = x["adj"], self.n, FHN["c"]
        # The diffusive self-term -gamma * deg_i goes into the local gain, so
        # the coupling blocks carry gamma * adjacency.
        cfg = nc.FhnConfig(adjacency=adj, gains=-FHN["gamma"] * adj.sum(axis=1), **FHN)
        order = np.ravel(np.column_stack([np.arange(n), n + np.arange(n)]))
        points = []

        def sampler(t, y):  # y = (v1, w1, v2, w2, ...); fhn orders (v..., w...)
            points.append(np.array(y))
            state = np.empty_like(y)
            state[order] = y
            return nc.fhn.closed_loop_jacobian(cfg, state)[np.ix_(order, order)]

        if job.wrap is not None:
            sampler = job.wrap("bench.sampler", sampler)
        scale = np.array([1.0, c])
        part = nc.BlockPartition((2,) * n, tuple(nc.BlockNorm("two", scale) for _ in range(n)))
        bound = job.run(
            "jacobian_sup_estimate",
            lambda: nc.jacobian_sup_estimate(sampler, part, x["domain"],
                                             samples=self.samples, seed=x["sample_seed"]),
            lambda b: checks.fhn_block_bound(b.j_hat, adj, np.array(points)[:, 0::2],
                                             c, FHN["gamma"], FHN["b"]))
        job.run("synthesize_gains",
                lambda: nc.synthesize_gains(bound, x["w"], FHN["eta"]),
                lambda g: checks.synthesis(bound.j_hat, x["w"], FHN["eta"], g.v_star),
                needs=bound is not None)


WORKLOADS = {"mixed": Mixed(), "lattice": Lattice(), "entrain": Entrain(), "hier": Hier()}
