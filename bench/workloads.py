"""The three benchmark workloads: input generation, the op, output checks.

Every input is generated here from the workload seed; chargeflow receives
only the generated configs.  Each workload exposes:

- ``params``: the sizes and tolerances, echoed into the report
- ``setup(tmp)``: writes shared inputs (configs) before the first op
- ``warmup()``: small ops run once before timing starts
- ``inputs(seed)``: endless op inputs as ``(input, round_end)`` pairs; a
  run stops only at the end of a round, so every run sees the same mix
- ``trace_inputs(seed)``: the fixed op list of a traced run
- ``probe_inputs(seed)``: ops of a known defect, run and reported apart
  from the timed ops
- ``execute(inp, out_dir, jobs)``: the op itself, through chargeflow's
  public entry points
- ``check(inp, out_dir, res)``: output checks -> (errors, readings)
- ``work(inp)``: work units an op completes (periods or certificates)
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import time
from fractions import Fraction
from itertools import combinations, count

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import linear_sum_assignment

from chargeflow import cli, equilibria


def _separated_points(rng, n, scale, min_sep):
    """Gaussian points (per-axis sd ``scale``) with pairwise distance > min_sep."""
    for _ in range(100_000):
        z = rng.normal(size=n) * scale + 1j * rng.normal(size=n) * scale
        d = np.abs(z[:, None] - z[None, :])
        np.fill_diagonal(d, np.inf)
        if d.min() > min_sep:
            return z
    raise RuntimeError("could not draw separated points")


def _trap_system(n, m, Lambda):
    return {"kind": "rational_omega", "omega": 1.0, "Lambda": Lambda, "n": n, "m": m}


class TrapLarge:
    """One monitored harmonic-trap simulation per op (``cli.run`` simulate)."""

    name = "trap_large"
    jobs = 1

    def __init__(self, tiny=False):
        self.n, self.m = (4, 2) if tiny else (20, 10)
        self.periods = 0.25
        self.params = {
            "omega": 1.0, "Lambda": 1.0, "n": self.n, "m": self.m,
            "periods": self.periods, "samples_per_period": 128,
            "rtol": 1e-10, "atol": 1e-12, "scale": 1.8, "min_separation": 0.2,
            "formats": ["csv", "json", "svg"],
        }

    def setup(self, tmp):
        pass

    def _input(self, entropy, periods):
        rng = np.random.default_rng(entropy)
        z = _separated_points(rng, self.n + self.m, 1.8, 0.2 * 1.8)
        doc = {
            "mode": "simulate",
            "system": _trap_system(self.n, self.m, 1.0),
            "initial": {
                "species": [
                    {"positions": [[p.real, p.imag] for p in z[: self.n]]},
                    {"positions": [[p.real, p.imag] for p in z[self.n :]]},
                ]
            },
            "integration": {
                "periods": periods, "samples_per_period": 128,
                "rtol": 1e-10, "atol": 1e-12,
            },
            "output": {"formats": ["csv", "json"], "svg": True},
        }
        return {"doc": doc, "z0": z, "rows": int(round(periods * 128)) + 1, "periods": periods}

    def warmup(self):
        return [self._input([0, 1, 0], 1 / 16)]

    def inputs(self, seed):
        for i in count():
            yield self._input([seed, 0, i], self.periods), True

    def trace_inputs(self, seed):
        return [self._input([seed, 0, i], self.periods) for i in range(2)]

    def probe_inputs(self, seed):
        return []

    def execute(self, inp, out_dir, jobs):
        doc = json.loads(json.dumps(inp["doc"]))
        doc["output"]["dir"] = out_dir
        return {"rc": cli.run(doc)}

    def check(self, inp, out_dir, res):
        if res["rc"] != 0:
            return [f"exit {res['rc']}"], {}
        errors = []
        with open(os.path.join(out_dir, "trajectory.csv")) as fh:
            rows = list(csv.reader(fh))
        header, data = rows[0], rows[1:]
        if len(data) != inp["rows"]:
            errors.append(f"{len(data)} data rows, expected {inp['rows']}")
        values = np.array([[float(v) for v in row] for row in data])
        if not np.all(np.isfinite(values)):
            errors.append("non-finite value in trajectory.csv")
        z0 = inp["z0"]
        first = values[0, 1 : 1 + 2 * len(z0)]
        expect = np.column_stack([z0.real, z0.imag]).ravel()
        if first.shape != expect.shape or not np.array_equal(first, expect):
            errors.append("first row differs from the initial configuration")
        with open(os.path.join(out_dir, "conserved.json")) as fh:
            drift = json.load(fh)["drift"]
        if not drift or not all(math.isfinite(d) for d in drift):
            errors.append("conserved.json drift missing or not finite")
        if not os.path.getsize(os.path.join(out_dir, "trajectory.svg")):
            errors.append("empty trajectory.svg")
        readings = {}
        if "residual" in header:
            readings["max_residual"] = float(np.max(values[:, header.index("residual")]))
        if drift:
            readings["max_trace_drift"] = max(drift)
        return errors, readings

    def work(self, inp):
        return inp["periods"]


class TrapSweep:
    """One 8-seed ``chargeflow period --seeds ... --jobs 2`` sweep per op."""

    name = "trap_sweep"
    jobs = 2
    Lambda = 1.213579
    scale = 1.8
    min_separation = 0.8889  # 1.6 absolute

    def __init__(self, tiny=False):
        self.n_seeds = 2 if tiny else 8
        self.periods = 1
        self.params = {
            "omega": 1.0, "Lambda": self.Lambda, "n": 6, "m": 1,
            "periods": self.periods, "samples_per_period": 128,
            "scale": self.scale, "min_separation": self.min_separation,
            "seeds_per_op": self.n_seeds, "jobs": self.jobs, "period_tol": 1e-5,
        }

    def setup(self, tmp):
        self.config = os.path.join(tmp, "sweep.json")
        doc = {
            "system": _trap_system(6, 1, self.Lambda),
            "initial": {"random": {"scale": self.scale, "min_separation": self.min_separation}},
            "integration": {"periods": self.periods, "samples_per_period": 128},
        }
        with open(self.config, "w") as fh:
            json.dump(doc, fh)

    def _input(self, entropy, n_seeds):
        rng = np.random.default_rng(entropy)
        seeds = [int(s) for s in rng.choice(2**31, size=n_seeds, replace=False)]
        return {"seeds": seeds}

    def warmup(self):
        return [self._input([0, 1, 0], 2)]

    def inputs(self, seed):
        for i in count():
            yield self._input([seed, 0, i], self.n_seeds), True

    def trace_inputs(self, seed):
        return [self._input([seed, 0, 0], self.n_seeds)]

    def probe_inputs(self, seed):
        return []

    def execute(self, inp, out_dir, jobs):
        seeds = ",".join(str(s) for s in inp["seeds"])
        argv = ["period", "--config", self.config, "--seeds", seeds,
                "--jobs", str(jobs), "--out", out_dir]
        return {"rc": cli.main(argv)}

    def _initial_draw(self, seed):
        """The initial positions the config's ``random`` block draws for
        ``seed``: the same generator calls as chargeflow's."""
        rng = np.random.default_rng(seed)
        min_sep = self.min_separation * self.scale
        iu = np.triu_indices(7, 1)
        for _ in range(1000):
            pts = rng.normal(size=7) * self.scale + 1j * rng.normal(size=7) * self.scale
            if np.all(np.abs(pts[:, None] - pts[None, :])[iu] > min_sep):
                return pts
        raise RuntimeError(f"seed {seed}: no separated draw")

    def _best_return(self, z0):
        """Smallest mismatch at t = j * 2 pi, j = 1..periods, from an
        independent integration (scipy DOP853) of the same flow:
        z_i' = -2i sum_j q_j / (z_i - z_j) - i z_i, q = (1 x 6, -Lambda)."""
        q = np.array([1.0] * 6 + [-self.Lambda])

        def rhs(t, z):
            d = z[:, None] - z[None, :]
            np.fill_diagonal(d, np.inf)
            return -2j * (q[None, :] / d).sum(axis=1) - 1j * z

        ts = [2 * math.pi * j for j in range(1, self.periods + 1)]
        sol = solve_ivp(rhs, (0.0, ts[-1]), z0.astype(complex), method="DOP853",
                        t_eval=ts, rtol=1e-11, atol=1e-13)
        best = math.inf
        for z in sol.y.T:
            worst = 0.0
            for a, b in ((z0[:6], z[:6]), (z0[6:], z[6:])):
                cost = np.abs(a[:, None] - b[None, :])
                rows, cols = linear_sum_assignment(cost)
                worst = max(worst, float(cost[rows, cols].max()))
            best = min(best, worst)
        return best

    def check(self, inp, out_dir, res):
        """Each seed either returns (exit 0, 1 <= k <= periods, mismatch <
        1e-5 * scale, criterion 10) or reports no return (exit 3), which
        an independent integration must confirm."""
        errors = []
        exits = dict(re.findall(r"^seed (\d+): exit (-?\d+)$", res["stdout"], re.M))
        worst, no_return = 0.0, 0
        for s in inp["seeds"]:
            z0 = self._initial_draw(s)
            scale = float(np.max(np.abs(z0)))
            code = exits.get(str(s))
            if code == "3":
                best = self._best_return(z0)
                if best < 1e-5 * scale:
                    errors.append(f"seed {s}: reported no return, but returns (mismatch {best:.3e})")
                no_return += 1
                continue
            if code != "0":
                errors.append(f"seed {s}: exit {code}")
                continue
            with open(os.path.join(out_dir, f"seed{s}_period.json")) as fh:
                doc = json.load(fh)
            rel = doc["mismatch"] / scale
            worst = max(worst, rel)
            if not (1 <= doc["k"] <= self.periods and rel < 1e-5):
                errors.append(f"seed {s}: k={doc['k']} mismatch/scale={rel:.3e}")
        if res["rc"] not in (0, 3) and not errors:
            errors.append(f"exit {res['rc']}")
        return errors, {"max_mismatch_over_scale": worst, "no_return_seeds": no_return}

    def work(self, inp):
        return len(inp["seeds"]) * self.periods


class ExactCerts:
    """Build + certify a Wronskian equilibrium with ``cli.run``, then
    re-certify the stored JSON with ``from_json`` + ``certify``."""

    name = "exact_certs"
    jobs = 1

    def __init__(self, tiny=False):
        self.tiny = tiny
        self.chain_ks = [4] if tiny else [4, 5, 6, 7]
        self.per_family = 1 if tiny else 2
        self.params = {
            "round": "per chain k: 2 hermite, 2 monomial, 2 cylinder, adler_moser(k)",
            "chain_k": self.chain_ks,
            "index_sets": "uniform over all sets of the family's sizes, stratified by index sum",
            "hermite": "3-5 indices in 0..10, b in {-3,-2,-1}",
            "monomial": "3-4 indices in 1..8, b = 1",
            "adler_moser": "ts = a/d, a uniform in -3..3, d balanced over 1..4",
            "cylinder": "2-3 indices in 1..4, phases uniform in [0, pi)",
            "probe": "laguerre: 5 indices <= 8 (k = 4), b in {1, 2}",
        }

    def setup(self, tmp):
        pass

    @staticmethod
    def _index_sets(lo, hi, sizes):
        """Every strictly increasing index set, cheapest first by index sum."""
        sets = [list(c) for k in sizes for c in combinations(range(lo, hi + 1), k)]
        return sorted(sets, key=lambda c: (sum(c), c))

    @staticmethod
    def _stratified(rng, sets, m):
        """m draws, one uniformly from each of m equal slices of ``sets``.

        Over many rounds this is the uniform draw over all sets; within a
        round it spans the cost range, so one run's mix does not swing
        between cheap and dear recipes."""
        edges = np.linspace(0, len(sets), m + 1).astype(int)
        picks = [sets[int(rng.integers(lo, max(lo + 1, hi)))] for lo, hi in zip(edges[:-1], edges[1:])]
        return [picks[i] for i in rng.permutation(m)]

    def _round(self, entropy):
        """One round: for each chain length k, ``per_family`` draws of each
        planar family and one Adler-Moser chain of length k."""
        rng = np.random.default_rng(entropy)
        m = self.per_family * len(self.chain_ks)
        hermite = self._stratified(rng, self._index_sets(0, 10, (3, 4, 5)), m)
        monomial = self._stratified(rng, self._index_sets(1, 8, (3, 4)), m)
        cylinder = self._stratified(rng, self._index_sets(1, 4, (2, 3)), m)
        ops = []
        for j, k in enumerate(self.chain_ks):
            for i in range(j * self.per_family, (j + 1) * self.per_family):
                ops.append({"recipe": "hermite", "indices": hermite[i], "b": int(rng.choice([-3, -2, -1]))})
                ops.append({"recipe": "monomial", "indices": monomial[i], "b": 1})
                ops.append({"recipe": "cylinder", "indices": cylinder[i],
                            "ts": [float(t) for t in rng.uniform(0.0, math.pi, size=len(cylinder[i]))]})
            # denominators balanced over 1..4 (coefficient growth follows
            # them), numerators uniform in -3..3
            dens = rng.permutation(np.resize(np.arange(1, 5), k))
            ops.append({"recipe": "adler_moser", "k": k,
                        "ts": [str(Fraction(int(rng.integers(-3, 4)), int(d))) for d in dens]})
        return [{"block": blk} for blk in ops]

    def warmup(self):
        ops = self._round([0, 1, 0])
        return ops[:3] + [ops[self.per_family * 3]]  # one per family and chain k = 4

    def inputs(self, seed):
        for r in count():
            ops = self._round([seed, 0, r])
            for i, inp in enumerate(ops):
                yield inp, i == len(ops) - 1

    def trace_inputs(self, seed):
        return self._round([seed, 0, 0])

    def probe_inputs(self, seed):
        """Laguerre-class draws.  They hit the repeated-root defect (the
        z**(k^2/4) factor of p): most fail ``certify``.  They are kept out
        of the timed ops and reported on their own."""
        rng = np.random.default_rng([seed, 2])
        sets = self._index_sets(0, 8, (5,))
        return [
            {"block": {"recipe": "laguerre", "indices": sets[int(rng.integers(len(sets)))],
                       "b": int(rng.choice([1, 2]))}}
            for _ in range(1 if self.tiny else 5)
        ]

    def execute(self, inp, out_dir, jobs):
        doc = {"mode": "equilibrium", "equilibrium": dict(inp["block"]), "output": {"dir": out_dir}}
        rc = cli.run(doc)
        res = {"rc": rc}
        if rc == 0:
            t0 = time.perf_counter()
            with open(os.path.join(out_dir, "certificate.json")) as fh:
                stored = json.load(fh)
            cert = equilibria.certify(equilibria.EquilibriumCertificate.from_json(stored))
            res.update(stored=stored, cert=cert, recert_s=time.perf_counter() - t0)
        return res

    def check(self, inp, out_dir, res):
        if res["rc"] != 0:
            return [f"exit {res['rc']}"], {}
        errors = []
        if res["stored"].get("residual_exact_zero") is not True:
            errors.append("residual_exact_zero is not true")
        if json.loads(json.dumps(res["cert"].to_json())) != res["stored"]:
            errors.append("re-certified certificate does not re-serialize to the stored JSON")
        return errors, {"recert_s": res["recert_s"]}

    def work(self, inp):
        return 1


WORKLOADS = {w.name: w for w in (TrapLarge, TrapSweep, ExactCerts)}
