"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Budgets follow the stated limits; everything is seeded.
"""

import math
import subprocess
import sys
import time

import numpy as np

from widthlab.bodies import LpBall, PolarBody, euclidean_ball, induced_ball, linear_image
from widthlab.harness import _gather, _radius_check, _report
from widthlab.manifolds import all_families, sphere
from widthlab.stochastic import (expectation_norm, expected_norm_bound, greedy_nets,
                                 mc_volume_ratio)
from widthlab.systems import trig_system
from widthlab.widths import (brute_force_gelfand, brute_force_kolmogorov,
                             ellipsoid_kolmogorov_exact, sobolev_width_order)

_t0 = {}


def _begin(name):
    _t0[name] = time.time()


def _finish(name, ok, detail=""):
    dt = time.time() - _t0[name]
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name} ({dt:.1f}s) {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_volume_identity():
    _begin("volume-identity")
    est_cube = mc_volume_ratio(LpBall(2, np.inf), euclidean_ball(2),
                               samples=500_000, seed=11)
    est_ell = mc_volume_ratio(linear_image(euclidean_ball(2), np.diag([2.0, 1.0])),
                              euclidean_ball(2), samples=500_000, seed=12)
    err_cube = abs(est_cube.value / (4.0 / math.pi) - 1.0)
    err_ell = abs(est_ell.value / 2.0 - 1.0)
    ok = err_cube < 0.05 and err_ell < 0.05
    _finish("volume-identity", ok,
            f"cube rel err {err_cube:.4f}, ellipse rel err {err_ell:.4f}")


def test_criterion_02_expectation_bound():
    _begin("expectation-bound")
    ok = True
    details = []
    for n in (3, 5, 9):
        system = trig_system((n - 1) // 2)
        for p in (2.0, 4.0, 8.0):
            est = expectation_norm(induced_ball(system, p), samples=200_000,
                                   seed=100 + n)
            bound = expected_norm_bound(p)
            ok &= est.value <= bound + est.half_width + 1e-6
            if p == 2.0:
                ok &= abs(est.value - 1.0) <= 1e-6 + est.half_width
                ok &= abs(bound - 1.0) <= 1e-12
            details.append(f"n={n},p={p}:{est.value:.4f}<={bound:.4f}")
    _finish("expectation-bound", ok, "; ".join(details[:3]) + " ...")


def test_criterion_03_santalo():
    _begin("santalo")
    ok = 8.0 <= math.pi**2
    violations = 0
    system = trig_system(1)
    for p in (1.5, 2.0, 4.0):
        body = induced_ball(system, p)
        polar = PolarBody(body)
        for k in range(20):
            v = mc_volume_ratio(body, euclidean_ball(3), samples=2000,
                                seed=2000 + k, check_blowup=False)
            vp = mc_volume_ratio(polar, euclidean_ball(3), samples=2000,
                                 seed=3000 + k, check_blowup=False)
            product = v.value * vp.value
            slack = 2.0 * (v.half_width * vp.value + vp.half_width * v.value) + 1e-6
            if product > 1.0 + slack:
                violations += 1
    ok = ok and violations == 0
    _finish("santalo", ok,
            f"exact margin {math.pi**2 - 8.0:.4f}, mc violations {violations}/60")


def test_criterion_04_urysohn():
    _begin("urysohn-volume")
    violations = 0
    for n in (3, 5, 9):
        system = trig_system((n - 1) // 2)
        for p in (2.0, 4.0, 8.0):
            body = induced_ball(system, p)
            seed = 400 + n  # shared stream makes the bound empirical Jensen
            vol = mc_volume_ratio(body, euclidean_ball(n), samples=200_000,
                                  seed=seed, check_blowup=False)
            exp = expectation_norm(body, samples=200_000, seed=seed)
            lower = exp.value ** float(-n)
            slack = vol.half_width + n * lower / exp.value * exp.half_width + 1e-9
            if vol.value + slack < lower:
                violations += 1
    _finish("urysohn-volume", violations == 0, f"violations {violations}/9")


def test_criterion_05_net_chain():
    _begin("net-chain")
    ref = euclidean_ball(2)
    violations = 0
    runs = 0
    for body in (euclidean_ball(2), LpBall(2, np.inf)):
        for seed in range(20):
            # one traversal per seed; the coarse net at delta is the fine one at 2 * delta
            nets = greedy_nets(body, ref, (0.25, 0.5, 1.0, 2.0), seed=seed)
            for fine, coarse in zip(nets, nets[1:]):
                runs += 1
                if not coarse.net_size <= fine.net_size:
                    violations += 1
                if not (fine.certified and coarse.certified):
                    violations += 1
    _finish("net-chain", violations == 0, f"violations {violations}/{runs} runs")


def test_criterion_06_width_oracles():
    _begin("width-oracles")
    rng = np.random.default_rng(606)
    worst = 0.0
    duality_ok = True
    for trial in range(20):
        n = 3 if trial < 10 else 4
        axes = np.sort(np.exp(rng.uniform(-1.0, 1.0, n)))[::-1]
        body = linear_image(euclidean_ball(n), np.diag(axes))
        for m in range(1, n):
            exact = ellipsoid_kolmogorov_exact(axes, m)
            kol = brute_force_kolmogorov(body, LpBall(n, 2.0), m,
                                         restarts=96, seed=trial)
            gel = brute_force_gelfand(body, LpBall(n, 2.0), m,
                                      restarts=96, seed=trial)
            worst = max(worst, abs(kol.value - exact), abs(gel.value - exact))
            duality_ok &= abs(kol.value - gel.value) <= 1e-2
    ok = worst <= 1e-3 and duality_ok
    _finish("width-oracles", ok, f"worst |brute-exact| {worst:.2e}, duality {duality_ok}")


def test_criterion_07_radius_bounds():
    _begin("radius-bounds")
    l1 = _report("radius-l1", "", *_gather(_radius_check("l1", range(0, 10), range(10, 60))))
    lq = _report("radius-lq", "", *_gather(_radius_check("lq", range(0, 10), range(10, 60))))
    ok = l1.passed and lq.passed
    _finish("radius-bounds", ok,
            f"l1: {l1.violations}/{l1.trials} violations (margin {l1.worst_margin:.3f}); "
            f"lq: {lq.violations}/{lq.trials} violations (margin {lq.worst_margin:.3f})")


def test_criterion_08_sobolev_scaling():
    _begin("sobolev-scaling")
    space = sphere(2)
    ok = True
    details = []
    for gamma in (1.0, 2.0):
        target = -gamma / space.d
        s_bound, s_exact = sobolev_width_order(space, gamma, range(4, 13))
        ok &= abs(s_exact - target) <= 0.05
        ok &= abs(s_bound - target) <= 0.05
        ok &= abs(s_exact - s_bound) <= 0.05
        details.append(f"gamma={gamma}: exact {s_exact:.3f}, bound {s_bound:.3f}")
    _finish("sobolev-scaling", ok, "; ".join(details))


def test_criterion_09_spectral_counting():
    _begin("spectral-counting")
    ok = True
    for space in all_families():
        ratios = np.array([space.weyl_ratio(N) for N in range(20, 61)])
        ok &= np.max(np.abs(ratios[1:] / ratios[:-1] - 1.0)) < 0.2
        for N in range(10, 61):
            ok &= abs(space.eigenvalue(N + 1) / space.eigenvalue(N) - 1.0) <= 3.0 / N
    _finish("spectral-counting", ok, f"{len(all_families())} families")


def test_criterion_10_determinism(tmp_path):
    # the two runs go at the same time, each into its own directory
    _begin("determinism")
    outs = [tmp_path / tag for tag in ("one", "two")]
    procs = [subprocess.Popen(
        [sys.executable, "-m", "widthlab.cli", "verify", "--all",
         "--seed", "7", "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) for out in outs]
    results = [proc.communicate() + (proc.returncode,) for proc in procs]
    outputs = []
    for out, (stdout, stderr, code) in zip(outs, results):
        assert code == 0, stdout + stderr
        outputs.append((out / "verify.csv").read_bytes()
                       + (out / "verify_summary.json").read_bytes())
    ok = outputs[0] == outputs[1]
    _finish("determinism", ok, f"{len(outputs[0])} bytes compared")
