"""Acceptance gate: eight end-to-end criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

import time

import numpy as np

from dcgrid.network import build_network, generate_lattice, laplacian
from dcgrid.numerics import eig_sym
from dcgrid.resistance import (
    kstar,
    rayleigh_check,
    reff_matrix,
    scaling_sweep,
)
from dcgrid.simulation import (
    monte_carlo_h2,
    slowest_time_constant,
    white_noise_variance,
)
from dcgrid.systems import (
    ControllerParams,
    assemble_dapi,
    assemble_droop,
    assemble_slack,
    h2_closed_form_dapi,
    h2_closed_form_droop,
    h2_closed_form_slack,
    h2_lyapunov,
)
from dcgrid.errors import DisconnectedGraph
from .conftest import random_connected_network

PAPER = ControllerParams(c=1e-3, k_p=0.1, k=100.0, gamma=1000.0)


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num} ({label}): {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def _random_graphs_and_params(count=50, master_seed=0, **graph_kwargs):
    rng = np.random.default_rng(master_seed)
    out = []
    for _ in range(count):
        net = random_connected_network(rng, **graph_kwargs)
        params = ControllerParams(*(float(v) for v in
                                    rng.uniform(0.1, 10.0, size=4)))
        out.append((net, params))
    return out


def test_criterion_1_oracle_equivalence():
    start = time.time()
    worst = 0.0
    # 50 small graphs plus 10 with n in [31, 100] (DAPI dimension 62-200)
    cases = (_random_graphs_and_params()
             + _random_graphs_and_params(10, 1, n_min=31, n_max=100))
    for net, params in cases:
        pairs = [
            (h2_closed_form_slack(net, params, 0),
             h2_lyapunov(assemble_slack(net, params, 0))),
            (h2_closed_form_droop(net, params),
             h2_lyapunov(assemble_droop(net, params))),
            (h2_closed_form_dapi(net, params),
             h2_lyapunov(assemble_dapi(net, params))),
        ]
        for closed, oracle in pairs:
            worst = max(worst, abs(closed - oracle) / abs(closed))
    elapsed = time.time() - start
    _report(1, "oracle equivalence", worst <= 1e-6 and elapsed < 30,
            f"worst rel diff {worst:.2e} over {len(cases)} graphs x 3 "
            f"controllers in {elapsed:.1f}s")


def test_criterion_2_ordering_and_lower_bound():
    ok = True
    for net, params in _random_graphs_and_params():
        droop = h2_closed_form_droop(net, params)
        dapi = h2_closed_form_dapi(net, params)
        slack = h2_closed_form_slack(net, params, 0)
        c = params.uniform("c")
        ok &= dapi < droop
        ok &= slack >= 0.5 * c * kstar(net) * (1 - 1e-12)
    _report(2, "dapi < droop and slack >= c K*/2", ok,
            "both inequalities held on all 50 random graphs")


def test_criterion_3_counterexample_regression():
    p3 = build_network(3, [(0, 1, 1.0), (1, 2, 1.0)])
    params = ControllerParams(c=1.0, k_p=0.1)
    droop = h2_closed_form_droop(p3, params)
    slack = h2_closed_form_slack(p3, params, 0)
    ok = (abs(droop - 1.871945) <= 1e-6 and abs(slack - 0.5) <= 1e-6
          and droop > slack)
    _report(3, "P3 droop > slack counterexample", ok,
            f"droop {droop:.6f} > slack {slack:.6f}")


def test_criterion_4_path_scaling():
    start = time.time()
    sizes = [10, 20, 40, 80, 160, 320]
    params = ControllerParams(c=1.0, k_p=0.1, k=100.0, gamma=1000.0)
    res = scaling_sweep("path", sizes, params)
    worst = max(abs(r.h2_slack - (r.n - 1) / 4) / ((r.n - 1) / 4)
                for r in res.records)
    bounded = all(r.h2_droop <= 5.0 and r.h2_dapi <= 5.0
                  for r in res.records)
    elapsed = time.time() - start
    ok = (worst <= 1e-13 and abs(res.fit.slope - 0.25) <= 1e-12
          and res.fit.r_squared > 0.999999 and bounded and elapsed < 60)
    _report(4, "Table d=1 linear growth", ok,
            f"worst rel err vs (n-1)/4: {worst:.2e}, slope "
            f"{res.fit.slope:.9f}, R^2 {res.fit.r_squared:.8f}, "
            f"droop/dapi <= 5: {bounded}, {elapsed:.1f}s")


def test_criterion_5_grid_scaling():
    start = time.time()
    params = ControllerParams(c=1.0, k_p=0.1, k=100.0, gamma=1000.0)
    res2 = scaling_sweep("grid2d", [5, 10, 20, 40], params)
    ratio = np.array([r.h2_slack / np.log(r.n) for r in res2.records])
    band2 = (ratio.max() - ratio.min()) / 2 / ratio.mean()
    res3 = scaling_sweep("grid3d", [3, 4, 5, 6], params)
    vals = np.array([r.h2_slack for r in res3.records])
    band3 = (vals.max() - vals.min()) / 2 / vals.mean()
    elapsed = time.time() - start
    ok = band2 <= 0.20 and band3 <= 0.15 and elapsed < 600
    _report(5, "Table d=2 log growth, d=3 bounded", ok,
            f"d=2 band +/-{100 * band2:.1f}% (limit 20%), d=3 band "
            f"+/-{100 * band3:.1f}% (limit 15%), {elapsed:.1f}s")


def test_criterion_6_gutman_and_rayleigh():
    rng = np.random.default_rng(6)
    worst = 0.0
    monotone = True
    for _ in range(30):
        net = random_connected_network(rng)
        lam = eig_sym(laplacian(net))
        spectral = net.node_count * float(np.sum(1.0 / lam[1:]))
        # the pairwise sum, since kirchhoff_index is the spectral formula
        kf = float(np.sum(np.triu(reff_matrix(net), k=1)))
        worst = max(worst, abs(spectral - kf) / kf)
        for i, j, _r in net.edges:
            try:
                rep = rayleigh_check(net, (i, j))
            except DisconnectedGraph:
                continue
            monotone &= rep.min_delta >= -1e-10
    ok = worst <= 1e-8 and monotone
    _report(6, "Gutman identity + Rayleigh monotonicity", ok,
            f"worst identity rel err {worst:.2e}, monotone under every "
            f"connectivity-preserving edge removal: {monotone}")


def test_criterion_7_monte_carlo_consistency():
    k2 = build_network(2, [(0, 1, 1.0)])
    p3 = build_network(3, [(0, 1, 1.0), (1, 2, 1.0)])
    cases = [
        ("droop K2", assemble_droop(
            k2, ControllerParams(c=1.0, k_p=1.0, k=1.0, gamma=1.0)), 1 / 3),
        ("slack P3", assemble_slack(p3, ControllerParams(c=1.0), 0), 0.5),
    ]
    detail = []
    ok = True
    for label, model, target in cases:
        tau = slowest_time_constant(model)
        hits_mc = hits_wn = 0
        for seed in range(20):
            mc = monte_carlo_h2(model, samples=10_000, seed=seed)
            hits_mc += abs(mc.mean - target) <= 3 * mc.stderr
            wn = white_noise_variance(model, T=200 * tau, seed=seed)
            hits_wn += abs(wn.mean - target) <= 3 * wn.stderr
        ok &= hits_mc >= 19 and hits_wn >= 19
        detail.append(f"{label}: mc {hits_mc}/20, wn {hits_wn}/20")
    _report(7, "Monte Carlo vs closed form", ok, "; ".join(detail))


def test_criterion_8_size_ratio_study():
    # one pinned master seed; one stream per estimate keeps it deterministic
    seed = 0
    means = {}
    for n in (10, 100):
        net = generate_lattice(1, n)
        for kind, model in (("slack", assemble_slack(net, PAPER, 0)),
                            ("droop", assemble_droop(net, PAPER)),
                            ("dapi", assemble_dapi(net, PAPER))):
            est = monte_carlo_h2(model, samples=100, seed=seed,
                                 mode="paper_fig2")
            means[(kind, n)] = est.mean
    ratios = {kind: means[(kind, 100)] / means[(kind, 10)]
              for kind in ("slack", "droop", "dapi")}
    ok = (abs(ratios["slack"] - 11.0) <= 0.3 * 11.0
          and abs(ratios["droop"] - 1.0) <= 0.3
          and abs(ratios["dapi"] - 1.0) <= 0.3)
    _report(8, "n=100/n=10 energy ratios", ok,
            f"slack {ratios['slack']:.2f} (11 +/- 3.3), droop "
            f"{ratios['droop']:.2f}, dapi {ratios['dapi']:.2f} (1.0 +/- 0.3)")
