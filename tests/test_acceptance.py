"""Acceptance gate: eight end-to-end criteria, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Every criterion is self-contained and pinned to explicit tolerances and
runtime budgets; a failure here means the library does not meet its contract.
"""

import time

import numpy as np
import pytest

from oel.catalog import catalog_with_duals
from oel.harness import integral_sweep, run_suite
from oel.means import (
    OperatorPair,
    arithmetic_mean,
    generalized_entropy,
    geometric_mean,
    harmonic_mean,
    natural_power_mean,
    quadrature_tsallis,
    relative_operator_entropy,
    tsallis_entropy,
)
from oel.sampler import SamplerConfig, commuting_pair, commuting_spectra, generator, sandwich_pair
from oel.scalars import (
    CHAINS,
    PROBES,
    SIGN_CLAIMS,
    arith_rep,
    harm_rep,
    power_log,
    power_rep,
    run_probe,
    sign_table,
    tsallis_log,
    verify_scalar_chain,
)

PROBE_TOL = 1e-5


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


def _probe_criterion(name: str, probe_id: str, budget_s: float) -> list[float]:
    start = time.perf_counter()
    vals, spec, ok = run_probe(probe_id)
    elapsed = time.perf_counter() - start
    worst = max(abs(v - e) for v, e in zip(vals, spec.expected))
    ok = ok and spec.tol == PROBE_TOL and worst <= PROBE_TOL and elapsed < budget_s
    _verdict(
        name,
        ok,
        f"probe {probe_id} reproduced {len(vals)} values, max |dev| {worst:.2e} "
        f"(tol {PROBE_TOL:g}, {elapsed * 1e3:.0f} ms)",
    )
    return vals


def test_a1_lower_members_cross():
    vals = _probe_criterion("A1", "2.3i", budget_s=1.0)
    assert abs(vals[0] - 0.071123) <= PROBE_TOL
    assert abs(vals[1] - (-0.023104)) <= PROBE_TOL


def test_a2_upper_members_cross():
    vals = _probe_criterion("A2", "2.3ii", budget_s=1.0)
    assert abs(vals[0] - 0.166458) <= PROBE_TOL
    assert abs(vals[1] - (-0.0416177)) <= PROBE_TOL


def test_a3_quadratic_correction_values():
    vals = _probe_criterion("A3", "2.5", budget_s=1.0)
    expected = (0.00118777, -0.0118756, -0.890458, 0.795489)
    for v, e in zip(vals, expected):
        assert abs(v - e) <= PROBE_TOL
    # both bound gaps change sign, so neither bound family is ordered
    assert vals[0] > 0.0 > vals[1]
    assert vals[2] < 0.0 < vals[3]


def test_a4_full_catalog_suite():
    cases = catalog_with_duals()
    assert len(cases) == 50
    start = time.perf_counter()
    failures = 0
    worst = np.inf
    for case in cases:
        res = run_suite(case, trials=1000, dims=(1, 2, 3, 4, 6, 8), seed=42)
        failures += res.failures
        worst = min(worst, res.worst_margin)
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 60.0
    _verdict(
        "A4",
        ok,
        f"{len(cases)} cases x 1000 trials, {failures} failures, "
        f"worst margin {worst:.2e} ({elapsed:.1f} s)",
    )


def test_a5_commuting_oracle_equivalence():
    ops = [
        ("arith", lambda pair, p: arithmetic_mean(pair, p), arith_rep, "unit"),
        ("harm", lambda pair, p: harmonic_mean(pair, p), harm_rep, "unit"),
        ("power", lambda pair, p: natural_power_mean(pair, p), power_rep, "real"),
        ("geom", lambda pair, p: geometric_mean(pair, p), power_rep, "unit"),
        ("entropy", lambda pair, p: relative_operator_entropy(pair), lambda x, p: np.log(x), "unit"),
        ("gen_entropy", lambda pair, p: generalized_entropy(pair, p), power_log, "real"),
        ("tsallis", lambda pair, p: tsallis_entropy(pair, p), tsallis_log, "signed"),
        ("quadrature", lambda pair, p: quadrature_tsallis(pair, p, nodes=32), tsallis_log, "signed"),
    ]
    dims = (1, 2, 3, 4, 6, 8)
    worst = 0.0
    start = time.perf_counter()
    for k, (label, op, twin, p_kind) in enumerate(ops):
        rng = generator(10_000 + k)
        for i in range(500):
            n = dims[i % len(dims)]
            cfg = SamplerConfig(seed=int(rng.integers(0, 1 << 63)), n=n, sandwich=(0.25, 4.0))
            _, lam, mu = commuting_spectra(cfg)
            pair = commuting_pair(cfg)
            if p_kind == "unit":
                p = float(rng.uniform(0.0, 1.0))
            elif p_kind == "real":
                p = float(rng.uniform(-1.0, 1.0))
            else:
                p = float(rng.uniform(0.01, 1.0)) * (1 if rng.uniform() < 0.5 else -1)
            result = op(pair, p)
            got = np.sort(np.linalg.eigvalsh(getattr(result, "mat", result)))
            want = np.sort(lam * twin(mu / lam, p))
            worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12
    _verdict(
        "A5",
        ok,
        f"8 operations x 500 commuting pairs, worst eigenwise deviation "
        f"{worst:.2e} (tol 1e-12, {elapsed:.1f} s)",
    )


def test_a6_integral_identity():
    start = time.perf_counter()
    results = integral_sweep(
        trials=100,
        p_grid=(0.1, -0.1, 0.5, -0.5, 1.0, -1.0),
        nodes=32,
        tol=1e-8,
        seed=42,
    )
    elapsed = time.perf_counter() - start
    worst = max(r.max_residual for r in results)
    ok = all(r.holds for r in results) and len(results) == 6
    _verdict(
        "A6",
        ok,
        f"100 pairs x 6 weights, 32-node quadrature, worst residual "
        f"{worst:.2e} within 1e-8*scale ({elapsed:.1f} s)",
    )


def test_a7_small_weight_limit():
    p_values = (1e-2, 1e-3, 1e-4)
    dims = (2, 3, 4, 6, 8)
    rng = generator(4242)
    worst_ratio_drift = 0.0
    start = time.perf_counter()
    for i in range(100):
        cfg = SamplerConfig(
            seed=int(rng.integers(0, 1 << 63)), n=dims[i % len(dims)], sandwich=(0.25, 4.0)
        )
        pair = sandwich_pair(cfg)
        s = relative_operator_entropy(pair)
        norms = [float(np.linalg.norm(tsallis_entropy(pair, p) - s, 2)) for p in p_values]
        assert norms[0] > norms[1] > norms[2] > 0.0
        rates = [nrm / p for nrm, p in zip(norms, p_values)]
        drift = max(rates[1], rates[2]) / min(rates[1], rates[2])
        worst_ratio_drift = max(worst_ratio_drift, drift)
    elapsed = time.perf_counter() - start
    ok = worst_ratio_drift <= 1.1
    _verdict(
        "A7",
        ok,
        f"100 pairs: deviation from the limit entropy shrinks monotonically at "
        f"p = 1e-2, 1e-3, 1e-4; rate drift {worst_ratio_drift:.4f} <= 1.1 ({elapsed:.1f} s)",
    )


def test_a8_scalar_chains_and_sign_tables():
    start = time.perf_counter()
    chain_points = 0
    worst = np.inf
    for chain_id in CHAINS:
        res = verify_scalar_chain(chain_id)
        assert res.points_checked >= 10_000, chain_id
        assert res.worst_violation >= -1e-12, (chain_id, res.worst_violation, res.worst_point)
        chain_points += res.points_checked
        worst = min(worst, res.worst_violation)
    claim_points = 0
    for claim_id, claim in SIGN_CLAIMS.items():
        rep = sign_table(claim_id)
        assert rep.points >= 10_000, claim_id
        assert rep.classification == claim.expected, (claim_id, rep)
        claim_points += rep.points
    elapsed = time.perf_counter() - start
    ok = elapsed < 5.0
    _verdict(
        "A8",
        ok,
        f"{len(CHAINS)} chains ({chain_points} points, worst violation {worst:.2e} >= -1e-12) "
        f"and {len(SIGN_CLAIMS)} sign claims ({claim_points} points) ({elapsed:.1f} s)",
    )


def test_probe_registry_is_exactly_the_frozen_set():
    assert sorted(PROBES) == ["2.3i", "2.3ii", "2.5"]
    for spec in PROBES.values():
        assert spec.tol == PROBE_TOL
