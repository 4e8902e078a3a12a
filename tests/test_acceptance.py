"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  All randomness is pinned
to explicit seeds, so every criterion is deterministic.
"""

import math
import time

import numpy as np
import pytest

from chaoslab.cancellation import (
    composition_residual,
    inner_bound_slack,
    norm_bound_slack,
    permutation_relation_residual,
)
from chaoslab.chaos import (
    covariance_identity_residual,
    expand_product,
    moment_oracle,
    wick_eval_batch,
)
from chaoslab.fuzzing import (
    equivalence_case,
    inequality_case,
    random_tensors,
)
from chaoslab.kernels import (
    GridSpec,
    HermiteKernelSpec,
    KernelDiscretization,
    coupling_scaling_report,
    lower_scaling_report,
    upper_scaling_report,
)
from chaoslab.pairings import (
    IntervalDecomposition,
    count_admissible,
    enumerate_admissible,
    pairing_count_bound,
)
from chaoslab.regularity import (
    OrliczFunction,
    luxemburg_norm,
    modulus_holder_statistic,
    moment_growth_report,
    psup_norm,
    scaling_exponent_fit,
)
from chaoslab.simulate import sample_paths
from chaoslab.tensors import SymTensor, symmetrize


def report(number, passed, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


@pytest.fixture(scope="module")
def rosenblatt_paths():
    spec = HermiteKernelSpec.hermite(2, 0.7)
    grid = GridSpec.build(spec, steps=2**13)
    return sample_paths(spec, grid, 50, seed=31_415, workers=2)


def test_criterion_1_expansion_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    worst_gap = worst_pointwise = 0.0
    instances = 500
    for _ in range(instances):
        row = equivalence_case(
            rng, max_blocks=4, max_order=3, max_dim=3, max_total=10, pointwise_seeds=100
        )
        worst_gap = max(worst_gap, row["relative_gap"])
        worst_pointwise = max(worst_pointwise, row["pointwise_max_error"])
    elapsed = time.monotonic() - start
    ok = worst_gap <= 1e-9 and worst_pointwise <= 1e-9 and elapsed <= 300
    report(
        1,
        ok,
        f"{instances} instances, worst degree-0 gap {worst_gap:.2e}, "
        f"worst pointwise {worst_pointwise:.2e}, {elapsed:.0f}s",
    )


def test_criterion_2_counterexample_reproduction():
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    h_xi = SymTensor(np.outer(e1, e1) / math.sqrt(2.0), symmetric=True)
    h_eta = symmetrize(SymTensor(np.outer(e1, e2)))
    cross = moment_oracle([h_xi, h_eta])
    fourth = (
        moment_oracle([h_xi, h_xi, h_eta, h_eta])
        - moment_oracle([h_xi, h_xi])
        - moment_oracle([h_eta, h_eta])
        + 1.0
    )
    ok = abs(cross) < 1e-12 and abs(fourth - 4.0) <= 4.0 * 1e-10
    report(2, ok, f"E[xi eta] = {cross:.2e}, fourth-moment covariance = {fourth:.12f}")


def test_criterion_3_inequality_fuzzing():
    rng = np.random.default_rng(3003)
    counts = {"norm": 0, "inner": 0, "perm": 0, "comp": 0}
    worst = {"norm": 0.0, "inner": 0.0, "perm": 0.0, "comp": 0.0}
    while min(counts.values()) < 1000:
        row = inequality_case(rng, max_blocks=3, max_order=3, max_dim=3, max_total=9)
        counts["norm"] += 1
        counts["inner"] += 1
        counts["perm"] += 1
        worst["norm"] = min(worst["norm"], row["norm_bound_slack"])
        worst["inner"] = min(worst["inner"], row["inner_bound_slack"])
        worst["perm"] = max(worst["perm"], row["permutation_residual"])
        if row["composition_residual"] is not None:
            counts["comp"] += 1
            worst["comp"] = max(worst["comp"], row["composition_residual"])
    ok = (
        worst["norm"] >= -1e-12
        and worst["inner"] >= -1e-12
        and worst["perm"] < 1e-10
        and worst["comp"] < 1e-10
    )
    report(
        3,
        ok,
        f"{counts} instances; min slacks {worst['norm']:.1e}/{worst['inner']:.1e}, "
        f"max residuals {worst['perm']:.1e}/{worst['comp']:.1e}",
    )


def test_criterion_4_cardinality():
    for n in range(2, 9):
        dec = IntervalDecomposition((1,) * n)
        for k in range(n // 2 + 1):
            cnt = count_admissible(dec, k)
            assert cnt == pairing_count_bound(n, k)
            assert cnt == len(enumerate_admissible(dec, k))
    rng = np.random.default_rng(4004)
    checked = 0
    while checked < 200:
        blocks = int(rng.integers(2, 5))
        lengths = tuple(int(rng.integers(1, 4)) for _ in range(blocks))
        dec = IntervalDecomposition(lengths)
        if dec.total > 10:
            continue
        for k in range(dec.total // 2 + 1):
            cnt = count_admissible(dec, k)
            assert cnt <= pairing_count_bound(dec.total, k)
            if dec.total <= 8:
                assert cnt == len(enumerate_admissible(dec, k))
        checked += 1
    report(4, True, "unit-block equality to N=8; bound held on 200 random decompositions")


def test_criterion_5_covariance_identity():
    rng = np.random.default_rng(5005)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(2, 4))
        a = symmetrize(SymTensor(rng.standard_normal((d,) * n)))
        b = symmetrize(SymTensor(rng.standard_normal((d,) * n)))
        worst = max(worst, covariance_identity_residual(a, b))
    ok = worst < 1e-10
    report(5, ok, f"500 symmetric pairs, worst residual {worst:.2e}")


def test_criterion_6_fbm_regularity():
    start = time.monotonic()
    results = {}
    for alpha in (0.3, 0.5, 0.75):
        spec = HermiteKernelSpec.fbm(alpha)
        grid = GridSpec.build(spec, steps=2**14)
        paths = sample_paths(spec, grid, 50, seed=2024, workers=2)
        fit = scaling_exponent_fit(paths, p=2, levels=range(3, 11))
        results[alpha] = fit.slope_mean
    elapsed = time.monotonic() - start
    ok = all(abs(results[a] - a) <= 0.05 for a in results) and elapsed <= 600
    detail = ", ".join(f"alpha={a}: slope {results[a]:.4f}" for a in results)
    report(6, ok, f"{detail} ({elapsed:.0f}s)")


def test_criterion_7_rosenblatt_regularity(rosenblatt_paths):
    paths = rosenblatt_paths
    fit = scaling_exponent_fit(paths, p=2, levels=range(3, 11))
    slope_ok = abs(fit.slope_mean - 0.7) <= 0.1

    stats = {}
    for factor in (4, 2, 1):
        vals = [
            modulus_holder_statistic(p.subsample(factor) if factor > 1 else p, 0.7, 1.0)
            for p in paths
        ]
        stats[factor] = float(np.mean(vals))
    growth = stats[1] / stats[4]
    modulus_ok = growth < 2.0

    spec = HermiteKernelSpec.hermite(2, 0.7)
    coarse = GridSpec.build(spec, steps=2**9, left_units=30)
    g1 = np.array([p.values[-1] for p in sample_paths(spec, coarse, 10_000, seed=777, workers=2)])
    skew = float(((g1 - g1.mean()) ** 3).mean() / g1.std(ddof=1) ** 3)
    rng = np.random.default_rng(0)
    boot = []
    for _ in range(300):
        pick = g1[rng.integers(0, g1.size, g1.size)]
        boot.append(((pick - pick.mean()) ** 3).mean() / pick.std(ddof=1) ** 3)
    se = float(np.std(boot, ddof=1))
    skew_ok = abs(skew) > 3 * se

    ok = slope_ok and modulus_ok and skew_ok
    report(
        7,
        ok,
        f"slope {fit.slope_mean:.4f} (target 0.7 +- 0.1), modulus growth {growth:.3f} (< 2), "
        f"skewness {skew:.3f} vs 3SE {3 * se:.3f}",
    )


def test_criterion_8_moment_growth_shape(rosenblatt_paths):
    rep = moment_growth_report(
        rosenblatt_paths,
        alpha=0.7,
        exponents=(1.0, 0.5),
        levels=range(5, 11),
        ells=(2, 4, 6, 8),
        bootstrap=200,
    )
    main = rep.by_exponent[1.0]
    alt = rep.by_exponent[0.5]
    main_ok = main["kendall_tau"] <= 2.0 * main["tau_bootstrap_se"]
    alt_ok = alt["kendall_tau"] >= 2.0 / 3.0
    ok = main_ok and alt_ok
    report(
        8,
        ok,
        f"tau(l^1) = {main['kendall_tau']:.3f} (se {main['tau_bootstrap_se']:.3f}), "
        f"tau(l^1/2) = {alt['kendall_tau']:.3f}",
    )


def test_criterion_9_condition_verification():
    details = []
    ok = True
    for name, spec in (
        ("fbm", HermiteKernelSpec.fbm(0.75)),
        ("rosenblatt", HermiteKernelSpec.hermite(2, 0.7)),
    ):
        grid = GridSpec.build(spec, steps=256, left_units=30)
        kd = KernelDiscretization(spec, grid)
        upper = upper_scaling_report(kd, levels=range(1, 7), refined=kd.refined())
        lower = lower_scaling_report(kd)
        fit = coupling_scaling_report(kd, levels=range(2, 7))
        eps = fit.slope / 2.0
        ok &= upper.passed and upper.refinement_drift < 0.10
        ok &= lower.passed and lower.kappa_prime > 0
        ok &= eps > 0
        details.append(
            f"{name}: kappa {upper.kappa:.3f} (drift {upper.refinement_drift:.3f}), "
            f"kappa' {lower.kappa_prime:.3f}, eps {eps:.3f}"
        )
    zero = HermiteKernelSpec.fbm(0.5, scale=0.0)
    zero_grid = GridSpec(left=8.0, cells=9 * 128, steps=128)
    zero_lower = lower_scaling_report(KernelDiscretization(zero, zero_grid))
    ok &= not zero_lower.passed
    details.append(f"zero kernel kappa' = {zero_lower.kappa_prime}")
    report(9, ok, "; ".join(details))


def test_criterion_10_orlicz_machinery():
    phi = OrliczFunction(2.0)
    worst_closed_form = 0.0
    for c in (0.25, 1.0, 3.0, 11.0):
        got = luxemburg_norm(np.full(400, c), 1.0 / 400, phi)
        want = c / math.sqrt(math.log(2.0))
        worst_closed_form = max(worst_closed_form, abs(got - want) / want)
    rng = np.random.default_rng(1010)
    ratios = []
    for _ in range(100):
        f = rng.standard_normal(int(rng.integers(32, 512)))
        lux = luxemburg_norm(f, 1.0 / f.size, phi)
        sup = psup_norm(f, 2.0, 1.0 / f.size)
        ratios.append(sup / lux)
    c1, c2 = min(ratios), max(ratios)
    ok = worst_closed_form < 1e-10 and c1 > 0 and math.isfinite(c2)
    report(
        10,
        ok,
        f"closed-form gap {worst_closed_form:.2e}; psup/luxemburg in [{c1:.3f}, {c2:.3f}]",
    )
