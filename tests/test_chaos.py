import itertools
import json
import math

import numpy as np
import pytest

from chaoslab import chaos
from chaoslab.chaos import (
    ChaosExpansion,
    _class_sums,
    _gaussian_monomial_expectation,
    _multiplicity_classes,
    covariance_identity_residual,
    expand_product,
    gebelein_bound_check,
    hermite_he,
    hermite_he_coefficients,
    hypercontractivity_check,
    moment_oracle,
    philox_stream,
    wick_eval,
    wick_eval_batch,
    wick_eval_rank_one_sum,
)
from chaoslab.cancellation import cancel
from chaoslab.cli import write_json
from chaoslab.fuzzing import random_decomposition, random_tensors
from chaoslab.pairings import IntervalDecomposition, enumerate_admissible
from chaoslab.tensors import (
    SymTensor,
    _sorted_index_classes,
    basis_vector,
    elementary,
    inner,
    symmetrize,
    tensor_product,
)


def test_hermite_values():
    x = np.linspace(-3, 3, 7)
    assert np.allclose(hermite_he(0, x), 1.0)
    assert np.allclose(hermite_he(1, x), x)
    assert np.allclose(hermite_he(2, x), x**2 - 1)
    assert np.allclose(hermite_he(3, x), x**3 - 3 * x)
    assert np.allclose(hermite_he(4, x), x**4 - 6 * x**2 + 3)


def test_hermite_coefficients_exact():
    assert hermite_he_coefficients(2) == (-1, 0, 1)
    assert hermite_he_coefficients(3) == (0, -3, 0, 1)
    assert hermite_he_coefficients(6) == (-15, 0, 45, 0, -15, 0, 1)
    # coefficients evaluate consistently with the recurrence
    x = 0.7
    for n in range(10):
        by_coef = sum(c * x**k for k, c in enumerate(hermite_he_coefficients(n)))
        assert by_coef == pytest.approx(float(hermite_he(n, x)), rel=1e-12)


def hermite_he_coefficients_by_recurrence(n):
    """He_n's coefficients by He_{k+1} = x He_k - k He_{k-1} on exact
    integers: the reference of the explicit sum."""
    prev, cur = (), (1,)
    for k in range(n):
        shifted = (0,) + cur
        damped = tuple(-k * c for c in prev) + (0,) * (len(shifted) - len(prev))
        cur, prev = tuple(a + b for a, b in zip(shifted, damped)), cur
    return cur


def test_hermite_coefficients_are_the_recurrence():
    for n in range(130):
        got = hermite_he_coefficients(n)
        assert got == hermite_he_coefficients_by_recurrence(n), n
        assert all(type(c) is int for c in got), n


def test_wick_eval_squared_basis():
    a = elementary([[1, 0], [1, 0]])
    assert wick_eval(a, np.array([2.0, 0.0])) == pytest.approx(3.0)  # He_2(2) = 3


def test_wick_eval_order_one_is_inner_product():
    rng = np.random.default_rng(0)
    h = rng.standard_normal(5)
    xi = rng.standard_normal(5)
    assert wick_eval(SymTensor(h), xi) == pytest.approx(float(h @ xi))


def test_wick_eval_order_two_identity():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = symmetrize(SymTensor(rng.standard_normal((4, 4))))
        xi = rng.standard_normal(4)
        expected = float(xi @ a.entries @ xi - np.trace(a.entries))
        assert wick_eval(a, xi) == pytest.approx(expected, rel=1e-10, abs=1e-10)


def test_wick_eval_ignores_asymmetric_part():
    rng = np.random.default_rng(2)
    a = SymTensor(rng.standard_normal((3, 3, 3)))
    xi = rng.standard_normal(3)
    assert wick_eval(a, xi) == pytest.approx(wick_eval(symmetrize(a), xi), rel=1e-10)


def test_wick_eval_batch_matches_scalar():
    rng = np.random.default_rng(3)
    a = SymTensor(rng.standard_normal((3, 3)))
    xis = rng.standard_normal((11, 3))
    batch = wick_eval_batch(a, xis)
    for i in range(11):
        assert batch[i] == pytest.approx(wick_eval(a, xis[i]), rel=1e-12)


def test_wick_eval_gaussian_seed_input():
    xi = philox_stream(9, 2).standard_normal(4)
    a = SymTensor(np.eye(4))
    assert wick_eval(a, xi) == pytest.approx(float((xi**2).sum() - 4))


def test_philox_streams_reproducible():
    a = philox_stream(5, 1).standard_normal(8)
    b = philox_stream(5, 1).standard_normal(8)
    c = philox_stream(5, 2).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    philox_stream(2**64 - 1, 2**64 - 1)  # the largest key
    for seed, stream in ((-1, 0), (2**64, 0), (0, -1), (0, 2**64)):
        with pytest.raises(ValueError, match=r"\[0, 2\^64\)"):
            philox_stream(seed, stream)


def test_rank_one_sum_single_vector():
    phi = np.array([0.6, 0.8])  # unit norm
    xi = np.array([1.0, -2.0])
    got = wick_eval_rank_one_sum([1.0], [phi], 2, xi)
    z = float(phi @ xi)
    assert got == pytest.approx(z**2 - 1)


def test_rank_one_sum_matches_dense():
    rng = np.random.default_rng(4)
    w = rng.standard_normal(5)
    vs = rng.standard_normal((5, 6))
    dense = sum(wi * elementary([v, v]).entries for wi, v in zip(w, vs))
    xi = rng.standard_normal(6)
    got = wick_eval_rank_one_sum(w, vs, 2, xi)
    want = wick_eval(SymTensor(dense), xi)
    assert got == pytest.approx(want, rel=1e-10)


def test_rank_one_sum_order_one_linearity():
    rng = np.random.default_rng(5)
    w = rng.standard_normal(4)
    vs = rng.standard_normal((4, 3))
    xi = rng.standard_normal(3)
    got = wick_eval_rank_one_sum(w, vs, 1, xi)
    assert got == pytest.approx(float(np.sum(w * (vs @ xi))), rel=1e-10)


def test_rank_one_sum_skips_zero_vectors():
    xi = np.array([1.0, 2.0])
    assert wick_eval_rank_one_sum([3.0], [np.zeros(2)], 2, xi) == 0.0


def test_expand_two_first_order_factors():
    rng = np.random.default_rng(6)
    h, k = rng.standard_normal(3), rng.standard_normal(3)
    exp = expand_product([SymTensor(h), SymTensor(k)])
    assert sorted(exp.terms) == [0, 2]
    assert exp.degree0() == pytest.approx(float(h @ k))
    sym_hk = symmetrize(tensor_product(SymTensor(h), SymTensor(k)))
    assert np.allclose(exp.terms[2].entries, sym_hk.entries)


def test_expand_cube_of_gaussian():
    e1 = basis_vector(2, 1)
    exp = expand_product([e1, e1, e1])
    assert sorted(exp.terms) == [1, 3]
    assert np.allclose(exp.terms[3].entries, elementary([[1, 0]] * 3).entries)
    assert np.allclose(exp.terms[1].entries, [3.0, 0.0])  # x^3 = He_3 + 3 He_1


def test_expand_pointwise_identity():
    rng = np.random.default_rng(7)
    dec = IntervalDecomposition((2, 2, 1))
    tensors = random_tensors(rng, dec, 3)
    exp = expand_product(tensors)
    xis = rng.standard_normal((100, 3))
    product = np.ones(100)
    for t in tensors:
        product *= wick_eval_batch(t, xis)
    assert np.max(np.abs(product - exp.evaluate_batch(xis))) < 1e-9


def test_expand_validation():
    rng = np.random.default_rng(8)
    t = SymTensor(rng.standard_normal((2, 2)))
    with pytest.raises(ValueError):
        expand_product([t])
    with pytest.raises(ValueError):
        expand_product([t, SymTensor(rng.standard_normal((3, 3)))])
    with pytest.raises(ValueError):
        expand_product([t] * 7)  # total order 14 > default cap


def test_expansion_json_roundtrip():
    rng = np.random.default_rng(9)
    exp = expand_product([SymTensor(rng.standard_normal(2)), SymTensor(rng.standard_normal(2))])
    back = ChaosExpansion.from_dict(exp.to_dict())
    assert sorted(back.terms) == sorted(exp.terms)
    assert back.degree0() == pytest.approx(exp.degree0())


def test_oracle_second_moment():
    a = elementary([[1, 0], [1, 0]])
    assert moment_oracle([a, a]) == pytest.approx(2.0)  # 2! * ||a||^2


def test_oracle_chaoses_orthogonal():
    rng = np.random.default_rng(10)
    h = SymTensor(rng.standard_normal(3))
    a = symmetrize(SymTensor(rng.standard_normal((3, 3))))
    assert moment_oracle([h, a]) == pytest.approx(0.0, abs=1e-12)


def test_oracle_counterexample():
    # zero correlation but fourth-moment covariance 4 in the second chaos
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    h_xi = SymTensor(np.outer(e1, e1) / math.sqrt(2.0), symmetric=True)
    h_eta = symmetrize(SymTensor(np.outer(e1, e2)))
    assert abs(moment_oracle([h_xi, h_eta])) < 1e-14
    assert moment_oracle([h_xi, h_xi]) == pytest.approx(1.0)
    assert moment_oracle([h_eta, h_eta]) == pytest.approx(1.0)
    fourth = (
        moment_oracle([h_xi, h_xi, h_eta, h_eta])
        - moment_oracle([h_xi, h_xi])
        - moment_oracle([h_eta, h_eta])
        + 1.0
    )
    assert fourth == pytest.approx(4.0, rel=1e-10)


def test_oracle_matches_expansion_zero_term():
    rng = np.random.default_rng(11)
    for _ in range(30):
        blocks = int(rng.integers(2, 4))
        lengths = tuple(int(rng.integers(1, 3)) for _ in range(blocks))
        dec = IntervalDecomposition(lengths)
        tensors = random_tensors(rng, dec, int(rng.integers(2, 4)))
        exp = expand_product(tensors)
        assert abs(exp.degree0() - moment_oracle(tensors)) < 1e-9


def test_oracle_cap():
    t = SymTensor(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        moment_oracle([t] * 8)


def test_oracle_monte_carlo_consistency():
    rng = np.random.default_rng(12)
    dec = IntervalDecomposition((2, 1))
    tensors = random_tensors(rng, dec, 2)
    want = moment_oracle(tensors)
    xis = philox_stream(99).standard_normal((100_000, 2))
    samples = wick_eval_batch(tensors[0], xis) * wick_eval_batch(tensors[1], xis)
    se = samples.std(ddof=1) / math.sqrt(samples.size)
    assert abs(samples.mean() - want) < 4 * se


def _wick_polynomial_by_tuple_keys(a):
    if a.order == 0:
        return {(0,) * a.dim: a.item()}
    sums, mult = _class_sums(a)
    poly = {}
    for coeff, counts in zip(sums, mult):
        if coeff == 0.0:
            continue
        partial = {(0,) * a.dim: float(coeff)}
        for coord in range(a.dim):
            m = int(counts[coord])
            if m == 0:
                continue
            hcoef = hermite_he_coefficients(m)
            nxt = {}
            for expo, c in partial.items():
                for power, hc in enumerate(hcoef):
                    if hc == 0:
                        continue
                    key = expo[:coord] + (expo[coord] + power,) + expo[coord + 1 :]
                    nxt[key] = nxt.get(key, 0.0) + c * hc
            partial = nxt
        for key, c in partial.items():
            poly[key] = poly.get(key, 0.0) + c
    return poly


def _poly_product_by_tuple_keys(p1, p2):
    out = {}
    for e1, c1 in p1.items():
        for e2, c2 in p2.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, 0.0) + c1 * c2
    return out


def moment_oracle_by_tuple_keys(tensors):
    """The oracle with coordinate-exponent tuples as monomial keys: the
    reference the integer-keyed oracle must equal bitwise (caps left out)."""
    tensors = list(tensors)
    poly = _wick_polynomial_by_tuple_keys(tensors[0])
    for t in tensors[1:]:
        poly = _poly_product_by_tuple_keys(poly, _wick_polynomial_by_tuple_keys(t))
    return float(
        sum(c * _gaussian_monomial_expectation(expo) for expo, c in poly.items())
    )


def _oracle_reference_cases():
    rng = np.random.default_rng(2026)
    cases = []
    for i in range(60):
        dim = 1 + i % 4
        top = (20, 20, 14, 12)[dim - 1]
        while True:
            orders = rng.integers(0, 6, size=int(rng.integers(1, 6))).tolist()
            if sum(orders) <= top:
                break
        factors = []
        for n in orders:
            if n == 0:
                factors.append(SymTensor.scalar(rng.standard_normal(), dim))
            elif i % 2:
                factors.append(symmetrize(SymTensor(rng.standard_normal((dim,) * n))))
            else:  # not symmetric, unnormalized
                factors.append(SymTensor(rng.standard_normal((dim,) * n) * 10 ** rng.uniform(-3, 3)))
        cases.append(factors)
    # total 20, the oracle's default cap, at every dim
    for dim, orders in ((1, [10, 10]), (2, [5] * 4), (3, [2] * 10), (3, [4] * 5), (4, [4, 4, 3, 3]), (4, [5] * 4)):
        cases.append([symmetrize(SymTensor(rng.standard_normal((dim,) * n))) for n in orders])
    # gebelein_bound_check's shapes: [h_xi] + [hh] * k and [hh] * k, under the cap of 64
    for dim, k in ((3, 6), (2, 16), (1, 31)):
        h_eta = _unit_h_eta(rng, dim)
        hh = SymTensor(np.multiply.outer(h_eta, h_eta), dim=dim, symmetric=True)
        a = symmetrize(SymTensor(rng.standard_normal((dim, dim))))
        h_xi = SymTensor(a.entries / np.linalg.norm(a.entries) / math.sqrt(2.0), symmetric=True)
        cases += [[hh] * k, [h_xi] + [hh] * k]
    # _counterexample_report's tensors: classes whose sums are exactly 0
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    h_xi = SymTensor(np.outer(e1, e1) / math.sqrt(2.0), symmetric=True)
    h_eta = symmetrize(tensor_product(SymTensor(e1), SymTensor(e2)))
    cases += [[h_xi, h_eta], [h_xi, h_xi], [h_eta, h_eta], [h_xi, h_xi, h_eta, h_eta]]
    return cases


def test_oracle_is_bitwise_the_tuple_key_oracle():
    for i, tensors in enumerate(_oracle_reference_cases()):
        got = moment_oracle(tensors, max_total_order=64)
        assert got.hex() == moment_oracle_by_tuple_keys(tensors).hex(), (i, [t.order for t in tensors])


def gaussian_monomial_expectation_by_pairing(powers):
    """E prod_c xi_c^{p_c} by pairing the first remaining factor with one of
    its p_c - 1 same-coordinate copies (cross-coordinate covariance is 0),
    recursively: the reference of the closed form."""
    for c, p in enumerate(powers):
        if p > 0:
            if p == 1:
                return 0.0
            reduced = powers[:c] + (p - 2,) + powers[c + 1 :]
            return (p - 1) * gaussian_monomial_expectation_by_pairing(reduced)
    return 1.0


def test_monomial_expectation_is_bitwise_the_pairing_recursion():
    powers = [t for dim, top in ((1, 20), (2, 20), (3, 12), (4, 12))
              for t in itertools.product(range(top + 1), repeat=dim)]
    # products past 2^53, where the order of the float products shows
    powers += [(64,), (32, 32), (40, 24), (62, 2), (30, 30, 4)]
    for t in powers:
        got = _gaussian_monomial_expectation.__wrapped__(t)
        assert got.hex() == gaussian_monomial_expectation_by_pairing(t).hex(), t


def test_oracle_monomial_caches_are_bounded():
    # two order-1 factors at d = 100 meet 5,050 monomials; each cache keeps
    # at most its maxsize of them, not every key for the life of the process
    rng = np.random.default_rng(3)
    a, b = (SymTensor(rng.standard_normal(100)) for _ in range(2))
    moment_oracle([a, b])
    for cache in (chaos._monomial_key_expectation, chaos._gaussian_monomial_expectation):
        info = cache.cache_info()
        assert info.maxsize is not None and 0 < info.currsize <= info.maxsize


def test_evaluate_batch_is_bitwise_the_term_sum():
    rng = np.random.default_rng(21)
    for i in range(40):
        dim = 1 + i % 4
        lengths = tuple(int(n) for n in rng.integers(1, 4, size=int(rng.integers(2, 4))))
        tensors = [SymTensor(rng.standard_normal((dim,) * n)) for n in lengths]
        exp = expand_product(tensors)
        if i % 5 == 0:  # an order-0 term of its own, beside the degree-0 term if any
            exp.terms[0] = SymTensor.scalar(rng.standard_normal(), dim)
        xis = rng.standard_normal((int(rng.integers(1, 60)), dim))
        for seeds in (xis, xis[0]):
            want = np.zeros(seeds.shape[0] if seeds.ndim == 2 else 1)
            for t in exp.terms.values():
                want = want + wick_eval_batch(t, seeds)
            got = exp.evaluate_batch(seeds)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), i
    empty = ChaosExpansion.from_dict({"lengths": [], "terms": {}})
    assert empty.evaluate_batch(np.ones((3, 2))).tobytes() == np.zeros(3).tobytes()
    assert empty.evaluate_batch(np.ones(2)).tobytes() == np.zeros(1).tobytes()
    exp = expand_product([SymTensor(np.ones(3)), SymTensor(np.ones(3))])
    for seeds in (np.ones((4, 2)), np.ones(2)):
        with pytest.raises(ValueError) as by_terms:
            wick_eval_batch(next(iter(exp.terms.values())), seeds)
        with pytest.raises(ValueError) as by_table:
            exp.evaluate_batch(seeds)
        assert str(by_table.value) == str(by_terms.value) == "seed dim 2 != tensor dim 3"


def test_wick_mean_zero():
    rng = np.random.default_rng(13)
    a = symmetrize(SymTensor(rng.standard_normal((3, 3))))
    xis = philox_stream(7).standard_normal((100_000, 3))
    vals = wick_eval_batch(a, xis)
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean()) < 4 * se


def test_covariance_identity_diagonal():
    a = elementary([[1, 0], [1, 0]])
    assert covariance_identity_residual(a, a) == pytest.approx(0.0, abs=1e-12)


def test_covariance_identity_random():
    rng = np.random.default_rng(14)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(2, 4))
        a = symmetrize(SymTensor(rng.standard_normal((d,) * n)))
        b = symmetrize(SymTensor(rng.standard_normal((d,) * n)))
        assert covariance_identity_residual(a, b) < 1e-10


def test_covariance_identity_orthogonal_pair():
    a = symmetrize(SymTensor(np.diag([1.0, 0.0])))
    b = symmetrize(SymTensor(np.diag([0.0, 1.0])))
    assert covariance_identity_residual(a, b) == pytest.approx(0.0, abs=1e-12)
    assert moment_oracle([a, b]) == pytest.approx(0.0, abs=1e-12)


def test_hypercontractivity_gaussian_q4():
    # order 1: E|Z|^4 = 3 (E Z^2)^2 <= 9 (E Z^2)^2
    h = SymTensor(np.array([1.0, 0.0]))
    rep = hypercontractivity_check(h, q=4.0, samples=50_000, seed=3)
    assert rep.passed
    assert rep.lhs == pytest.approx(3.0, rel=0.1)
    assert rep.rhs == pytest.approx(9.0 * rep.lhs / 3.0, rel=0.2)


def test_hypercontractivity_second_chaos():
    rng = np.random.default_rng(15)
    a = symmetrize(SymTensor(rng.standard_normal((3, 3))))
    rep = hypercontractivity_check(a, q=4.0, samples=100_000, seed=4)
    assert rep.passed


def test_hypercontractivity_zero_variable():
    rep = hypercontractivity_check(SymTensor(np.zeros((2, 2))), q=3.0, samples=100, seed=0)
    assert rep.passed and rep.lhs == 0.0 and rep.rhs == 0.0


def test_hypercontractivity_validation():
    with pytest.raises(ValueError):
        hypercontractivity_check(SymTensor(np.zeros((2, 2))), q=2.0)


def test_hypercontractivity_report_json(tmp_path):
    rep = hypercontractivity_check(SymTensor(np.eye(2) / 2), q=4.0, samples=1000, seed=1)
    write_json(tmp_path / "rep.json", rep)
    obj = json.loads((tmp_path / "rep.json").read_text())
    assert obj["generator"] == "philox" and obj["seed"] == 1
    assert obj["lhs"] == rep.lhs and obj["passed"] == rep.passed


def _unit_h_eta(rng, dim):
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v) * 2.0**-0.25  # |v|^4 = 1/2


def test_gebelein_linear_g():
    rng = np.random.default_rng(16)
    h_eta = _unit_h_eta(rng, 3)
    a = symmetrize(SymTensor(rng.standard_normal((3, 3))))
    h_xi = SymTensor(a.entries / np.linalg.norm(a.entries) / math.sqrt(2.0), symmetric=True)
    rep = gebelein_bound_check(h_xi, h_eta, [0.0, 1.0])
    assert rep.slack >= -1e-10


def test_gebelein_quadratic_self():
    h_eta = np.array([2.0**-0.25, 0.0])
    hh = SymTensor(np.outer(h_eta, h_eta), symmetric=True)
    rep = gebelein_bound_check(hh, h_eta, [0.0, 0.0, 1.0])
    assert rep.rho == pytest.approx(1.0)
    assert rep.slack >= -1e-10


def test_gebelein_cubic_fuzz():
    rng = np.random.default_rng(17)
    for _ in range(25):
        h_eta = _unit_h_eta(rng, 3)
        a = symmetrize(SymTensor(rng.standard_normal((3, 3))))
        h_xi = SymTensor(a.entries / np.linalg.norm(a.entries) / math.sqrt(2.0), symmetric=True)
        coeffs = rng.standard_normal(4).tolist()
        rep = gebelein_bound_check(h_xi, h_eta, coeffs)
        assert rep.slack >= -1e-10


def test_gebelein_normalization_enforced():
    h_eta = np.array([1.0, 0.0])
    hh = SymTensor(np.outer(h_eta, h_eta), symmetric=True)
    with pytest.raises(ValueError):
        gebelein_bound_check(hh, h_eta, [0.0, 1.0])


def test_expand_symmetrize_flag():
    rng = np.random.default_rng(18)
    tensors = random_tensors(rng, IntervalDecomposition((2, 1, 2)), 3, symmetric=False)
    exp = expand_product(tensors)
    for term in exp.terms.values():
        assert term.symmetric
        resym = symmetrize(SymTensor(term.entries, dim=term.dim)).entries
        assert np.max(np.abs(term.entries - resym)) <= 1e-14 * max(1.0, np.max(np.abs(resym)))


def _pair_set_expansion(tensors):
    """Reference expansion: per degree N - 2k, the symmetrized sum of the
    contractions along every admissible pair set of size k."""
    decomp = IntervalDecomposition(tuple(t.order for t in tensors))
    terms = {}
    for k in range(decomp.total // 2 + 1):
        pieces = [cancel(ps, tensors).entries for ps in enumerate_admissible(decomp, k)]
        if pieces:
            terms[decomp.total - 2 * k] = symmetrize(SymTensor(sum(pieces), dim=tensors[0].dim))
    return terms


def _reference_cases():
    rng = np.random.default_rng(0)  # the README quick start; a is not symmetric
    a = SymTensor(rng.standard_normal((3, 3)))
    b = SymTensor(rng.standard_normal(3))
    cases = [[a, b, b]]
    rng = np.random.default_rng(19)
    for i in range(30):
        decomp = random_decomposition(rng, max_blocks=4, max_order=3, max_total=8)
        dim = int(rng.integers(2, 4))
        if i % 3:
            cases.append(random_tensors(rng, decomp, dim, symmetric=i % 2 == 0))
        else:  # unnormalized draws too
            raw = [SymTensor(rng.standard_normal((dim,) * d)) for d in decomp.lengths]
            cases.append([symmetrize(t) for t in raw] if i % 2 == 0 else raw)
    return cases


@pytest.mark.parametrize("tensors", _reference_cases())
def test_expand_matches_pair_set_reference(tensors):
    exp = expand_product(tensors)
    ref = _pair_set_expansion(tensors)
    assert sorted(exp.terms) == sorted(ref)
    for degree, want in ref.items():
        gap = np.max(np.abs(exp.terms[degree].entries - want.entries))
        assert gap <= 1e-11 * max(1.0, np.max(np.abs(want.entries)))


@pytest.mark.parametrize("order, dim", [(1, 1), (1, 4), (2, 3), (3, 1), (3, 8), (4, 3), (5, 4), (7, 2), (9, 2)])
def test_class_builders_number_classes_lexicographically(order, dim):
    # Wick sums and oracle dicts follow the class order: class c is the c-th
    # sorted multi-index in lexicographic order
    keys = [tuple(sorted(i)) for i in itertools.product(range(dim), repeat=order)]
    classes = sorted(set(keys))
    class_id = [classes.index(k) for k in keys]
    counts = [keys.count(k) for k in classes]
    mult = [[k.count(c) for c in range(dim)] for k in classes]
    sym_id, sym_counts = _sorted_index_classes(order, dim)
    wick_id, wick_mult = _multiplicity_classes(order, dim)
    assert sym_id.tolist() == class_id and sym_counts.tolist() == counts
    assert wick_id.tolist() == class_id and wick_mult.tolist() == mult
