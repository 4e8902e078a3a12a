import numpy as np
import pytest

from chaoslab.cancellation import (
    cancel,
    composition_residual,
    inner_bound_slack,
    norm_bound_slack,
    permutation_relation_residual,
)
from chaoslab.fuzzing import (
    random_block_permutations,
    random_decomposition,
    random_pairset,
    random_tensors,
)
from chaoslab.pairings import IntervalDecomposition, PairSet, free_indices
from chaoslab.tensors import SymTensor, allclose, elementary, norm, tensor_product


def test_cancel_empty_is_product_fold():
    rng = np.random.default_rng(0)
    dec = IntervalDecomposition((2, 1, 2))
    tensors = [SymTensor(rng.standard_normal((3,) * d)) for d in dec.lengths]
    out = cancel(PairSet(dec, []), tensors)
    expected = tensor_product(tensor_product(tensors[0], tensors[1]), tensors[2])
    assert allclose(out, expected)


def test_cancel_scalar_pair():
    rng = np.random.default_rng(1)
    h, k = rng.standard_normal(4), rng.standard_normal(4)
    dec = IntervalDecomposition((1, 1))
    out = cancel(PairSet(dec, [(1, 2)]), [SymTensor(h), SymTensor(k)])
    assert out.order == 0
    assert out.item() == pytest.approx(float(h @ k))


def test_cancel_worked_example():
    # five elementary blocks of orders (5,5,3,1,4); four cross pairs cancel
    rng = np.random.default_rng(2)
    vecs = {i: rng.standard_normal(3) for i in range(1, 19)}
    dec = IntervalDecomposition((5, 5, 3, 1, 4))
    spans = [(1, 5), (6, 10), (11, 13), (14, 14), (15, 18)]
    tensors = [elementary([vecs[i] for i in range(lo, hi + 1)]) for lo, hi in spans]
    pairs = [(3, 6), (5, 10), (9, 11), (13, 14)]
    out = cancel(PairSet(dec, pairs), tensors)
    scalar = 1.0
    for m, n in pairs:
        scalar *= float(vecs[m] @ vecs[n])
    survivors = [1, 2, 4, 7, 8, 12, 15, 16, 17, 18]
    expected = elementary([vecs[i] for i in survivors])
    assert out.order == 10
    assert np.allclose(out.entries, scalar * expected.entries)


def test_cancel_multilinearity():
    rng = np.random.default_rng(3)
    dec = IntervalDecomposition((2, 2))
    ps = PairSet(dec, [(1, 4)])
    x = SymTensor(rng.standard_normal((3, 3)))
    y = SymTensor(rng.standard_normal((3, 3)))
    b = SymTensor(rng.standard_normal((3, 3)))
    a_coef, b_coef = 1.7, -0.4
    combined = SymTensor(a_coef * x.entries + b_coef * y.entries)
    lhs = cancel(ps, [combined, b])
    rhs = a_coef * cancel(ps, [x, b]).entries + b_coef * cancel(ps, [y, b]).entries
    assert np.allclose(lhs.entries, rhs)


def test_cancel_enumeration_independent():
    rng = np.random.default_rng(4)
    dec = IntervalDecomposition((3, 2, 2))
    tensors = random_tensors(rng, dec, 2, symmetric=False)
    pairs = [(1, 4), (2, 6), (3, 7)]
    a = cancel(PairSet(dec, pairs), tensors)
    b = cancel(PairSet(dec, list(reversed(pairs))), tensors)
    assert allclose(a, b)


def test_cancel_validation():
    dec = IntervalDecomposition((2, 2))
    ps = PairSet(dec, [(1, 3)])
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError):
        cancel(ps, [SymTensor(rng.standard_normal((2, 2)))])
    with pytest.raises(ValueError):
        cancel(ps, [SymTensor(rng.standard_normal((2, 2))), SymTensor(rng.standard_normal(2))])
    with pytest.raises(ValueError):
        cancel(ps, [SymTensor(rng.standard_normal((2, 2))), SymTensor(rng.standard_normal((3, 3)))])


def test_cancel_symbol_limit():
    dec = IntervalDecomposition((2,) * 27)
    tensors = [SymTensor(np.ones((1, 1)))] * 27
    with pytest.raises(ValueError, match="52"):
        cancel(PairSet(dec, []), tensors)
    out = cancel(PairSet(dec, [(2, 3), (4, 5)]), tensors)  # exactly 52 symbols
    assert out.order == 50 and out.entries.ravel()[0] == 1.0


def test_permutation_relation_identity_perms():
    rng = np.random.default_rng(6)
    dec = IntervalDecomposition((2, 3))
    tensors = random_tensors(rng, dec, 3, symmetric=False)
    ps = random_pairset(rng, dec, size=2)
    perms = [(1, 2), (1, 2, 3)]
    assert permutation_relation_residual(ps, tensors, perms) == 0.0


def test_permutation_relation_scalar_case():
    rng = np.random.default_rng(7)
    dec = IntervalDecomposition((2, 2))
    tensors = random_tensors(rng, dec, 3, symmetric=False)
    ps = PairSet(dec, [(1, 3), (2, 4)])
    perms = [(2, 1), (2, 1)]
    assert permutation_relation_residual(ps, tensors, perms) < 1e-12


def test_permutation_relation_fuzz():
    rng = np.random.default_rng(8)
    for _ in range(300):
        dec = random_decomposition(rng, max_blocks=3, max_order=3, max_total=8)
        tensors = random_tensors(rng, dec, int(rng.integers(2, 4)), symmetric=False)
        ps = random_pairset(rng, dec)
        perms = random_block_permutations(rng, dec)
        assert permutation_relation_residual(ps, tensors, perms) < 1e-12


def test_composition_trivial_extra():
    rng = np.random.default_rng(9)
    dec = IntervalDecomposition((2, 2))
    ps = PairSet(dec, [(2, 3)])
    tensors = random_tensors(rng, IntervalDecomposition((2, 2, 2)), 3, symmetric=False)
    extra = PairSet(IntervalDecomposition((2, 2)), [])
    assert composition_residual(ps, extra, tensors) < 1e-12


def test_composition_example_instance():
    rng = np.random.default_rng(10)
    dec = IntervalDecomposition((5, 5, 3, 1, 4))
    ps = PairSet(dec, [(3, 6), (5, 10), (9, 11), (13, 14)])
    extra = PairSet(IntervalDecomposition((10, 3)), [(2, 11), (9, 13)])
    tensors = [
        elementary([rng.standard_normal(2) for _ in range(d)]) for d in (5, 5, 3, 1, 4, 3)
    ]
    assert composition_residual(ps, extra, tensors) < 1e-12


def test_composition_fuzz():
    rng = np.random.default_rng(11)
    count = 0
    while count < 200:
        dec = random_decomposition(rng, max_blocks=3, max_order=2, max_total=7)
        ps = random_pairset(rng, dec)
        survivors = free_indices(ps)
        if not survivors:
            continue
        d_next = int(rng.integers(1, 3))
        extra = random_pairset(rng, IntervalDecomposition((len(survivors), d_next)))
        dim = int(rng.integers(2, 4))
        tensors = random_tensors(
            rng, IntervalDecomposition(dec.lengths + (d_next,)), dim, symmetric=False
        )
        assert composition_residual(ps, extra, tensors) < 1e-10
        count += 1


def test_norm_bound_orthogonal_pairing():
    # pairing orthogonal unit vectors kills the whole contraction
    e = np.eye(4)
    dec = IntervalDecomposition((2, 2))
    tensors = [elementary([e[0], e[1]]), elementary([e[2], e[3]])]
    ps = PairSet(dec, [(1, 3)])
    slack = norm_bound_slack(ps, tensors)
    assert slack == pytest.approx(1.0)  # product of norms is 1, contraction is 0


def test_norm_bound_empty_pairset_equality():
    rng = np.random.default_rng(12)
    dec = IntervalDecomposition((2, 1))
    tensors = [SymTensor(rng.standard_normal((3,) * d)) for d in dec.lengths]
    assert norm_bound_slack(PairSet(dec, []), tensors) == pytest.approx(0.0, abs=1e-12)


def test_norm_bound_fuzz():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        dec = random_decomposition(rng, max_blocks=3, max_order=3, max_total=8)
        tensors = random_tensors(rng, dec, int(rng.integers(2, 4)), symmetric=False)
        ps = random_pairset(rng, dec)
        assert norm_bound_slack(ps, tensors) >= -1e-12


def test_inner_bound_empty_pairset():
    rng = np.random.default_rng(14)
    dec = IntervalDecomposition((2, 2))
    tensors = random_tensors(rng, dec, 3, symmetric=False)
    slack = inner_bound_slack(PairSet(dec, []), tensors, tensors)
    assert slack == pytest.approx(0.0, abs=1e-12)


def test_inner_bound_scalar_case():
    rng = np.random.default_rng(15)
    dec = IntervalDecomposition((2, 2))
    ps = PairSet(dec, [(1, 3), (2, 4)])
    a = random_tensors(rng, dec, 3, symmetric=False)
    b = random_tensors(rng, dec, 3, symmetric=False)
    assert inner_bound_slack(ps, a, b) >= -1e-12


def test_inner_bound_fuzz():
    rng = np.random.default_rng(16)
    for _ in range(1000):
        dec = random_decomposition(rng, max_blocks=4, max_order=3, max_total=8)
        dim = int(rng.integers(2, 4))
        a = random_tensors(rng, dec, dim, symmetric=False)
        b = random_tensors(rng, dec, dim, symmetric=False)
        ps = random_pairset(rng, dec)
        assert inner_bound_slack(ps, a, b) >= -1e-12
