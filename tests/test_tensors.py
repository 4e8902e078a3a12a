import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoslab.tensors import (
    SymTensor,
    allclose,
    basis_vector,
    contract,
    elementary,
    inner,
    norm,
    permute,
    symmetrize,
    symmetrize_by_permutation_sum,
    tensor_product,
)

RTOL = 1e-9


def random_tensor(rng, order, dim):
    return SymTensor(rng.standard_normal((dim,) * order))


def test_tensor_product_elementary():
    t = tensor_product(basis_vector(2, 1), basis_vector(2, 2))
    assert t.order == 2 and t.dim == 2
    assert t.entries[0, 1] == 1.0
    assert t.entries.sum() == 1.0
    assert not t.symmetric


def test_tensor_product_scalar_identity():
    rng = np.random.default_rng(0)
    a = random_tensor(rng, 3, 2)
    one = SymTensor.scalar(1.0, dim=2)
    assert allclose(tensor_product(a, one), a)
    assert allclose(tensor_product(one, a), a)


def test_tensor_product_norm_multiplicative():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = random_tensor(rng, 2, 3)
        b = random_tensor(rng, 1, 3)
        assert norm(tensor_product(a, b)) == pytest.approx(norm(a) * norm(b), rel=RTOL)


def test_contract_single_slot():
    a = elementary([[1, 0, 0], [0, 1, 0]])  # e1 (x) e2
    b = elementary([[1, 0, 0], [0, 0, 1]])  # e1 (x) e3
    out = contract(a, b, 1)
    expected = elementary([[0, 1, 0], [0, 0, 1]])  # e2 (x) e3
    assert allclose(out, expected)


def test_contract_full():
    a = elementary([[1, 0], [0, 1]])
    assert contract(a, a, 2).item() == pytest.approx(1.0)


def test_contract_zero_equals_product():
    rng = np.random.default_rng(2)
    a, b = random_tensor(rng, 2, 2), random_tensor(rng, 3, 2)
    assert allclose(contract(a, b, 0), tensor_product(a, b))


def test_contract_norm_bound_fuzz():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        na, nb = rng.integers(1, 4), rng.integers(1, 4)
        d = rng.integers(2, 4)
        a, b = random_tensor(rng, na, d), random_tensor(rng, nb, d)
        j = rng.integers(0, min(na, nb) + 1)
        assert norm(contract(a, b, j)) <= norm(a) * norm(b) * (1 + 1e-12)


def test_contract_is_bitwise_tensordot():
    # contract hands np.dot the operands np.tensordot builds; the bytes match
    rng = np.random.default_rng(8)
    for dim in (1, 2, 3, 4):
        for p in range(5):
            for q in range(5):
                a = random_tensor(rng, p, dim) if p else SymTensor.scalar(rng.standard_normal(), dim)
                b = random_tensor(rng, q, dim) if q else SymTensor.scalar(rng.standard_normal(), dim)
                for j in range(min(p, q) + 1):
                    want = np.asarray(np.tensordot(a.entries, b.entries, axes=(list(range(j)), list(range(j)))))
                    got = contract(a, b, j)
                    assert got.entries.shape == want.shape and got.entries.tobytes() == want.tobytes()
                    assert not got.entries.flags.writeable and got.dim == dim and not got.symmetric


def test_contract_validation():
    a = random_tensor(np.random.default_rng(0), 2, 2)
    b = random_tensor(np.random.default_rng(0), 2, 3)
    with pytest.raises(ValueError):
        contract(a, a, 3)
    with pytest.raises(ValueError):
        contract(a, b, 1)


def test_symmetrize_swap():
    s = symmetrize(tensor_product(basis_vector(2, 1), basis_vector(2, 2)))
    assert np.allclose(s.entries, [[0.0, 0.5], [0.5, 0.0]])
    assert s.symmetric


def test_symmetrize_idempotent():
    rng = np.random.default_rng(4)
    a = random_tensor(rng, 3, 3)
    once = symmetrize(a)
    assert allclose(symmetrize(once), once)


def test_symmetrize_contraction():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = random_tensor(rng, rng.integers(1, 5), 2)
        assert norm(symmetrize(a)) <= norm(a) + 1e-12


def test_symmetrize_matches_permutation_sum():
    rng = np.random.default_rng(6)
    for order in (2, 3, 4):
        a = random_tensor(rng, order, 3)
        fast = symmetrize(a)
        slow = symmetrize_by_permutation_sum(a)
        assert np.allclose(fast.entries, slow.entries, rtol=RTOL, atol=1e-12)


def test_symmetric_flag_means_invariance():
    rng = np.random.default_rng(7)
    a = symmetrize(random_tensor(rng, 3, 3))
    for _ in range(5):
        perm = tuple(int(v) + 1 for v in rng.permutation(3))
        assert np.allclose(permute(a, perm).entries, a.entries)


def test_permute_swap():
    t = tensor_product(basis_vector(2, 1), basis_vector(2, 2))
    swapped = permute(t, (2, 1))
    assert allclose(swapped, tensor_product(basis_vector(2, 2), basis_vector(2, 1)))


def test_permute_identity_and_isometry():
    rng = np.random.default_rng(8)
    a = random_tensor(rng, 4, 2)
    b = random_tensor(rng, 4, 2)
    assert allclose(permute(a, (1, 2, 3, 4)), a)
    for _ in range(10):
        perm = tuple(int(v) + 1 for v in rng.permutation(4))
        assert inner(permute(a, perm), permute(b, perm)) == pytest.approx(inner(a, b), rel=RTOL)
        assert norm(permute(a, perm)) == pytest.approx(norm(a), rel=RTOL)


def test_permute_elementary_convention():
    vs = [np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([0, 0, 1.0])]
    t = elementary(vs)
    out = permute(t, (3, 1, 2))
    assert allclose(out, elementary([vs[2], vs[0], vs[1]]))


def test_permute_validation():
    a = random_tensor(np.random.default_rng(0), 2, 2)
    with pytest.raises(ValueError):
        permute(a, (1,))
    with pytest.raises(ValueError):
        permute(a, (1, 1))


def test_inner_orthogonality():
    e11 = elementary([[1, 0], [1, 0]])
    e12 = elementary([[1, 0], [0, 1]])
    assert inner(e11, e11) == pytest.approx(1.0)
    assert inner(e11, e12) == pytest.approx(0.0)


def test_inner_cauchy_schwarz():
    rng = np.random.default_rng(9)
    for _ in range(200):
        a, b = random_tensor(rng, 2, 3), random_tensor(rng, 2, 3)
        assert abs(inner(a, b)) <= norm(a) * norm(b) * (1 + 1e-12)


def test_inner_shape_mismatch():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        inner(random_tensor(rng, 2, 2), random_tensor(rng, 3, 2))


def test_order_zero_roundtrip():
    t = SymTensor.scalar(2.5, dim=4)
    assert t.order == 0 and t.item() == 2.5
    back = SymTensor.from_dict(json.loads(json.dumps(t.to_dict())))
    assert back.order == 0 and back.dim == 4 and back.item() == 2.5


def test_json_roundtrip_row_major():
    rng = np.random.default_rng(10)
    a = random_tensor(rng, 3, 2)
    d = a.to_dict()
    assert len(d["entries"]) == 8
    assert d["entries"][1] == a.entries[0, 0, 1]  # C order
    back = SymTensor.from_dict(d)
    assert allclose(back, a)
    with pytest.raises(ValueError):
        SymTensor.from_dict({"order": 2, "dim": 2, "entries": [1.0] * 3, "symmetric": False})


def test_entries_immutable():
    # SymTensor(...) copies what a caller hands it; the arrays the algebra
    # builds are frozen as built
    a = basis_vector(2, 1)
    with pytest.raises(ValueError):
        a.entries[0] = 5.0
    raw = np.ones((2, 2))
    t = SymTensor(raw)
    raw[0, 0] = 5.0
    assert t.entries[0, 0] == 1.0
    scalar = SymTensor.scalar(2.0, 2)
    assert tensor_product(scalar, scalar).item() == 4.0
    for out in (tensor_product(t, t), tensor_product(scalar, scalar), contract(t, t, 2),
                symmetrize(SymTensor(np.arange(4.0).reshape(2, 2)))):
        assert out.entries.flags.c_contiguous and out.entries.dtype == np.float64
        with pytest.raises(ValueError):
            out.entries[...] = 0.0


@given(
    order=st.integers(1, 3),
    dim=st.integers(2, 3),
    seed=st.integers(0, 10_000),
    scale=st.floats(-5, 5, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_symmetrize_linear_and_projection(order, dim, seed, scale):
    rng = np.random.default_rng(seed)
    a = random_tensor(rng, order, dim)
    scaled = SymTensor(scale * a.entries)
    assert np.allclose(symmetrize(scaled).entries, scale * symmetrize(a).entries, atol=1e-9)
    assert norm(symmetrize(a)) <= norm(a) + 1e-12
