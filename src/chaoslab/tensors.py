"""Dense tensor algebra over a finite-dimensional real inner-product space.

An order-``n`` tensor over ``R^d`` is stored as a dense C-ordered ndarray of
shape ``(d,) * n``; order 0 is a scalar.  All operations are pure functions on
immutable values.  Intended scale is desk-size: ``d**n`` up to ~1e7 entries
and total product orders up to 12.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

__all__ = [
    "SymTensor",
    "tensor_product",
    "contract",
    "symmetrize",
    "permute",
    "inner",
    "norm",
    "basis_vector",
    "elementary",
]

#: caps from the design: dense storage only, desk scale
MAX_DENSE_ENTRIES = 10_000_000


class SymTensor:
    """Dense order-``n`` tensor over ``R^d``.

    Parameters
    ----------
    entries : array_like
        Dense entries of shape ``(dim,) * order``.  A scalar (or 0-d array)
        gives an order-0 tensor.
    dim : int, optional
        Required for order-0 tensors, inferred from the shape otherwise.
    symmetric : bool
        Flag recording that the entries are invariant under every slot
        permutation.  Not enforced on construction; ``symmetrize`` sets it.
    """

    __slots__ = ("entries", "dim", "symmetric")

    def __init__(self, entries, dim=None, symmetric=False):
        arr = np.asarray(entries, dtype=float)
        if arr.ndim == 0:
            if dim is None:
                raise ValueError("order-0 tensor needs an explicit dim")
            if dim < 1:
                raise ValueError(f"dim must be positive, got {dim}")
        else:
            if any(s != arr.shape[0] for s in arr.shape):
                raise ValueError(f"entries must be cubical, got shape {arr.shape}")
            if dim is None:
                dim = arr.shape[0]
            elif dim != arr.shape[0]:
                raise ValueError(f"dim={dim} does not match shape {arr.shape}")
        if arr.size > MAX_DENSE_ENTRIES:
            raise ValueError(f"tensor with {arr.size} entries exceeds dense cap")
        # ascontiguousarray would promote 0-d arrays to 1-d
        if arr.ndim > 0 and not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        elif arr.flags.writeable:
            arr = arr.copy()
        arr.setflags(write=False)
        self.entries = arr
        self.dim = int(dim)
        self.symmetric = bool(symmetric)

    @classmethod
    def _wrap(cls, arr, dim, symmetric):
        """Tensor around ``arr``, a C-ordered float ndarray that the algebra
        built itself or that is already frozen: frozen in place, neither
        copied nor re-checked.  Only the dense cap still applies."""
        if arr.size > MAX_DENSE_ENTRIES:
            raise ValueError(f"tensor with {arr.size} entries exceeds dense cap")
        arr.setflags(write=False)
        out = object.__new__(cls)
        out.entries = arr
        out.dim = dim
        out.symmetric = symmetric
        return out

    @property
    def order(self):
        return self.entries.ndim

    def item(self):
        """Scalar value of an order-0 tensor."""
        if self.order != 0:
            raise ValueError(f"item() on order-{self.order} tensor")
        return float(self.entries)

    def __repr__(self):
        return f"SymTensor(order={self.order}, dim={self.dim}, symmetric={self.symmetric})"

    # -- serialization: {order, dim, entries[], symmetric} ------------------

    def to_dict(self):
        return {
            "order": self.order,
            "dim": self.dim,
            "entries": [float(x) for x in self.entries.ravel(order="C")],
            "symmetric": self.symmetric,
        }

    @classmethod
    def from_dict(cls, obj):
        order = int(obj["order"])
        dim = int(obj["dim"])
        entries = np.asarray(obj["entries"], dtype=float)
        if entries.size != dim**order:
            raise ValueError(
                f"entries length {entries.size} does not match dim**order = {dim**order}"
            )
        return cls(entries.reshape((dim,) * order), dim=dim, symmetric=bool(obj.get("symmetric", False)))

    @classmethod
    def scalar(cls, value, dim):
        return cls(np.asarray(float(value)), dim=dim, symmetric=True)


def basis_vector(dim, index):
    """Order-1 basis tensor e_index (1-based index)."""
    if not 1 <= index <= dim:
        raise ValueError(f"index {index} out of range 1..{dim}")
    v = np.zeros(dim)
    v[index - 1] = 1.0
    return SymTensor(v, symmetric=True)


def elementary(vectors):
    """Elementary product v_1 (x) ... (x) v_n from a list of d-vectors."""
    vecs = [np.asarray(v, dtype=float) for v in vectors]
    if not vecs:
        raise ValueError("need at least one vector")
    dim = vecs[0].size
    if any(v.ndim != 1 or v.size != dim for v in vecs):
        raise ValueError("vectors must be 1-d and of equal length")
    out = vecs[0]
    for v in vecs[1:]:
        out = np.multiply.outer(out, v)
    return SymTensor(out, dim=dim, symmetric=len(vecs) == 1)


def _check_same_dim(a, b):
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


def tensor_product(a, b):
    """Outer product; order adds, output is not flagged symmetric."""
    _check_same_dim(a, b)
    # a numpy scalar when both factors have order 0
    out = np.asarray(np.multiply.outer(a.entries, b.entries))
    return SymTensor._wrap(out, a.dim, False)


def contract(a, b, j):
    """Contract the first ``j`` slots of ``a`` against the first ``j`` of ``b``.

    ``j = 0`` reduces to the outer product; ``j = min(order, order)`` on two
    equal-order tensors yields the order-0 full pairing.  Output order is
    ``a.order + b.order - 2 j``.
    """
    _check_same_dim(a, b)
    if not 0 <= j <= min(a.order, b.order):
        raise ValueError(f"j={j} out of range for orders {a.order}, {b.order}")
    if j == 0:
        return tensor_product(a, b)
    # the operands np.tensordot builds for these axes, hence its BLAS call and
    # its bytes: a's leading j slots as a transposed view (a C-ordered copy
    # takes another BLAS path) and b's reshape
    rows = a.dim**j
    out = np.dot(a.entries.reshape(rows, -1).T, b.entries.reshape(rows, -1))
    return SymTensor._wrap(out.reshape(a.entries.shape[j:] + b.entries.shape[j:]), a.dim, False)


@lru_cache(maxsize=256)
def _sorted_index_classes(order, dim):
    """Group the d^n multi-indices by sorted multi-index.

    Returns ``(class_id, counts)`` where ``class_id[flat_index]`` labels the
    equivalence class of the multi-index under slot permutations and
    ``counts[c]`` is the class size.  Classes are numbered in the
    lexicographic order of their sorted multi-index.
    """
    idx = np.indices((dim,) * order, dtype=np.min_scalar_type(dim - 1)).reshape(order, -1)
    idx.sort(axis=0)
    # the sorted multi-index read in base dim: below d^n, and ordered as the
    # multi-indices are lexicographically
    key = np.zeros(idx.shape[1], dtype=np.int64)
    for digit in idx:
        key *= dim
        key += digit
    _, class_id = np.unique(key, return_inverse=True)
    counts = np.bincount(class_id)
    return class_id, counts


def symmetrize(a):
    """Average over all slot permutations; idempotent, flags the result.

    Averaging the entries over each sorted-multi-index class is identical to
    the explicit (1/n!) sum over permutations (each distinct rearrangement of
    a multi-index occurs equally often in that sum), but costs
    O(d^n n log n) instead of O(n! d^n).
    """
    if a.order <= 1 or a.symmetric:
        return SymTensor._wrap(a.entries, a.dim, True)
    class_id, counts = _sorted_index_classes(a.order, a.dim)
    flat = a.entries.ravel(order="C")
    sums = np.bincount(class_id, weights=flat)
    out = (sums / counts)[class_id].reshape(a.entries.shape)
    return SymTensor._wrap(out, a.dim, True)


def symmetrize_by_permutation_sum(a):
    """Reference O(n!)-permutation symmetrizer; test oracle for small orders."""
    if a.order <= 1:
        return SymTensor(a.entries, dim=a.dim, symmetric=True)
    acc = np.zeros_like(a.entries)
    for perm in itertools.permutations(range(a.order)):
        acc += np.transpose(a.entries, axes=perm)
    return SymTensor(acc / math.factorial(a.order), dim=a.dim, symmetric=True)


def permute(a, perm):
    """Slot permutation: slot k of the output holds the input's slot perm[k].

    ``perm`` uses 1-based values, e.g. ``(2, 1)`` swaps an order-2 tensor.
    On elementary tensors this sends h_1 (x) ... (x) h_n to
    h_{perm[1]} (x) ... (x) h_{perm[n]}.  Order-0 tensors admit only the
    empty permutation.
    """
    perm = tuple(int(p) for p in perm)
    if len(perm) != a.order:
        raise ValueError(f"permutation length {len(perm)} != order {a.order}")
    if sorted(perm) != list(range(1, a.order + 1)):
        raise ValueError(f"not a permutation of 1..{a.order}: {perm}")
    if a.order == 0:
        return a
    axes = tuple(p - 1 for p in perm)
    out = np.transpose(a.entries, axes=axes)
    return SymTensor(out, dim=a.dim, symmetric=a.symmetric)


def inner(a, b):
    """Euclidean (Hilbert-Schmidt) pairing of the entry arrays."""
    _check_same_dim(a, b)
    if a.order != b.order:
        raise ValueError(f"order mismatch: {a.order} vs {b.order}")
    return float(np.vdot(a.entries, b.entries))


def norm(a):
    return float(np.linalg.norm(a.entries.ravel()))


def allclose(a, b, rtol=1e-9, atol=1e-12):
    return (
        a.order == b.order
        and a.dim == b.dim
        and np.allclose(a.entries, b.entries, rtol=rtol, atol=atol)
    )
