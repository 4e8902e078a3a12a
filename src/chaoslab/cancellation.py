"""Multilinear slot-pair contraction of tensor lists.

Given tensors A_1, ..., A_l whose orders tile {1, ..., N} and an admissible
pair set V, the contraction sums each paired pair of slots against each other
and concatenates the surviving slots in increasing position order.  For
elementary tensors this is the product of the paired inner products times the
shrunken elementary tensor.  The residual/slack helpers turn the operator's
algebraic identities and bounds into executable checks.
"""

from __future__ import annotations

import math

import numpy as np

from .pairings import compose_pairsets, free_indices, interval_traces, permute_pairset
from .tensors import SymTensor, inner, norm, permute

__all__ = [
    "cancel",
    "permutation_relation_residual",
    "composition_residual",
    "norm_bound_slack",
    "inner_bound_slack",
]

_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _validate(pairset, tensors):
    decomp = pairset.decomp
    if len(tensors) != len(decomp.lengths):
        raise ValueError(f"expected {len(decomp.lengths)} tensors, got {len(tensors)}")
    for t, d in zip(tensors, decomp.lengths):
        if t.order != d:
            raise ValueError(f"tensor order {t.order} does not match block length {d}")
    dims = {t.dim for t in tensors}
    if len(dims) != 1:
        raise ValueError(f"mixed dims {sorted(dims)}")
    return decomp


def cancel(pairset, tensors):
    """Contract the tensors along the pairs of ``pairset``.

    Output has order N - 2|V|; slots appear in the increasing order of their
    surviving global positions.  Implemented as a single einsum in which each
    pair shares one summation symbol, so only the contracted result is ever
    materialized; N - |V| may not exceed the 52 available symbols.
    """
    decomp = _validate(pairset, tensors)
    n_total = decomp.total
    n_symbols = n_total - len(pairset)
    if n_symbols > len(_LETTERS):
        raise ValueError(
            f"contraction needs {n_symbols} index symbols; einsum allows at most {len(_LETTERS)}"
        )
    # one symbol per pair, then one per survivor in increasing position
    letters = iter(_LETTERS)
    symbol = [""] * n_total
    for m, n in pairset.pairs:
        symbol[m - 1] = symbol[n - 1] = next(letters)
    survivors = free_indices(pairset)
    for i in survivors:
        symbol[i - 1] = next(letters)
    in_subs = ["".join(symbol[s : s + d]) for s, d in zip(decomp.offsets, decomp.lengths)]
    spec = ",".join(in_subs) + "->" + "".join(symbol[i - 1] for i in survivors)
    entries = np.einsum(spec, *[t.entries for t in tensors], optimize=True)
    return SymTensor(entries, dim=tensors[0].dim)


def permutation_relation_residual(pairset, tensors, perms):
    """Norm gap in the permutation identity for the contraction operator.

    Contracting along the per-block-permuted pair set equals permuting each
    input tensor, contracting along the original pairs, and reordering the
    surviving slots so their permuted global positions increase.  Returns the
    norm of the difference of the two sides (0 up to rounding).
    """
    decomp = _validate(pairset, tensors)
    lhs = cancel(permute_pairset(pairset, perms), tensors)
    permuted = [permute(t, perm) for t, perm in zip(tensors, perms)]
    base = cancel(pairset, permuted)
    survivors = free_indices(pairset)
    if survivors:
        image = decomp.permutation_map(perms)
        mapped = [image[o - 1] for o in survivors]
        # sigma makes (permuted position of survivor sigma[r]) increasing in r
        sigma = tuple(int(r) + 1 for r in np.argsort(mapped, kind="stable"))
        rhs = permute(base, sigma)
    else:
        rhs = base
    return norm(SymTensor(lhs.entries - rhs.entries, dim=lhs.dim))


def composition_residual(pairset, extra, tensors):
    """Norm gap in the two-step contraction identity.

    Contracting all l+1 tensors along the composed pair set equals first
    contracting the leading l tensors along ``pairset`` and then contracting
    the result against the last tensor along ``extra``.
    """
    if len(tensors) != len(pairset.decomp.lengths) + 1:
        raise ValueError("need one more tensor than the base decomposition has blocks")
    combined = compose_pairsets(pairset, extra)
    lhs = cancel(combined, tensors)
    first = cancel(pairset, tensors[:-1])
    rhs = cancel(extra, [first, tensors[-1]])
    return norm(SymTensor(lhs.entries - rhs.entries, dim=lhs.dim))


def norm_bound_slack(pairset, tensors):
    """Product of input norms minus the contraction norm (nonnegative)."""
    result = cancel(pairset, tensors)
    bound = math.prod(norm(t) for t in tensors)
    return bound - norm(result)


def inner_bound_slack(pairset, tensors_a, tensors_b):
    """Slack in the factorized bound for pairings of two contractions.

    |<R(A_1..A_l), R(B_1..B_l)>| is bounded by the product over blocks of the
    norms of the per-block trace contractions R_{V_j}(A_j, B_j); returns
    bound - |pairing|.
    """
    _validate(pairset, tensors_a)
    _validate(pairset, tensors_b)
    lhs = abs(inner(cancel(pairset, tensors_a), cancel(pairset, tensors_b)))
    bound = 1.0
    for trace, a, b in zip(interval_traces(pairset), tensors_a, tensors_b):
        bound *= norm(cancel(trace, [a, b]))
    return bound - lhs
