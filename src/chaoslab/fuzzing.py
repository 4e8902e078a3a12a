"""Seeded random instances for the algebraic identities and bounds.

Shared between the fuzz CLI command and the test suite.  Tensors are drawn
with unit norm so that all residual/slack contracts are scale-free.
"""

from __future__ import annotations

import math

import numpy as np

from .cancellation import (
    composition_residual,
    inner_bound_slack,
    norm_bound_slack,
    permutation_relation_residual,
)
from .chaos import DEFAULT_EXPANSION_CAP, expand_product, moment_oracle, wick_eval_batch
from .pairings import IntervalDecomposition, PairSet, free_indices
from .tensors import MAX_DENSE_ENTRIES, SymTensor, norm, symmetrize

__all__ = [
    "random_decomposition",
    "random_tensors",
    "random_pairset",
    "random_block_permutations",
    "compare_expansion",
    "check_dense",
    "check_oracle",
    "check_pointwise_seeds",
    "equivalence_case",
    "inequality_case",
]

MIN_BLOCKS = 2  # a product has at least two factors
PAIRSET_ATTEMPTS = 50  # greedy pairings per size before random_pairset tries a smaller one
INEQUALITY_MAX_BLOCKS = 3  # inequality_case draws at most this many blocks, whatever max_blocks
ORACLE_ENTRY_BYTES = 300  # an oracle monomial's dict slots, float and cache entries, besides key and digits


def random_decomposition(rng, max_blocks=4, max_order=3, max_total=10):
    # more blocks than max_total always overshoot it, so none are proposed
    high = min(max_blocks, max_total)
    while True:
        blocks = rng.integers(MIN_BLOCKS, high + 1)
        lengths = tuple(int(rng.integers(1, max_order + 1)) for _ in range(blocks))
        if sum(lengths) <= max_total:
            return IntervalDecomposition(lengths)


def random_tensors(rng, decomp, dim, symmetric=True):
    """One unit-norm Gaussian tensor per block, symmetrized if asked."""
    out = []
    for d in decomp.lengths:
        t = SymTensor(rng.standard_normal((dim,) * d))
        if symmetric:
            t = symmetrize(t)
        out.append(SymTensor(t.entries / norm(t), symmetric=t.symmetric))
    return out


def random_pairset(rng, decomp, size=None):
    """Admissible pair set drawn by random greedy pairing.

    When ``size`` is omitted a random size is targeted, backing off if the
    decomposition cannot host that many cross-block pairs.
    """
    n_total, blocks = decomp.total, decomp.blocks
    target = int(rng.integers(0, n_total // 2 + 1)) if size is None else size

    def attempt(k):
        free = list(range(1, n_total + 1))
        pairs = []
        for _ in range(k):
            candidates = [
                (m, n)
                for i, m in enumerate(free)
                for n in free[i + 1 :]
                if blocks[m - 1] != blocks[n - 1]
            ]
            if not candidates:
                return None
            m, n = candidates[rng.integers(0, len(candidates))]
            pairs.append((m, n))
            free.remove(m)
            free.remove(n)
        return PairSet(decomp, pairs)

    while target >= 0:
        for _ in range(PAIRSET_ATTEMPTS):
            got = attempt(target)
            if got is not None:
                return got
        if size is not None:
            raise ValueError(f"no admissible pair set of size {size} for {decomp.lengths}")
        target -= 1
    raise AssertionError("unreachable: the empty pair set is always admissible")


def random_block_permutations(rng, decomp):
    return [tuple(int(v) + 1 for v in rng.permutation(d)) for d in decomp.lengths]


def check_dense(dim, order, source):
    """Raise ValueError if a tensor of dim^order entries would pass
    MAX_DENSE_ENTRIES; ``source`` names the sizes that set dim and order.
    The power is not formed: from order 24 on, any dim >= 2 passes the cap."""
    if dim ** min(order, MAX_DENSE_ENTRIES.bit_length()) > MAX_DENSE_ENTRIES:
        raise ValueError(f"{source} let a tensor reach {dim}^{order} entries, above the dense cap {MAX_DENSE_ENTRIES}")


def check_oracle(dim, total, source):
    """Raise ValueError if ``moment_oracle`` of a product of this total order
    at dim would hold more bytes than a dense tensor at the cap, 8
    MAX_DENSE_ENTRIES; ``source`` names the sizes that set dim and total.

    Its dicts hold at most the C(total + dim, dim) monomials of degree <=
    total in dim coordinates.  Each costs its key, an integer of dim digits in
    base total + 1, the tuple of those digits that the expectation cache
    keeps (8 bytes a digit), and ORACLE_ENTRY_BYTES of dict slots, float and
    cache entries."""
    entries = math.comb(total + dim, total)
    size = entries * (ORACLE_ENTRY_BYTES + 8 * dim + math.ceil(dim * math.log2(total + 1) / 8))
    if size > 8 * MAX_DENSE_ENTRIES:
        raise ValueError(
            f"{source} let the Isserlis oracle hold {entries} monomials, about {size} bytes, "
            f"above the dense cap of {8 * MAX_DENSE_ENTRIES} bytes"
        )


def check_pointwise_seeds(seeds, dim, total):
    """Raise ValueError if ``compare_expansion`` of a product of this total
    order, at ``seeds`` points of R^dim, would build an array past
    MAX_DENSE_ENTRIES.  Its largest are the top degree's Hermite table,
    (total + 1) x seeds x dim, and the top term's class-by-point products,
    C(dim + total - 1, total) x seeds."""
    entries = seeds * max((total + 1) * dim, math.comb(dim + total - 1, total))
    if entries > MAX_DENSE_ENTRIES:
        raise ValueError(
            f"pointwise_seeds {seeds} at dim {dim} and total order {total} build an array of {entries} entries, "
            f"above the dense cap {MAX_DENSE_ENTRIES}"
        )


def _check_caps(max_dim, max_order, max_total, order):
    check_dense(max_dim, order, f"max_dim {max_dim}, max_order {max_order} and max_total {max_total}")


def compare_expansion(tensors, xis):
    """Expansion of the product of ``tensors`` and a row comparing its degree-0
    term with the Isserlis oracle (relative to max(1, |oracle|)) and its value
    with the product of Wick evaluations at the rows of ``xis`` (max error)."""
    expansion = expand_product(tensors)
    oracle = moment_oracle(tensors)
    degree0 = expansion.degree0()
    product = np.ones(len(xis))
    for t in tensors:
        product *= wick_eval_batch(t, xis)
    return expansion, {
        "degree0": degree0,
        "oracle": oracle,
        "relative_gap": abs(degree0 - oracle) / max(1.0, abs(oracle)),
        "pointwise_max_error": float(np.max(np.abs(product - expansion.evaluate_batch(xis)))),
    }


def equivalence_case(rng, max_blocks=4, max_order=3, max_dim=3, max_total=10, pointwise_seeds=20):
    """One expansion-vs-oracle instance; returns the comparison row.

    Before it draws, it checks the largest arrays an instance can build: a
    factor of order up to min(max_order, max_total - 1), and expansion terms
    and pointwise arrays up to the top degree.  It refuses sizes that let the
    total order, min(max_total, max_blocks * max_order), pass the cap of
    ``expand_product``, which would refuse such an instance only after its
    draw, and checks the oracle's monomials at that total order.
    """
    top = min(max_total, max_blocks * max_order)
    # a factor past the dense cap is named as such, before the total order
    _check_caps(max_dim, max_order, max_total, max(min(max_order, max_total - 1), min(top, DEFAULT_EXPANSION_CAP)))
    if top > DEFAULT_EXPANSION_CAP:
        raise ValueError(
            f"max_blocks {max_blocks}, max_order {max_order} and max_total {max_total} let an instance reach "
            f"total order {top}, above the expansion cap {DEFAULT_EXPANSION_CAP}"
        )
    check_pointwise_seeds(pointwise_seeds, max_dim, top)
    check_oracle(max_dim, top, f"max_dim {max_dim} and max_total {max_total}")
    decomp = random_decomposition(rng, max_blocks, max_order, max_total)
    dim = int(rng.integers(2, max_dim + 1))
    tensors = random_tensors(rng, decomp, dim)
    _, row = compare_expansion(tensors, rng.standard_normal((pointwise_seeds, dim)))
    return {"lengths": list(decomp.lengths), "dim": dim, **row}


def inequality_case(rng, max_blocks=INEQUALITY_MAX_BLOCKS, max_order=3, max_dim=3, max_total=10):
    """One instance of the four operator contracts; returns slacks/residuals.

    Before it draws, it checks the largest tensor an instance can build: the
    composition's contraction of every block and one more, of order up to
    max_order, along no pairs at worst.
    """
    max_blocks = min(max_blocks, INEQUALITY_MAX_BLOCKS)
    _check_caps(max_dim, max_order, max_total, min(max_total, max_blocks * max_order) + max_order)
    decomp = random_decomposition(rng, max_blocks, max_order, max_total)
    dim = int(rng.integers(2, max_dim + 1))
    tensors = random_tensors(rng, decomp, dim, symmetric=False)
    pairset = random_pairset(rng, decomp)
    slack_norm = norm_bound_slack(pairset, tensors)
    tensors_b = random_tensors(rng, decomp, dim, symmetric=False)
    slack_inner = inner_bound_slack(pairset, tensors, tensors_b)
    perms = random_block_permutations(rng, decomp)
    residual_perm = permutation_relation_residual(pairset, tensors, perms)
    survivors = free_indices(pairset)
    residual_comp = None
    if survivors:
        d_next = int(rng.integers(1, max_order + 1))
        extra_decomp = IntervalDecomposition((len(survivors), d_next))
        extra = random_pairset(rng, extra_decomp)
        extra_tensor = random_tensors(rng, IntervalDecomposition((d_next,)), dim, symmetric=False)
        residual_comp = composition_residual(pairset, extra, tensors + extra_tensor)
    return {
        "lengths": list(decomp.lengths),
        "dim": dim,
        "pairs": len(pairset),
        "norm_bound_slack": slack_norm,
        "inner_bound_slack": slack_inner,
        "permutation_residual": residual_perm,
        "composition_residual": residual_comp,
    }
