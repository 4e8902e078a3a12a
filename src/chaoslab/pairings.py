"""Admissible pair sets over interval decompositions of {1, ..., N}.

An interval decomposition splits {1, ..., N} into consecutive blocks
I_1, ..., I_l of given lengths.  A pair set is admissible when all pair
endpoints are distinct and no pair lies inside a single block.  These sets
index the slot contractions of the cancellation operator; everything here is
1-based to match that bookkeeping.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

__all__ = [
    "IntervalDecomposition",
    "PairSet",
    "enumerate_admissible",
    "count_admissible",
    "free_indices",
    "permute_pairset",
    "interval_traces",
    "compose_pairsets",
]


@dataclass(frozen=True)
class IntervalDecomposition:
    """Consecutive blocks of {1, ..., N} with lengths (d_1, ..., d_l).

    ``offsets`` holds the block offsets s_j, so block j is s_j + {1, ..., d_j},
    and ``blocks`` the 0-based block of each index: index i lies in block
    ``blocks[i - 1]``.
    """

    lengths: tuple
    offsets: tuple = field(init=False, repr=False, compare=False)
    blocks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lengths = tuple(int(d) for d in self.lengths)
        if not lengths or any(d < 1 for d in lengths):
            raise ValueError(f"lengths must be positive integers, got {self.lengths}")
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "offsets", tuple(itertools.accumulate(lengths[:-1], initial=0)))
        object.__setattr__(self, "blocks", tuple(j for j, d in enumerate(lengths) for _ in range(d)))

    @classmethod
    def coerce(cls, decomp):
        """``decomp`` itself, or the decomposition whose lengths it lists."""
        return decomp if isinstance(decomp, cls) else cls(tuple(decomp))

    @property
    def total(self):
        return len(self.blocks)

    def block_of(self, index):
        """0-based block number containing the 1-based index."""
        if not 1 <= index <= self.total:
            raise ValueError(f"index {index} out of range 1..{self.total}")
        return self.blocks[index - 1]

    def interval(self, j):
        s = self.offsets[j]
        return tuple(range(s + 1, s + self.lengths[j] + 1))

    def permutation_map(self, perms):
        """Images of the indices 1..N under per-block permutations.

        ``perms[j]`` is a 1-based permutation tuple of {1, ..., d_j}; index
        i = s_j + x maps to entry i - 1 of the result, s_j + perms[j][x].
        """
        if len(perms) != len(self.lengths):
            raise ValueError(f"need {len(self.lengths)} permutations, got {len(perms)}")
        for perm, d in zip(perms, self.lengths):
            if sorted(perm) != list(range(1, d + 1)):
                raise ValueError(f"{perm} is not a permutation of 1..{d}")
        return tuple(s + x for s, perm in zip(self.offsets, perms) for x in perm)


@dataclass(frozen=True, slots=True)
class PairSet:
    """Admissible set of index pairs; pairs stored canonically as (m, n), m < n.

    Construction validates the two admissibility rules: all endpoints
    distinct, and no pair inside one block.
    """

    decomp: IntervalDecomposition
    pairs: tuple

    def __post_init__(self):
        decomp = IntervalDecomposition.coerce(self.decomp)
        canon = []
        for p in self.pairs:
            m, n = sorted(int(x) for x in p)
            if m == n:
                raise ValueError(f"pair {p} repeats an index")
            if not (1 <= m and n <= decomp.total):
                raise ValueError(f"pair {p} out of range 1..{decomp.total}")
            if decomp.blocks[m - 1] == decomp.blocks[n - 1]:
                raise ValueError(f"pair {p} lies inside one interval")
            canon.append((m, n))
        flat = [x for p in canon for x in p]
        if len(set(flat)) != len(flat):
            raise ValueError("pair endpoints are not all distinct")
        object.__setattr__(self, "decomp", decomp)
        object.__setattr__(self, "pairs", tuple(sorted(canon)))

    def __len__(self):
        return len(self.pairs)

    def __repr__(self):
        return f"PairSet({self.decomp.lengths}, {list(self.pairs)})"

    def to_dict(self):
        return {"lengths": list(self.decomp.lengths), "pairs": [list(p) for p in self.pairs]}

    @classmethod
    def from_dict(cls, obj):
        return cls(obj["lengths"], obj["pairs"])


def enumerate_admissible(decomp, k):
    """All admissible pair sets of size ``k``, in lexicographic order.

    Backtracking over the smallest unpaired index: the first endpoints of the
    chosen pairs increase along the recursion, so every set is produced
    exactly once and the output order is deterministic.
    """
    decomp = IntervalDecomposition.coerce(decomp)
    n_total, blocks = decomp.total, decomp.blocks
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    if 2 * k > n_total:
        raise ValueError(f"2k = {2 * k} exceeds N = {n_total}")
    used = [False] * (n_total + 1)
    out = []
    chosen = []

    def rec(start, remaining):
        if remaining == 0:
            out.append(PairSet(decomp, list(chosen)))
            return
        for m in range(start, n_total - 2 * remaining + 2):
            if used[m]:
                continue
            for n in range(m + 1, n_total + 1):
                if used[n] or blocks[m - 1] == blocks[n - 1]:
                    continue
                used[m] = used[n] = True
                chosen.append((m, n))
                rec(m + 1, remaining - 1)
                chosen.pop()
                used[m] = used[n] = False

    rec(1, k)
    return out


def all_admissible(decomp):
    """Every admissible pair set, all sizes, smallest k first."""
    decomp = IntervalDecomposition.coerce(decomp)
    return [ps for k in range(decomp.total // 2 + 1) for ps in enumerate_admissible(decomp, k)]


@lru_cache(maxsize=None)
def _cross_block_matchings(sizes):
    """Perfect matchings of slots grouped in blocks, no same-block pair.

    ``sizes`` is a sorted tuple of block occupation numbers; pairs the first
    slot of the first nonempty block against each slot of every other block.
    """
    sizes = tuple(s for s in sizes if s > 0)
    if not sizes:
        return 1
    if sum(sizes) % 2:
        return 0
    first, rest = sizes[0], list(sizes[1:])
    total = 0
    for j, c in enumerate(rest):
        if c == 0:
            continue
        reduced = list(rest)
        reduced[j] -= 1
        key = [first - 1] + reduced
        total += c * _cross_block_matchings(tuple(sorted(key)))
    return total


def count_admissible(decomp, k):
    """|E^k| computed combinatorially, independent of the enumeration.

    Sums over the occupation numbers (c_1, ..., c_l) of paired slots per
    block: binomials choose the slots, and a matching recursion counts the
    cross-block pairings.  Always bounded by N! / (2^k k! (N-2k)!), with
    equality when every block has length 1.
    """
    decomp = IntervalDecomposition.coerce(decomp)
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    if 2 * k > decomp.total:
        raise ValueError(f"2k = {2 * k} exceeds N = {decomp.total}")
    lengths = decomp.lengths
    occupations = itertools.product(*(range(min(d, 2 * k) + 1) for d in lengths))
    return sum(
        math.prod(map(math.comb, lengths, occupation)) * _cross_block_matchings(tuple(sorted(occupation)))
        for occupation in occupations
        if sum(occupation) == 2 * k
    )


def pairing_count_bound(n_total, k):
    """N! / (2^k k! (N-2k)!), the unconstrained-pairing upper bound."""
    return math.factorial(n_total) // (2**k * math.factorial(k) * math.factorial(n_total - 2 * k))


def free_indices(pairset):
    """Increasing enumeration of the indices not used by any pair."""
    used = {x for p in pairset.pairs for x in p}
    return tuple(i for i in range(1, pairset.decomp.total + 1) if i not in used)


def permute_pairset(pairset, perms):
    """Apply per-block permutations to every pair endpoint, through the
    decomposition's ``permutation_map``.  Admissibility is preserved."""
    image = pairset.decomp.permutation_map(perms)
    return PairSet(pairset.decomp, [(image[m - 1], image[n - 1]) for m, n in pairset.pairs])


def interval_traces(pairset):
    """Per-block trace pairings of the surviving slots.

    For each block j, the surviving (unpaired) positions i within the block
    give the two-block pair set {{i, d_j + i}} over the decomposition
    (d_j, d_j).  These drive the factorized inner-product bound.
    """
    decomp = pairset.decomp
    free = set(free_indices(pairset))
    return [
        PairSet(IntervalDecomposition((d, d)), [(x, d + x) for x in range(1, d + 1) if s + x in free])
        for s, d in zip(decomp.offsets, decomp.lengths)
    ]


def compose_pairsets(pairset, extra):
    """Extend a pair set by one block using pairs against its survivors.

    ``extra`` is admissible for the two-interval decomposition
    ({1, ..., N - 2k}, {N - 2k + 1, ..., N - 2k + d_next}):  its first-block
    endpoints refer to survivors of ``pairset`` (by rank, through the
    increasing enumeration) and its second-block endpoints to the new block.
    Returns the combined set over (d_1, ..., d_l, d_next).
    """
    decomp = pairset.decomp
    n_total = decomp.total
    survivors = free_indices(pairset)
    if not survivors:
        raise ValueError("composition requires 2|V| < N")
    if len(extra.decomp.lengths) != 2 or extra.decomp.lengths[0] != len(survivors):
        raise ValueError(
            f"extra pair set must live on ({len(survivors)}, d_next), got {extra.decomp.lengths}"
        )
    d_next = extra.decomp.lengths[1]
    new_decomp = IntervalDecomposition(decomp.lengths + (d_next,))
    # canonical pair order puts the survivor endpoint first (blocks are ordered)
    lifted = [(survivors[m - 1], n - len(survivors) + n_total) for m, n in extra.pairs]
    return PairSet(new_decomp, list(pairset.pairs) + lifted)
