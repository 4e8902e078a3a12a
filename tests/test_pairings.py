import itertools
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoslab.fuzzing import MIN_BLOCKS, random_block_permutations, random_decomposition, random_pairset
from chaoslab.pairings import (
    IntervalDecomposition,
    PairSet,
    all_admissible,
    compose_pairsets,
    count_admissible,
    enumerate_admissible,
    free_indices,
    interval_traces,
    pairing_count_bound,
    permute_pairset,
)

# the five-block example instance used throughout: orders (5,5,3,1,4)
EXAMPLE = IntervalDecomposition((5, 5, 3, 1, 4))
EXAMPLE_PAIRS = [(3, 6), (5, 10), (9, 11), (13, 14)]


def brute_force_admissible(decomp, k):
    """Independent oracle: filter all k-subsets of cross-block pairs."""
    n = decomp.total
    blocks = [decomp.block_of(i) for i in range(1, n + 1)]
    pairs = [
        (m, nn)
        for m in range(1, n + 1)
        for nn in range(m + 1, n + 1)
        if blocks[m - 1] != blocks[nn - 1]
    ]
    out = []
    for combo in itertools.combinations(pairs, k):
        flat = [x for p in combo for x in p]
        if len(set(flat)) == 2 * k:
            out.append(frozenset(combo))
    return set(out)


def test_decomposition_blocks():
    dec = EXAMPLE
    assert dec.total == 18
    assert dec.offsets == (0, 5, 10, 13, 14)
    assert dec.interval(2) == (11, 12, 13)
    assert dec.block_of(13) == 2 and dec.block_of(14) == 3
    # index i lies in block blocks[i - 1], the j whose interval holds it
    assert dec.blocks == tuple(j for i in range(1, 19) for j in range(5) if i in dec.interval(j))
    assert all(dec.block_of(i) == dec.blocks[i - 1] for i in range(1, 19))
    # the permutation map sends s_j + x to s_j + perms[j][x]
    perms = [(2, 5, 1, 4, 3), (5, 4, 3, 2, 1), (3, 1, 2), (1,), (4, 3, 2, 1)]
    image = dec.permutation_map(perms)
    assert image == tuple(
        dec.offsets[j] + perms[j][x - 1] for j in range(5) for x in range(1, dec.lengths[j] + 1)
    )
    assert sorted(image) == list(range(1, 19))
    assert all(dec.blocks[image[i - 1] - 1] == dec.blocks[i - 1] for i in range(1, 19))


def test_pairset_rejects_same_block():
    with pytest.raises(ValueError):
        PairSet(IntervalDecomposition((2, 2)), [(1, 2)])


def test_pairset_rejects_repeats():
    with pytest.raises(ValueError):
        PairSet(IntervalDecomposition((2, 2)), [(1, 3), (1, 4)])
    with pytest.raises(ValueError):
        PairSet(IntervalDecomposition((2, 2)), [(3, 3)])


def test_enumerate_two_singletons():
    dec = IntervalDecomposition((1, 1))
    assert [ps.pairs for ps in enumerate_admissible(dec, 1)] == [((1, 2),)]
    assert [ps.pairs for ps in enumerate_admissible(dec, 0)] == [()]


def test_enumerate_two_by_two():
    dec = IntervalDecomposition((2, 2))
    got = {ps.pairs for ps in enumerate_admissible(dec, 1)}
    assert got == {((1, 3),), ((1, 4),), ((2, 3),), ((2, 4),)}
    got2 = {ps.pairs for ps in enumerate_admissible(dec, 2)}
    assert got2 == {((1, 3), (2, 4)), ((1, 4), (2, 3))}


def test_enumerate_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(25):
        blocks = rng.integers(2, 4)
        lengths = tuple(int(rng.integers(1, 4)) for _ in range(blocks))
        dec = IntervalDecomposition(lengths)
        if dec.total > 8:
            continue
        for k in range(dec.total // 2 + 1):
            got = {frozenset(ps.pairs) for ps in enumerate_admissible(dec, k)}
            assert got == brute_force_admissible(dec, k)


def test_enumerate_deterministic_order():
    dec = IntervalDecomposition((2, 2))
    first = [ps.pairs for ps in enumerate_admissible(dec, 2)]
    second = [ps.pairs for ps in enumerate_admissible(dec, 2)]
    assert first == second == sorted(first)


def test_enumerate_validation():
    dec = IntervalDecomposition((2, 2))
    with pytest.raises(ValueError):
        enumerate_admissible(dec, -1)
    with pytest.raises(ValueError):
        enumerate_admissible(dec, 3)


def test_count_equality_for_unit_blocks():
    for n in range(2, 9):
        dec = IntervalDecomposition((1,) * n)
        for k in range(n // 2 + 1):
            assert count_admissible(dec, k) == pairing_count_bound(n, k)


def test_count_examples():
    assert count_admissible(IntervalDecomposition((1, 1, 1, 1)), 2) == 3
    assert pairing_count_bound(4, 2) == 3
    assert count_admissible(IntervalDecomposition((2, 2)), 2) == 2
    assert pairing_count_bound(4, 2) == 3  # bound is 3 >= 2
    assert count_admissible(IntervalDecomposition((3, 2, 1)), 0) == 1


def test_count_matches_enumeration_and_bound():
    rng = np.random.default_rng(1)
    for _ in range(30):
        blocks = rng.integers(2, 5)
        lengths = tuple(int(rng.integers(1, 4)) for _ in range(blocks))
        dec = IntervalDecomposition(lengths)
        if dec.total > 10:
            continue
        for k in range(dec.total // 2 + 1):
            cnt = count_admissible(dec, k)
            assert cnt == len(enumerate_admissible(dec, k))
            assert cnt <= pairing_count_bound(dec.total, k)


def test_free_indices_basic():
    dec = IntervalDecomposition((2, 2))
    assert free_indices(PairSet(dec, [(1, 3)])) == (2, 4)
    assert free_indices(PairSet(dec, [])) == (1, 2, 3, 4)
    assert free_indices(PairSet(dec, [(1, 3), (2, 4)])) == ()


def test_free_indices_example_instance():
    ps = PairSet(EXAMPLE, EXAMPLE_PAIRS)
    assert free_indices(ps) == (1, 2, 4, 7, 8, 12, 15, 16, 17, 18)


def test_permute_pairset_identity_and_swap():
    dec = IntervalDecomposition((2, 2))
    ps = PairSet(dec, [(1, 3)])
    ident = permute_pairset(ps, [(1, 2), (1, 2)])
    assert ident == ps
    swapped = permute_pairset(ps, [(2, 1), (1, 2)])
    assert swapped.pairs == ((2, 3),)


def test_permute_pairset_preserves_admissibility():
    rng = np.random.default_rng(2)
    for _ in range(100):
        blocks = rng.integers(2, 5)
        lengths = tuple(int(rng.integers(1, 4)) for _ in range(blocks))
        dec = IntervalDecomposition(lengths)
        ps = random_pairset(rng, dec)
        perms = random_block_permutations(rng, dec)
        out = permute_pairset(ps, perms)  # construction re-validates (F1), (F2)
        assert len(out) == len(ps)


def test_permute_pairset_validation():
    dec = IntervalDecomposition((2, 2))
    ps = PairSet(dec, [(1, 3)])
    with pytest.raises(ValueError):
        permute_pairset(ps, [(1, 2)])
    with pytest.raises(ValueError):
        permute_pairset(ps, [(1, 1), (1, 2)])


def test_interval_traces_empty_pairset():
    dec = IntervalDecomposition((2, 2))
    traces = interval_traces(PairSet(dec, []))
    assert traces[0].pairs == ((1, 3), (2, 4))
    assert traces[1].pairs == ((1, 3), (2, 4))


def test_interval_traces_full_pairing():
    dec = IntervalDecomposition((2, 2))
    traces = interval_traces(PairSet(dec, [(1, 3), (2, 4)]))
    assert all(t.pairs == () for t in traces)


def test_interval_traces_example_instance():
    ps = PairSet(EXAMPLE, EXAMPLE_PAIRS)
    traces = interval_traces(ps)
    # block 1 survivors {1,2,4} pair against their copies in the doubled block
    assert traces[0].pairs == ((1, 6), (2, 7), (4, 9))
    assert traces[0].decomp.lengths == (5, 5)
    # block 4 has no survivor
    assert traces[3].pairs == ()


def test_compose_trivial_extension():
    dec = IntervalDecomposition((2, 2))
    ps = PairSet(dec, [(1, 3)])
    extra = PairSet(IntervalDecomposition((2, 3)), [])
    out = compose_pairsets(ps, extra)
    assert out.decomp.lengths == (2, 2, 3)
    assert out.pairs == ps.pairs


def test_compose_example_instance():
    ps = PairSet(EXAMPLE, EXAMPLE_PAIRS)
    extra = PairSet(IntervalDecomposition((10, 3)), [(2, 11), (9, 13)])
    out = compose_pairsets(ps, extra)
    assert out.decomp.lengths == (5, 5, 3, 1, 4, 3)
    assert set(out.pairs) == set(EXAMPLE_PAIRS) | {(2, 19), (17, 21)}


def test_compose_validation():
    dec = IntervalDecomposition((1, 1))
    full = PairSet(dec, [(1, 2)])
    extra = PairSet(IntervalDecomposition((1, 1)), [])
    with pytest.raises(ValueError):
        compose_pairsets(full, extra)  # no survivors
    ps = PairSet(dec, [])
    bad = PairSet(IntervalDecomposition((3, 1)), [])
    with pytest.raises(ValueError):
        compose_pairsets(ps, bad)  # first block must match survivor count


def test_total_count_bounded():
    dec = IntervalDecomposition((2, 2, 2))
    total = len(all_admissible(dec))
    bound = sum(pairing_count_bound(6, k) for k in range(4))
    assert total == sum(count_admissible(dec, k) for k in range(4))
    assert total <= bound


@given(
    lengths=st.lists(st.integers(1, 3), min_size=2, max_size=4),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=80, deadline=None)
def test_random_pairsets_admissible(lengths, seed):
    dec = IntervalDecomposition(tuple(lengths))
    rng = np.random.default_rng(seed)
    ps = random_pairset(rng, dec)
    flat = [x for p in ps.pairs for x in p]
    assert len(set(flat)) == len(flat)  # (F1)
    for m, n in ps.pairs:
        assert dec.block_of(m) != dec.block_of(n)  # (F2)
    free = free_indices(ps)
    assert len(free) == dec.total - 2 * len(ps)
    assert list(free) == sorted(free)


def test_json_roundtrip():
    ps = PairSet(EXAMPLE, EXAMPLE_PAIRS)
    back = PairSet.from_dict(json.loads(json.dumps(ps.to_dict())))
    assert back == ps


def random_decomposition_by_full_proposals(rng, max_blocks=4, max_order=3, max_total=10):
    """``random_decomposition`` as it was when it proposed up to max_blocks
    blocks, max_total or not: the reference where max_blocks <= max_total."""
    while True:
        blocks = rng.integers(MIN_BLOCKS, max_blocks + 1)
        lengths = tuple(int(rng.integers(1, max_order + 1)) for _ in range(blocks))
        if sum(lengths) <= max_total:
            return IntervalDecomposition(lengths)


@pytest.mark.parametrize("caps", [(2, 1, 2), (2, 3, 2), (3, 2, 7), (3, 3, 8), (3, 3, 9), (4, 3, 10), (4, 3, 12),
                                  (5, 4, 5), (10, 1, 10), (6, 2, 40)])
def test_random_decomposition_matches_full_proposals(caps):
    # same draws, same decompositions, same generator state after
    for seed in range(10):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(30):
            assert random_decomposition(rng, *caps) == random_decomposition_by_full_proposals(ref, *caps)
        assert rng.bit_generator.state == ref.bit_generator.state


def test_random_decomposition_proposes_at_most_max_total_blocks():
    rng = np.random.default_rng(0)
    start = time.monotonic()
    lengths = [random_decomposition(rng, max_blocks=10**9, max_order=3, max_total=10).lengths for _ in range(100)]
    assert time.monotonic() - start < 5.0
    assert all(MIN_BLOCKS <= len(ls) <= 10 and sum(ls) <= 10 for ls in lengths)
