from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from youngfock.fock import MayaState
from youngfock.partitions import (
    HalfInt,
    Partition,
    partitions_of,
    partitions_up_to,
)

from .conftest import partitions
from .oracles import (
    Box,
    addable_boxes,
    conf,
    is_border_strip,
    partition_from_conf,
    pentagonal_count,
    removable_boxes,
    rim_hooks_addable,
    rim_hooks_removable,
    transpose,
)


def h(doubled):
    return HalfInt(doubled)


def test_halfint_basics():
    x = h(3)
    assert x.as_fraction() == Fraction(3, 2)
    assert str(x) == "3/2"
    assert x + 2 == h(7)
    assert x - 3 == h(-3)
    assert HalfInt.parse("-5/2") == h(-5)
    with pytest.raises(ValueError):
        HalfInt(4)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    assert Partition((3, 1)).size == 4
    assert Partition().size == 0


def test_conf_examples():
    assert conf(Partition(), 3) == [h(-1), h(-3), h(-5)]
    assert conf(Partition((1,)), 3) == [h(1), h(-3), h(-5)]
    assert conf(Partition((2, 1)), 3) == [h(3), h(-1), h(-5)]


def test_conf_cutoff_error():
    with pytest.raises(ValueError):
        conf(Partition((2, 1)), 1)


def test_partition_from_conf_examples():
    assert partition_from_conf([h(-1), h(-3), h(-5)], 0) == Partition()
    assert partition_from_conf([h(1), h(-3)], 0) == Partition((1,))
    assert partition_from_conf([h(3), h(-1), h(-5)], 0) == Partition((2, 1))


def test_partition_from_conf_errors():
    with pytest.raises(ValueError):
        partition_from_conf([h(-3), h(-1)], 0)  # increasing
    with pytest.raises(ValueError):
        partition_from_conf([h(1), h(-3)], 1)  # charged sector
    with pytest.raises(ValueError):
        partition_from_conf([h(-5)], 0)  # below the vacuum tail


@given(partitions(max_size=10))
def test_conf_roundtrip(lam):
    cutoff = len(lam) + 3
    assert partition_from_conf(conf(lam, cutoff), 0) == lam


def test_addable_removable_examples():
    assert addable_boxes(Partition()) == [Box(1, 1)]
    assert addable_boxes(Partition((1,))) == [Box(1, 2), Box(2, 1)]
    assert [b.content for b in addable_boxes(Partition((1,)))] == [1, -1]
    assert removable_boxes(Partition((2, 1))) == [Box(1, 2), Box(2, 1)]
    assert removable_boxes(Partition()) == []


@given(partitions(max_size=8))
def test_boxes_sorted_by_content(lam):
    for boxes in (addable_boxes(lam), removable_boxes(lam)):
        contents = [b.content for b in boxes]
        assert contents == sorted(contents, reverse=True)


@given(partitions(max_size=8))
def test_particle_hole_bookkeeping(lam):
    # holes strictly left of a jumping particle minus particles strictly
    # right of it equals the content of the box the jump adds
    positions = conf(lam, len(lam) + 2)
    occupied = {x.doubled for x in positions}
    for box in addable_boxes(lam):
        x = 2 * (lam.part(box.row) - box.row) + 1
        assert x in occupied
        holes_left = sum(
            1 for d in range(positions[-1].doubled, x, 2) if d not in occupied
        )
        particles_right = sum(1 for d in occupied if d > x)
        assert holes_left - particles_right == box.content


def test_rim_hooks_addable_vacuum():
    moves = rim_hooks_addable(Partition(), 3)
    got = [(m.result, m.height, m.leftmost_content) for m in moves]
    assert got == [
        (Partition((3,)), 1, 0),
        (Partition((2, 1)), 2, -1),
        (Partition((1, 1, 1)), 3, -2),
    ]


def test_one_hooks_are_boxes():
    for n in range(6):
        for lam in partitions_of(n):
            moves = rim_hooks_addable(lam, 1)
            boxes = addable_boxes(lam)
            assert [m.result for m in moves] == [
                Partition(tuple(sorted(
                    [p + (1 if i == b.row else 0) for i, p in enumerate(lam.parts, 1)]
                    + ([1] if b.row == len(lam) + 1 else []), reverse=True)))
                for b in boxes
            ]
            assert all(m.height == 1 for m in moves)
            assert [m.leftmost_content for m in moves] == [b.content for b in boxes]


def test_rim_hooks_removable_example():
    moves = rim_hooks_removable(Partition((2, 1)), 3)
    assert len(moves) == 1
    assert moves[0].result == Partition()
    assert moves[0].height == 2


@given(partitions(max_size=7), st.integers(min_value=1, max_value=5))
def test_rim_hook_invariants(lam, r):
    for mv in rim_hooks_addable(lam, r):
        assert 1 <= mv.height <= r
        assert mv.result.size == lam.size + r
        assert mv.start + r in conf(mv.result, len(mv.result) + 1)
    for mv in rim_hooks_removable(lam, r):
        assert 1 <= mv.height <= r
        assert mv.result.size == lam.size - r


def test_rim_hooks_match_border_strips_exhaustive():
    # independent skew-shape oracle over all diagrams up to size 10
    for n in range(0, 11):
        for lam in partitions_of(n):
            for r in range(1, 7):
                if n + r <= 12:
                    got = {m.result.parts for m in rim_hooks_addable(lam, r)}
                    want = {
                        mu.parts
                        for mu in partitions_of(n + r)
                        if is_border_strip(lam.parts, mu.parts, r)
                    }
                    assert got == want, (lam, r)
                if n - r >= 0:
                    got = {m.result.parts for m in rim_hooks_removable(lam, r)}
                    want = {
                        mu.parts
                        for mu in partitions_of(n - r)
                        if is_border_strip(mu.parts, lam.parts, r)
                    }
                    assert got == want, (lam, r)


def test_removable_hooks_mirror_addable():
    for n in range(0, 9):
        for lam in partitions_of(n):
            for r in range(1, 5):
                for mv in rim_hooks_removable(lam, r):
                    back = [m for m in rim_hooks_addable(mv.result, r) if m.result == lam]
                    assert len(back) == 1
                    assert back[0].height == mv.height


def test_partitions_of_counts_match_pentagonal_recurrence():
    for n in range(0, 13):
        assert len(partitions_of(n)) == pentagonal_count(n)


def test_partitions_of_examples_and_order():
    assert partitions_of(0) == (Partition(),)
    assert len(partitions_of(4)) == 5
    assert len(partitions_of(8)) == 22
    assert [p.parts for p in partitions_of(4)] == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    # reverse-lex: descending tuple order
    for n in range(1, 10):
        parts = [p.parts for p in partitions_of(n)]
        assert parts == sorted(parts, reverse=True)


def test_partitions_up_to():
    assert len(partitions_up_to(6)) == sum(pentagonal_count(n) for n in range(7))


@given(partitions(max_size=8))
def test_contains_particle_against_conf(lam):
    window = conf(lam, len(lam) + 4)
    occ = {x.doubled for x in window}
    state = MayaState.from_partition(lam)
    for d in range(window[-1].doubled, 2 * max([lam.part(1), 1]) + 3, 2):
        assert state.occupied(HalfInt(d)) == (d in occ)


@given(partitions(max_size=8))
def test_transpose_involution(lam):
    assert transpose(transpose(lam)) == lam
    assert transpose(lam).size == lam.size
