"""Differential tests: the bit-packed Hoare kernel against a dense-matrix oracle.

``repro.semantics`` stores a device state as one integer and checks the five
rules of paper Figure 8 with word arithmetic.  The oracle below implements the
same rules the slow, obvious way — over explicit 0/1 numpy matrices, one row
and one member at a time — and every generated group, valid or not, must give
equal post-states or the same exception (type *and* message: the message names
the offending chunk / device).
"""

from __future__ import annotations

import pickle
from typing import List, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidCollectiveError, SemanticsError
from repro.semantics.collectives import ALL_COLLECTIVES, Collective, apply_collective
from repro.semantics.collectives import apply_step, step_error
from repro.semantics.state import DeviceState, StateContext
from repro.synthesis.pruning import context_within_goal


# --------------------------------------------------------------------------- #
# The oracle: paper Figure 8 over dense matrices
# --------------------------------------------------------------------------- #
def _rows(matrix: np.ndarray) -> tuple:
    return tuple(r for r in range(len(matrix)) if matrix[r].any())


def _oracle_reducing_preconditions(op: Collective, mats: Sequence[np.ndarray]) -> tuple:
    rows = _rows(mats[0])
    for i, m in enumerate(mats):
        if _rows(m) != rows:
            raise InvalidCollectiveError(
                f"{op}: device 0 holds chunks {rows} but device {i} holds {_rows(m)}"
            )
    if not rows:
        raise InvalidCollectiveError(f"{op}: no device in the group holds any data")
    for r in range(len(mats[0])):
        seen = np.zeros(len(mats[0]), dtype=bool)
        for i, m in enumerate(mats):
            if (m[r].astype(bool) & seen).any():
                raise InvalidCollectiveError(
                    f"{op}: chunk {r} would fold the same contribution twice "
                    f"(device {i} overlaps with an earlier group member)"
                )
            seen |= m[r].astype(bool)
    if sum(1 for m in mats if m.any()) < 2:
        raise InvalidCollectiveError(f"{op}: fewer than two group members hold data")
    return rows


def oracle_apply(op: Collective, mats: Sequence[np.ndarray]) -> List[np.ndarray]:
    if len(mats) < 2:
        raise InvalidCollectiveError(
            f"a collective needs a group of at least 2 devices, got {len(mats)}"
        )
    sizes = {len(m) for m in mats}
    if len(sizes) != 1:
        raise SemanticsError(f"all states in a group must have the same size, got {sizes}")
    g = len(mats)
    union = np.clip(sum(m.astype(int) for m in mats), 0, 1).astype(np.uint8)

    if op == Collective.ALL_REDUCE:
        _oracle_reducing_preconditions(op, mats)
        return [union] * g
    if op == Collective.REDUCE:
        _oracle_reducing_preconditions(op, mats)
        return [union] + [np.zeros_like(union)] * (g - 1)
    if op == Collective.REDUCE_SCATTER:
        rows = _oracle_reducing_preconditions(op, mats)
        if len(rows) % g:
            raise InvalidCollectiveError(
                f"ReduceScatter: {len(rows)} chunks are not divisible by group size {g}"
            )
        per = len(rows) // g
        post = []
        for t in range(g):
            kept = np.zeros_like(union)
            for r in rows[t * per : (t + 1) * per]:
                kept[r] = union[r]
            post.append(kept)
        return post
    if op == Collective.ALL_GATHER:
        seen: set = set()
        lengths = set()
        for i, m in enumerate(mats):
            rows = set(_rows(m))
            if not rows:
                raise InvalidCollectiveError("AllGather: a group member holds no data")
            if rows & seen:
                raise InvalidCollectiveError(
                    f"AllGather: device {i} holds chunks also held by an earlier member"
                )
            seen |= rows
            lengths.add(len(rows))
        if len(lengths) != 1:
            raise InvalidCollectiveError(
                f"AllGather: members hold different numbers of chunks: {sorted(lengths)}"
            )
        return [union] * g
    assert op == Collective.BROADCAST
    root = mats[0]
    if not root.any():
        raise InvalidCollectiveError("Broadcast: the root device holds no data")
    strictly_below = False
    for i, m in enumerate(mats[1:], start=1):
        if (m > root).any():
            raise InvalidCollectiveError(
                f"Broadcast: device {i} holds data the root does not (information would be lost)"
            )
        if (m != root).any():
            strictly_below = True
    if not strictly_below:
        raise InvalidCollectiveError("Broadcast: no device would learn anything new")
    return [root] * g


def assert_agrees(op: Collective, mats: Sequence[np.ndarray]) -> bool:
    """Packed kernel == oracle on one group; returns whether the group was valid."""
    states = [DeviceState.from_matrix(m.tolist()) for m in mats]
    try:
        expected = oracle_apply(op, mats)
    except (InvalidCollectiveError, SemanticsError) as error:
        with pytest.raises(type(error)) as caught:
            apply_collective(op, states)
        assert type(caught.value) is type(error)
        assert str(caught.value) == str(error)
        return False
    post = apply_collective(op, states)
    assert len(post) == len(expected)
    for state, matrix in zip(post, expected):
        assert np.array_equal(state.to_matrix(), matrix)
        # Derived states must be indistinguishable from validated ones.
        assert state == DeviceState.from_matrix(matrix.tolist())
        assert state.non_empty_rows == _rows(matrix)
    return True


# --------------------------------------------------------------------------- #
# Generators
# --------------------------------------------------------------------------- #
sizes = st.integers(min_value=1, max_value=6)
group_sizes = st.integers(min_value=2, max_value=4)
collectives = st.sampled_from(ALL_COLLECTIVES)


def dense(k: int):
    return st.lists(
        st.lists(st.integers(0, 1), min_size=k, max_size=k), min_size=k, max_size=k
    ).map(lambda m: np.array(m, dtype=np.uint8))


@st.composite
def random_group(draw):
    k = draw(sizes)
    return [draw(dense(k)) for _ in range(draw(group_sizes))]


@st.composite
def reducible_group(draw):
    """Equal row sets, per-chunk disjoint contributors: valid for the reducing rules."""
    k = draw(st.integers(2, 6))
    g = draw(st.integers(2, min(4, k)))
    rows = draw(st.sets(st.integers(0, k - 1), min_size=1))
    mats = [np.zeros((k, k), dtype=np.uint8) for _ in range(g)]
    for r in rows:
        # Every member needs a contributor in every held chunk: g of the k
        # columns go one to each member, the rest to anyone or nobody.
        owners = draw(st.permutations(range(k)))
        for member in range(g):
            mats[member][r, owners[member]] = 1
        for column in owners[g:]:
            member = draw(st.integers(-1, g - 1))
            if member >= 0:
                mats[member][r, column] = 1
    return mats


@st.composite
def gatherable_group(draw):
    """Disjoint, equally sized row sets: valid for AllGather."""
    k = draw(st.integers(2, 6))
    g = draw(st.integers(2, min(4, k)))
    per = draw(st.integers(1, k // g))
    order = draw(st.permutations(range(k)))
    mats = []
    for member in range(g):
        m = np.zeros((k, k), dtype=np.uint8)
        for r in order[member * per : (member + 1) * per]:
            row = draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
            row[draw(st.integers(0, k - 1))] = 1
            m[r] = row
        mats.append(m)
    return mats


@st.composite
def broadcastable_group(draw):
    """Every member below the root, the last one strictly: valid for Broadcast."""
    k = draw(sizes)
    root = draw(dense(k))
    root[draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))] = 1
    mats = [root]
    for _ in range(draw(st.integers(0, 2))):
        mats.append(root & draw(dense(k)))
    below = root.copy()
    ones = np.argwhere(root)
    r, c = ones[draw(st.integers(0, len(ones) - 1))]
    below[r, c] = 0
    mats.append(below)
    return mats


@st.composite
def perturbed(draw, groups):
    """A valid-by-construction group with a few bits flipped (usually invalid)."""
    mats = [m.copy() for m in draw(groups)]
    k = len(mats[0])
    for _ in range(draw(st.integers(1, 3))):
        member = draw(st.integers(0, len(mats) - 1))
        mats[member][draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))] ^= 1
    return mats


# --------------------------------------------------------------------------- #
# apply_collective
# --------------------------------------------------------------------------- #
class TestKernelAgainstOracle:
    @given(collectives, random_group())
    @settings(max_examples=300, deadline=None)
    def test_random_groups(self, op, mats):
        assert_agrees(op, mats)

    @given(
        st.sampled_from(
            (Collective.ALL_REDUCE, Collective.REDUCE, Collective.REDUCE_SCATTER)
        ),
        reducible_group(),
    )
    @settings(max_examples=200, deadline=None)
    def test_reducible_groups(self, op, mats):
        valid = assert_agrees(op, mats)
        if op != Collective.REDUCE_SCATTER:
            assert valid

    @given(gatherable_group())
    @settings(max_examples=150, deadline=None)
    def test_gatherable_groups_are_valid(self, mats):
        assert assert_agrees(Collective.ALL_GATHER, mats)

    @given(broadcastable_group())
    @settings(max_examples=150, deadline=None)
    def test_broadcastable_groups_are_valid(self, mats):
        assert assert_agrees(Collective.BROADCAST, mats)

    @given(
        collectives,
        perturbed(st.one_of(reducible_group(), gatherable_group(), broadcastable_group())),
    )
    @settings(max_examples=300, deadline=None)
    def test_perturbed_groups(self, op, mats):
        assert_agrees(op, mats)

    @given(collectives, dense(3))
    @settings(max_examples=20, deadline=None)
    def test_singleton_group_is_invalid(self, op, matrix):
        assert not assert_agrees(op, [matrix])

    @given(collectives, dense(2), dense(3))
    @settings(max_examples=20, deadline=None)
    def test_mixed_sizes_are_a_semantics_error(self, op, small, big):
        assert not assert_agrees(op, [small, big])

    def test_scatter_then_gather_restores_the_reduction(self):
        """The chain the planner relies on: RS -> AG equals AR, bit for bit."""
        k = 4
        initial = [DeviceState.initial(k, d) for d in range(k)]
        scattered = apply_collective(Collective.REDUCE_SCATTER, initial)
        gathered = apply_collective(Collective.ALL_GATHER, scattered)
        assert gathered == apply_collective(Collective.ALL_REDUCE, initial)
        assert [s.non_empty_rows for s in scattered] == [(0,), (1,), (2,), (3,)]


# --------------------------------------------------------------------------- #
# apply_step: a whole step of disjoint groups at once
# --------------------------------------------------------------------------- #
def oracle_step(op: Collective, groups, mats: Sequence[np.ndarray]) -> List[np.ndarray]:
    """The oracle applied group by group; raises the first failing group's error."""
    post = list(mats)
    for group in groups:
        for device, matrix in zip(group, oracle_apply(op, [mats[d] for d in group])):
            post[device] = matrix
    return post


@st.composite
def partitions(draw, n: int):
    """Disjoint groups of 2-6 of the ``n`` devices, in random order; some devices
    may be left out.  Half the time every group has one size dividing ``n``."""
    order = draw(st.permutations(range(n)))
    even = [size for size in range(2, 7) if n % size == 0]
    uniform = draw(st.sampled_from(even)) if even and draw(st.booleans()) else None
    groups, cut = [], 0
    while n - cut >= 2:
        size = uniform or draw(st.integers(2, min(6, n - cut)))
        groups.append(tuple(order[cut : cut + size]))
        cut += size
        if draw(st.integers(0, 3)) == 0:
            break
    return tuple(groups)


FOLLOW_UP = {Collective.REDUCE_SCATTER: Collective.ALL_GATHER, Collective.REDUCE: Collective.BROADCAST}


@st.composite
def step_cases(draw):
    """A context of up to 12 devices, reached from the initial one by a few steps
    the oracle accepts (and perhaps a flipped bit), then one step to check — half
    the time an earlier step's partition with that step's natural follow-up, so
    that AllGather after ReduceScatter and Broadcast after Reduce come up valid."""
    n = draw(st.integers(2, 12))
    mats = [np.array(DeviceState.initial(n, d).to_matrix()) for d in range(n)]
    used = []
    for _ in range(draw(st.integers(0, 3))):
        op, groups = draw(collectives), draw(partitions(n))
        try:
            mats = oracle_step(op, groups, mats)
            used.append((op, groups))
        except InvalidCollectiveError:
            pass
    if draw(st.integers(0, 3)) == 0:
        mats[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] ^= 1
    if used and draw(st.booleans()):
        op, groups = draw(st.sampled_from(used))
        return FOLLOW_UP.get(op, op), groups, mats
    groups = draw(partitions(n))
    if draw(st.integers(0, 3)) == 0:
        # Gather-shaped: every member of a group holds its own block of rows,
        # the blocks disjoint and, unless the last one is resized, equal.
        for group in groups:
            order = draw(st.permutations(range(n)))
            per = draw(st.integers(1, n // len(group)))
            sizes = [per] * len(group)
            sizes[-1] = draw(st.integers(1, n - per * (len(group) - 1)))
            cut = 0
            for device, size in zip(group, sizes):
                mats[device] = np.zeros((n, n), dtype=np.uint8)
                for r in order[cut : cut + size]:
                    mats[device][r, device] = 1
                cut += size
        return Collective.ALL_GATHER, groups, mats
    return draw(collectives), groups, mats


class TestStepKernelAgainstOracle:
    @given(step_cases())
    @settings(max_examples=400, deadline=None)
    def test_step_matches_the_oracle_group_by_group(self, case):
        op, groups, mats = case
        states = [DeviceState.from_matrix(m.tolist()) for m in mats]
        try:
            expected = oracle_step(op, groups, mats)
        except InvalidCollectiveError as error:
            failure = apply_step(op, groups, states)
            assert failure is not None
            assert str(step_error(op, groups, states, failure)) == str(error)
            return
        assert apply_step(op, groups, states) is None
        for state, matrix in zip(states, expected):
            assert np.array_equal(state.to_matrix(), matrix)
            assert state == DeviceState.from_matrix(matrix.tolist())


# --------------------------------------------------------------------------- #
# DeviceState / StateContext against the row-tuple definition
# --------------------------------------------------------------------------- #
@st.composite
def row_tuples(draw, k=None):
    k = draw(sizes) if k is None else k
    return tuple(draw(st.integers(0, (1 << k) - 1)) for _ in range(k))


class TestPackedState:
    @given(row_tuples())
    @settings(max_examples=200, deadline=None)
    def test_round_trips(self, rows):
        k = len(rows)
        state = DeviceState(k, rows)
        assert state.rows == rows
        assert [state.row(r) for r in range(k)] == list(rows)
        assert state.non_empty_rows == tuple(r for r, m in enumerate(rows) if m)
        assert state.num_non_empty_rows == sum(1 for m in rows if m)
        assert state.is_empty == (not any(rows))
        assert state.chunk_fraction() == sum(1 for m in rows if m) / k
        assert DeviceState.from_matrix(state.to_matrix().tolist()) == state
        clone = pickle.loads(pickle.dumps(state))
        assert clone == state and hash(clone) == hash(state) and clone.rows == rows
        assert repr(state) == f"DeviceState(num_chunks={k}, rows={rows})"

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_algebra_matches_row_tuples(self, data):
        a_rows = data.draw(row_tuples())
        k = len(a_rows)
        b_rows = data.draw(row_tuples(k))
        a, b = DeviceState(k, a_rows), DeviceState(k, b_rows)
        assert a.union(b).rows == tuple(x | y for x, y in zip(a_rows, b_rows))
        assert a.union(b) == DeviceState(k, a.union(b).rows)
        assert a.is_subset_of(b) == all(x & ~y == 0 for x, y in zip(a_rows, b_rows))
        assert a.is_strict_subset_of(b) == (a.is_subset_of(b) and a_rows != b_rows)
        assert a.rows_disjoint_with(b) == all(x & y == 0 for x, y in zip(a_rows, b_rows))
        assert a.row_sets_disjoint_with(b) == (
            not set(a.non_empty_rows) & set(b.non_empty_rows)
        )
        assert (a == b) == (a_rows == b_rows)
        if a == b:
            assert hash(a) == hash(b)
        kept = data.draw(st.sets(st.integers(0, k - 1)))
        assert a.restricted_to_rows(kept).rows == tuple(
            m if r in kept else 0 for r, m in enumerate(a_rows)
        )

    def test_states_of_different_sizes_differ(self):
        assert DeviceState.empty(2) != DeviceState.empty(3)
        assert DeviceState.empty(2) != (2, 0)

    def test_states_are_immutable(self):
        state = DeviceState.initial(3, 1)
        with pytest.raises(AttributeError):
            state.bits = 0
        with pytest.raises(AttributeError):
            del state.present

    def test_pickle_goes_through_the_validating_constructor(self):
        state = DeviceState(2, (0b10, 0))
        assert state.__reduce__() == (DeviceState, (2, (0b10, 0)))


class TestContextsAgainstRowTuples:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_context_within_goal(self, data):
        k = data.draw(st.integers(1, 5))
        context = [data.draw(row_tuples(k)) for _ in range(k)]
        goal = [data.draw(row_tuples(k)) for _ in range(k)]
        if data.draw(st.booleans()):
            # Force the interesting (within-goal) side half of the time.
            context = [tuple(c & g for c, g in zip(cs, gs)) for cs, gs in zip(context, goal)]
        expected = all(
            c & ~g == 0 for cs, gs in zip(context, goal) for c, g in zip(cs, gs)
        )
        packed = StateContext(tuple(DeviceState(k, rows) for rows in context))
        packed_goal = StateContext(tuple(DeviceState(k, rows) for rows in goal))
        assert context_within_goal(packed, packed_goal) == expected

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_replace(self, data):
        k = data.draw(st.integers(1, 5))
        before = [data.draw(row_tuples(k)) for _ in range(k)]
        context = StateContext(tuple(DeviceState(k, rows) for rows in before))
        updates = data.draw(st.dictionaries(st.integers(0, k - 1), row_tuples(k)))
        replaced = context.replace({d: DeviceState(k, rows) for d, rows in updates.items()})
        after = [updates.get(d, rows) for d, rows in enumerate(before)]
        assert [s.rows for s in replaced] == after
        assert replaced == StateContext(tuple(DeviceState(k, rows) for rows in after))
        assert hash(replaced) == hash(StateContext(tuple(DeviceState(k, r) for r in after)))
        assert [s.rows for s in context] == before  # the original is untouched
