"""The one memo idiom: ``repro.utils.memo.BoundedMemo``."""

from __future__ import annotations

import copy
import pickle
import re
from pathlib import Path

import pytest

from repro.search import ShapeMemo
from repro.utils.memo import BoundedMemo

SRC = Path(__file__).resolve().parent.parent / "src"


def filled(bound=3, keys="abc"):
    memo = BoundedMemo("test", bound)
    for index, key in enumerate(keys):
        memo.put(key, index)
    return memo


class TestBoundedMemo:
    def test_the_least_recently_used_entry_goes_first(self):
        memo = filled()
        assert memo.get("a") == 0  # "a" is now the most recent; "b" the least
        memo.put("d", 3)
        assert [memo.peek(key) for key in "abcd"] == [0, None, 2, 3]
        memo.put("c", 20)  # an overwrite refreshes and evicts nothing
        memo.put("e", 4)
        assert [memo.peek(key) for key in "acde"] == [None, 20, 3, 4]

    def test_the_bound_holds_and_every_eviction_counts(self):
        memo = filled(bound=2, keys="abcde")
        assert (len(memo), memo.evicted) == (2, 3)
        assert memo.peek("d") == 3 and memo.peek("e") == 4

    def test_get_counts_hits_and_misses(self):
        memo = filled()
        assert memo.get("a") == 0 and memo.get("z") is None and memo.get("b") == 1
        assert (len(memo), memo.bound, memo.hits, memo.misses, memo.evicted) == (3, 3, 2, 1, 0)
        assert memo.describe() == "test 3/3 (2 hits, 1 misses, 0 evicted)"

    def test_peek_neither_counts_nor_refreshes(self):
        memo = filled()
        assert memo.peek("a") == 0 and memo.peek("z") is None
        assert (memo.hits, memo.misses) == (0, 0)
        memo.put("d", 3)  # "a" was peeked, not refreshed: it is still the least recent
        assert memo.peek("a") is None and memo.evicted == 1

    def test_discard_and_clear_drop_entries_and_keep_the_counts(self):
        memo = filled()
        memo.get("a")
        memo.discard("a")
        memo.discard("absent")
        assert len(memo) == 2 and memo.peek("a") is None
        memo.clear()
        assert len(memo) == 0 and memo.peek("b") is None
        assert (memo.hits, memo.misses, memo.evicted) == (1, 0, 0)

    @pytest.mark.parametrize("duplicate", [
        lambda memo: pickle.loads(pickle.dumps(memo)), copy.copy, copy.deepcopy,
    ], ids=["pickle", "copy", "deepcopy"])
    def test_a_copy_is_empty_with_the_same_name_and_bound(self, duplicate):
        memo = filled()
        memo.get("a")
        clone = duplicate(memo)
        assert type(clone) is BoundedMemo
        assert (clone.name, clone.bound, len(clone)) == ("test", 3, 0)
        assert (clone.hits, clone.misses, clone.evicted) == (0, 0, 0)
        assert len(memo) == 3

    def test_a_subclass_pickles_as_itself(self):
        memo = ShapeMemo()
        memo.remember(("shape",), "synthesis", ())
        clone = pickle.loads(pickle.dumps(memo))
        assert type(clone) is ShapeMemo and len(clone) == 0
        assert (clone.name, clone.bound) == (memo.name, memo.bound)


def test_the_memo_module_is_the_only_hand_rolled_lru_in_src():
    pattern = re.compile(r"OrderedDict|move_to_end|popitem\(last")
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if pattern.search(path.read_text(encoding="utf-8"))
    ]
    assert offenders == ["repro/utils/memo.py"]
