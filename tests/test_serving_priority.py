"""Request priority classes: ranks, mix parsing, seeded assignment."""

import pytest

from repro.serving.priority import (
    BATCH,
    INTERACTIVE,
    PRIORITIES,
    PRIORITY_RANK,
    STANDARD,
    assign_priorities,
    parse_priority_mix,
    validate_priority,
)


class TestPriorities:
    def test_rank_order_highest_first(self):
        assert PRIORITIES == (INTERACTIVE, STANDARD, BATCH)
        assert PRIORITY_RANK[INTERACTIVE] < PRIORITY_RANK[STANDARD]
        assert PRIORITY_RANK[STANDARD] < PRIORITY_RANK[BATCH]

    def test_validate_rejects_unknown(self):
        assert validate_priority("batch") == "batch"
        with pytest.raises(ValueError, match="unknown priority"):
            validate_priority("urgent")

    def test_parse_mix_happy_path(self):
        mix = parse_priority_mix("interactive=0.2,standard=0.5,batch=0.3")
        assert mix == {"interactive": 0.2, "standard": 0.5, "batch": 0.3}

    def test_parse_mix_omitted_classes_get_zero(self):
        assert parse_priority_mix("interactive=1")["batch"] == 0.0

    @pytest.mark.parametrize("spec", ["", "interactive", "urgent=1",
                                      "interactive=-1",
                                      "interactive=0,batch=0"])
    def test_parse_mix_rejects_bad_specs(self, spec):
        with pytest.raises(ValueError):
            parse_priority_mix(spec)

    def test_assign_counts_follow_largest_remainder(self):
        mix = {"interactive": 0.25, "standard": 0.4, "batch": 0.35}
        assigned = assign_priorities(100, mix, seed=3)
        assert len(assigned) == 100
        assert assigned.count(INTERACTIVE) == 25
        assert assigned.count(STANDARD) == 40
        assert assigned.count(BATCH) == 35

    def test_assign_is_seed_deterministic_and_shuffled(self):
        mix = {"interactive": 1.0, "batch": 1.0}
        one = assign_priorities(50, mix, seed=7)
        two = assign_priorities(50, mix, seed=7)
        other = assign_priorities(50, mix, seed=8)
        assert one == two
        assert one != other  # different interleaving, same counts
        assert sorted(one) == sorted(other)

    def test_assign_empty_inputs(self):
        assert assign_priorities(0, {"batch": 1.0}) == []
        assert assign_priorities(5, {}) == []
