"""Overload-control primitives: priorities, CoDel, AIMD, budget, ladder."""

import dataclasses

import pytest

from repro.serving import ManualClock
from repro.serving.overload import (
    BATCH,
    INTERACTIVE,
    MAX_PRESSURE,
    MODE_FULL,
    MODE_GREEDY,
    MODE_SHED,
    MODES,
    PRIORITIES,
    PRIORITY_RANK,
    STANDARD,
    AIMDLimiter,
    BrownoutLadder,
    CoDelController,
    OverloadConfig,
    RetryBudget,
    assign_priorities,
    deadline_missed,
    mode_for,
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


class TestModeLadder:
    def test_zero_pressure_serves_everyone_full(self):
        for name in PRIORITIES:
            assert mode_for(0, name) == MODE_FULL

    def test_batch_degrades_first_interactive_last(self):
        # One full class-worth of pressure: batch is shed, the rest full.
        assert mode_for(3, BATCH) == MODE_SHED
        assert mode_for(3, STANDARD) == MODE_FULL
        assert mode_for(3, INTERACTIVE) == MODE_FULL
        # Two class-worths: standard shed, interactive still untouched.
        assert mode_for(6, STANDARD) == MODE_SHED
        assert mode_for(6, INTERACTIVE) == MODE_FULL
        assert mode_for(7, INTERACTIVE) == MODE_GREEDY
        assert mode_for(8, INTERACTIVE) == MODE_SHED
        assert mode_for(MAX_PRESSURE, INTERACTIVE) == MODE_SHED

    def test_pressure_clamps_at_extremes(self):
        assert mode_for(999, INTERACTIVE) == MODE_SHED
        assert mode_for(-5, BATCH) == MODE_FULL

    def test_modes_ordered_best_to_none(self):
        assert MODES == (MODE_FULL, MODE_GREEDY, MODE_SHED)
        # Three steps per class, one of them spare after greedy, keep
        # the ladder nine levels long.
        assert MAX_PRESSURE == 9

    #: Mode per pressure level 0..9 for (interactive, standard, batch):
    #: F = full, G = greedy, S = shed.  Each class is shed from its
    #: second step on.
    LADDER = {
        INTERACTIVE: "FFFFFFFGSS",
        STANDARD: "FFFFGSSSSS",
        BATCH: "FGSSSSSSSS",
    }

    def test_every_pressure_priority_pair(self):
        letter = {MODE_FULL: "F", MODE_GREEDY: "G", MODE_SHED: "S"}
        got = {
            name: "".join(letter[mode_for(pressure, name)]
                          for pressure in range(MAX_PRESSURE + 1))
            for name in PRIORITIES
        }
        assert got == self.LADDER


class TestOverloadConfig:
    def test_defaults_validate(self):
        OverloadConfig()

    @pytest.mark.parametrize("overrides", [
        {"codel_target_ms": 0},
        {"ladder_interval_ms": -1},
        {"escalate_miss_rate": 1.5},
        {"recover_miss_rate": 0.9},       # >= escalate
        {"recover_intervals": 0},
        {"min_inflight": 0},
        {"initial_inflight": 200},        # > max
        {"backoff_ratio": 1.0},
        {"retry_ratio": 0.0},
        {"retry_floor": 5.0, "retry_cap": 1.0},
    ])
    def test_bad_knobs_rejected(self, overrides):
        with pytest.raises(ValueError):
            dataclasses.replace(OverloadConfig(), **overrides)


class TestCoDel:
    def make(self, clock):
        return CoDelController(target_ms=50.0, interval_ms=100.0,
                               clock=clock)

    def test_below_target_never_drops(self):
        clock = ManualClock()
        codel = self.make(clock)
        for _ in range(100):
            assert not codel.offer(10.0)
            clock.advance(0.05)
        assert codel.drops == 0

    def test_drops_only_after_a_full_interval_above_target(self):
        clock = ManualClock()
        codel = self.make(clock)
        assert not codel.offer(80.0)       # arms first_above
        clock.advance(0.05)
        assert not codel.offer(80.0)       # interval not yet elapsed
        clock.advance(0.06)
        assert codel.offer(80.0)           # sustained: drop
        assert codel.dropping and codel.drops == 1

    def test_drop_cadence_follows_sqrt_law(self):
        clock = ManualClock()
        codel = self.make(clock)
        codel.offer(80.0)
        clock.advance(0.11)
        assert codel.offer(80.0)           # first drop at t ~ 0.11
        # Second drop a full interval out (interval / sqrt(1)).
        clock.advance(0.05)
        assert not codel.offer(80.0)
        clock.advance(0.05)
        assert codel.offer(80.0)
        # Third drop accelerates to interval / sqrt(2) ~ 70.7 ms.
        clock.advance(0.05)
        assert not codel.offer(80.0)
        clock.advance(0.03)
        assert codel.offer(80.0)
        assert codel.drops == 3

    def test_recovery_exits_dropping_state(self):
        clock = ManualClock()
        codel = self.make(clock)
        codel.offer(80.0)
        clock.advance(0.11)
        assert codel.offer(80.0)
        assert not codel.offer(5.0)        # sojourn back under target
        assert not codel.dropping
        # And the interval must elapse again before the next drop.
        assert not codel.offer(80.0)
        clock.advance(0.11)
        assert codel.offer(80.0)


class TestAIMD:
    def make(self, clock, **overrides):
        config = dataclasses.replace(
            OverloadConfig(), initial_inflight=8, min_inflight=1,
            max_inflight=16, backoff_ratio=0.5, backoff_cooldown_ms=100.0,
            **overrides)
        return AIMDLimiter(config, clock=clock)

    def test_starts_at_initial(self):
        assert self.make(ManualClock()).limit == 8

    def test_additive_increase_is_sublinear_and_capped(self):
        limiter = self.make(ManualClock())
        limiter.on_success()
        assert limiter.limit == 8          # 8 + 1/8 truncates to 8
        for _ in range(1000):
            limiter.on_success()
        assert limiter.limit == 16         # clamped at max_inflight

    def test_multiplicative_decrease_with_cooldown(self):
        clock = ManualClock()
        limiter = self.make(clock)
        limiter.on_congestion()
        assert limiter.limit == 4 and limiter.backoffs == 1
        limiter.on_congestion()            # inside cooldown: ignored
        assert limiter.limit == 4 and limiter.backoffs == 1
        clock.advance(0.11)
        limiter.on_congestion()
        assert limiter.limit == 2 and limiter.backoffs == 2

    def test_floor_is_respected(self):
        clock = ManualClock()
        limiter = self.make(clock)
        for _ in range(10):
            limiter.on_congestion()
            clock.advance(1.0)
        assert limiter.limit == 1


class TestRetryBudget:
    def test_floor_grants_then_denies(self):
        budget = RetryBudget(0.1, floor=1.0, cap=10.0)
        assert budget.try_spend()
        assert not budget.try_spend()
        assert budget.granted == 1 and budget.denied == 1

    def test_successes_refill_at_ratio_up_to_cap(self):
        budget = RetryBudget(0.25, floor=0.0, cap=2.0)
        assert not budget.try_spend()
        for _ in range(4):
            budget.on_success()
        assert budget.balance == pytest.approx(1.0)
        assert budget.try_spend()
        for _ in range(100):
            budget.on_success()
        assert budget.balance == pytest.approx(2.0)  # capped

    def test_forced_spend_always_proceeds_and_is_counted(self):
        budget = RetryBudget(0.1, floor=0.5, cap=10.0)
        assert budget.try_spend(forced=True)
        assert budget.balance == 0.0       # overdraw floors at zero
        assert budget.forced == 1 and budget.granted == 0

    def test_snapshot_shape(self):
        snap = RetryBudget(0.1).snapshot()
        assert set(snap) == {"balance", "granted", "denied", "forced"}


class TestBrownoutLadder:
    def make(self, clock, **overrides):
        config = dataclasses.replace(
            OverloadConfig(), ladder_interval_ms=100.0,
            escalate_miss_rate=0.5, recover_miss_rate=0.1,
            recover_intervals=2, **overrides)
        return config, BrownoutLadder(config, clock=clock)

    def test_escalates_on_missy_window(self):
        clock = ManualClock()
        _, ladder = self.make(clock)
        for _ in range(4):
            ladder.observe(True)
        assert ladder.pressure == 0        # window still open
        clock.advance(0.11)
        ladder.observe(True)
        assert ladder.pressure == 1 and ladder.transitions == 1

    def test_recovery_needs_consecutive_clean_windows(self):
        clock = ManualClock()
        _, ladder = self.make(clock)
        clock.advance(0.11)
        ladder.observe(True)               # -> pressure 1
        clock.advance(0.11)
        ladder.observe(False)              # clean window 1 of 2
        assert ladder.pressure == 1
        clock.advance(0.11)
        ladder.observe(False)              # clean window 2 of 2
        assert ladder.pressure == 0

    def test_dirty_window_resets_the_streak(self):
        clock = ManualClock()
        _, ladder = self.make(clock)
        clock.advance(0.11)
        ladder.observe(True)               # -> 1
        clock.advance(0.11)
        ladder.observe(False)              # clean 1/2
        # Accumulate a mixed window (1 miss in 3: rate 0.33 — neither
        # escalation nor clean), closed by the observe after the advance.
        ladder.observe(True)
        ladder.observe(False)
        clock.advance(0.11)
        ladder.observe(False)              # closes the mixed window
        clock.advance(0.11)
        ladder.observe(False)              # clean 1/2 again (streak reset)
        assert ladder.pressure == 1

    def test_idle_ticks_recover_without_traffic(self):
        clock = ManualClock()
        _, ladder = self.make(clock)
        clock.advance(0.11)
        ladder.observe(True)
        assert ladder.pressure == 1
        for _ in range(8):                 # empty windows count as clean
            clock.advance(0.11)
            ladder.tick()
        assert ladder.pressure == 0

    def test_pressure_clamped_at_max(self):
        clock = ManualClock()
        _, ladder = self.make(clock)
        for _ in range(MAX_PRESSURE + 5):
            clock.advance(0.11)
            ladder.observe(True)
        assert ladder.pressure == MAX_PRESSURE
        assert ladder.max_pressure == MAX_PRESSURE

    def test_transition_callback_and_snapshot(self):
        clock = ManualClock()
        seen = []
        config = dataclasses.replace(OverloadConfig(),
                                     ladder_interval_ms=100.0)
        ladder = BrownoutLadder(
            config, clock=clock,
            on_transition=lambda old, new, rate: seen.append((old, new)))
        clock.advance(0.11)
        ladder.observe(True)
        assert seen == [(0, 1)]
        snap = ladder.snapshot()
        assert snap["level"] == 1 and snap["max_level"] == 1
        assert snap["transitions"] == 1
        assert snap["modes"][BATCH] == MODE_GREEDY
        assert snap["modes"][INTERACTIVE] == MODE_FULL


class TestDeadlineMissed:
    def test_expired_and_deadline_notes_count(self):
        class R:
            def __init__(self, status="ok", note=None):
                self.status = status
                self.note = note

        assert deadline_missed(R(status="expired"))
        assert deadline_missed(R(note="decode overran its deadline"))
        assert deadline_missed(R(note="queue wait ate the deadline"))
        assert not deadline_missed(R())
        assert not deadline_missed(R(status="overloaded"))
