import re

import numpy as np
import pytest

import spin_transfer.protocol as protocol
from spin_transfer.entanglement import negativity, schmidt_angle_from_negativity
from spin_transfer.protocol import (
    MODE_MIXED,
    MODE_PURE_RESET,
    IterationRecord,
    canonical_mode,
    iterate_transfer,
    snapshot_purity,
)
from spin_transfer.qla import Operator
from spin_transfer.transfer import (
    QUTRIT_HALF_PERIOD,
    STATE_A,
    STATE_B,
    STATE_C,
    QubitPairState,
    QutritPairState,
    evolve_reduced,
)


def after_values(e0, sp, steps, mode):
    return [r.negativity_after for r in iterate_transfer(e0, sp, steps, mode)]


def per_round_iterate_pure_reset(e0, sp, steps) -> list[IterationRecord]:
    """The pure-reset loop that made each round's record as soon as the
    round was scored, before both modes shared one record path."""
    records = []
    e = float(e0)
    for step in range(1, steps + 1):
        theta = schmidt_angle_from_negativity(e)
        rho = evolve_reduced(QubitPairState(theta), sp, QUTRIT_HALF_PERIOD)
        e_after = negativity(rho).value
        records.append(IterationRecord(step, e, e_after, MODE_PURE_RESET, theta))
        e = e_after
    return records


class TestPureReset:
    def test_maximally_entangled_is_fixed_point(self):
        records = iterate_transfer(1.0, STATE_A, 3)
        for rec in records:
            assert rec.negativity_after == pytest.approx(1.0, abs=1e-9)

    def test_each_round_improves_below_fixed_point(self):
        for e in np.linspace(0.0, 0.95, 12):
            (rec,) = iterate_transfer(float(e), STATE_A, 1)
            assert rec.negativity_after > e

    def test_staircase_from_one_fifth(self):
        records = iterate_transfer(0.2, STATE_A, 4)
        values = [r.negativity_after for r in records]
        assert values[0] == pytest.approx(0.62, abs=0.02)
        assert values[1] == pytest.approx(0.82, abs=0.02)
        assert values[3] >= 0.95
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_snapshot_is_schmidt_angle(self):
        (rec,) = iterate_transfer(0.2, STATE_A, 1)
        assert isinstance(rec.tp_state_snapshot, float)
        assert rec.tp_state_snapshot == pytest.approx(0.5 * np.arcsin(0.2), abs=1e-12)
        assert snapshot_purity(rec) == 1.0

    def test_records_equal_the_per_round_loop(self):
        rng = np.random.default_rng(29)
        sources = [STATE_A, STATE_B, STATE_C] + [
            QutritPairState(*np.sqrt(rng.dirichlet((1.0, 1.0, 1.0)))) for _ in range(9)
        ]
        for i, sp in enumerate(sources):
            e0 = (0.0, 1.0)[i] if i < 2 else float(rng.uniform(0.0, 1.0))
            records = iterate_transfer(e0, sp, 12)
            oracle = per_round_iterate_pure_reset(e0, sp, 12)
            assert records == oracle
            # repr also tells float from np.float64 and 0.0 from -0.0
            assert repr(records) == repr(oracle)

    def test_each_round_evolves_once_and_scores_a_one_state_stack(self, monkeypatch):
        evolutions, scored = [], []
        full_evolution, negativities = protocol.full_evolution, protocol.negativities

        def evolution_spy(*args):
            evolutions.append(args)
            return full_evolution(*args)

        def score_spy(states):
            scored.append(states)
            return negativities(states)

        monkeypatch.setattr(protocol, "full_evolution", evolution_spy)
        monkeypatch.setattr(protocol, "negativities", score_spy)
        records = iterate_transfer(0.3, STATE_B, 4)
        assert len(evolutions) == 4
        assert [states.shape for states in scored] == [(1, 4, 4)] * 4
        assert [r.negativity_after for r in records] == [
            negativity(Operator(states[0])).value for states in scored
        ]

    def test_records_are_chained(self):
        records = iterate_transfer(0.1, STATE_A, 3)
        for first, second in zip(records, records[1:]):
            assert second.negativity_before == first.negativity_after
            assert second.step == first.step + 1


class TestMixedContinuation:
    def test_snapshot_is_density_operator(self):
        records = iterate_transfer(0.2, STATE_A, 2, MODE_MIXED)
        assert isinstance(records[0].tp_state_snapshot, Operator)
        assert snapshot_purity(records[0]) == pytest.approx(1.0, abs=1e-12)
        # after one round the carried state is genuinely mixed
        assert snapshot_purity(records[1]) < 1.0 - 1e-6

    def test_modes_agree_for_state_a_but_not_in_general(self):
        # with the maximally entangled source the achieved negativity turns
        # out to be insensitive to whether the carried state is purified,
        # even though the carried state really is mixed; a balanced two-term
        # source separates the modes clearly
        pure = after_values(0.2, STATE_A, 4, MODE_PURE_RESET)
        mixed = after_values(0.2, STATE_A, 4, MODE_MIXED)
        assert np.abs(np.subtract(pure, mixed)).max() < 1e-9
        pure = after_values(0.2, STATE_B, 3, MODE_PURE_RESET)
        mixed = after_values(0.2, STATE_B, 3, MODE_MIXED)
        assert np.abs(np.subtract(pure, mixed)).max() > 0.01

    def test_each_state_is_scored_once(self, monkeypatch):
        scored = []
        original = protocol.negativities

        def spy(states):
            scored.append(states)
            return original(states)

        monkeypatch.setattr(protocol, "negativities", spy)
        records = iterate_transfer(0.3, STATE_B, 4, MODE_MIXED)
        # one stacked call: the initial state, then one per step
        assert [len(states) for states in scored] == [5]
        assert records[0].negativity_before == pytest.approx(0.3, abs=1e-12)
        for first, second in zip(records, records[1:]):
            assert second.negativity_before == first.negativity_after

    def test_mixed_mode_deterministic(self):
        a = iterate_transfer(0.3, STATE_A, 3, "mixed")
        b = iterate_transfer(0.3, STATE_A, 3, MODE_MIXED)
        for x, y in zip(a, b):
            assert x.negativity_after == y.negativity_after


class TestValidation:
    def test_mode_aliases(self):
        assert canonical_mode("mixed") == MODE_MIXED
        assert canonical_mode(MODE_PURE_RESET) == MODE_PURE_RESET
        with pytest.raises(ValueError, match="unknown mode"):
            canonical_mode("hybrid")

    def test_bad_inputs(self):
        with pytest.raises(ValueError, match="outside"):
            iterate_transfer(1.5, STATE_A, 1)
        with pytest.raises(ValueError, match="step"):
            iterate_transfer(0.2, STATE_A, 0)

    @pytest.mark.parametrize("mode", [MODE_PURE_RESET, MODE_MIXED])
    @pytest.mark.parametrize("e0", [1.5, -0.1, np.nan, "0.2", None, 0.5 + 0j, np.complex128(0.5)])
    def test_bad_e0_raises_before_any_evolution(self, mode, e0, monkeypatch):
        calls = []
        original = protocol.full_evolution

        def counted(model, t):
            calls.append(t)
            return original(model, t)

        monkeypatch.setattr(protocol, "full_evolution", counted)
        message = rf"^negativity {re.escape(repr(e0))} outside \[0, 1\]$"
        with pytest.raises(ValueError, match=message):
            iterate_transfer(e0, STATE_A, 2, mode)
        assert calls == []
        iterate_transfer(0.2, STATE_A, 2, mode)
        assert calls

    @pytest.mark.parametrize("mode", [MODE_PURE_RESET, MODE_MIXED])
    def test_e0_is_taken_at_double_precision(self, mode):
        # a float32 e0 is the same number as its float: its Schmidt angle is not a float32's
        e0 = np.float32(0.3)
        assert after_values(e0, STATE_A, 3, mode) == after_values(float(e0), STATE_A, 3, mode)

    @pytest.mark.parametrize("mode", [MODE_PURE_RESET, MODE_MIXED])
    def test_step_count_is_an_integer(self, mode, monkeypatch):
        calls = []
        monkeypatch.setattr(protocol, "full_evolution", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=r"^steps must be an integer, got 2\.5$"):
            iterate_transfer(0.2, STATE_A, 2.5, mode)
        assert calls == []
        monkeypatch.undo()
        assert after_values(0.2, STATE_A, np.int64(2), mode) == after_values(0.2, STATE_A, 2, mode)

    @pytest.mark.parametrize("mode", [MODE_PURE_RESET, MODE_MIXED])
    def test_rejects_qubit_source(self, mode):
        # the rounds last the qutrit half period 2pi/3, which for a qubit
        # source gives a falling staircase (pure reset from e0 = 0.2: 0.501,
        # then 0.361)
        with pytest.raises(ValueError, match="QubitPairState"):
            iterate_transfer(0.2, QubitPairState(np.pi / 4), 2, mode)
