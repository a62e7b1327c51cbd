"""The pure-source channel of one round and the mixed-continuation staircase
that applies it, against the four-particle conjugation they replace."""

import numpy as np
import pytest

import spin_transfer.protocol as protocol
from spin_transfer.entanglement import negativity, schmidt_angle_from_negativity
from spin_transfer.model import TransferModel, full_evolution
from spin_transfer.protocol import (
    MODE_MIXED,
    IterationRecord,
    iterate_transfer,
    snapshot_purity,
)
from spin_transfer.qla import Operator, kron
from spin_transfer.transfer import (
    QUTRIT_HALF_PERIOD,
    STATE_A,
    STATE_B,
    STATE_C,
    QubitPairState,
    QutritPairState,
    evolve_and_reduce,
    model_for_source,
    source_channel,
    source_dim,
)

from conftest import max_abs, random_density, random_unitary

HALF_PERIOD_EVOLUTION = full_evolution(TransferModel.for_source_dim(3), QUTRIT_HALF_PERIOD)


def seeded_sources(n: int, seed: int) -> list[QutritPairState]:
    rng = np.random.default_rng(seed)
    return [QutritPairState(*np.sqrt(rng.dirichlet((1.0, 1.0, 1.0)))) for _ in range(n)]


SOURCES = [STATE_A, STATE_B, STATE_C] + seeded_sources(5, seed=3)


def source_density(sp) -> Operator:
    vec = sp.state_vector()
    return Operator(np.outer(vec, vec.conj()), (source_dim(sp),) * 2)


def apply_channel(channel: np.ndarray, rho: Operator) -> np.ndarray:
    return (channel @ rho.matrix.ravel()).reshape(4, 4)


def oracle_iterate_mixed(e0: float, sp: QutritPairState, steps: int) -> list[tuple]:
    """The mixed-continuation loop as it ran before the channel: every round
    tensors the carried state with the source density and conjugates the
    36x36 product by the half-period propagator.  Returns one
    (negativity_before, negativity_after, purity of the snapshot) per step."""
    u = full_evolution(model_for_source(sp), QUTRIT_HALF_PERIOD)
    rho_tp = QubitPairState(schmidt_angle_from_negativity(e0)).density()
    sp_density = source_density(sp)
    e = negativity(rho_tp).value
    rows = []
    for _ in range(steps):
        snapshot = rho_tp
        rho_tp = evolve_and_reduce(u, kron(rho_tp, sp_density))
        e_after = negativity(rho_tp).value
        purity = float(np.real(np.trace(snapshot.matrix @ snapshot.matrix)))
        rows.append((e, e_after, purity))
        e = e_after
    return rows


def per_step_iterate_mixed(e0: float, sp: QutritPairState, steps: int) -> list[IterationRecord]:
    """The channel loop that scored each state with its own ``negativity``
    call as soon as the step made it, before the run scored its states as
    one stack."""
    channel = source_channel(full_evolution(model_for_source(sp), QUTRIT_HALF_PERIOD), sp)
    rho_tp = QubitPairState(schmidt_angle_from_negativity(e0)).density()
    e = negativity(rho_tp).value
    records = []
    for step in range(1, steps + 1):
        snapshot = rho_tp
        rho_tp = Operator((channel @ rho_tp.matrix.ravel()).reshape(4, 4), (2, 2))
        e_after = negativity(rho_tp).value
        records.append(IterationRecord(step, e, e_after, MODE_MIXED, snapshot))
        e = e_after
    return records


def assert_bit_identical(records: list[IterationRecord], oracle: list[IterationRecord]) -> None:
    for rec, want in zip(records, oracle, strict=True):
        assert (rec.step, rec.mode) == (want.step, want.mode)
        scores = [rec.negativity_before, rec.negativity_after]
        wanted = [want.negativity_before, want.negativity_after]
        assert scores == wanted
        # == takes np.float64 for float and -0.0 for 0.0; the files written
        # from the records would not
        assert [type(x) for x in scores] == [type(x) for x in wanted] == [float, float]
        assert list(np.signbit(scores)) == list(np.signbit(wanted))
        assert np.array_equal(rec.tp_state_snapshot.matrix, want.tp_state_snapshot.matrix)


class TestSourceChannel:
    @pytest.mark.parametrize("sp", SOURCES)
    def test_matches_the_four_particle_conjugation(self, sp, rng):
        channel = source_channel(HALF_PERIOD_EVOLUTION, sp)
        for _ in range(4):
            rho = random_density(rng, (2, 2))
            want = evolve_and_reduce(HALF_PERIOD_EVOLUTION, kron(rho, source_density(sp)))
            assert max_abs(apply_channel(channel, rho), want.matrix) <= 1e-14

    @pytest.mark.parametrize("sp", [STATE_B, QubitPairState(0.4)])
    def test_matches_the_conjugation_by_any_propagator(self, sp, rng):
        d = source_dim(sp)
        u = Operator(random_unitary(rng, 4 * d * d), (2, 2, d, d))
        channel = source_channel(u, sp)
        rho = random_density(rng, (2, 2))
        want = evolve_and_reduce(u, kron(rho, source_density(sp)))
        assert max_abs(apply_channel(channel, rho), want.matrix) <= 1e-14

    @pytest.mark.parametrize("sp", SOURCES)
    def test_preserves_the_trace(self, sp):
        # sum_x S[(x, x), (y, z)] is (sum_s V_s^dagger V_s)[z, y]
        channel = source_channel(HALF_PERIOD_EVOLUTION, sp).reshape(4, 4, 4, 4)
        assert max_abs(np.einsum("xxyz->zy", channel), np.eye(4)) <= 1e-14

    def test_rejects_mismatched_dimensions(self):
        qubit_evolution = full_evolution(TransferModel.for_source_dim(2), QUTRIT_HALF_PERIOD)
        with pytest.raises(ValueError, match=r"\(2, 2, 3, 3\)"):
            source_channel(qubit_evolution, STATE_A)
        with pytest.raises(ValueError, match=r"\(2, 2, 2, 2\)"):
            source_channel(HALF_PERIOD_EVOLUTION, QubitPairState(0.3))
        with pytest.raises(ValueError, match="dims"):
            source_channel(Operator(np.eye(36), (4, 9)), STATE_A)


class TestMixedStaircase:
    @pytest.mark.parametrize("sp", SOURCES)
    @pytest.mark.parametrize("e0", [0.0, 0.2, 0.73, 1.0])
    def test_records_match_the_conjugation_loop(self, e0, sp):
        records = iterate_transfer(e0, sp, 12, MODE_MIXED)
        oracle = oracle_iterate_mixed(e0, sp, 12)
        for rec, (before, after, purity) in zip(records, oracle, strict=True):
            assert abs(rec.negativity_before - before) <= 1e-13
            assert abs(rec.negativity_after - after) <= 1e-13
            assert abs(snapshot_purity(rec) - purity) <= 1e-13

    @pytest.mark.parametrize("sp", [STATE_B, SOURCES[-1]])
    def test_no_drift_over_long_runs(self, sp):
        steps = 2000
        records = iterate_transfer(0.1, sp, steps, MODE_MIXED)
        oracle = oracle_iterate_mixed(0.1, sp, steps)
        after = np.array([r.negativity_after for r in records])
        purity = np.array([snapshot_purity(r) for r in records])
        assert max_abs(after, [row[1] for row in oracle]) <= 1e-13
        assert max_abs(purity, [row[2] for row in oracle]) <= 1e-13

    @pytest.mark.parametrize("sp", SOURCES)
    @pytest.mark.parametrize("e0", [0.0, 0.2, 0.73, 1.0])
    def test_stacked_scores_equal_the_per_step_scores(self, e0, sp):
        assert_bit_identical(
            iterate_transfer(e0, sp, 12, MODE_MIXED), per_step_iterate_mixed(e0, sp, 12)
        )

    def test_stacked_scores_equal_the_per_step_scores_over_a_long_run(self):
        assert_bit_identical(
            iterate_transfer(0.1, STATE_B, 2000, MODE_MIXED),
            per_step_iterate_mixed(0.1, STATE_B, 2000),
        )

    def test_a_bad_carried_state_is_named_by_its_position(self, monkeypatch):
        # S[(0, 1), (0, 0)] moves rho[0, 1] but not rho[1, 0]: the trace is
        # kept and the first carried state breaks Hermiticity
        def perturbed(u, sp):
            channel = source_channel(u, sp)
            channel[1, 0] += 1e-6
            return channel

        monkeypatch.setattr(protocol, "source_channel", perturbed)
        for steps in (4, 2000):
            with pytest.raises(ValueError, match=r"state 1: Hermiticity defect"):
                iterate_transfer(0.3, STATE_B, steps, MODE_MIXED)

    @pytest.mark.parametrize(
        ("scale", "steps"), [(1.01, 4), (1.01, 2000), (2.0, 2000), (np.nan, 4)]
    )
    def test_a_channel_that_breaks_the_trace_is_refused_where_it_is_built(
        self, monkeypatch, scale, steps
    ):
        original = protocol.source_channel
        monkeypatch.setattr(protocol, "source_channel", lambda u, sp: scale * original(u, sp))
        with pytest.raises(ValueError, match="source channel does not preserve the trace"):
            iterate_transfer(0.3, STATE_B, steps, MODE_MIXED)

    def test_one_full_evolution_per_run(self, monkeypatch):
        calls = []
        original = protocol.full_evolution
        monkeypatch.setattr(
            protocol, "full_evolution", lambda *args: calls.append(args) or original(*args)
        )
        iterate_transfer(0.3, STATE_B, 12, MODE_MIXED)
        assert len(calls) == 1
