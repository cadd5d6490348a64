"""Tests for repro.ps (network cost models, KVStore, parameter server)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optim.sgd import SparseSGD
from repro.ps.kvstore import ShardedKVStore
from repro.ps.network import (
    BYTES_PER_ELEMENT,
    CommRecord,
    ComputeModel,
    NetworkModel,
    meter_rows,
)
from repro.ps.server import ParameterServer


@pytest.fixture
def store():
    entity = np.arange(20, dtype=np.float64).reshape(10, 2)
    relation = np.arange(12, dtype=np.float64).reshape(4, 3)
    owner = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2, 0])
    return ShardedKVStore(entity, relation, owner, num_machines=3)


@pytest.fixture
def server(store):
    return ParameterServer(store, SparseSGD(lr=1.0))


class TestCommRecord:
    def test_merge(self):
        a = CommRecord(local_bytes=1, remote_bytes=2, local_messages=1, remote_messages=1)
        b = CommRecord(local_bytes=10, remote_bytes=20, remote_messages=3)
        a.merge(b)
        assert a.local_bytes == 11
        assert a.remote_bytes == 22
        assert a.remote_messages == 4
        assert a.total_bytes == 33
        assert a.total_messages == 5

    def test_total_messages(self):
        r = CommRecord(local_messages=3, remote_messages=7)
        assert r.total_messages == 10
        assert CommRecord().total_messages == 0


class TestNetworkModel:
    def test_remote_time(self):
        net = NetworkModel(bandwidth=100.0, latency=1.0, local_bandwidth=1e12, local_latency=0.0)
        t = net.cost(CommRecord(remote_bytes=200, remote_messages=2))
        assert t == pytest.approx(2 * 1.0 + 200 / 100.0)

    def test_local_cheaper_than_remote(self):
        net = NetworkModel()
        remote = net.cost(CommRecord(remote_bytes=10_000, remote_messages=1))
        local = net.cost(CommRecord(local_bytes=10_000, local_messages=1))
        assert local < remote / 10

    def test_cost_is_pure(self):
        """Estimating a transfer must not change the model.

        Regression: ``time_for`` accumulated totals as a side effect, so
        any caller that merely *estimated* a cost (or costed the same
        record twice) silently inflated the comm tables.  The model now
        keeps no books at all; the machine whose clock pays keeps them."""
        net = NetworkModel()
        before = dict(vars(net))
        record = CommRecord(remote_bytes=100, remote_messages=1)
        assert net.cost(record) == net.cost(record)
        assert vars(net) == before
        assert not hasattr(net, "charge") and not hasattr(net, "totals")

    def test_comm_record_copy_and_difference(self):
        totals = CommRecord()
        totals.merge(CommRecord(remote_bytes=100, local_bytes=10, remote_messages=2))
        snapshot = totals.copy()
        totals.merge(CommRecord(remote_bytes=40, local_messages=1))
        delta = totals.difference(snapshot)
        assert delta.remote_bytes == 40
        assert delta.local_bytes == 0
        assert delta.local_messages == 1
        assert delta.remote_messages == 0
        # the snapshot is decoupled from the live totals
        assert snapshot.remote_bytes == 100

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            NetworkModel(bandwidth=0)
        with pytest.raises(ValueError):
            NetworkModel(latency=-1)


class TestMeterRows:
    @settings(max_examples=200, deadline=None)
    @given(
        owners=st.lists(st.integers(0, 5), max_size=40),
        machine=st.integers(0, 7),
        width=st.integers(1, 64),
        byte_scale=st.sampled_from([1.0, 25.0, 0.3]),
    )
    def test_equals_the_frontend_arithmetic_it_replaced(
        self, owners, machine, width, byte_scale
    ):
        """``ServingFrontend._meter`` used to split ids into local/remote
        sub-arrays and count distinct remote owners with ``np.unique``
        (``ShardedKVStore.split_local_remote``/``remote_machine_count``);
        that arithmetic, inlined here, is what the shared function must
        reproduce bit for bit."""
        owners = np.asarray(owners, dtype=np.int64)
        row_bytes = width * BYTES_PER_ELEMENT * byte_scale
        local = owners[owners == machine]
        remote = owners[owners != machine]
        expected = CommRecord(
            local_bytes=int(len(local) * row_bytes),
            remote_bytes=int(len(remote) * row_bytes),
            local_messages=1 if len(local) else 0,
            remote_messages=len(np.unique(remote)),
        )
        assert meter_rows(owners, machine, row_bytes) == expected


class TestComputeModel:
    def test_batch_time_scales_linearly(self):
        cm = ComputeModel(throughput=1e6)
        assert cm.batch_time(200, 8) == pytest.approx(2 * cm.batch_time(100, 8))
        assert cm.batch_time(100, 16) == pytest.approx(2 * cm.batch_time(100, 8))

    def test_forward_only_halves(self):
        cm = ComputeModel(throughput=1e6)
        assert cm.batch_time(100, 8, backward=False) == pytest.approx(
            cm.batch_time(100, 8) / 2
        )

    def test_overhead_time(self):
        cm = ComputeModel(throughput=1e6)
        assert cm.overhead_time(1000, per_item_ops=10) == pytest.approx(0.01)


class TestShardedKVStore:
    def test_read_returns_copy(self, store):
        rows = store.read("entity", np.array([0]))
        rows[0, 0] = 999.0
        assert store.table("entity")[0, 0] == 0.0

    @pytest.mark.parametrize("backing", ["resident", "shared", "tiered"])
    def test_read_never_shares_memory_with_the_table(self, store, backing):
        """``read`` makes no copy of its own: indexing by an id array is
        already a fresh array on every backing, whatever its length."""
        from repro.mp.shm import SharedArena

        with SharedArena() as arena:
            if backing == "tiered":
                store = store.copy(backing="tiered")
            elif backing == "shared":
                store.rebind("entity", arena.share(store.table("entity")))
            try:
                before = np.array(store.table("entity"))
                for ids in ([], [4], list(range(10))):
                    rows = store.read("entity", np.array(ids, dtype=np.int64))
                    assert rows.shape == (len(ids), 2) and rows.flags.writeable
                    assert np.array_equal(rows, before[ids])
                    if backing != "tiered":
                        assert not np.shares_memory(rows, store.table("entity"))
                    rows += 1000.0
                    assert np.array_equal(np.asarray(store.table("entity")), before)
            finally:
                store.close()

    def test_owners(self, store):
        assert list(store.owners("entity", np.array([0, 3, 6]))) == [0, 1, 2]

    def test_relation_round_robin(self, store):
        assert list(store.owners("relation", np.array([0, 1, 2, 3]))) == [0, 1, 2, 0]

    def test_write(self, store):
        store.write("entity", np.array([2]), np.array([[7.0, 8.0]]))
        assert store.table("entity")[2].tolist() == [7.0, 8.0]

    def test_unknown_kind(self, store):
        with pytest.raises(KeyError):
            store.table("edges")

    def test_owner_length_checked(self):
        with pytest.raises(ValueError, match="entity_owner"):
            ShardedKVStore(np.zeros((3, 2)), np.zeros((1, 2)), np.array([0]), 1)

    def test_owner_range_checked(self):
        with pytest.raises(ValueError, match="out of range"):
            ShardedKVStore(np.zeros((2, 2)), np.zeros((1, 2)), np.array([0, 5]), 2)

    def test_copy_is_equal_and_independent(self, store):
        clone = store.copy()
        for kind in ("entity", "relation"):
            assert np.array_equal(clone.table(kind), store.table(kind))
            assert not np.shares_memory(clone.table(kind), store.table(kind))
        assert np.array_equal(clone.entity_owner, store.entity_owner)
        assert not np.shares_memory(clone.entity_owner, store.entity_owner)
        assert clone.num_machines == store.num_machines
        assert np.array_equal(
            clone.owners("relation", np.arange(4)), store.owners("relation", np.arange(4))
        )
        clone.write("entity", np.array([0]), np.array([[-1.0, -1.0]]))
        clone.grow("entity", np.zeros((1, 2)))
        assert store.table("entity")[0].tolist() == [0.0, 1.0]
        assert len(store.table("entity")) == 10

    def test_copy_to_tiered_backing(self, store):
        tiered = store.copy(backing="tiered")
        try:
            assert tiered.backing == "tiered"
            assert np.array_equal(np.asarray(tiered.table("entity")), store.table("entity"))
            assert np.array_equal(tiered.entity_owner, store.entity_owner)
            tiered.write("entity", np.array([1]), np.array([[9.0, 9.0]]))
            assert store.table("entity")[1].tolist() == [2.0, 3.0]
        finally:
            tiered.close()

    def test_rebind_swaps_storage_of_the_same_shape(self, store):
        replacement = store.table("entity").copy()
        store.rebind("entity", replacement)
        assert store.table("entity") is replacement
        with pytest.raises(ValueError, match="rebind"):
            store.rebind("entity", np.zeros((3, 2)))
        tiered = store.copy(backing="tiered")
        try:
            with pytest.raises(ValueError, match="rebind"):
                tiered.rebind("entity", replacement)
        finally:
            tiered.close()

    def test_memory_bytes(self, store):
        assert store.memory_bytes() == 20 * 8 + 12 * 8


class TestParameterServerPull:
    def test_rows_in_request_order(self, server):
        rows, _ = server.pull("entity", np.array([3, 0]), machine=0)
        assert rows[0].tolist() == [6.0, 7.0]
        assert rows[1].tolist() == [0.0, 1.0]

    def test_comm_split(self, server):
        _, comm = server.pull("entity", np.array([0, 1, 3, 6]), machine=0)
        width_bytes = 2 * BYTES_PER_ELEMENT
        assert comm.local_bytes == 2 * width_bytes
        assert comm.remote_bytes == 2 * width_bytes
        assert comm.remote_messages == 2  # machines 1 and 2
        assert comm.local_messages == 1

    def test_all_local_no_remote_messages(self, server):
        _, comm = server.pull("entity", np.array([0, 1, 2]), machine=0)
        assert comm.remote_bytes == 0
        assert comm.remote_messages == 0

    def test_byte_scale(self, store):
        server = ParameterServer(store, SparseSGD(lr=1.0), byte_scale=25.0)
        _, comm = server.pull("entity", np.array([3]), machine=0)
        assert comm.remote_bytes == 2 * BYTES_PER_ELEMENT * 25

    def test_invalid_byte_scale(self, store):
        with pytest.raises(ValueError):
            ParameterServer(store, SparseSGD(lr=1.0), byte_scale=0)


class TestParameterServerPush:
    def test_applies_optimizer(self, server):
        before = server.store.table("entity")[1].copy()
        server.push("entity", np.array([1]), np.array([[1.0, 1.0]]), machine=0)
        after = server.store.table("entity")[1]
        np.testing.assert_allclose(after, before - 1.0)  # SGD lr=1

    def test_mismatched_grads_rejected(self, server):
        with pytest.raises(ValueError, match="gradient rows"):
            server.push("entity", np.array([0, 1]), np.array([[0.0, 0.0]]), machine=0)

    def test_push_metered_like_pull(self, server):
        comm = server.push("entity", np.array([3]), np.array([[0.0, 0.0]]), machine=0)
        assert comm.remote_bytes > 0
        assert comm.remote_messages == 1


#: Ids a cast to int64 used to turn into some row: ``(ids, message)``.
BAD_IDS = [
    pytest.param([2.9], "entity ids must be integers; got 2.9", id="float"),
    pytest.param([True, False], "entity ids must be integers; got True", id="bool"),
    pytest.param([0, -1], "entity id -1 is out of range for a table of 10 rows", id="negative"),
    pytest.param([3, 10], "entity id 10 is out of range for a table of 10 rows", id="past-end"),
]


class TestParameterServerIds:
    @pytest.mark.parametrize("bad, message", BAD_IDS)
    @pytest.mark.parametrize("backing", ["resident", "tiered"])
    @pytest.mark.parametrize("op", ["pull", "push", "meter", "touched_shards"])
    def test_rejects_ids_that_name_no_row(self, store, op, backing, bad, message):
        """Each of these used to reach a row — 2.9 read row 2, -1 the last
        row, ``[True, False]`` rows 1 and 0 — and a push trained it."""
        from repro.optim.adagrad import SparseAdagrad

        if backing == "tiered":
            store = store.copy(backing="tiered")
        try:
            server = ParameterServer(store, SparseAdagrad(lr=0.1))
            before = {n: np.array(a) for n, a in server.state_arrays().items()}
            calls = {
                "pull": lambda: server.pull("entity", bad, machine=0),
                "push": lambda: server.push(
                    "entity", bad, np.ones((len(bad), 2)), machine=0
                ),
                "meter": lambda: server.meter("entity", bad, machine=0),
                "touched_shards": lambda: server.touched_shards("entity", bad),
            }
            with pytest.raises(ValueError, match=message):
                calls[op]()
            after = server.state_arrays()
            assert list(after) == list(before)
            for name, array in before.items():
                assert np.asarray(after[name]).tobytes() == array.tobytes(), name
        finally:
            store.close()

    def test_names_the_relation_table(self, server):
        with pytest.raises(ValueError, match="relation id 4 is out of range for a table of 4 rows"):
            server.pull("relation", [4], machine=0)

    def test_integer_ids_of_any_width_and_empty_requests_pass(self, server):
        for ids in ([3, 0], np.array([3, 0], dtype=np.int32), np.array([3, 0], dtype=np.uint8)):
            rows, _ = server.pull("entity", ids, machine=0)
            assert rows.tolist() == [[6.0, 7.0], [0.0, 1.0]]
        rows, comm = server.pull("entity", [], machine=0)
        assert rows.shape == (0, 2) and comm.total_bytes == 0
        assert server.meter("entity", np.array([]), machine=0).total_bytes == 0


class TestServerState:
    def test_state_arrays_names_follow_the_optimizer(self, store):
        from repro.optim.adagrad import SparseAdagrad

        assert list(ParameterServer(store, SparseSGD(lr=1.0)).state_arrays()) == [
            "entity", "relation"
        ]
        server = ParameterServer(store, SparseAdagrad(lr=0.1))
        state = server.state_arrays()
        assert list(state) == ["entity", "relation", "opt_entity", "opt_relation"]
        assert state["entity"] is store.table("entity")
        # Describing the state allocates the history, as zeros.
        assert state["opt_relation"].shape == store.table("relation").shape
        assert not state["opt_entity"].any()
        assert server.state_arrays()["opt_entity"] is state["opt_entity"]

    @pytest.mark.parametrize("optimizer", ["adagrad", "sgd"])
    def test_rebind_is_invisible(self, optimizer, small_split):
        """k sweeps, rebind onto copies, k more sweeps == 2k sweeps straight,
        bit for bit — the in-process image of the mp backend's
        share -> train -> restore-to-private cycle."""
        from repro.core.config import TrainingConfig
        from repro.core.trainer import make_trainer

        def run(rebind_after):
            config = TrainingConfig(
                model="transe", dim=8, epochs=1, batch_size=16, num_negatives=4,
                num_machines=2, cache_capacity=64, sync_period=4, dps_window=4,
                optimizer=optimizer, seed=3,
            )
            trainer = make_trainer("hetkg-d", config)
            trainer.setup(small_split.train)
            for worker in trainer.workers:
                worker.start()
            losses = []
            for sweep in range(12):
                if sweep == rebind_after:
                    server = trainer.server
                    old = server.state_arrays()
                    server.rebind({n: a.copy() for n, a in old.items()})
                    for name, array in server.state_arrays().items():
                        assert not np.shares_memory(array, old[name]), name
                losses += [worker.step() for worker in trainer.workers]
            return losses, trainer.server.state_arrays()

        straight_losses, straight = run(rebind_after=None)
        losses, rebound = run(rebind_after=6)
        assert losses == straight_losses
        assert list(rebound) == list(straight)
        for name in straight:
            assert np.array_equal(rebound[name], straight[name]), name
