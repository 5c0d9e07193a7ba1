"""Online learning: ingest, incremental fine-tune, and hot index swap.

The acceptance bars of the online subsystem:

* **Ingest is transactional** — a poison batch (corrupt record,
  disordered timestamps, duplicate pairs, shrunk universe) raises a
  typed :class:`StreamError` before any mutation; the replay cursor and
  the dataset are exactly as they were.
* **Fine-tune preserves the warm model and grows the cold one** — a
  checkpointed model resized over streamed-in users/items keeps its
  existing rows bit-identical, initializes new rows on the manifold,
  and fine-tunes to finite losses and finite cold-start scores for
  LogiRec++, HGCF, and BPRMF alike.
* **Swaps drop nothing** — under the PR8 open-loop load generator a
  front-end index swap completes with zero hard failures and zero
  dropped requests, and scores for unchanged users are bit-identical
  before/after swapping in a bit-identically rebuilt index.

The swap-under-load drill forks real worker processes; it is kept to
one small drill with generous timing margins for 1-CPU CI boxes.
"""

import json
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.weighting import consistency_weights
from repro.data import (StreamError, SyntheticConfig, generate_dataset,
                        load_dataset_file, save_dataset, temporal_split)
from repro.data.dataset import InteractionDataset
from repro.experiments.runner import build_model
from repro.online import (EventJournal, InteractionEvent, OnlineLoop,
                          StreamIngestor, export_online_index,
                          full_split, incremental_finetune,
                          recency_tail_split, recency_weights,
                          simulate_events, tag_prior_neighbors)
from repro.serve import (RecommendService, ServiceConfig, build_index,
                         save_checkpoint)
from repro.taxonomy import LogicalRelations


@pytest.fixture()
def dataset() -> InteractionDataset:
    return generate_dataset(SyntheticConfig(n_users=40, n_items=60,
                                            depth=3, branching=3,
                                            mean_interactions=10.0,
                                            seed=4))


@pytest.fixture()
def trained(dataset):
    """A trained BPRMF + checkpoint dir factory (fresh per test)."""
    split = temporal_split(dataset)
    model = build_model("BPRMF", dataset, seed=0)
    model.config.epochs = 2
    model.fit(dataset, split)
    return dataset, split, model


def _next_t(ds: InteractionDataset) -> int:
    return int(ds.timestamps.max()) + 1


# ----------------------------------------------------------------------
# Event journal: round-trip, replay cursors, torn writes, corruption
# ----------------------------------------------------------------------
class TestEventJournal:
    def test_append_read_round_trip(self, tmp_path):
        journal = EventJournal(tmp_path / "j.jsonl")
        events = [InteractionEvent(1, 2, 10), InteractionEvent(3, 4, 11)]
        end = journal.append(events)
        got, cursor = journal.read()
        assert got == events
        assert cursor == end == journal.size()

    def test_offset_resume_and_max_events(self, tmp_path):
        journal = EventJournal(tmp_path / "j.jsonl")
        events = [InteractionEvent(u, u, 10 + u) for u in range(5)]
        journal.append(events)
        first, cursor = journal.read(max_events=2)
        rest, end = journal.read(offset=cursor)
        assert first + rest == events
        assert end == journal.size()
        # A persisted cursor survives process restart semantics: a new
        # journal object over the same file resumes identically.
        again, _ = EventJournal(journal.path).read(offset=cursor)
        assert again == rest

    def test_torn_final_line_is_not_an_error(self, tmp_path):
        journal = EventJournal(tmp_path / "j.jsonl")
        journal.append([InteractionEvent(1, 1, 10)])
        with open(journal.path, "ab") as fh:
            fh.write(b'{"u":2,"i":2')  # in-progress append, no newline
        events, cursor = journal.read()
        assert [e.user_id for e in events] == [1]
        # Cursor stops at the line boundary before the torn tail...
        assert cursor < journal.size()
        # ...and picks the event up once the writer finishes the line.
        with open(journal.path, "ab") as fh:
            fh.write(b',"t":11}\n')
        more, _ = journal.read(offset=cursor)
        assert more == [InteractionEvent(2, 2, 11)]

    def test_corrupt_record_raises_stream_error_with_offset(self, tmp_path):
        journal = EventJournal(tmp_path / "j.jsonl")
        journal.append([InteractionEvent(1, 1, 10)])
        _, cursor = journal.read()
        journal.append([InteractionEvent(2, 2, 11)])
        blob = bytearray(journal.path.read_bytes())
        blob[cursor + 2] ^= 0xFF
        journal.path.write_bytes(bytes(blob))
        with pytest.raises(StreamError, match=f"byte {cursor}"):
            journal.read(offset=cursor)
        # The clean prefix is still readable.
        ok, _ = journal.read(offset=0, max_events=1)
        assert ok == [InteractionEvent(1, 1, 10)]

    def test_missing_fields_raise_stream_error(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_bytes(b'{"u": 1, "i": 2}\n')
        with pytest.raises(StreamError, match="u/i/t"):
            EventJournal(path).read()

    def test_simulated_events_satisfy_ingest_invariants(self, dataset):
        events = simulate_events(dataset, 30, n_new_users=2,
                                 n_new_items=3, seed=7)
        assert len(events) == 30
        t = [e.timestamp for e in events]
        assert t == sorted(t) and t[0] > int(dataset.timestamps.max())
        pairs = {(e.user_id, e.item_id) for e in events}
        assert len(pairs) == 30  # no intra-stream duplicates
        # Every cold-start entity is covered at least once.
        users = {e.user_id for e in events}
        items = {e.item_id for e in events}
        assert {dataset.n_users, dataset.n_users + 1} <= users
        assert {dataset.n_items + j for j in range(3)} <= items


# ----------------------------------------------------------------------
# append_interactions: the transactional invariant gate
# ----------------------------------------------------------------------
class TestAppendInteractions:
    def _snapshot(self, ds):
        return (ds.user_ids.copy(), ds.item_ids.copy(),
                ds.timestamps.copy(), ds.n_users, ds.n_items)

    def _unchanged(self, ds, snap):
        u, i, t, nu, ni = snap
        return (np.array_equal(ds.user_ids, u)
                and np.array_equal(ds.item_ids, i)
                and np.array_equal(ds.timestamps, t)
                and ds.n_users == nu and ds.n_items == ni)

    def test_append_grows_universe_and_counts(self, dataset):
        t0 = _next_t(dataset)
        old = dataset.n_interactions
        summary = dataset.append_interactions(
            [dataset.n_users, 0], [dataset.n_items, dataset.n_items + 1],
            [t0, t0 + 1])
        assert summary["n_new_users"] == 1
        assert summary["n_new_items"] == 2
        assert dataset.n_interactions == old + 2
        # New items got empty tag rows; Q covers the grown universe.
        assert dataset.item_tags.shape[0] == dataset.n_items

    @pytest.mark.parametrize("mutation,match", [
        (lambda ds, t: ([0], [1, 2], [t]), "equal length"),
        (lambda ds, t: ([-1], [0], [t]), "negative"),
        (lambda ds, t: ([0, 0], [1, 2], [t + 1, t]), "out-of-order"),
        (lambda ds, t: ([0], [ds.n_items - 1], [0]), "precede"),
        (lambda ds, t: ([0, 0], [1, 1], [t, t]), "within batch"),
    ])
    def test_poison_batches_reject_without_mutation(self, dataset,
                                                    mutation, match):
        snap = self._snapshot(dataset)
        users, items, times = mutation(dataset, _next_t(dataset))
        with pytest.raises(StreamError, match=match):
            dataset.append_interactions(users, items, times)
        assert self._unchanged(dataset, snap)

    def test_duplicate_against_existing_rejected(self, dataset):
        u0, i0 = int(dataset.user_ids[0]), int(dataset.item_ids[0])
        snap = self._snapshot(dataset)
        with pytest.raises(StreamError, match="against existing"):
            dataset.append_interactions([u0], [i0], [_next_t(dataset)])
        assert self._unchanged(dataset, snap)

    def test_universe_may_only_grow(self, dataset):
        with pytest.raises(StreamError, match="only grow"):
            dataset.append_interactions([0], [0], [_next_t(dataset)],
                                        n_users=dataset.n_users - 1)


# ----------------------------------------------------------------------
# StreamIngestor: cursor discipline and duplicate policy
# ----------------------------------------------------------------------
class TestStreamIngestor:
    def test_drain_folds_stream_into_dataset(self, dataset, tmp_path):
        journal = EventJournal(tmp_path / "j.jsonl")
        journal.append(simulate_events(dataset, 25, n_new_users=2,
                                       n_new_items=1, seed=3))
        ingestor = StreamIngestor(dataset, journal)
        totals = ingestor.drain(batch_size=7)
        assert totals["n_appended"] == 25
        assert totals["n_new_users"] == 2 and totals["n_new_items"] == 1
        assert ingestor.lag_bytes() == 0
        # Idempotent once drained.
        assert ingestor.drain()["n_read"] == 0

    def test_duplicates_skipped_by_default_error_when_strict(
            self, dataset, tmp_path):
        t0 = _next_t(dataset)
        u0, i0 = int(dataset.user_ids[0]), int(dataset.item_ids[0])
        seen = set(zip(dataset.user_ids.tolist(),
                       dataset.item_ids.tolist()))
        i1 = next(i for i in range(dataset.n_items) if (u0, i) not in seen)
        journal = EventJournal(tmp_path / "j.jsonl")
        journal.append([InteractionEvent(u0, i0, t0),   # re-delivery
                        InteractionEvent(u0, i1, t0),
                        InteractionEvent(u0, i1, t0)])  # repeat in batch
        old_n = dataset.n_interactions

        strict = StreamIngestor(dataset, journal, on_duplicate="error")
        with pytest.raises(StreamError, match="duplicate"):
            strict.poll()
        assert strict.offset == 0  # nothing consumed on failure

        lax = StreamIngestor(dataset, journal)
        summary = lax.poll()
        assert summary["n_duplicates"] == 2
        assert summary["n_appended"] == 1
        assert dataset.n_interactions == old_n + 1
        assert lax.lag_bytes() == 0  # the duplicates were consumed

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_duplicate_prefilter_matches_a_seen_set(self, data):
        """The flat-key prefilter marks exactly what a set of seen pairs,
        grown event by event, marks: held pairs and repeats after the
        first occurrence."""
        dataset = _restart_dataset()
        held = st.integers(0, dataset.n_interactions - 1).map(
            lambda j: (int(dataset.user_ids[j]), int(dataset.item_ids[j])))
        fresh = st.tuples(st.integers(0, dataset.n_users + 2),
                          st.integers(0, dataset.n_items + 2))
        pairs = data.draw(st.lists(held | fresh, min_size=1, max_size=60))
        seen = set(zip(dataset.user_ids.tolist(),
                       dataset.item_ids.tolist()))
        expected = []
        for pair in pairs:
            expected.append(pair in seen)
            seen.add(pair)
        users, items = np.array(pairs, dtype=np.int64).T
        ingestor = StreamIngestor(dataset, EventJournal("unused.jsonl"))
        assert ingestor._duplicates(users, items).tolist() == expected

    def test_negative_id_aliasing_a_held_pair_raises_under_skip(
            self, dataset, tmp_path):
        """``(u + 1, i - n_items)`` has the flat key of the held pair
        ``(u, i)``; the duplicate prefilter must not skip it, so the
        negative id reaches validation and nothing is consumed."""
        u0, i0 = int(dataset.user_ids[0]), int(dataset.item_ids[0])
        journal = EventJournal(tmp_path / "j.jsonl")
        journal.append([InteractionEvent(u0 + 1, i0 - dataset.n_items,
                                         _next_t(dataset))])
        old_n = dataset.n_interactions
        ingestor = StreamIngestor(dataset, journal)
        with pytest.raises(StreamError, match="negative"):
            ingestor.poll()
        assert ingestor.offset == 0
        assert dataset.n_interactions == old_n

    def test_cursor_does_not_advance_past_corruption(self, dataset,
                                                     tmp_path):
        journal = EventJournal(tmp_path / "j.jsonl")
        journal.append(simulate_events(dataset, 4, seed=1))
        blob = bytearray(journal.path.read_bytes())
        blob[3] ^= 0xFF
        journal.path.write_bytes(bytes(blob))
        ingestor = StreamIngestor(dataset, journal)
        with pytest.raises(StreamError):
            ingestor.drain()
        assert ingestor.offset == 0
        assert ingestor.counters["events_ingested"] == 0


# ----------------------------------------------------------------------
# Dataset io round-trip (satellite regression)
# ----------------------------------------------------------------------
class TestDatasetIO:
    def test_round_trip_preserves_timestamps_dtype_and_order(
            self, dataset, tmp_path):
        save_dataset(dataset, tmp_path / "snap")
        loaded = load_dataset_file(tmp_path / "snap")
        assert loaded.timestamps.dtype == np.int64
        assert np.array_equal(loaded.timestamps, dataset.timestamps)
        assert np.array_equal(loaded.user_ids, dataset.user_ids)
        assert np.array_equal(loaded.item_ids, dataset.item_ids)
        # Recency weighting is a pure function of the timestamp vector,
        # so the round-trip keeps it deterministic.
        assert np.array_equal(recency_weights(loaded.timestamps, 5.0),
                              recency_weights(dataset.timestamps, 5.0))

    def test_dotted_stems_do_not_collide(self, dataset, tmp_path):
        """``snap.v1`` and ``snap.v2`` must not collapse to one file."""
        save_dataset(dataset, tmp_path / "snap.v1")
        grown = load_dataset_file(tmp_path / "snap.v1")
        grown.append_interactions([0], [grown.n_items],
                                  [_next_t(grown)])
        save_dataset(grown, tmp_path / "snap.v2")
        v1 = load_dataset_file(tmp_path / "snap.v1")
        v2 = load_dataset_file(tmp_path / "snap.v2")
        assert v1.n_interactions == dataset.n_interactions
        assert v2.n_interactions == dataset.n_interactions + 1
        assert v2.n_items == dataset.n_items + 1


# ----------------------------------------------------------------------
# Recency weighting and the weighted consistency variant
# ----------------------------------------------------------------------
class TestRecencyWeighting:
    def test_recency_weights_decay_by_half_life(self):
        t = np.array([0, 5, 10])
        w = recency_weights(t, half_life=5.0)
        assert w == pytest.approx([0.25, 0.5, 1.0])
        with pytest.raises(ValueError):
            recency_weights(t, half_life=0.0)

    def test_tail_split_is_the_newest_slice(self, dataset):
        split = recency_tail_split(dataset, tail_frac=0.25)
        n_tail = len(split.train)
        assert n_tail == round(0.25 * dataset.n_interactions)
        tail_min = dataset.timestamps[split.train].min()
        rest = np.setdiff1d(np.arange(dataset.n_interactions),
                            split.train)
        assert dataset.timestamps[rest].max() <= tail_min
        assert len(split.valid) == len(split.test) == 0

    @staticmethod
    def _consistency(dataset, indices, weights=None):
        users, tags, occ_weights = dataset.tag_occurrences(indices, weights)
        return consistency_weights(users, tags, dataset.relations,
                                   dataset.n_users, weights=occ_weights)

    def test_unit_weights_reduce_to_offline_consistency(self, dataset):
        """With all weights 1, the online CON_u equals Eq. 12 exactly."""
        indices = np.arange(dataset.n_interactions, dtype=np.int64)
        online = self._consistency(dataset, indices, np.ones(len(indices)))
        offline = self._consistency(dataset, indices)
        assert (offline < 1.0).any()  # some user holds an exclusion
        assert online.tobytes() == offline.tobytes()

    def test_stale_conflicts_decay_toward_one(self, dataset):
        """CON_u under heavy decay is >= CON_u with full weights."""
        indices = np.arange(dataset.n_interactions, dtype=np.int64)
        full = self._consistency(dataset, indices, np.ones(len(indices)))
        decayed = self._consistency(
            dataset, indices,
            recency_weights(dataset.timestamps[indices], half_life=0.5))
        assert np.all(decayed >= full - 1e-12)

    def test_weighted_tf_degenerate_cases(self):
        relations = LogicalRelations(
            membership=np.zeros((0, 2), dtype=np.int64),
            hierarchy=np.zeros((0, 2), dtype=np.int64),
            exclusion=np.array([[3, 4]]),
            exclusion_levels=np.array([2]))
        users = np.zeros(2, dtype=np.int64)
        tags = np.array([3, 4])
        assert consistency_weights(users, tags, relations, 1)[0] < 1.0
        assert consistency_weights(users[:1], tags[:1], relations, 1,
                                   weights=np.array([1.0]))[0] == 1.0
        # Effective evidence below one tag occurrence: no assertions.
        assert consistency_weights(users, tags, relations, 1,
                                   weights=np.array([0.1, 0.1]))[0] == 1.0


# ----------------------------------------------------------------------
# Embedding resize + cold-start fine-tune across model families
# ----------------------------------------------------------------------
class TestIncrementalFinetune:
    def _grow(self, dataset, n_events=20, n_new_users=2, n_new_items=2,
              seed=5):
        events = simulate_events(dataset, n_events, n_new_users,
                                 n_new_items, seed=seed)
        users = np.array([e.user_id for e in events])
        items = np.array([e.item_id for e in events])
        times = np.array([e.timestamp for e in events])
        dataset.append_interactions(users, items, times)

    def test_resize_preserves_warm_rows_bit_identically(self, trained):
        dataset, _, model = trained
        warm = {p.name: p.data.copy() for p in model.parameters()}
        growth = model.resize_universe(dataset.n_users + 3,
                                       dataset.n_items + 2)
        assert growth["new_users"] == 3 and growth["new_items"] == 2
        assert growth["grown_parameters"]  # something actually grew
        for p in model.parameters():
            old = warm[p.name]
            assert np.array_equal(p.data[:len(old)], old)
            assert np.all(np.isfinite(p.data))

    def test_resize_rejects_shrink(self, trained):
        _, _, model = trained
        with pytest.raises(ValueError, match="only grow"):
            model.resize_universe(model.n_users - 1, model.n_items)

    def test_tag_prior_neighbors_share_tags(self, dataset):
        old_items = dataset.n_items
        q = dataset.item_tags
        # Grow by one item carrying item 0's exact tag row.
        import scipy.sparse as sp
        grown_q = sp.vstack([q, q[0]]).tocsr()
        dataset.append_interactions([0], [old_items], [_next_t(dataset)],
                                    item_tags=grown_q)
        neighbors = tag_prior_neighbors(dataset, old_items)
        assert old_items in neighbors
        nbs = neighbors[old_items]
        overlaps = (q[nbs] @ q[0].T).toarray().ravel()
        assert np.all(overlaps > 0)

    @pytest.mark.parametrize("model_name",
                             ["LogiRec++", "HGCF", "BPRMF"])
    def test_cold_start_finetune_smoke(self, dataset, tmp_path,
                                       model_name):
        split = temporal_split(dataset)
        model = build_model(model_name, dataset, seed=0)
        model.config.epochs = 2
        model.fit(dataset, split)
        save_checkpoint(model, tmp_path / "ck", dataset=dataset)

        self._grow(dataset)
        record = incremental_finetune(tmp_path / "ck", dataset,
                                      epochs=2, tail_frac=0.5)
        tuned = record["model"]
        assert record["growth"]["new_users"] == 2
        assert tuned.n_users == dataset.n_users
        assert np.isfinite(record["final_loss"])
        # Cold entities score finitely against the whole catalogue.
        cold_scores = tuned.score_users(
            np.arange(dataset.n_users - 2, dataset.n_users))
        assert cold_scores.shape == (2, dataset.n_items)
        assert np.all(np.isfinite(cold_scores))

    def test_logirec_pp_computes_consistency_once(self, dataset, tmp_path,
                                                  monkeypatch):
        """One Eq. 11/12 pass per fine-tune, from the recency-weighted
        tail the split carries, and no per-instance ``prepare``."""
        import repro.core.logirec_pp as logirec_pp

        split = temporal_split(dataset)
        model = build_model("LogiRec++", dataset, seed=0)
        model.config.epochs = 1
        model.fit(dataset, split)
        save_checkpoint(model, tmp_path / "ck", dataset=dataset)
        self._grow(dataset)

        calls = []
        kernel = logirec_pp.consistency_weights

        def counting(*args, **kwargs):
            con = kernel(*args, **kwargs)
            calls.append((kwargs.get("weights"), con))
            return con

        monkeypatch.setattr(logirec_pp, "consistency_weights", counting)
        record = incremental_finetune(tmp_path / "ck", dataset, epochs=2,
                                      tail_frac=0.5)
        assert len(calls) == 1
        assert "prepare" not in vars(record["model"])
        tail = record["split"]
        np.testing.assert_array_equal(
            tail.train_weights,
            recency_weights(dataset.timestamps[tail.train],
                            record["half_life"]))
        weights, con = calls[0]
        assert weights is not None and weights.min() < 1.0
        assert record["model"].user_weights()["con"].tobytes() \
            == con.tobytes()

    def test_finetune_requires_positive_tail(self, dataset):
        with pytest.raises(ValueError, match="tail_frac"):
            recency_tail_split(dataset, tail_frac=0.0)


# ----------------------------------------------------------------------
# Hot swap: engine-level, seen-mask extension, and under-load drill
# ----------------------------------------------------------------------
class TestHotSwap:
    def test_engine_swap_is_invisible_for_identical_index(self, trained):
        dataset, split, model = trained
        index = build_index(model, dataset, split)
        rebuilt = build_index(model, dataset, split)
        service = RecommendService(index,
                                   ServiceConfig(k=10, cache_size=0))
        users = range(min(10, dataset.n_users))
        before = [r["items"] for r in service.query_batch(users)]
        summary = service.swap_index(rebuilt)
        after = [r["items"] for r in service.query_batch(users)]
        assert before == after
        assert summary["swaps"] == 1
        assert service.fallback_index is index  # stale-index safety net
        assert service.stats["index_swaps"] == 1

    def test_with_extended_seen_masks_streamed_pairs(self, trained):
        dataset, split, model = trained
        index = build_index(model, dataset, split)
        uid = 0
        ranked = RecommendService(
            index, ServiceConfig(k=5, cache_size=0)).query(uid)["items"]
        fresh = index.with_extended_seen(np.array([uid]),
                                        np.array([ranked[0]]))
        re_ranked = RecommendService(
            fresh, ServiceConfig(k=5, cache_size=0)).query(uid)["items"]
        assert ranked[0] not in re_ranked
        assert fresh.meta["generation"] == index.meta.get(
            "generation", 0) + 1
        # Score tables are shared, not copied.
        assert all(np.shares_memory(fresh.arrays[name],
                                    index.arrays[name])
                   for name in index.arrays)

    def test_full_split_covers_every_interaction(self, dataset):
        split = full_split(dataset)
        assert len(split.train) == dataset.n_interactions
        assert len(split.valid) == len(split.test) == 0

    def test_swap_under_load_drill(self, tmp_path):
        from repro.online import run_swap_drill
        record = run_swap_drill(epochs=1, finetune_epochs=1,
                                n_workers=2, qps=60.0, n_events=25,
                                n_new_users=2, n_new_items=1,
                                workdir=tmp_path, seed=0)
        assert record["zero_hard_failures"], record["load"]
        assert record["zero_dropped"], record["load"]
        assert record["identity_preserved"]
        assert record["cold_start_served"]
        assert record["passed"]

    def test_online_serve_drill_degrades_and_recovers(self, tmp_path):
        from repro.online import run_online_serve_drill
        record = run_online_serve_drill(epochs=1, finetune_epochs=1,
                                        n_requests=30, n_events=15,
                                        workdir=tmp_path, seed=0)
        assert record["all_valid"]
        assert record["degraded_mode_held"]
        assert record["recovered"]
        assert record["passed"]


# ----------------------------------------------------------------------
# Stream fault drills (repro robust inject stream)
# ----------------------------------------------------------------------
class TestStreamDrills:
    @pytest.mark.parametrize("kind", ["journal_corrupt",
                                      "event_disorder",
                                      "event_duplicate"])
    def test_stream_faults_detected_and_contained(self, tmp_path, kind):
        from repro.robust.drills import run_stream_drill
        record = run_stream_drill(kind=kind, n_events=15,
                                  workdir=tmp_path / kind, seed=0)
        assert record["detected"], record
        assert record["contained"], record
        assert record["passed"]


# ----------------------------------------------------------------------
# OnlineLoop: the durable ingest -> finetune -> swap cycle
# ----------------------------------------------------------------------
class TestOnlineLoop:
    def test_full_cycle_and_restart(self, tmp_path):
        loop = OnlineLoop(tmp_path, model_name="BPRMF",
                          dataset_name="cd", seed=0)
        t0 = time.perf_counter()
        record = loop.run_cycle(n_events=20, n_new_users=2,
                                n_new_items=1, bootstrap_epochs=1,
                                finetune_epochs=1)
        cycle_s = time.perf_counter() - t0
        assert record["bootstrap"]["bootstrapped"]
        assert record["ingest"]["n_appended"] == 20
        assert record["swap"]["version"] == 2
        assert record["cold_start"]["hit_rate"] == 1.0
        assert 0.0 <= record["swap"]["event_to_servable_s"] < cycle_s + 1.0
        assert loop.current_version() == 2

        n_after_first = loop.status()["n_interactions"]

        # A fresh loop over the same workdir restores all durable state
        # and does not re-bootstrap.
        again = OnlineLoop(tmp_path, model_name="BPRMF",
                           dataset_name="cd", seed=0)
        assert again.ingestor.lag_bytes() == 0
        record2 = again.run_cycle(n_events=15, n_new_users=1,
                                  n_new_items=0, finetune_epochs=1)
        assert not record2["bootstrap"]["bootstrapped"]
        assert record2["swap"]["version"] == 3
        assert again.status()["n_interactions"] == n_after_first + 15

    def test_snapshot_write_dying_partway_keeps_previous(
            self, dataset, tmp_path, monkeypatch):
        """An ingest whose snapshot rewrite dies after two of the arrays
        leaves the previous snapshot in place; a restart replays the
        journal onto it and holds every ingested event."""
        from numpy.lib import format as npy_format

        save_dataset(dataset, tmp_path / "dataset")
        previous = (tmp_path / "dataset.npz").read_bytes()
        loop = OnlineLoop(tmp_path, seed=0)
        # Every journal record is at least 20 bytes, so these events
        # outgrow the snapshot and the ingest rewrites it.
        n_events = len(previous) // 20 + 1
        loop.append_events(simulate_events(loop.dataset, n_events, seed=1))
        write_array = npy_format.write_array
        calls = []

        def dies_on_third_array(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise OSError("simulated kill during the snapshot write")
            return write_array(*args, **kwargs)

        monkeypatch.setattr(npy_format, "write_array", dies_on_third_array)
        with pytest.raises(OSError, match="simulated kill"):
            loop.ingest()
        monkeypatch.undo()

        assert (tmp_path / "dataset.npz").read_bytes() == previous
        assert not (tmp_path / "dataset.npz.tmp").exists()
        restarted = OnlineLoop(tmp_path, seed=0)
        assert (restarted.dataset.n_interactions
                == dataset.n_interactions + n_events)
        assert restarted.ingest()["n_appended"] == 0

    def test_append_events_accepts_a_generator(self, tmp_path):
        loop = OnlineLoop(tmp_path, seed=0)
        events = simulate_events(loop.dataset, 5, seed=1)
        record = loop.append_events(event for event in events)
        assert record["n_events"] == 5
        replayed, end = loop.journal.read(0)
        assert replayed == events
        assert record["journal_bytes"] == end

    def test_swap_hot_swaps_attached_service(self, tmp_path):
        loop = OnlineLoop(tmp_path, seed=0)
        loop.bootstrap(epochs=1)
        from repro.serve.index import load_index
        service = RecommendService(
            load_index(loop.current_index_path()),
            ServiceConfig(k=5, cache_size=0))
        loop.attach(service)
        loop.simulate(12, n_new_users=1)
        loop.ingest()
        loop.finetune(epochs=1)
        record = loop.swap()
        assert record["version"] == 2
        assert len(record["live_swaps"]) == 1
        assert service.stats["index_swaps"] == 1
        # The attached service now serves the streamed-in cold user.
        cold = service.query(loop.dataset.n_users - 1)
        assert cold["source"] == "index"

    def test_current_pointer_flip_is_atomic_artifact(self, tmp_path):
        loop = OnlineLoop(tmp_path, seed=0)
        loop.bootstrap(epochs=1)
        current = (tmp_path / "CURRENT").read_text().strip()
        assert current == "index.v1"
        assert not (tmp_path / "CURRENT.tmp").exists()
        state = json.loads((tmp_path / "state.json").read_text())
        assert state["index_version"] == 1


# ----------------------------------------------------------------------
# Restart: snapshot + journal[covered, cursor) == live dataset
# ----------------------------------------------------------------------
class _Killed(BaseException):
    """A process kill right after a durable write."""


def _restart_dataset() -> InteractionDataset:
    """Small enough that a few hundred events outgrow its snapshot, with
    room for a thousand more pairs."""
    return generate_dataset(SyntheticConfig(n_users=30, n_items=40,
                                            depth=2, branching=2,
                                            mean_interactions=2.0, seed=4))


def _dataset_bytes(ds: InteractionDataset) -> tuple:
    q = ds.item_tags
    return (ds.n_users, ds.n_items, ds.user_ids.tobytes(),
            ds.item_ids.tobytes(), ds.timestamps.tobytes(),
            q.indptr.tobytes(), q.indices.tobytes(), q.data.tobytes())


def _drive(workdir, batches, kill_at=None) -> tuple:
    """Append then ingest each batch, the process killed right after
    durable write number ``kill_at`` (a journal append, a ``state.json``
    write, a completed snapshot); the restarted loop retries the step
    the kill interrupted, the producer re-sending its whole batch.

    Returns the live dataset's bytes, after checking that a fresh
    restart (snapshot + journal replay) holds the same bytes.
    """
    import os
    from unittest import mock

    save_dataset(_restart_dataset(), workdir / "dataset")
    writes = []

    def after_write(result, target=""):
        # A kill between a snapshot's arrays file and its manifest
        # leaves a torn pair, detected by the checksum, not replayable.
        if not str(target).endswith(".npz"):
            writes.append(target)
            if len(writes) == kill_at:
                raise _Killed
        return result

    replace, append = os.replace, EventJournal.append
    steps = [step for batch in batches
             for step in (("append", batch), ("ingest", None))]
    loop = OnlineLoop(workdir, seed=0)
    with mock.patch("os.replace", lambda src, dst: after_write(
            replace(src, dst), dst)), \
            mock.patch.object(EventJournal, "append", lambda self, ev:
                              after_write(append(self, ev))):
        done = 0
        while done < len(steps):
            verb, batch = steps[done]
            try:
                if verb == "append":
                    loop.append_events(batch)
                else:
                    loop.ingest()
                done += 1
            except _Killed:
                loop = OnlineLoop(workdir, seed=0)
    live = _dataset_bytes(loop.dataset)
    assert _dataset_bytes(OnlineLoop(workdir, seed=0).dataset) == live
    return live


class TestRestartReplay:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(sizes=st.lists(st.integers(1, 150), min_size=1, max_size=5),
           kill_at=st.integers(1, 20))
    def test_kill_at_any_write_then_restart_matches_uninterrupted(
            self, tmp_path_factory, sizes, kill_at):
        events = simulate_events(_restart_dataset(), 750, n_new_users=4,
                                 n_new_items=4, seed=2)
        bounds = np.cumsum([0] + sizes)
        batches = [events[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
        expected = _drive(tmp_path_factory.mktemp("clean"), batches)
        assert _drive(tmp_path_factory.mktemp("killed"), batches,
                      kill_at) == expected

    def test_replay_after_snapshot_rewrites(self, tmp_path):
        """Enough events to rewrite the snapshot; a restart loads the
        rewritten snapshot and replays only the journal past it."""
        save_dataset(_restart_dataset(), tmp_path / "dataset")
        loop = OnlineLoop(tmp_path, seed=0)
        for seed in range(4):
            loop.append_events(simulate_events(loop.dataset, 100, seed=seed))
            loop.ingest()
        manifest = json.loads(
            (tmp_path / "dataset.taxonomy.json").read_text())
        assert 0 < manifest["journal_offset"] < loop.journal.size()
        restarted = OnlineLoop(tmp_path, seed=0)
        assert restarted.ingestor.offset == loop.journal.size()
        assert (_dataset_bytes(restarted.dataset)
                == _dataset_bytes(loop.dataset))

    def test_replay_failing_partway_raises_on_every_access(self, tmp_path):
        """A record damaged behind the cursor, past the first replay
        batch, fails every restart access; none returns the dataset
        half-replayed."""
        save_dataset(generate_dataset(SyntheticConfig(
            n_users=300, n_items=400, depth=2, branching=2,
            mean_interactions=12.0, seed=4)), tmp_path / "dataset")
        loop = OnlineLoop(tmp_path, seed=0)
        loop.append_events(simulate_events(loop.dataset, 1100, seed=1))
        loop.ingest()
        assert loop.ingestor.offset > json.loads(
            (tmp_path / "dataset.taxonomy.json").read_text()
        )["journal_offset"]  # still to replay
        blob = bytearray(loop.journal.path.read_bytes())
        blob[-3] ^= 0xFF  # inside the last record, past 1024 events
        loop.journal.path.write_bytes(bytes(blob))
        restarted = OnlineLoop(tmp_path, seed=0)
        for _ in range(2):
            with pytest.raises(StreamError):
                restarted.dataset

    def test_work_counters_are_deterministic(self, dataset, tmp_path):
        """``online/snapshot_bytes_written`` and ``online/events_replayed``
        count the same work on two runs of the same seed."""
        from repro import obs

        def counters(workdir):
            save_dataset(dataset, workdir / "dataset")
            run = obs.start_run(run_dir=workdir / "run")
            try:
                loop = OnlineLoop(workdir, seed=0)
                for n_events in (300, 300, 300, 5):
                    loop.append_events(simulate_events(
                        loop.dataset, n_events, seed=n_events))
                    loop.ingest()
                OnlineLoop(workdir, seed=0).dataset
                return run.registry.snapshot()["counters"]
            finally:
                obs.finish_run()

        first = counters(tmp_path / "a")
        assert first == counters(tmp_path / "b")
        assert first["online/snapshot_bytes_written"] > 0
        assert first["online/events_replayed"] > 0
