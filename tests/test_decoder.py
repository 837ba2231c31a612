"""Decoding tests: greedy, beam search, and copy resolution."""

import inspect
import itertools
import math

import numpy as np
import pytest
from hypothesis import Phase, settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 precondition, rule,
                                 run_state_machine_as_test)

from pointer_gpt.decoder import (
    DecodeConfig, beam_search, greedy_decode, make_step_fn, max_steps_within,
)
from pointer_gpt import decoder, model
from pointer_gpt.data import copy_task_vocab_size, synthetic_copy_task
import reference_search
from reference_search import greedy_search
from pointer_gpt.model import (NEG_INF, ModelConfig, forward_hidden,
                               init_params, pointer_step)
from pointer_gpt.tokenizer import (EOS, SEP, UNK, build_vocab, decode,
                                   encode_example, encode_source)
from pointer_gpt.trainer import TrainConfig, train


def tiny_config(seed=0, v=20):
    return ModelConfig(vocab_size=v, d_model=16, n_heads=2, n_layers=1,
                       d_ff=32, max_seq_len=32, seed=seed)


# --- tabular model: a hand-built step function -------------------------

def sparse_step_fn(rows, default):
    """Batched step_fn over {prefix: {id: p}}; unlisted prefixes get the
    `default` row."""
    def step_fn(prefixes):
        out = np.zeros((len(prefixes), 6))
        for r, prefix in enumerate(prefixes):
            for i, p in rows.get(tuple(prefix), default).items():
                out[r, i] = p
        return out

    return step_fn


def counted(step_fn):
    """step_fn and the list of its calls' prefix counts."""
    calls = []

    def fn(prefixes):
        calls.append(len(prefixes))
        return step_fn(prefixes)

    return fn, calls


TABLE = {
    (): [0.01, 0.01, 0.01, 0.01, 0.46, 0.50],
    (5,): [0.30, 0.175, 0.175, 0.175, 0.175, 0.0],
    (4,): [0.0, 0.0, 0.0, 0.05, 0.0, 0.95],
}


def tabular_step_fn(emitted):
    # unlisted prefixes terminate: all mass on EOS
    dist = TABLE.get(tuple(emitted))
    if dist is None:
        dist = [0.0] * 6
        dist[EOS] = 1.0
    return np.asarray(dist)


def batched(step_fn):
    """Lift a one-prefix step function to step_fn(prefixes) -> rows."""
    return lambda prefixes: np.stack([step_fn(p) for p in prefixes])


def enumerate_best(step_fn, max_len, width):
    """Exhaustive search over all id sequences up to max_len."""
    best = (-math.inf, None)

    def walk(prefix, log_prob):
        nonlocal best
        if prefix and prefix[-1] == EOS or len(prefix) == max_len:
            if log_prob > best[0]:
                best = (log_prob, tuple(prefix))
            return
        dist = step_fn(prefix)
        for nxt in range(width):
            p = float(dist[nxt])
            if p <= 0.0:
                continue
            walk(prefix + [nxt], log_prob + math.log(p))

    walk([], 0.0)
    return best


class TestBeamOnTabularModel:
    def test_beam_2_beats_greedy(self):
        greedy = greedy_search(batched(tabular_step_fn), 3)
        beam = beam_search(batched(tabular_step_fn), 3, beam_width=2)
        assert beam.log_prob > greedy.log_prob
        assert greedy.ids == (5, 0, EOS)
        assert beam.ids == (4, 5, EOS)

    def test_beam_matches_exhaustive_enumeration(self):
        best_lp, best_ids = enumerate_best(tabular_step_fn, 3, 6)
        beam = beam_search(batched(tabular_step_fn), 3, beam_width=2)
        assert beam.ids == best_ids
        assert beam.log_prob == pytest.approx(best_lp)

    def test_beam_1_equals_greedy_on_table(self):
        greedy = greedy_search(batched(tabular_step_fn), 3)
        beam = beam_search(batched(tabular_step_fn), 3, beam_width=1)
        assert beam.ids == greedy.ids
        assert beam.log_prob == pytest.approx(greedy.log_prob)


# every hypothesis below that ends in EOS has probability 1/4
TIED = {
    (): [0.0, 0.0, 0.0, 0.0, 0.5, 0.5],
    (4,): [0.0, 0.0, 0.0, 0.5, 0.0, 0.5],
    (5,): [0.0, 0.0, 0.0, 0.5, 0.5, 0.0],
}


class TestBeamTies:
    def test_smaller_ids_win_the_cut_and_the_pick(self):
        # step 2 ranks four candidates at 1/4: (4, EOS) and (4, 5) must
        # survive the cut of 2, not (5, EOS) and (5, 4); then (4, EOS)
        # must beat the finished (4, 5, EOS), also at 1/4
        calls = []

        def step_fn(prefixes):
            calls.append([tuple(p) for p in prefixes])
            return np.stack([np.asarray(TIED.get(tuple(p), np.eye(6)[EOS]))
                             for p in prefixes])

        best = beam_search(step_fn, 3, beam_width=2)
        assert calls == [[()], [(4,), (5,)], [(4, 5)]]
        assert best.ids == (4, EOS)
        assert best.log_prob == 2 * math.log(0.5)


def eos_shy_step_fn(seed, max_len):
    """Batched step_fn over seeded random rows for every live prefix of
    fewer than max_len ids. EOS gets 1e-3 of each row, so the best
    unfinished hypothesis of max_len <= 3 ids, at least (0.999 / 5) ** 3,
    outscores every finished one: the rank's finished-first rule decides."""
    rng = np.random.default_rng(seed)
    live = [i for i in range(6) if i != EOS]
    rows = {prefix: np.insert(rng.dirichlet(np.ones(5)) * 0.999, EOS, 1e-3)
            for n in range(max_len)
            for prefix in itertools.product(live, repeat=n)}
    return lambda prefixes: np.stack([rows[tuple(p)] for p in prefixes])


def ranked_best(step_fn, max_len):
    """Exhaustive best under beam_search's rank: finished (ending in EOS)
    before unfinished (max_len ids), then higher log-prob, then smaller
    ids."""
    ends = []

    def walk(prefix, log_prob):
        if prefix and prefix[-1] == EOS or len(prefix) == max_len:
            ends.append((prefix[-1] != EOS, -log_prob, prefix))
            return
        for nxt, p in enumerate(step_fn([prefix])[0]):
            walk(prefix + (nxt,), log_prob + math.log(p))

    walk((), 0.0)
    _, neg_log_prob, ids = min(ends)
    return ids, -neg_log_prob


def unpruned_mismatches(search):
    """(seed, max_len) cases where search at a width that cuts no candidate
    (6 ** max_len) departs from ranked_best."""
    bad = []
    for seed in range(8):
        for max_len in (1, 2, 3):
            step_fn = eos_shy_step_fn(seed, max_len)
            ids, log_prob = ranked_best(step_fn, max_len)
            hyp = search(step_fn, max_len, beam_width=6 ** max_len)
            if hyp.ids != ids or abs(hyp.log_prob - log_prob) > 1e-6:
                bad.append((seed, max_len))
    return bad


class TestUnprunedBeam:
    def test_unpruned_beam_is_the_exhaustive_best_under_its_rank(self):
        assert unpruned_mismatches(beam_search) == []

    def test_pick_that_ignores_finishedness_is_caught(self):
        # mutation control: the pick ranks finished and live beams together
        source = inspect.getsource(decoder.beam_search)
        assert "min(finished or beams, key=rank)" in source
        namespace = dict(vars(decoder))
        exec(source.replace("min(finished or beams, key=rank)",
                            "min(finished + beams, key=rank)"), namespace)
        assert len(unpruned_mismatches(namespace["beam_search"])) == 24


class TestBeamOnRandomModels:
    def make_model(self, seed):
        cfg = tiny_config(seed=seed)
        params = init_params(cfg)
        rng = np.random.default_rng(seed)
        src = list(rng.integers(5, cfg.vocab_size, size=4)) + [EOS]
        ext = list(src)
        ext[0] = cfg.vocab_size  # one source OOV
        return params, src, ext, cfg

    def test_greedy_equals_beam_1_on_20_models(self):
        for seed in range(20):
            params, src, ext, cfg = self.make_model(seed)
            step_fn = make_step_fn(params, src, ext, 1, cfg)
            greedy = greedy_search(step_fn, 6)
            beam = beam_search(step_fn, 6, beam_width=1)
            assert beam.ids == greedy.ids, "seed %d" % seed
            assert beam.log_prob == pytest.approx(greedy.log_prob)

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_beam_log_prob_at_least_greedy(self, k):
        # Holds on these eight models, not in general: at k=2, seed 16
        # differs by forward rounding and seed 17 returns a finished
        # hypothesis below greedy's unfinished one (finished ranks first).
        for seed in range(8):
            params, src, ext, cfg = self.make_model(seed)
            step_fn = make_step_fn(params, src, ext, 1, cfg)
            greedy = greedy_search(step_fn, 6)
            beam = beam_search(step_fn, 6, beam_width=k)
            assert beam.log_prob >= greedy.log_prob - 1e-9

    def test_emitted_extended_ids_are_real_source_positions(self):
        for seed in range(10):
            params, src, ext, cfg = self.make_model(seed)
            ids = greedy_decode(params, src, ext, 1, cfg,
                                DecodeConfig(max_summary_len=8))
            for i in ids:
                if i >= cfg.vocab_size:
                    assert i in ext

    def test_termination_and_length_bound(self):
        for seed in range(5):
            params, src, ext, cfg = self.make_model(seed)
            for max_len in (1, 3, 8):
                ids = greedy_decode(params, src, ext, 1, cfg,
                                    DecodeConfig(max_summary_len=max_len))
                assert len(ids) <= max_len


# --- incremental decoding against a full-prefix forward per step ----------

def criterion_9_model(seed):
    """The seeded float32 models of acceptance criterion 9, plus a variant
    of their source whose first word is an OOV copy (fed back as UNK)."""
    cfg = ModelConfig(vocab_size=20, d_model=16, n_heads=2, n_layers=1,
                      d_ff=32, max_seq_len=16, seed=seed)
    rng = np.random.default_rng(seed)
    src = list(rng.integers(5, cfg.vocab_size, size=4)) + [EOS]
    return init_params(cfg), src, [cfg.vocab_size] + src[1:], cfg


def full_prefix_step_fn(params, src, ext, oov_count, cfg):
    """Reference: pointer_step over forward_hidden of the whole prefix."""
    def step_fn(emitted):
        feed = [UNK if i >= cfg.vocab_size else i for i in emitted]
        ids = src + [SEP] + feed
        hidden = forward_hidden(params, ids, cfg)
        mixed, _, _ = pointer_step(params, hidden, len(ids) - 1, ext,
                                   oov_count, cfg)
        return mixed

    return step_fn


# the mutation controls below query the cache through the full-length
# search: an early stop would leave the later steps, where a wrong cache
# shows, unasked
SEARCHES = (lambda fn: greedy_search(fn, 6),
            lambda fn: reference_search.beam_search(fn, 6, beam_width=4))


def cached_mismatches(seeds):
    """(seed, oov_count) cases where the cached step_fn departs from the
    reference: a queried distribution off by more than 1e-6, or different
    greedy or beam-4 ids."""
    bad = []
    for seed in seeds:
        params, src, oov_ext, cfg = criterion_9_model(seed)
        for ext, oov_count in ((src, 0), (oov_ext, 1)):
            ref = batched(full_prefix_step_fn(params, src, ext, oov_count,
                                              cfg))
            step_fn = make_step_fn(params, src, ext, oov_count, cfg)
            queried = []

            def cached(prefixes):
                dists = step_fn(prefixes)
                queried.append(([tuple(p) for p in prefixes], dists))
                return dists

            same_ids = all(search(cached).ids == search(ref).ids
                           for search in SEARCHES)
            worst = max(np.abs(dists - ref(ps)).max() for ps, dists in queried)
            if not same_ids or worst > 1e-6:
                bad.append((seed, oov_count))
    return bad


def walked_step_fn(params, src, ext, oov_count, cfg):
    """Reference: a fresh step_fn per prefix, fed one id per call from
    [()], so that every call holds a single prefix."""
    def step_fn(prefix):
        fresh = make_step_fn(params, src, ext, oov_count, cfg)
        for n in range(len(prefix) + 1):
            dist = fresh([prefix[:n]])
        return dist[0]

    return step_fn


def batch_mismatches(seeds):
    """(seed, oov_count) cases where one step_fn call over the k prefixes
    a full-length beam-4 search asks for departs by more than 1e-6 from one
    single-prefix walk per prefix, or where the beam-4 ids differ."""
    bad = []
    for seed in seeds:
        params, src, oov_ext, cfg = criterion_9_model(seed)
        for ext, oov_count in ((src, 0), (oov_ext, 1)):
            step_fn = make_step_fn(params, src, ext, oov_count, cfg)
            single = walked_step_fn(params, src, ext, oov_count, cfg)
            worst = 0.0

            def both(prefixes):
                nonlocal worst
                rows = np.stack([single(p) for p in prefixes])
                dists = step_fn(prefixes)
                worst = max(worst, np.abs(dists - rows).max())
                return rows

            search = reference_search.beam_search
            ids = search(both, 6, beam_width=4).ids
            fresh = make_step_fn(params, src, ext, oov_count, cfg)
            if worst > 1e-6 or search(fresh, 6, beam_width=4).ids != ids:
                bad.append((seed, oov_count))
    return bad


def off_by_one_mask(t_len, dtype, t_past):
    """Mutant of model._causal_mask: with a cache, the new row no longer
    sees itself."""
    k = t_past if t_past else 1
    return np.triu(np.full((t_len, t_past + t_len), NEG_INF, dtype=dtype),
                   k=k)


def rolled_forward_hidden(params, ids, config, cache=None, **kwargs):
    """Mutant of decoder.forward_hidden: each row extends its neighbour's
    cache."""
    if cache:
        cache[:] = [np.roll(qkv, 1, axis=0) for qkv in cache]
    return forward_hidden(params, ids, config, cache=cache, **kwargs)


class TestIncrementalDecoding:
    def test_cached_matches_full_prefix_on_20_models(self):
        assert cached_mismatches(range(20)) == []

    def test_mask_offset_off_by_one_is_caught(self, monkeypatch):
        # mutation control: with a cache, the new row no longer sees itself
        monkeypatch.setattr(model, "_causal_mask", off_by_one_mask)
        assert len(cached_mismatches(range(20))) == 40

    def test_batched_step_matches_single_prefix_calls_on_20_models(self):
        assert batch_mismatches(range(20)) == []

    def test_wrong_parent_cache_is_caught(self, monkeypatch):
        # mutation control: each hypothesis extends its neighbour's cache.
        # A roll shows only where a call's prefixes have two parents; on
        # (8, 1) every call's prefixes share one, so the rolled rows are
        # equal and the mutant computes what make_step_fn does
        params, src, oov_ext, cfg = criterion_9_model(8)
        step_fn = make_step_fn(params, src, oov_ext, 1, cfg)
        parents = []

        def logged(prefixes):
            parents.append({p[:-1] for p in prefixes if p})
            return step_fn(prefixes)

        for search in SEARCHES:
            search(logged)
        assert max(len(p) for p in parents) == 1
        monkeypatch.setattr(decoder, "forward_hidden", rolled_forward_hidden)
        caught = batch_mismatches(range(20))
        assert len(caught) == 39 and (8, 1) not in caught

    def test_beam_runs_one_forward_per_step(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(np.shape(args[1]))
            return forward_hidden(*args, **kwargs)

        monkeypatch.setattr(decoder, "forward_hidden", counted)
        for seed in range(8):
            params, src, ext, cfg = criterion_9_model(seed)
            steps = []
            step_fn = make_step_fn(params, src, ext, 1, cfg)

            def counted_steps(prefixes):
                steps.append(len(prefixes))
                return step_fn(prefixes)

            beam = beam_search(counted_steps, 6, beam_width=4)
            # the source fill, then one forward per step after the first
            assert len(calls) == len(steps), beam.ids
            assert [shape[0] for shape in calls[1:]] == steps[1:]
            calls.clear()

    def test_calls_that_neither_extend_nor_repeat_raise(self):
        params, src, ext, cfg = criterion_9_model(0)
        step_fn = make_step_fn(params, src, ext, 1, cfg)
        step_fn([()])
        first = step_fn([(7,), (8,)])
        np.testing.assert_array_equal(step_fn([(7,), (8,)]), first)
        for prefixes in ([(7, 9), (9, 9)], [(7,), (8,), (7, 9)], [(7, 9, 9)],
                         [()] * 2, [(), (7,)], []):
            with pytest.raises(ValueError, match="extend"):
                step_fn(prefixes)

    def test_root_call_after_a_search_matches_a_fresh_step_fn(self):
        for seed in range(8):
            params, src, ext, cfg = criterion_9_model(seed)

            def fresh():
                return make_step_fn(params, src, ext, 1, cfg)

            step_fn = fresh()
            greedy = greedy_search(step_fn, 6)
            beam = beam_search(step_fn, 6, beam_width=4)
            assert greedy.ids == greedy_search(fresh(), 6).ids
            assert beam.ids == beam_search(fresh(), 6, beam_width=4).ids
            np.testing.assert_array_equal(step_fn([()]), fresh()([()]))


class StepFnContract(RuleBasedStateMachine):
    """Drives a step_fn with every kind of call its contract allows: extend
    any multiset of the live prefixes, in any order, by one id each; repeat
    them; restart at [()]. Every returned row must match an uncached
    forward of the whole prefix within 1e-6, the bound of
    cached_mismatches. A call the contract forbids must raise
    ValueError and leave the live prefixes to build on."""
    make_step_fn = staticmethod(make_step_fn)

    @initialize(seed=st.integers(0, 19), oov_count=st.integers(0, 1))
    def start(self, seed, oov_count):
        params, src, oov_ext, cfg = criterion_9_model(seed)
        ext = oov_ext if oov_count else src
        self.reference = full_prefix_step_fn(params, src, ext, oov_count,
                                             cfg)
        self.reference_rows = {}
        self.step_fn = self.make_step_fn(params, src, ext, oov_count, cfg)
        self.n_ids = cfg.vocab_size + oov_count
        self.ids = st.integers(0, self.n_ids - 1)
        # the longest prefix a search of max_steps_within steps feeds
        self.max_len = max_steps_within(cfg, len(src), cfg.max_seq_len) - 1
        self.call([()])

    def call(self, prefixes):
        rows = self.step_fn(prefixes)
        assert len(rows) == len(prefixes)
        for prefix, row in zip(prefixes, rows):
            if prefix not in self.reference_rows:
                self.reference_rows[prefix] = self.reference(prefix)
            gap = np.abs(row - self.reference_rows[prefix]).max()
            assert gap <= 1e-6, "row for %s is off by %g" % (prefix, gap)
        self.live = list(prefixes)

    @precondition(lambda self: len(self.live[0]) < self.max_len)
    @rule(data=st.data())
    def extend(self, data):
        rows = range(len(self.live))
        parents = data.draw(st.one_of(
            st.lists(st.sampled_from(rows), min_size=1, max_size=4),
            st.permutations(rows)))  # the live rows in another order
        ids = data.draw(st.lists(self.ids, min_size=len(parents),
                                 max_size=len(parents)))
        self.call([self.live[j] + (i,) for j, i in zip(parents, ids)])

    @rule()
    def repeat(self):
        self.call(self.live)

    @rule()
    def restart(self):
        self.call([()])

    @rule(data=st.data())
    def illegal(self, data):
        prefix = data.draw(st.sampled_from(self.live))
        a, b = data.draw(st.tuples(self.ids, self.ids))
        calls = [[], [(), ()], [(), prefix + (a,)], [prefix + (a, b)],
                 [prefix + (a,), prefix + (a, b)]]
        if prefix:  # extends a parent that is not live: n_ids is no id
            calls.append([(self.n_ids,) * len(prefix) + (a,)])
        if len(prefix) > 1:  # one id shorter; [()] would be the restart
            calls.append([prefix[:-1]])
        with pytest.raises(ValueError, match="^step_fn prefixes must each "
                           "extend one of the previous call's by one id$"):
            self.step_fn(data.draw(st.sampled_from(calls)))
        self.call(self.live)


def run_step_fn_contract(machine=StepFnContract, phases=tuple(Phase)):
    run_state_machine_as_test(machine, settings=settings(
        derandomize=True, database=None, deadline=None, max_examples=40,
        stateful_step_count=30, phases=phases, report_multiple_bugs=False))


def skip_gather_on_permutation():
    """Mutant of make_step_fn: when the new prefixes' parents are the live
    rows in another order, the rows keep their old order."""
    source = inspect.getsource(decoder.make_step_fn)
    gather = "cache = [c[parents] for c in cache]"
    assert source.count(gather) == 1
    namespace = dict(vars(decoder))
    exec(source.replace(gather, "if sorted(parents) != list(range(len("
                        "live))): " + gather), namespace)
    return namespace["make_step_fn"]


class TestStepFnContract:
    def test_every_call_sequence_matches_the_full_prefix_forward(self):
        run_step_fn_contract()

    # mutation controls: each wrong cache fails the machine (its search
    # stops at the first failure, unshrunk)
    def test_mask_offset_off_by_one_fails(self, monkeypatch):
        monkeypatch.setattr(model, "_causal_mask", off_by_one_mask)
        with pytest.raises(AssertionError, match="is off by"):
            run_step_fn_contract(phases=[Phase.generate])

    def test_rolled_parent_cache_fails(self, monkeypatch):
        monkeypatch.setattr(decoder, "forward_hidden", rolled_forward_hidden)
        with pytest.raises(AssertionError, match="is off by"):
            run_step_fn_contract(phases=[Phase.generate])

    def test_skipped_gather_on_a_permutation_fails(self):
        class Mutant(StepFnContract):
            make_step_fn = staticmethod(skip_gather_on_permutation())

        with pytest.raises(AssertionError, match="is off by"):
            run_step_fn_contract(Mutant, phases=[Phase.generate])


def same_as_full_length(make_step_fn, max_len, k):
    """Assert that beam_search returns the full-length search's ids and
    log-prob, bit for bit, in no more step_fn calls; return both counts."""
    early, early_calls = counted(make_step_fn())
    full, full_calls = counted(make_step_fn())
    got = beam_search(early, max_len, k)
    want = reference_search.beam_search(full, max_len, k)
    assert (got.ids, got.log_prob) == (want.ids, want.log_prob)
    assert len(early_calls) <= len(full_calls)
    return np.array([len(early_calls), len(full_calls)])


class TestEarlyStop:
    def test_same_result_as_full_length_search_on_criterion_9_models(self):
        calls = 0
        for seed in range(20):
            params, src, oov_ext, cfg = criterion_9_model(seed)
            for ext, oov_count in ((src, 0), (oov_ext, 1)):
                for k in (2, 4):
                    calls += same_as_full_length(
                        lambda: make_step_fn(params, src, ext, oov_count,
                                             cfg), 6, k)
        assert calls[0] < calls[1]  # the stop fires on these models

    def test_same_result_on_mixed_source_lengths(self):
        calls = 0
        for seed in range(20):
            cfg = ModelConfig(vocab_size=20, d_model=16, n_heads=2,
                              n_layers=1, d_ff=32, max_seq_len=32, seed=seed)
            params = init_params(cfg)
            rng = np.random.default_rng(seed)
            src = list(rng.integers(5, cfg.vocab_size,
                                    size=rng.integers(1, 20))) + [EOS]
            ext = [cfg.vocab_size] + src[1:]  # one source OOV
            limit = max_steps_within(cfg, len(src), 32)
            for k in (2, 4):
                calls += same_as_full_length(
                    lambda: make_step_fn(params, src, ext, 1, cfg), limit, k)
        assert calls[0] < calls[1]

    def test_stops_once_a_finished_hypothesis_is_out_of_reach(self):
        # step 2 keeps the finished (4, EOS) at 0.81 and the live (5, 2) at
        # 0.1; unlisted prefixes emit 2 forever, so the full-length search
        # runs all 10 steps to the same answer
        step_fn = sparse_step_fn({(): {4: 0.9, 5: 0.1},
                                  (4,): {EOS: 0.9, 2: 0.1}}, {2: 1.0})
        early, early_calls = counted(step_fn)
        full, full_calls = counted(step_fn)
        best = beam_search(early, 10, beam_width=2)
        assert best.ids == (4, EOS)
        assert reference_search.beam_search(full, 10, beam_width=2) == best
        assert (len(early_calls), len(full_calls)) == (2, 10)

    @pytest.mark.parametrize("bound", [decoder.STEP_GAIN_BOUND, 0.0])
    def test_a_tie_does_not_stop_the_search(self, monkeypatch, bound):
        # step 2 ends with the finished (4, EOS) level with the live
        # (4, UNK), whose (4, UNK, EOS) then wins the tie on smaller ids;
        # with no slack, a stop on >= would return (4, EOS)
        monkeypatch.setattr(decoder, "STEP_GAIN_BOUND", bound)
        step_fn = sparse_step_fn({(): {4: 1.0}, (4,): {UNK: 0.5, EOS: 0.5}},
                                 {EOS: 1.0})
        best = beam_search(step_fn, 3, beam_width=2)
        assert best.ids == (4, UNK, EOS)
        assert reference_search.beam_search(step_fn, 3, beam_width=2) == best

    def test_a_step_may_gain_up_to_the_bound(self):
        # probabilities that round above 1: the live (4,) trails the
        # finished (EOS,) by 2e-4 nats, then gains 1e-4 on each of four
        # steps at p = 1 + 1e-4 and wins; with STEP_GAIN_BOUND = 0 the
        # search would stop at step 1 and return (EOS,)
        up = 1.0 + 1e-4
        step_fn = sparse_step_fn({(): {EOS: 0.50005, 4: 0.49995},
                                  (4,): {4: up}, (4, 4): {4: up},
                                  (4, 4, 4): {4: up}, (4, 4, 4, 4): {EOS: up}},
                                 {EOS: 1.0})
        best = beam_search(step_fn, 6, beam_width=2)
        assert best.ids == (4, 4, 4, 4, EOS)
        assert reference_search.beam_search(step_fn, 6, beam_width=2) == best


def same_as_reference_greedy(params, src, ext, oov_count, cfg, max_len):
    """Assert that greedy_decode's ids, and beam_search's ids and log-prob
    at width 1, equal the reference greedy loop's, bit for bit; return
    whether the search ended on EOS."""
    def fresh():
        return make_step_fn(params, src, ext, oov_count, cfg)

    limit = max_steps_within(cfg, len(src), max_len)
    want = greedy_search(fresh(), limit)
    got = beam_search(fresh(), limit, 1)
    assert (got.ids, got.log_prob) == (want.ids, want.log_prob)
    assert greedy_decode(params, src, ext, oov_count, cfg,
                         DecodeConfig(max_summary_len=max_len)) == [
        i for i in want.ids if i != EOS]
    return want.ids[-1] == EOS


class TestGreedyIsBeamOfWidthOne:
    def test_same_as_reference_greedy_on_criterion_9_models(self):
        ended = 0
        for seed in range(20):
            params, src, oov_ext, cfg = criterion_9_model(seed)
            for ext, oov_count in ((src, 0), (oov_ext, 1)):
                for max_len in (1, 3, 6, 10):
                    ended += same_as_reference_greedy(
                        params, src, ext, oov_count, cfg, max_len)
        assert 0 < ended < 160  # both ways to end a search are covered

    def test_same_as_reference_greedy_on_a_trained_copy_model(self):
        records = synthetic_copy_task(140, seed=5)
        vocab = build_vocab([r.source for r in records[:40]]
                            + [r.summary for r in records[:40]],
                            max_size=copy_task_vocab_size())
        cfg = ModelConfig(vocab_size=vocab.size, d_model=16, n_heads=2,
                          n_layers=1, d_ff=32, max_seq_len=48, seed=0)
        params = init_params(cfg)
        train(params, [encode_example(r.source, r.summary, vocab)
                       for r in records[:40]],
              TrainConfig(lr=1e-2, epochs=4, batch_size=4), cfg)
        ended = 0
        for r in records[40:]:
            src, ext, oov = encode_source(r.source, vocab)
            ended += same_as_reference_greedy(params, src, ext, len(oov),
                                              cfg, 16)
        assert ended > 0  # the trained model stops on EOS


class TestForcedCopy:
    def test_peaked_attention_emits_that_source_word(self):
        cfg = tiny_config()
        params = init_params(cfg)
        src = [6, 7, 8, 9, EOS]
        ext = [6, 7, cfg.vocab_size, 9, EOS]  # position 2 is an OOV copy
        # freeze the gate shut and point the bilinear score at position 2
        params["gate.w_h"].data[:] = 0
        params["gate.w_c"].data[:] = 0
        params["gate.b"].data[:] = -20.0
        h = forward_hidden(params, src + [SEP], cfg).data
        t, j = len(src), 2
        params["ptr.w"].data[:] = 50.0 * np.outer(h[t], h[j]) \
            / (h[t] @ h[t])
        ids = greedy_decode(params, src, ext, 1, cfg,
                            DecodeConfig(max_summary_len=4))
        assert ids[0] == ext[j]

    def test_max_summary_len_one(self):
        cfg = tiny_config()
        params = init_params(cfg)
        src = [6, 7, EOS]
        ids = greedy_decode(params, src, src, 0, cfg,
                            DecodeConfig(max_summary_len=1))
        assert len(ids) <= 1


class TestLengthLimit:
    def test_steps_fill_max_seq_len(self):
        # the 6th step after a 10-id source feeds source + SEP + 5 ids:
        # all 16 positions
        cfg = ModelConfig(vocab_size=20, d_model=16, n_heads=2, n_layers=1,
                          d_ff=32, max_seq_len=16)
        assert decoder.max_steps_within(cfg, 10, 32) == 6
        assert decoder.max_steps_within(cfg, 10, 4) == 4
        src = [6] * 9 + [EOS]
        step_fn = make_step_fn(init_params(cfg), src, src, 0, cfg)
        for n in range(6):
            assert step_fn([[7] * n]).shape == (1, cfg.vocab_size)
        with pytest.raises(ValueError, match="sequence length 17 exceeds"):
            step_fn([[7] * 6])


class TestResolveSummary:
    def test_in_vocab(self):
        v = build_vocab(["the cat sat"], max_size=10)
        ids = [v.id_of("the"), v.id_of("cat"), EOS]
        assert decode(ids, v, []) == "the cat"

    def test_copy_and_unk_rendering(self):
        v = build_vocab(["a"], max_size=10)
        assert decode([v.size, UNK], v, ["dyspnea"]) \
            == "dyspnea <unk>"

    def test_range_error(self):
        v = build_vocab(["a"], max_size=10)
        with pytest.raises(ValueError):
            decode([v.size + 4], v, ["x"])


class TestDecodeConfig:
    @pytest.mark.parametrize("name, value", [
        ("beam_width", 2.5), ("beam_width", True),
        ("max_summary_len", 3.0), ("max_summary_len", float("nan"))])
    def test_non_integers_rejected(self, name, value):
        with pytest.raises(ValueError) as info:
            DecodeConfig(**{name: value})
        assert str(info.value) == "%s must be an integer, got %r" % (name,
                                                                     value)

    def test_invalid_lengths_rejected(self):
        with pytest.raises(ValueError):
            DecodeConfig(max_summary_len=0)
        with pytest.raises(ValueError):
            DecodeConfig(beam_width=0)
