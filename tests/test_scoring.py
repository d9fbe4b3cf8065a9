"""The trace selection scoring function (Section 4.3)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.base import build_app
from repro.core.processor import ApopheniaConfig
from repro.core.scoring import ReplayDecisionPolicy, ScoringPolicy
from repro.core.trie import CandidateTrie, CompletedMatch, TrieNode


def candidate(length=10, occurrences=1, last_seen=None, replayed=False):
    trie = CandidateTrie()
    c = trie.insert(tuple(range(length)))
    c.occurrences = occurrences
    c.last_seen_at = last_seen
    c.replayed = replayed
    return c


class TestScore:
    def test_length_times_count(self):
        policy = ScoringPolicy(decay_rate=0.0)
        assert policy.score(candidate(10, 3), 0) == 30

    def test_count_is_capped(self):
        policy = ScoringPolicy(count_cap=16, decay_rate=0.0)
        assert policy.score(candidate(10, 1000), 0) == 160

    def test_decay_by_idleness(self):
        policy = ScoringPolicy(decay_rate=0.01)
        fresh = policy.score(candidate(10, 4, last_seen=100), 100)
        stale = policy.score(candidate(10, 4, last_seen=0), 100)
        assert stale < fresh
        assert math.isclose(stale, fresh * math.exp(-1.0))

    def test_replay_bonus(self):
        policy = ScoringPolicy(decay_rate=0.0, replay_bonus=1.5)
        base = policy.score(candidate(10, 2), 0)
        boosted = policy.score(candidate(10, 2, replayed=True), 0)
        assert math.isclose(boosted, base * 1.5)

    def test_never_seen_has_no_decay(self):
        policy = ScoringPolicy(decay_rate=1.0)
        assert policy.score(candidate(10, 2, last_seen=None), 10**6) == 20

    def test_potential_is_length_dominant(self):
        """Potential scores at the full count cap (optimistic), so a
        strictly longer live candidate always out-potentials a locked-in
        shorter trace's score."""
        policy = ScoringPolicy(decay_rate=0.0, count_cap=16, replay_bonus=1.1)
        short = candidate(420, 1000, replayed=True)  # capped + bonus
        long = candidate(421, 0)
        assert policy.potential(long, 0) > policy.score(short, 0)
        assert policy.potential(long, 0) == 421 * 16 * 1.1

    def test_longer_stale_vs_short_fresh(self):
        """Decay lets a fresh steady-state trace beat a long trace that
        stopped appearing -- the anti-disruption property."""
        policy = ScoringPolicy(decay_rate=1e-2, count_cap=16)
        long_stale = candidate(100, 16, last_seen=0)
        short_fresh = candidate(20, 16, last_seen=2000, replayed=True)
        now = 2000
        assert policy.score(short_fresh, now) > policy.score(long_stale, now)


class TestHysteresis:
    """Realized-replay-share weighting (the scoring churn fix)."""

    def fired(self, length=200, fires=4, gap_tokens=0):
        c = candidate(length, 16, replayed=True)
        c.fires = fires
        c.gap_tokens = gap_tokens
        return c

    def test_realized_share(self):
        policy = ScoringPolicy()
        clean = self.fired(200, fires=4, gap_tokens=0)
        dirty = self.fired(200, fires=4, gap_tokens=200)
        assert policy.realized_share(clean) == 1.0
        assert policy.realized_share(dirty) == pytest.approx(0.8)
        assert policy.realized_share(candidate(200)) == 1.0  # never fired

    def test_off_by_default_and_exact(self):
        policy = ScoringPolicy()  # hysteresis = 0
        dirty = self.fired(gap_tokens=500)
        assert policy.weight(dirty) == 1.0
        assert policy.score(dirty, 0) * policy.weight(dirty) == \
            policy.score(dirty, 0)

    def test_discount_applies_to_dirty_candidates_only(self):
        policy = ScoringPolicy(hysteresis=2.0, decay_rate=0.0)
        dirty = self.fired(200, fires=4, gap_tokens=200)  # share 0.8
        clean = self.fired(200, fires=4, gap_tokens=0)
        fresh = candidate(200, 16)
        assert policy.weight(dirty) == pytest.approx(0.8 ** 2)
        assert policy.weight(clean) == 1.0
        # Untried candidates keep the optimistic paper treatment.
        assert policy.weight(fresh) == 1.0

    def test_min_length_gate(self):
        """Short-fragment candidates are never discounted: the churn is
        a full-buffer-scale phenomenon, and inter-fragment noise on
        short-period streams is nobody's fault."""
        policy = ScoringPolicy(hysteresis=2.0, hysteresis_min_length=100)
        short = self.fired(length=9, fires=4, gap_tokens=36)
        long = self.fired(length=100, fires=4, gap_tokens=400)
        assert policy.weight(short) == 1.0
        assert policy.weight(long) < 1.0

    def test_worth_waiting_suppresses_dirty_speculation(self):
        from repro.core.scoring import ReplayDecisionPolicy
        from repro.core.trie import CompletedMatch, TrieNode

        scoring = ScoringPolicy(hysteresis=2.0, decay_rate=0.0)
        policy = ReplayDecisionPolicy(scoring)
        held = self.fired(200, fires=8, gap_tokens=0)  # proven, clean
        dirty = self.fired(210, fires=8, gap_tokens=420)  # share 0.8
        node = TrieNode(depth=50)
        node.children = {"x": TrieNode(depth=51)}
        node.deep = dirty
        match = CompletedMatch(held, 0, 200)
        # Raw scoring would wait (210 > 200 at full cap + bonus); the
        # discounted potential loses, and the suppression is counted.
        assert scoring.potential(dirty, 200) > scoring.score(held, 200)
        assert not policy.worth_waiting(match, 200, iter([(10, node)]))
        assert policy.hysteresis_suppressed == 1
        # A clean challenger of the same length still wins the wait.
        node.deep = self.fired(210, fires=8, gap_tokens=0)
        assert policy.worth_waiting(match, 200, iter([(10, node)]))

    def test_beats_defends_incumbent_against_dirty_challenger(self):
        from repro.core.scoring import ReplayDecisionPolicy
        from repro.core.trie import CompletedMatch

        scoring = ScoringPolicy(hysteresis=2.0, decay_rate=0.0)
        policy = ReplayDecisionPolicy(scoring)
        incumbent = CompletedMatch(self.fired(200, 8, 0), 0, 200)
        dirty = CompletedMatch(self.fired(210, 8, 420), 0, 210)
        assert policy.select([dirty], incumbent, 210) is incumbent
        clean = CompletedMatch(self.fired(210, 8, 0), 0, 210)
        assert policy.select([clean], incumbent, 210) is clean


class TestBest:
    """Ranking among completions: ``select`` with no incumbent."""

    def test_best_empty(self):
        assert ReplayDecisionPolicy().select([], None, 0) is None

    def test_best_picks_highest_score(self):
        policy = ReplayDecisionPolicy(ScoringPolicy(decay_rate=0.0))
        short = CompletedMatch(candidate(5, 10), 0, 5)
        long = CompletedMatch(candidate(50, 10), 0, 50)
        assert policy.select([short, long], None, 50) is long

    def test_tie_breaks_to_earlier_start(self):
        policy = ReplayDecisionPolicy(ScoringPolicy(decay_rate=0.0))
        c = candidate(5, 4)
        a = CompletedMatch(c, 0, 5)
        b = CompletedMatch(c, 3, 8)
        assert policy.select([a, b], None, 8) is a


# ----------------------------------------------------------------------
# The pre-one-pass decision policy, kept verbatim as the oracle: it
# scores the challenger, the incumbent and the held match again at every
# comparison, and forks worth_waiting on the hysteresis setting. Only
# the ScoringPolicy fields are shared with production code.
# ----------------------------------------------------------------------
def _oracle_score(scoring, candidate, now_index):
    count = min(candidate.occurrences, scoring.count_cap)
    if candidate.last_seen_at is not None:
        idle = max(0, now_index - candidate.last_seen_at)
        count *= math.exp(-scoring.decay_rate * idle)
    score = candidate.length * count
    if candidate.replayed:
        score *= scoring.replay_bonus
    return score


def _oracle_potential(scoring, candidate, now_index):
    return candidate.length * scoring.count_cap * scoring.replay_bonus


def _oracle_realized_share(candidate):
    if not candidate.fires:
        return 1.0
    length = candidate.length
    return length * candidate.fires / (
        length * candidate.fires + candidate.gap_tokens
    )


def _oracle_discounted(scoring, candidate):
    return (
        scoring.hysteresis
        and candidate.fires
        and candidate.length >= scoring.hysteresis_min_length
    )


def _oracle_weighted_score(scoring, candidate, now_index):
    value = _oracle_score(scoring, candidate, now_index)
    if _oracle_discounted(scoring, candidate):
        value *= _oracle_realized_share(candidate) ** scoring.hysteresis
    return value


def _oracle_weighted_potential(scoring, candidate, now_index):
    value = _oracle_potential(scoring, candidate, now_index)
    if _oracle_discounted(scoring, candidate):
        value *= _oracle_realized_share(candidate) ** scoring.hysteresis
    return value


def _oracle_best(scoring, matches, now_index):
    if not matches:
        return None
    return max(
        matches,
        key=lambda m: (
            _oracle_score(scoring, m.candidate, now_index),
            m.candidate.length,
            -m.start_index,
        ),
    )


class OracleDecisionPolicy:
    """The decision policy before the one-pass rewrite."""

    def __init__(self, scoring):
        self.scoring = scoring
        self.hysteresis_suppressed = 0

    def select(self, completed, incumbent, now_index):
        challenger = (
            _oracle_best(self.scoring, completed, now_index)
            if completed else None
        )
        if challenger is None:
            return incumbent
        if incumbent is None:
            return challenger
        if self._beats(challenger, incumbent, now_index):
            return challenger
        return incumbent

    def _beats(self, challenger, incumbent, now_index):
        scoring = self.scoring
        cs = _oracle_weighted_score(scoring, challenger.candidate, now_index)
        inc = _oracle_score(scoring, incumbent.candidate, now_index)
        if cs != inc:
            if scoring.hysteresis and (cs > inc) != (
                _oracle_score(scoring, challenger.candidate, now_index) > inc
            ):
                self.hysteresis_suppressed += 1
            return cs > inc
        if challenger.candidate.length != incumbent.candidate.length:
            return challenger.candidate.length > incumbent.candidate.length
        return challenger.start_index < incumbent.start_index

    def worth_waiting(self, match, now_index, pointers):
        scoring = self.scoring
        hysteresis = scoring.hysteresis
        if not hysteresis:
            threshold = _oracle_score(scoring, match.candidate, now_index)
            for start, node in pointers:
                if start >= match.end_index:
                    break
                deep = node.deep
                if deep is None or deep.length <= node.depth:
                    continue
                if _oracle_potential(scoring, deep, now_index) > threshold:
                    return True
            return False
        threshold = _oracle_score(scoring, match.candidate, now_index)
        raw_would_wait = False
        for start, node in pointers:
            if start >= match.end_index:
                break
            deep = node.deep
            if deep is None or deep.length <= node.depth:
                continue
            if _oracle_weighted_potential(scoring, deep, now_index) > \
                    threshold:
                return True
            if _oracle_potential(scoring, deep, now_index) > threshold:
                raw_would_wait = True
        if raw_would_wait:
            self.hysteresis_suppressed += 1
        return False


def pool_candidate(draw):
    """A candidate from a small value grid, so exact ties on score,
    length and start are common."""
    c = candidate(
        draw(st.sampled_from((3, 4, 6, 8, 12, 24))),
        draw(st.integers(0, 20)),
        last_seen=draw(st.one_of(st.none(), st.integers(0, 60))),
        replayed=draw(st.booleans()),
    )
    c.fires = draw(st.integers(0, 4))
    c.gap_tokens = draw(st.sampled_from((0, 0, 1, 3, 12, 40)))
    return c


@st.composite
def decision_steps(draw):
    """A scoring policy, a candidate pool, and a run of decision steps.

    Each step is ``(now_index, completed, incumbent, pointers)``: the
    completions at that index (ties on score/length/start included, the
    same match repeated included), an incumbent to hold when the
    previous step left none, and an ascending pointer set over trie
    nodes whose deepest candidates come from the pool or are fresh.
    """
    scoring = ScoringPolicy(
        count_cap=draw(st.sampled_from((4, 16))),
        decay_rate=draw(st.sampled_from((0.0, 1e-4, 1e-2))),
        replay_bonus=draw(st.sampled_from((1.0, 1.1, 2.0))),
        hysteresis=draw(st.sampled_from((0.0, 1.0, 2.0))),
        hysteresis_min_length=draw(st.sampled_from((0, 6, 12))),
    )
    pool = [pool_candidate(draw) for _ in range(draw(st.integers(1, 6)))]

    def match(now):
        c = draw(st.sampled_from(pool))
        start = draw(st.sampled_from((now - 30, now - 24, now - 12)))
        return CompletedMatch(c, start, start + c.length)

    steps = []
    now = draw(st.integers(0, 40))
    for _ in range(draw(st.integers(1, 6))):
        now += draw(st.integers(0, 3))
        completed = [match(now) for _ in range(draw(st.integers(0, 4)))]
        if completed and draw(st.booleans()):
            completed.append(completed[0])
        incumbent = match(now) if draw(st.booleans()) else None
        pointers = []
        for _ in range(draw(st.integers(0, 5))):
            node = TrieNode(depth=draw(st.integers(0, 12)))
            kind = draw(st.sampled_from(("none", "pool", "fresh")))
            node.deep = (
                None if kind == "none"
                else draw(st.sampled_from(pool)) if kind == "pool"
                else pool_candidate(draw)
            )
            pointers.append((now - draw(st.integers(0, 40)), node))
        pointers.sort(key=lambda p: p[0])
        steps.append((now, completed, incumbent, pointers))
    return scoring, steps


class TestOnePassOracle:
    """The one-pass policy against the oracle above: same held match,
    same worth_waiting answer, same suppression count, step by step."""

    @settings(max_examples=400, deadline=None)
    @given(decision_steps())
    def test_matches_oracle(self, case):
        scoring, steps = case
        policy = ReplayDecisionPolicy(scoring)
        oracle = OracleDecisionPolicy(scoring)
        held = None
        for now, completed, incumbent, pointers in steps:
            if held is None:
                held = incumbent
            new = policy.select(completed, held, now)
            expected = oracle.select(completed, held, now)
            assert new is expected
            held = new
            if held is not None:
                waiting = policy.worth_waiting(held, now, iter(pointers))
                assert waiting == oracle.worth_waiting(
                    held, now, iter(pointers)
                )
                if not waiting:
                    held = None
            assert policy.hysteresis_suppressed == \
                oracle.hysteresis_suppressed

    @pytest.mark.parametrize("hysteresis", (0.0, 1.0, 2.0))
    def test_replayer_decisions_match_oracle(self, hysteresis):
        """The HTR reduced-scale churn configuration (the one the
        hysteresis benchmark uses), 500 iterations: the production
        policy and the oracle fire the same traces and end with the
        same replayer counters."""

        def run(oracle):
            config = ApopheniaConfig(
                batchsize=500,
                multi_scale_factor=25,
                job_base_latency_ops=5,
                initial_ingest_margin_ops=10,
                hysteresis=hysteresis,
            )
            app = build_app("htr", mode="auto", task_scale=0.1,
                            apophenia=config, keep_task_log=False)
            processor = app.processor
            if oracle:
                processor.replayer.policy = OracleDecisionPolicy(
                    processor.replayer.policy.scoring
                )
            for index in range(500):
                processor.set_iteration(index)
                app.iteration(index)
            processor.flush()
            return (processor.decision_trace(),
                    processor.replayer.stats.as_tuple())

        trace, stats = run(oracle=False)
        assert trace  # traces actually fired
        assert (trace, stats) == run(oracle=True)
        if hysteresis:
            assert stats[-1] > 0  # hysteresis_suppressed intervened


class TestScoreHandoff:
    """``select`` hands the held match's score to the ``worth_waiting``
    call that follows at the same index. Any other call scores the
    match itself: each case below is built so that a stale score flips
    the answer."""

    # Pointer potential 2 * 16 * 1.0 = 32 sits between the scores used.
    scoring = ScoringPolicy(count_cap=16, decay_rate=1e-2, replay_bonus=1.0)

    def setup_method(self):
        self.policy = ReplayDecisionPolicy(self.scoring)
        self.held = CompletedMatch(candidate(20, 2, last_seen=0), 0, 20)
        node = TrieNode(depth=1)
        node.deep = candidate(2)
        self.pointers = [(0, node)]

    def wait(self, match, now_index):
        return self.policy.worth_waiting(match, now_index,
                                         iter(self.pointers))

    def test_handoff_used_at_the_same_step(self, monkeypatch):
        assert self.policy.select([self.held], None, 0) is self.held
        calls = []
        real = ScoringPolicy.score
        monkeypatch.setattr(
            ScoringPolicy, "score",
            lambda s, c, i: calls.append(c) or real(s, c, i),
        )
        assert not self.wait(self.held, 0)  # 32 < 40
        assert calls == []

    def test_other_match_rescored(self):
        other = CompletedMatch(candidate(20, 1, last_seen=0), 0, 20)
        self.policy.select([self.held], None, 0)  # hands off 40
        assert self.wait(other, 0)  # 32 > 20

    def test_other_index_rescored(self):
        self.policy.select([self.held], None, 0)  # hands off 40
        assert self.wait(self.held, 100)  # decayed: 40 / e < 32

    def test_second_call_rescored(self):
        self.policy.select([self.held], None, 0)
        assert not self.wait(self.held, 0)
        self.held.candidate.occurrences = 1  # score 20 now
        assert self.wait(self.held, 0)

    def test_select_without_completions_drops_handoff(self):
        self.policy.select([self.held], None, 0)  # hands off 40
        self.held.candidate.occurrences = 1
        assert self.policy.select([], self.held, 0) is self.held
        assert self.wait(self.held, 0)

    def test_fire_tail_refeed(self):
        """After ``_fire`` the replayer re-feeds the pending tail, so a
        stream index comes back with new occurrence counts and a new
        deferral. Index 7 here: first A is held (handed off 20) and
        fired, then the re-fed D (score 6) waits on E (potential 16),
        which the stale 20 would refuse."""
        from repro.core.repeats import Repeat
        from repro.core.replayer import TraceReplayer

        a = (1, 2, 3, 10, 11)
        repeats = [
            Repeat(a, list(range(8))),
            Repeat(a + (4, 9, 7, 7), [0]),  # keeps A waiting to index 6
            Repeat((4, 9), [0]),  # D
            Repeat((4, 9, 5, 6), [0]),  # E
            Repeat((11, 4, 9, 5), [0]),  # completes inside A's tail
        ]

        def run(policy):
            log = []
            replayer = TraceReplayer(
                on_flush=lambda tasks: None,
                on_trace=lambda cand, chunk, tasks:
                    log.append(("fire", cand.tokens)),
                min_trace_length=2,
                policy=policy,
            )
            replayer.ingest(repeats)
            wait = replayer.policy.worth_waiting

            def logged(match, now_index, pointers):
                out = wait(match, now_index, pointers)
                log.append((now_index, match.candidate.tokens,
                            match.candidate.occurrences, out))
                return out

            replayer.policy.worth_waiting = logged
            for index, token in enumerate((1, 2, 3, 10, 11, 4, 9, 5, 0)):
                replayer.process(index, token)
            replayer.flush_all()
            return log

        scoring = ScoringPolicy(count_cap=4, decay_rate=0.0,
                                replay_bonus=1.0)
        log = run(ReplayDecisionPolicy(scoring))
        assert log == run(OracleDecisionPolicy(scoring))
        at_seven = [entry for entry in log if entry[0] == 7]
        assert at_seven == [(7, a, 9, False), (7, (4, 9), 3, True)]
        assert ("fire", (4, 9)) in log


class TestScoreCallCount:
    def test_one_score_per_completion_or_deferral_step(self, monkeypatch):
        """On the generative-steady corpus stream the policy scores each
        completed match once, plus at most once per step that holds a
        deferral (the step's ``worth_waiting`` call)."""
        import os

        from repro.trace import TraceDocument, TraceReplayHarness
        from repro.trace.corpus import corpus_path

        counts = {"score": 0, "completed": 0, "waits": 0}
        score = ScoringPolicy.score
        select = ReplayDecisionPolicy.select
        worth_waiting = ReplayDecisionPolicy.worth_waiting

        def counted_score(self, candidate, now_index):
            counts["score"] += 1
            return score(self, candidate, now_index)

        def counted_select(self, completed, incumbent, now_index):
            counts["completed"] += len(completed)
            return select(self, completed, incumbent, now_index)

        def counted_wait(self, match, now_index, pointers):
            counts["waits"] += 1
            return worth_waiting(self, match, now_index, pointers)

        monkeypatch.setattr(ScoringPolicy, "score", counted_score)
        monkeypatch.setattr(ReplayDecisionPolicy, "select", counted_select)
        monkeypatch.setattr(ReplayDecisionPolicy, "worth_waiting",
                            counted_wait)
        corpus = os.path.join(os.path.dirname(__file__), "corpus")
        document = TraceDocument.load(
            corpus_path(corpus, "generative-steady")
        )
        assert TraceReplayHarness(document).run()
        assert counts["completed"] > 0 and counts["waits"] > 0
        assert counts["score"] <= counts["completed"] + counts["waits"], \
            counts
