"""Trace selection scoring and the replay decision policy (Section 4.3).

When several candidate traces complete at the same stream position, the
replayer must pick one. The paper's scoring function balances exploration
(switching to better traces as they are discovered) against exploitation
(not abandoning a profitable steady state):

* the base score is the candidate's *length* times its *appearance count*,
  preferring long traces that eliminate more per-task analysis cost;
* the count is *capped*, so a trace that appeared many times early in the
  run can still be displaced by a better trace discovered later;
* the count is *exponentially decayed* by the number of tasks seen since
  the trace last appeared, so an infrequent but long-lived candidate does
  not slowly accumulate enough count to disrupt a steady state;
* a small multiplicative *bonus* is applied to traces that have already
  been replayed, since recording a new trace costs alpha_m per task.

**Scoring hysteresis.** Length-dominant scoring has a churn pathology on
reduced-scale streams: full-buffer candidates (up to ``batchsize/2``
tokens) whose length is *not* a whole number of stream periods outscore a
shorter candidate that replays back-to-back, and every commit of the
misaligned winner strands a phase-shift's worth of buffered tasks that
are flushed untraced. The ``hysteresis`` knob weights a candidate's score
by its *realized replay share* — the fraction of stream it actually
replays once the flushed approach gap before each of its commits is
charged to it — so a candidate that keeps paying misalignment gaps loses
to one that chains cleanly, while a candidate that has never fired keeps
its full optimistic score (exploration is untouched). ``hysteresis=0``
(the default) reproduces the paper's scoring exactly.

:class:`ReplayDecisionPolicy` is SelectReplayTrace (Algorithm 1) as a
separable layer: choosing among completed matches, defending a deferred
match, and deciding whether a deferral is still worth waiting on given
the live pointer set. The replayer owns stream bookkeeping only; every
trade-off lives here.

**One scoring pass per step.** :meth:`ReplayDecisionPolicy.select`
scores each completed match once and the incumbent once, and hands the
held match's score to the :meth:`~ReplayDecisionPolicy.worth_waiting`
call that follows at the same step, where it becomes the threshold.
The hand-off holds one value, is used at most once, and only when both
the match object and the stream index agree; otherwise
``worth_waiting`` scores the match itself. ``worth_waiting`` is one loop
for every hysteresis setting: the weighting is applied only to a
potential that already beats the threshold.
"""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ScoringPolicy:
    """Tunable knobs of the trace scoring function."""

    count_cap: int = 16
    decay_rate: float = 1e-4  # per task since last appearance
    replay_bonus: float = 1.1
    #: Strength of realized-replay-share weighting (0 disables, giving
    #: the paper's scoring byte for byte). The share enters as
    #: ``share**hysteresis``, so 1.0 charges a candidate's misalignment
    #: gap linearly and larger values punish it harder.
    hysteresis: float = 0.0
    #: Candidates shorter than this keep the paper's raw treatment even
    #: with hysteresis on. The churn pathology is specifically
    #: full-buffer-scale candidates (up to ``batchsize/2`` tokens)
    #: displacing a shorter steady state;
    #: :meth:`ApopheniaConfig.scoring_policy` derives this gate from the
    #: buffer size so short-fragment streams (whose inter-fragment noise
    #: is nobody's fault) are never discounted.
    hysteresis_min_length: int = 0

    def score(self, candidate, now_index):
        """Score a candidate at stream position ``now_index``.

        ``candidate`` must expose ``length``, ``occurrences``,
        ``last_seen_at`` and ``replayed`` (see
        :class:`repro.core.trie.TraceCandidate`).
        """
        # if-clamps, not min()/max(): the builtin calls cost more here.
        count = candidate.occurrences
        if count > self.count_cap:
            count = self.count_cap
        if candidate.last_seen_at is not None:
            idle = now_index - candidate.last_seen_at
            if idle < 0:
                idle = 0
            count *= math.exp(-self.decay_rate * idle)
        score = candidate.length * count
        if candidate.replayed:
            score *= self.replay_bonus
        return score

    def potential(self, candidate, now_index):
        """Optimistic score of a candidate if it were to complete now.

        Used by SelectReplayTrace to decide whether to hold a completed
        match while a longer candidate is still matching. The estimate is
        deliberately optimistic -- the candidate is scored at the full
        count cap -- making the decision length-dominant: the replayer
        always waits for a strictly more valuable trace that is live in
        the stream, which is how long multi-iteration traces win over
        their own fragments. The wait is bounded: the pointer either
        completes the candidate or dies at its first divergence.
        """
        return candidate.length * self.count_cap * self.replay_bonus

    def realized_share(self, candidate):
        """Fraction of stream this candidate replays per commit.

        A candidate that chains back-to-back has share 1; one that
        strands ``g`` buffered tasks (flushed untraced) before each
        commit of its ``L`` tasks has share ``L / (L + g)``. Candidates
        that never fired score 1 — hysteresis never discounts the
        untried.
        """
        if not candidate.fires:
            return 1.0
        length = candidate.length
        return length * candidate.fires / (
            length * candidate.fires + candidate.gap_tokens
        )

    def weight(self, candidate):
        """The hysteresis factor on a candidate's score or potential:
        ``realized_share ** hysteresis`` for a candidate of at least
        ``hysteresis_min_length`` that has fired, else exactly 1.0, so
        weighting is the identity wherever hysteresis does not apply."""
        if (
            self.hysteresis
            and candidate.fires
            and candidate.length >= self.hysteresis_min_length
        ):
            return self.realized_share(candidate) ** self.hysteresis
        return 1.0


class ReplayDecisionPolicy:
    """SelectReplayTrace of Algorithm 1, factored out of the replayer.

    Owns every choice the serving path makes among the completed matches
    ``D``, the deferred match, and the active potential matches ``A`` --
    the replayer keeps only stream bookkeeping (buffering, firing,
    flushing). Its state is the ``hysteresis_suppressed`` counter and
    the one-value score hand-off from :meth:`select` to
    :meth:`worth_waiting` (a cache within one step, never a decision
    input), so decisions stay a pure function of the token stream and
    the ingested candidate sets (the Section 5.1 agreement argument).
    """

    def __init__(self, scoring=None):
        self.scoring = scoring if scoring is not None else ScoringPolicy()
        #: Times hysteresis kept a deferral from waiting on (or a
        #: challenger from displacing toward) a candidate the paper's
        #: scoring would have chased.
        self.hysteresis_suppressed = 0
        self._handoff = None  # (match, now_index, score) from select

    # ------------------------------------------------------------------
    # Choosing among completions
    # ------------------------------------------------------------------
    def select(self, completed, incumbent, now_index):
        """The match to defer after this token: challenger or incumbent.

        The best completed match -- highest score, then longest, then
        earliest start -- displaces the held one only if it strictly
        beats it; with no incumbent the best completion wins outright.
        Returns ``None`` only when both are absent.
        """
        if not completed:
            self._handoff = None
            return incumbent
        scoring = self.scoring
        score = scoring.score
        challenger = None
        for match in completed:
            candidate = match.candidate
            key = (score(candidate, now_index), candidate.length,
                   -match.start_index)
            if challenger is None or key > best:
                challenger, best = match, key
        raw, length, _ = best
        held, held_score = challenger, raw
        if incumbent is not None:
            # The challenger pays for its realized misalignment record;
            # the held match keeps its full score (displacement is never
            # made cheaper by the incumbent's own record -- hysteresis
            # resists switching, it does not invite it).
            cs = raw * scoring.weight(challenger.candidate)
            inc = score(incumbent.candidate, now_index)
            if cs != inc:
                if (cs > inc) != (raw > inc):
                    self.hysteresis_suppressed += 1
                wins = cs > inc
            elif length != incumbent.candidate.length:
                wins = length > incumbent.candidate.length
            else:
                # Equal scores and lengths: consume the stream in order.
                wins = challenger.start_index < incumbent.start_index
            if not wins:
                held, held_score = incumbent, inc
        self._handoff = (held, now_index, held_score)
        return held

    # ------------------------------------------------------------------
    # Deferral
    # ------------------------------------------------------------------
    def worth_waiting(self, match, now_index, pointers):
        """True while some active pointer overlapping ``match``'s region
        may still complete a candidate scoring higher than ``match``.

        ``pointers`` yields ``(start_index, node)`` ascending by start
        (a match-engine's live pointer set); enumeration stops at the
        first pointer past the match's region.
        """
        scoring = self.scoring
        handoff = self._handoff
        self._handoff = None
        if (
            handoff is not None
            and handoff[0] is match
            and handoff[1] == now_index
        ):
            threshold = handoff[2]
        else:
            threshold = scoring.score(match.candidate, now_index)
        end = match.end_index
        count_cap = scoring.count_cap
        replay_bonus = scoring.replay_bonus
        raw_would_wait = False
        for start, node in pointers:
            if start >= end:
                # Pointers arrive sorted by start: every later one also
                # consumes only stream beyond the match.
                break
            deep = node.deep
            if deep is None or deep.length <= node.depth:
                continue  # nothing deeper can complete from here
            # ScoringPolicy.potential, inline.
            potential = deep.length * count_cap * replay_bonus
            if potential <= threshold:
                continue
            # Hysteresis discounts only the candidate waited *for*, never
            # the match in hand. The weight is at most 1, so a potential
            # at or under the threshold never needs it.
            if potential * scoring.weight(deep) > threshold:
                return True
            raw_would_wait = True
        if raw_would_wait:
            self.hysteresis_suppressed += 1
        return False


__all__ = ["ReplayDecisionPolicy", "ScoringPolicy"]
