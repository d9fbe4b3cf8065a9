"""Mining-throughput measurement across suffix-array backends.

The Section 6.3 overhead budget only holds if repeat mining is cheap, and
the ROADMAP's perf trajectory needs a number to track: this module
measures how many tokens per second each suffix-array backend mines on
the Figure 10 workload -- a window of the hash-token stream S3D presents
to the trace finder -- and compares the pipeline against the seed
composition (prefix doubling with lambda sort keys plus one redundant
rank-compression per stage).

Used by ``benchmarks/test_perf_mining.py``; also runnable standalone::

    PYTHONPATH=src python -m repro.experiments.mining_perf
"""

import time

from repro.apps.base import build_app
from repro.core.hashing import TaskHasher
from repro.core.repeats import Repeat, find_repeats
from repro.core.sa_backends import BACKENDS, available_backends
from repro.core.sa_backends.doubling import suffix_array_doubling


def s3d_token_window(num_tokens=5000, gpus=4, task_scale=0.2):
    """The first ``num_tokens`` hash tokens of an S3D run's task stream.

    Exactly the token sequence an :class:`ApopheniaProcessor` would feed
    its trace finder: the application's tasks in issue order, hashed by
    :class:`~repro.core.hashing.TaskHasher`. The app runs untraced with a
    capturing executor so no mining happens while generating the window.
    """
    app = build_app(
        "s3d",
        mode="untraced",
        gpus=gpus,
        task_scale=task_scale,
        keep_task_log=False,
    )
    hasher = TaskHasher()
    tokens = []

    class _CaptureExecutor:
        @staticmethod
        def execute_task(task):
            tokens.append(hasher.hash_task(task))

    app.executor = _CaptureExecutor()
    index = 0
    while len(tokens) < num_tokens:
        app.iteration(index)
        index += 1
    return tokens[:num_tokens]


def _seed_rank_compress(tokens):
    """Frozen copy of the seed's ``rank_compress``."""
    mapping = {}
    out = []
    for tok in tokens:
        rank = mapping.get(tok)
        if rank is None:
            rank = len(mapping)
            mapping[tok] = rank
        out.append(rank)
    return out


def _seed_lcp_array(s, sa):
    """Frozen copy of the seed's Kasai LCP construction."""
    n = len(s)
    if n <= 1:
        return []
    rank = [0] * n
    for i, start in enumerate(sa):
        rank[start] = i
    lcp = [0] * (n - 1)
    h = 0
    for i in range(n):
        if rank[i] > 0:
            j = sa[rank[i] - 1]
            while i + h < n and j + h < n and s[i + h] == s[j + h]:
                h += 1
            lcp[rank[i] - 1] = h
            if h > 0:
                h -= 1
        else:
            h = 0
    return lcp


def _seed_candidates(s, sa, lcp, min_length):
    """Frozen copy of the seed's candidate extraction."""
    out = []
    for i in range(len(sa) - 1):
        s1, s2, p = sa[i], sa[i + 1], lcp[i]
        if p < min_length:
            continue
        if s1 > s2:
            s1, s2 = s2, s1
        if s2 >= s1 + p:
            out.append((p, s1))
            out.append((p, s2))
        else:
            d = s2 - s1
            length = (p + d) // 2
            length -= length % d
            if length >= min_length:
                out.append((length, s1))
                out.append((length, s1 + length))
    return out


def seed_find_repeats(tokens, min_length=1, min_occurrences=2):
    """The seed's mining composition, frozen as the speedup baseline.

    A verbatim reproduction of the pre-backend pipeline: the caller
    rank-compresses, ``suffix_array``/``lcp_array`` each rank-compress
    again internally (three O(n) compression passes total), the
    lambda-key prefix-doubling sort builds the suffix array, and the
    greedy pass sorts candidates with a per-element lambda key and marks
    coverage token by token. Deliberately self-contained (only the
    ``doubling`` reference backend and the ``Repeat`` container are
    shared): future optimizations to the live hot path must not move this
    baseline, or the recorded perf trajectory stops meaning anything.
    """
    tokens = list(tokens)
    n = len(tokens)
    if n < 2 or min_length > n:
        return []
    s = _seed_rank_compress(tokens)
    sa = suffix_array_doubling(_seed_rank_compress(s))
    lcp = _seed_lcp_array(_seed_rank_compress(s), sa)
    cands = _seed_candidates(s, sa, lcp, max(1, min_length))
    if not cands:
        return []
    rank = [0] * n
    for idx, start in enumerate(sa):
        rank[start] = idx
    cands.sort(key=lambda c: (-c[0], rank[c[1]], c[1]))
    covered = bytearray(n)
    selected = {}
    for length, start in cands:
        end = start + length
        if covered[start] or covered[end - 1]:
            continue
        key = tuple(s[start:end])
        positions = selected.get(key)
        if positions is None:
            selected[key] = positions = []
        positions.append(start)
        for i in range(start, end):
            covered[i] = 1
    repeats = []
    for key, positions in selected.items():
        if len(positions) < min_occurrences:
            continue
        first = positions[0]
        sub = tuple(tokens[first : first + len(key)])
        repeats.append(Repeat(sub, positions))
    repeats.sort(key=lambda r: (-r.length, r.positions[0]))
    return repeats


class MiningMeasurement:
    """Throughput of one miner configuration over one window."""

    __slots__ = ("name", "tokens_per_sec", "seconds", "repeats")

    def __init__(self, name, tokens_per_sec, seconds, repeats):
        self.name = name
        self.tokens_per_sec = tokens_per_sec
        self.seconds = seconds
        self.repeats = repeats

    def __repr__(self):
        return (
            f"MiningMeasurement({self.name}: "
            f"{self.tokens_per_sec:,.0f} tok/s)"
        )


def measure_mining_throughput(
    tokens, min_length=25, rounds=3, backends=None, include_seed=True
):
    """Time ``find_repeats`` per backend; returns ``{name: measurement}``.

    Each round runs every configuration once (so drift hits them alike);
    each reports its best round (minimum wall-clock) to suppress
    scheduling noise. ``seed`` reproduces the pre-backend pipeline
    and is the baseline the ≥3x acceptance target is measured against.
    """
    tokens = list(tokens)
    miners = {}
    if include_seed:
        miners["seed"] = seed_find_repeats
    for name in backends if backends is not None else available_backends():
        miners[name] = _backend_miner(name)
    best = {}
    for _ in range(rounds):
        for name, miner in miners.items():
            start = time.perf_counter()
            repeats = miner(tokens, min_length)
            elapsed = time.perf_counter() - start
            if name not in best or elapsed < best[name][0]:
                best[name] = (elapsed, repeats)
    return {
        name: MiningMeasurement(
            name, len(tokens) / elapsed if elapsed else 0.0, elapsed, repeats
        )
        for name, (elapsed, repeats) in best.items()
    }


def _backend_miner(name):
    # Bind the backend *callable*: measurements must be immune to any
    # config-level backend override, so every row measures the backend its
    # label names.
    build = BACKENDS[name]

    def miner(tokens, min_length):
        return find_repeats(tokens, min_length, backend=build)

    return miner


def main():
    tokens = s3d_token_window()
    results = measure_mining_throughput(tokens)
    seed = results["seed"].tokens_per_sec
    for name, m in sorted(
        results.items(), key=lambda kv: kv[1].tokens_per_sec
    ):
        speedup = m.tokens_per_sec / seed if seed else float("inf")
        print(
            f"{name:9s} {m.seconds * 1e3:8.2f} ms  "
            f"{m.tokens_per_sec:12,.0f} tok/s  {speedup:5.2f}x"
        )


if __name__ == "__main__":
    main()
