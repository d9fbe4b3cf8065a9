#!/usr/bin/env bash
# Repo verification: tier-1 tests plus the fast perf guards.
#
#   scripts/verify.sh            # unit suite + perf_smoke subset
#   VERIFY_FULL=1 scripts/verify.sh   # additionally the full benchmark suite
#
# Used by `make verify`; keep it in sync with the tier-1 command recorded
# in ROADMAP.md. Every test runs exactly once: the unit step deselects
# what the named steps after it run, so a regression in one of those
# suites fails under its own unmistakable step name.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# Static analysis first: the determinism & invariant linter (rules
# RPL001-RPL009, see `python -m repro.lint --list-rules`) over src/,
# against the checked-in baseline (lint-baseline.json). Fails on any
# fresh violation; runs before the tests because it is the cheapest gate.
echo "== static analysis"
python -m repro.lint src

# Everything under tests/ except the API snapshot file and the
# replication, faults, trace, persist and perf_smoke markers, which the
# named steps below run.
echo "== tier-1 unit suite"
python -m pytest -x -q tests --ignore=tests/test_api_surface.py \
    -m "not (replication or faults or trace or persist or perf_smoke)"

# The frozen __all__ snapshot: an API-surface drift fails here.
echo "== public API surface"
python -m pytest -x -q -m api tests/test_api_surface.py

# Control replication: the Section 5.1 agreement protocol and the
# replicated tracing backend (all-node decision agreement, coordinator
# pruning, divergence demonstration).
echo "== replication suite"
python -m pytest -x -q -m replication tests

# Chaos: the fault-injection / graceful-degradation suites (seeded fault
# plans, containment parity, lane quarantine, replica drops, the
# fault-free-tenant byte-identity property).
echo "== chaos (fault injection) suite"
python -m pytest -x -q -m faults tests

# Trace corpus: every checked-in fixture under tests/corpus/ must parse
# canonically and re-drive to a byte-identical decision stream on every
# tracing backend (plus the phase-graph generator's determinism laws).
# Regenerate fixtures with `make corpus`.
echo "== trace corpus"
python -m pytest -x -q -m trace tests

# Persistence: dehydrate/hydrate round-trip byte-stability, warm-start
# decision parity on every backend, deterministic candidate eviction,
# digest tamper detection, and the service evict-then-readmit path.
echo "== persistence"
python -m pytest -x -q -m persist tests

# Fast floors over the two perf-tracked hot paths: suffix-array backend
# equivalence (tests/) and the replayer match-engine speedup
# (benchmarks/test_perf_replayer.py::test_perf_replayer_smoke), plus the
# null-fault-plan hook-overhead guard (benchmarks/test_perf_faults.py).
echo "== perf_smoke guards"
python -m pytest -x -q -m perf_smoke

if [ "${VERIFY_FULL:-0}" = "1" ]; then
    echo "== benchmark suite (beyond perf_smoke)"
    python -m pytest -x -q benchmarks -m "not perf_smoke"
fi
