#!/usr/bin/env bash
# Verify the full plan corpus (8 TPC-H renditions + 5 microbenchmark
# queries) with the static plan verifier at VerifyLevel::Full, for every
# thread count in {1, 2, 8} under three strategy regimes (cost-model
# default, pullups pinned, baselines pinned).
#
# Every plan is also run through the bounds regime: the abstract
# interpreter must certify a finite peak-memory bound for all of them
# (zero `unbounded` verdicts), and one run of each plan must charge no
# more than its bound and answer on its first attempt (`retries` 0: no
# fault is injected, so nothing should send a plan to the data-centric
# interpreter). Once per distinct plan the reference interpreter
# runs it under a counting allocator, and the most bytes it holds at once
# (`fallback_observed_bytes`) must not exceed the certificate's reserve for
# a data-centric retry (`fallback_bytes`). The per-plan bounds, each with
# the bytes its run charged (`observed_bytes`), are written to
# bounds-report.json (override with BOUNDS_REPORT) for CI to upload as a
# diffable artifact.
#
# Every plan is also rendered through EXPLAIN CODE, which must print a
# non-empty loop.
#
# Exits non-zero if any plan fails verification, certification, its run
# (an error, a retry, or observed bytes above the bound), its interpreter run (an
# error, or a peak above the reserve) or rendering. CI runs
# this as the corpus gate; locally it is the quickest way to smoke-test a
# planner or verifier change against every shape the engine can produce.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo run --release --example verify_corpus
