# hdSMT reproduction — one-keystroke entry points.
#
#   make test     tier-1 suite (what CI / the roadmap gate runs)
#   make bench    opt-in paper figure + table regeneration (writes
#                 benchmarks/output/*.txt)
#   make figures  regenerate Figs. 4/5 + the §5 summary via the CLI
#   make perfbench  the benchmark's self-test: every perfbench workload
#                 at tiny size, checking metric names and units, output
#                 digests and that a corrupted output counts as a
#                 failure (the CI perfbench lane); measure with
#                 `python3 perfbench/run.py --workload NAME`
#
#   make cov      tier-1 suite under pytest-cov with the CI coverage
#                 floor (80% over src/repro); writes coverage.xml
#   make lint     ruff check + ruff format --check over src/ tests/
#                 benchmarks/ (the CI lint job)
#   make chaos    fault-injection suite against a real 2-worker pool
#                 (worker deaths, hangs, corrupt cache entries, and the
#                 worker-memory probes: no finished Processor may stay
#                 alive in a worker whose cyclic GC is off, and
#                 test_pool_workers_hold_bounded_memos: each worker's
#                 trace and warm memos stay within their bounds and hold
#                 no profile-length trace; the CI chaos lane)
#   make ci       tier-1 suite + the figures-smoke CI lane as CI runs
#                 it: a screening sweep, then exact-mode sweeps with
#                 --jobs 1 and --jobs 2 whose stdouts must be identical
#
# Local subsets of the tier-1 suite:
#
#   make cache-smoke  the result cache (sharded layout, corruption
#                 fallback, stats/prune, key pins), the service's
#                 rendered-frame LRU, and the `repro cache` CLI verbs
#   make serve-smoke  simulation service: boot a real `repro serve`
#                 daemon, submit the reference sweep, assert the
#                 response byte-identical to the local execution path,
#                 warm resubmission from cache, SIGTERM and wire
#                 drains with no orphaned pool workers
#
# Knobs: the REPRO_* environment variables in README's "Settings" table
# (e.g. REPRO_SIM_SCALE, REPRO_WORKERS, REPRO_RESULT_CACHE).

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test cov bench figures ci lint perfbench chaos serve-smoke \
	cache-smoke

test:
	$(PYTHON) -m pytest -x -q

chaos:
	REPRO_WORKERS=2 $(PYTHON) -m pytest -x -q \
		tests/runner/test_faults.py tests/runner/test_resilience.py

serve-smoke:
	$(PYTHON) -m pytest -x -q tests/service/test_serve_smoke.py

cache-smoke:
	$(PYTHON) -m pytest -x -q \
		tests/runner/test_result_cache.py \
		tests/service/test_frame_cache.py \
		tests/integration/test_cli.py::test_cache_stats_and_prune \
		tests/integration/test_cli.py::test_cache_prune_bad_age_exits_2_and_deletes_nothing

lint:
	ruff check src tests benchmarks
	ruff format --check src tests benchmarks

perfbench:
	$(PYTHON) perfbench/selftest.py

cov:
	$(PYTHON) -m pytest -x -q --cov=repro --cov-report=term \
		--cov-report=xml:coverage.xml --cov-fail-under=80

bench:
	RUN_BENCH=1 $(PYTHON) -m pytest benchmarks -q

figures:
	$(PYTHON) -m repro figures

ci: test
	REPRO_SIM_SCALE=0.1 REPRO_MAX_MAPPINGS=4 $(PYTHON) -m repro figures \
		--jobs 2 --screening --workloads 2W4 4W6 --quiet
	REPRO_SIM_SCALE=0.1 REPRO_MAX_MAPPINGS=4 $(PYTHON) -m repro figures \
		--jobs 1 --workloads 2W4 4W6 --quiet > figures-j1.txt
	REPRO_SIM_SCALE=0.1 REPRO_MAX_MAPPINGS=4 $(PYTHON) -m repro figures \
		--jobs 2 --workloads 2W4 4W6 --quiet > figures-j2.txt
	diff figures-j1.txt figures-j2.txt
