# hdSMT reproduction — one-keystroke entry points.
#
#   make test     tier-1 suite (what CI / the roadmap gate runs)
#   make bench    opt-in figure + throughput benchmarks (writes
#                 benchmarks/output/*.txt and BENCH_0001.json)
#   make figures  regenerate Figs. 4/5 + the §5 summary via the CLI
#
#   make cov      tier-1 suite under pytest-cov with the CI coverage
#                 floor (80% over src/repro); writes coverage.xml
#   make lint     ruff check + ruff format --check over src/ tests/
#                 benchmarks/ (the CI lint job)
#   make perf-gate  throughput-regression tripwire: re-runs the
#                 throughput benchmarks (REPRO_SIM_SCALE=0.1) and fails
#                 on >25% regression vs the committed BENCH_000N baseline
#   make chaos    fault-injection suite against a real 2-worker pool
#                 (worker deaths, hangs, corrupt cache entries; the CI
#                 chaos lane)
#   make chaos-remote  distributed chaos lane: real `repro worker`
#                 processes under REPRO_FAULT_PLAN (worker death, hangs
#                 past lease expiry, stale-lease takeover, and a forced
#                 straggler whose bundle tail must be stolen), asserting
#                 bit-identical output + an eventful run report
#   make cache-smoke  multi-tier result-cache lane: memory-tier/backend
#                 semantics, the rendered-frame tier, the split/steal
#                 partition properties, and the `repro cache` CLI verbs
#   make serve-smoke  simulation-service lane: boot a real `repro
#                 serve` daemon, submit the reference sweep, assert the
#                 response byte-identical to the local execution path,
#                 warm resubmission from cache, SIGTERM and wire
#                 drains with no orphaned pool workers (the CI
#                 serve-smoke lane)
#   make ci       what the GitHub Actions workflow runs: tier-1 suite +
#                 a smoke `figures` sweep (tiny scale, 2 workers)
#
# Knobs: REPRO_SIM_SCALE (window scale), REPRO_WORKERS (BatchRunner
# processes), REPRO_RESULT_CACHE (on-disk result cache directory),
# REPRO_TRACE_CACHE (packed trace / warm snapshot store directory),
# PERF_GATE_TOLERANCE (perf-gate regression threshold, default 0.25).

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test cov bench bench-throughput figures ci lint perf-gate chaos \
	chaos-remote serve-smoke cache-smoke

test:
	$(PYTHON) -m pytest -x -q

chaos:
	REPRO_WORKERS=2 $(PYTHON) -m pytest -x -q \
		tests/runner/test_faults.py tests/runner/test_resilience.py

chaos-remote:
	$(PYTHON) -m pytest -x -q \
		tests/runner/test_distributed_queue.py \
		tests/runner/test_distributed.py \
		tests/runner/test_distributed_chaos.py

serve-smoke:
	$(PYTHON) -m pytest -x -q tests/service/test_serve_smoke.py

cache-smoke:
	$(PYTHON) -m pytest -x -q \
		tests/runner/test_cache_tiers.py \
		tests/runner/test_split_properties.py \
		tests/service/test_frame_cache.py \
		tests/integration/test_cli.py::test_cache_stats_and_prune

lint:
	ruff check src tests benchmarks
	ruff format --check src tests benchmarks

perf-gate:
	REPRO_SIM_SCALE=0.1 $(PYTHON) benchmarks/perf_gate.py

cov:
	$(PYTHON) -m pytest -x -q --cov=repro --cov-report=term \
		--cov-report=xml:coverage.xml --cov-fail-under=80

bench:
	RUN_BENCH=1 $(PYTHON) -m pytest benchmarks -q

bench-throughput:
	RUN_BENCH=1 $(PYTHON) -m pytest benchmarks/test_simulator_throughput.py -q

figures:
	$(PYTHON) -m repro figures

ci: test
	REPRO_SIM_SCALE=0.1 REPRO_MAX_MAPPINGS=4 $(PYTHON) -m repro figures \
		--jobs 2 --screening --workloads 2W4 4W6 --quiet
	REPRO_SIM_SCALE=0.1 REPRO_MAX_MAPPINGS=4 $(PYTHON) -m repro figures \
		--jobs 2 --workloads 2W4 4W6 --quiet
