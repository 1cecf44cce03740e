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
#                 trace and warm memos stay within their bounds, hold
#                 no profile-length trace, and no memoized trace keeps
#                 warm-up sequences after the prep jobs or the bundle;
#                 the CI chaos lane)
#   make ci       every CI lane that needs no extra package: the tier-1
#                 suite, the chaos and perfbench lanes, then the
#                 figures-smoke lane as CI runs it: a screening sweep,
#                 then exact-mode sweeps with --jobs 1 and --jobs 2
#                 whose stdouts must be identical (lint stays separate:
#                 it needs ruff)
#
# Local subsets of the tier-1 suite:
#
#   make cache-smoke  the result cache (sharded layout, corruption
#                 fallback, stats/prune, key pins), the config key text
#                 and its retired-field text, the pinned warm-snapshot
#                 name, the knob-liveness walk (every config field moves
#                 a simulated or area number), the service's
#                 rendered-frame LRU, and the `repro cache` CLI verbs
#   make trace-smoke  trace generation and packing: the literal pins
#                 of generated trace bytes and profile counts, the
#                 chunked-generation equivalence and memory-bound tests
#                 (a trace is packed as its walker emits it; the profile
#                 pass keeps only load/store addresses), the one-pack
#                 check, and the packed round-trip properties
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
	cache-smoke trace-smoke

test:
	$(PYTHON) -m pytest -x -q

chaos:
	REPRO_WORKERS=2 $(PYTHON) -m pytest -x -q \
		tests/runner/test_faults.py tests/runner/test_resilience.py

trace-smoke:
	$(PYTHON) -m pytest -x -q \
		tests/trace/test_generation_pins.py \
		tests/trace/test_streamed_generation.py \
		tests/trace/test_stream.py::test_saved_generated_trace_is_packed_once \
		tests/properties/test_packed_roundtrip_properties.py

serve-smoke:
	$(PYTHON) -m pytest -x -q tests/service/test_serve_smoke.py

cache-smoke:
	$(PYTHON) -m pytest -x -q \
		tests/runner/test_result_cache.py \
		tests/core/test_config.py::test_config_key_text_spells_out_every_field \
		tests/memory/test_hierarchy.py::test_params_key_text_keeps_the_retired_banks \
		tests/core/test_warm_store.py::test_warm_snapshot_name_is_pinned \
		tests/core/test_knob_liveness.py \
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

ci: test chaos perfbench
	REPRO_SIM_SCALE=0.1 REPRO_MAX_MAPPINGS=4 $(PYTHON) -m repro figures \
		--jobs 2 --screening --workloads 2W4 4W6 --quiet
	REPRO_SIM_SCALE=0.1 REPRO_MAX_MAPPINGS=4 $(PYTHON) -m repro figures \
		--jobs 1 --workloads 2W4 4W6 --quiet > figures-j1.txt
	REPRO_SIM_SCALE=0.1 REPRO_MAX_MAPPINGS=4 $(PYTHON) -m repro figures \
		--jobs 2 --workloads 2W4 4W6 --quiet > figures-j2.txt
	diff figures-j1.txt figures-j2.txt
