# Convenience targets for the repro library.

PY ?= python3

.PHONY: help install test lint bench bench-fast bench-smoke serve-smoke faults-smoke relay-smoke reproduce examples clean

help:
	@echo "install      pip install -e ."
	@echo "test         full test suite"
	@echo "lint         concurrency/protocol lint + DT7xx lockset + DT8xx resource-flow + DT9xx protocol conformance + lint-marked tests"
	@echo "bench        full benchmark suite"
	@echo "bench-smoke  fast perf guardrails (decode, serve, encode pool, faults, relay)"
	@echo "reproduce    regenerate the paper-reproduction report"
	@echo "examples     run every example script"
	@echo "clean        remove build/test artifacts"

install:
	pip install -e . --no-build-isolation

test:
	$(PY) -m pytest tests/

# Repo-specific static checks (rule catalogue in docs/devtools.md) plus
# the tests that pin the rules and the analyzers themselves.
# `repro lint` runs the DT1xx-DT6xx rules, the DT7xx lockset race
# analyzer, the DT8xx resource-lifecycle analyzer and the DT9xx
# protocol-conformance analyzer over one parse of each file; the
# analyzer findings are filtered through the one lint_baseline.json.
lint:
	PYTHONPATH=src $(PY) -m repro lint src tests
	PYTHONPATH=src $(PY) -m pytest tests/ -m lint

bench:
	$(PY) -m pytest benchmarks/ --benchmark-only

bench-fast:
	REPRO_BENCH_FAST=1 $(PY) -m pytest benchmarks/ --benchmark-only

# Quick decode-throughput guardrail (seconds, not minutes): runs only the
# perf_smoke-marked tests, which assert order-of-magnitude floors.
# PYTHONPATH=src so it works from a fresh checkout without `make install`.
bench-smoke: serve-smoke faults-smoke relay-smoke
	PYTHONPATH=src $(PY) -m pytest tests/ -m perf_smoke

# Serving-layer guardrail: the fan-out benchmark at tiny scale
# (4 viewers, 16 frames), plus one broker with a 2-worker encode pool at
# 4 and 64 viewers, where warm fps must not collapse as the viewer count
# grows 16x — catches broker/cache/pool regressions in seconds.
serve-smoke:
	PYTHONPATH=src $(PY) -m pytest tests/unit/test_serve_smoke.py -m perf_smoke

# Resilience guardrail: one lossy/jittery WAN cell — catches retry,
# credit-leak, and reconnect-resume regressions in seconds.
faults-smoke:
	PYTHONPATH=src $(PY) -m pytest tests/unit/test_faults_smoke.py -m perf_smoke

# Relay-tier guardrail: one replay-heavy two-relay topology — catches
# offload, store, prefetch, and ownership-ring regressions in seconds.
relay-smoke:
	PYTHONPATH=src $(PY) -m pytest tests/unit/test_relay_smoke.py -m perf_smoke

reproduce:
	$(PY) examples/reproduce_paper.py

examples:
	$(PY) examples/quickstart.py
	$(PY) examples/partition_tuning.py
	$(PY) examples/compression_explorer.py
	$(PY) examples/remote_session_nasa.py
	$(PY) examples/ibr_explorer.py
	$(PY) examples/tcp_deployment.py

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
