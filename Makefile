# Convenience targets for the KNL capability-model reproduction.

PY ?= python

.PHONY: install test lint bench bench-only experiments examples outputs clean

install:
	pip install -e '.[test]' || pip install -e . --no-build-isolation

test:
	$(PY) -m pytest tests/

lint:
	$(PY) -m repro lint

bench:
	$(PY) -m pytest benchmarks/

bench-only:
	$(PY) -m pytest benchmarks/ --benchmark-only

experiments:
	$(PY) -m repro all

examples:
	for ex in examples/*.py; do echo "== $$ex =="; $(PY) $$ex; done

outputs:
	$(PY) -m pytest tests/ 2>&1 | tee test_output.txt
	$(PY) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis *.egg-info
