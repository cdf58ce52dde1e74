# Convenience targets for the repro library.

.PHONY: install test bench experiments examples clean

install:
	pip install -e .

test:
	pytest tests/

bench:
	python3 perf/run.py --smoke

experiments:
	python -m repro.cli all

examples:
	@for f in examples/*.py; do echo "== $$f"; python $$f || exit 1; done

clean:
	rm -rf build dist src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
