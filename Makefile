# OpenNF reproduction — common workflows.

PYTHON ?= python

.PHONY: install test test-obs test-faults test-conformance conform bench bench-sharded bench-chain bench-offload bench-obs-overhead ledger-smoke ledger-pinned pairs examples validate clean results

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench-sharded:
	$(PYTHON) benchmarks/bench_sharded.py

bench-chain:
	$(PYTHON) benchmarks/bench_chain.py

bench-offload:
	$(PYTHON) benchmarks/bench_offload.py

bench-obs-overhead:
	$(PYTHON) benchmarks/bench_obs_overhead.py

ledger-smoke:
	$(PYTHON) benchmarks/ledger/run.py --smoke

# The simulated clock is pinned: at the reference seed every workload
# must reproduce its committed sim_digest, pass its checks and resolve
# every traced target. Exit 3 (host noise) only disturbs the timings,
# which this gate does not read.
ledger-pinned:
	@out=$$($(PYTHON) benchmarks/ledger/run.py --seed 7 --seconds 2); \
	status=$$?; echo "$$out"; \
	if [ $$status -ne 0 ] && [ $$status -ne 3 ]; then exit $$status; fi; \
	if echo "$$out" | grep -E "MOVED|FAILED:|missing \(no longer resolves\)"; \
	then exit 1; fi; \
	[ $$(echo "$$out" | grep -c "(PINNED)") -eq 5 ]

# Ten alternating parent/change runs of the ledger contract per workload
# (README "Tests and benchmarks"): make pairs PARENT=<commit>
# [LAYERS=<claimed workload>] for the traced layer table as well.
pairs:
	$(PYTHON) benchmarks/pairs.py --parent $(PARENT) $(if $(LAYERS),--layers $(LAYERS))

test-obs:
	$(PYTHON) -m pytest tests/ -m obs

test-faults:
	$(PYTHON) -m pytest tests/ -m faults

test-conformance:
	$(PYTHON) -m pytest tests/ -m conformance

conform:
	$(PYTHON) -m repro.cli conform
	$(PYTHON) -m repro.cli conform --shards 2
	$(PYTHON) -m repro.cli conform --replay tests/corpus

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

examples:
	@for ex in examples/*.py; do \
		echo "=== $$ex ==="; \
		$(PYTHON) $$ex || exit 1; \
	done

validate:
	$(PYTHON) -m repro.cli validate --seeds 3

results:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

clean:
	rm -rf .pytest_cache benchmarks/results/*.txt
	find . -name __pycache__ -type d -exec rm -rf {} +
