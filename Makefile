# OpenNF reproduction — common workflows.

PYTHON ?= python

.PHONY: install test test-obs test-faults test-conformance conform bench bench-chain bench-obs-overhead ledger-smoke ledger-pinned pairs reach examples validate clean results results-check

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench-chain:
	$(PYTHON) benchmarks/bench_chain.py

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

# The call census (benchmarks/reach.py): the ledger smoke, every example,
# CLI command and bench run under a profile hook in a copy of the tree;
# fails on a src/repro function none of them calls that ALLOWED does
# not excuse, and on a stale ALLOWED line. About 6 min on 2 vCPUs.
reach:
	$(PYTHON) benchmarks/reach.py

test-obs:
	$(PYTHON) -m pytest tests/ -m obs

test-faults:
	$(PYTHON) -m pytest tests/ -m faults

test-conformance:
	$(PYTHON) -m pytest tests/ -m conformance

# The conformance matrix in every mode combination CI runs, then the
# counterexample corpus (CI's conformance job calls this target).
conform:
	$(PYTHON) -m repro.cli conform
	$(PYTHON) -m repro.cli conform --shards 2
	$(PYTHON) -m repro.cli conform --offload
	$(PYTHON) -m repro.cli conform --offload --shards 2
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

# The paper-shape assertions of every bench but the telemetry-overhead
# gate (a wall-clock ratio, so not reproducible), Figs. 10, 11 and 13
# included, then proof that the committed results they regenerate did
# not move. No --benchmark-only: it would skip bench_chain, which takes
# no benchmark fixture.
results-check:
	$(PYTHON) -m pytest benchmarks/ -q -k "not obs_overhead"
	git diff --exit-code -- benchmarks/results/

# Generated files only: benchmarks/results/ holds committed paper results.
clean:
	rm -rf .pytest_cache .hypothesis .benchmarks test_output.txt bench_output.txt
	find . -name __pycache__ -type d -exec rm -rf {} +
