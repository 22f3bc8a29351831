PYTHON ?= python
# every target runs the package from this checkout's src/
export PYTHONPATH := src

.PHONY: install test verify-gates verify-determinism verify-checkpoints verify-mlck verify-localized verify-workflow verify-reconfig verify-reconfig-deep bench bench-baseline bench-obs bench-localized bench-workflow bench-fleet bench-artifacts bench-e2e bench-e2e-quick bench-e2e-compare report trace obs-report forensics-demo examples all clean

# fixed seed so the gate is fully deterministic; DEEP_SEED rotates daily
VERIFY_SEED ?= 20260806
DEEP_SEED ?= $(shell date +%Y%m%d)

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# the five verify gates whose stdout the ROADMAP rules pin, at
# VERIFY_SEED, without the pytest halves of the targets below: the
# gate lines of a change in one command
verify-gates:
	$(PYTHON) -m repro.verify run --seed $(VERIFY_SEED) \
		--cases 220 --fault-cases 40 --out verify_out
	$(PYTHON) -m repro.verify known-bad
	$(PYTHON) -m repro.verify mlck --seed $(VERIFY_SEED) \
		--cases 40 --out verify_out
	$(PYTHON) -m repro.verify localized --seed $(VERIFY_SEED) \
		--cases 40 --out verify_out
	$(PYTHON) -m repro.verify workflow --seed $(VERIFY_SEED) \
		--cases 40 --out verify_out

# simulated numbers are a function of the simulated clocks alone: a
# workflow ensemble and every verify-gates mode (canonical schedules and
# seeded cases at VERIFY_SEED's counts), each rerun in-process under
# host thread switch intervals 5e-3, 1e-5 and 1e-6, must give the same
# sim_elapsed, phase log and flight records
verify-determinism:
	$(PYTHON) -m pytest -m determinism tests/
	$(PYTHON) -m pytest tests/integration/determinism_gates.py

verify-checkpoints:
	$(PYTHON) -m pytest -m "crash_consistency or mlck or flight or localized or workflow" tests/

# the multi-level store gate: the canonical node-loss and
# mid-drain-crash schedules, a seeded batch of random memory+pfs fault
# cases, and the mlck-marked scenario tests
verify-mlck:
	$(PYTHON) -m repro.verify mlck --seed $(VERIFY_SEED) \
		--cases 40 --out verify_out
	$(PYTHON) -m pytest -m mlck tests/

# the localized-recovery equivalence gate: the canonical happy-path and
# PFS-fallback schedules plus a seeded sweep, each schedule run through
# BOTH the localized and the full recovery path (state must come out
# byte-identical), and the localized-marked scenario tests
verify-localized:
	$(PYTHON) -m repro.verify localized --seed $(VERIFY_SEED) \
		--cases 40 --out verify_out
	$(PYTHON) -m pytest -m localized tests/

# the coupled-workflow gate: the canonical torn-line and lost-member
# schedules, a seeded batch of random ring-coupled ensemble cases
# (torn lines rejected as units, byte-identical mixed-task-count
# restarts), and the workflow-marked scenario tests
verify-workflow:
	$(PYTHON) -m repro.verify workflow --seed $(VERIFY_SEED) \
		--cases 40 --out verify_out
	$(PYTHON) -m pytest -m workflow tests/

# the differential reconfiguration harness (DESIGN.md section 10):
# 220 seeded (t1,p1)->(t2,p2) cases across all three engines plus 40
# fault-schedule recovery cases, the known-bad shrinker demo, and the
# property/corpus tests
verify-reconfig:
	$(PYTHON) -m repro.verify run --seed $(VERIFY_SEED) \
		--cases 220 --fault-cases 40 --out verify_out
	$(PYTHON) -m repro.verify known-bad
	$(PYTHON) -m pytest -m "verify or streamvec" tests/

# fresh seed every day, 10x the case volume; failures shrink to
# replayable JSON reproducers under verify_out/
verify-reconfig-deep:
	$(PYTHON) -m repro.verify run --seed $(DEEP_SEED) \
		--cases 2000 --fault-cases 400 --out verify_out

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# the multi-level recovery baseline: writes benchmarks/out/BENCH_mlck.json
bench-baseline:
	$(PYTHON) -m pytest benchmarks/bench_mlck_recovery.py \
		--benchmark-only -s

# the observability-overhead gate: regenerates BENCH_obs_overhead.json
# and fails if the always-on flight recorder costs more than 5% over
# the everything-off baseline
bench-obs:
	PYTHONPATH=$(PYTHONPATH):benchmarks $(PYTHON) benchmarks/bench_obs_overhead.py --check

# the localized-recovery gate: regenerates BENCH_localized.json and
# fails if localized recovery does not beat a full restart on the
# L1-served happy path
bench-localized:
	PYTHONPATH=$(PYTHONPATH):benchmarks $(PYTHON) benchmarks/bench_localized_recovery.py --check

# the workflow gate: regenerates BENCH_workflow.json and fails if
# coordination costs an unbounded premium over independent members,
# a torn workflow line is not rejected as a unit, or the
# mixed-task-count ensemble restart diverges
bench-workflow:
	PYTHONPATH=$(PYTHONPATH):benchmarks $(PYTHON) benchmarks/bench_workflow.py --check

# the scheduler gate, both benches of the one fleet simulation: the
# section 8 tables (failure-free) and BENCH_fleet.json, failing if the
# adaptive cadence does not beat the fixed one on lost work under the
# sustained storm, or the reconfigurable scheduler loses its
# utilization edge over the rigid one
bench-fleet:
	$(PYTHON) -m pytest benchmarks/bench_scheduler_flexibility.py \
		--benchmark-only -s
	PYTHONPATH=$(PYTHONPATH):benchmarks $(PYTHON) benchmarks/bench_fleet_policies.py --check

# every committed artifact under benchmarks/out reproduces: regenerate
# them all (`make bench bench-baseline bench-localized bench-fleet
# bench-workflow`, and verify_gates.txt, the gate lines `make -s
# verify-gates` prints), then fail on any difference from the committed
# files.  BENCH_obs_overhead.json holds wall-clock values (and its 5%
# gate passes or fails by chance), so `bench_obs_overhead.py` is not run
# and the file is left out until that bench goes (ROADMAP 11 (iv)).
bench-artifacts: bench-baseline bench-localized bench-fleet bench-workflow
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s \
		--ignore=benchmarks/bench_obs_overhead.py
	$(MAKE) -s --no-print-directory verify-gates > benchmarks/out/verify_gates.txt
	git diff --exit-code -- benchmarks/out

# the wall-clock recovery-cycle benchmark (benchmarks/e2e, declared in
# BENCHMARK.json): the driver's command once per workload, end to end
bench-e2e:
	@for w in $$($(PYTHON) -c "import json; print(' '.join(w['name'] for w in json.load(open('BENCHMARK.json'))['workloads']))"); do \
		echo "== $$w"; python3 benchmarks/e2e/run.py --workload $$w || exit 1; \
	done

# the harness self-test: two rotations on 64x64 arrays through every
# pass with the oracle gate, then the span-arithmetic tests
bench-e2e-quick:
	$(PYTHON) -m benchmarks.e2e --quick --check
	$(PYTHON) -m pytest benchmarks/e2e/tests

# a perf claim as one command: `make bench-e2e-compare BASE=<rev>
# [WORKLOAD=<name>]` runs the end-to-end pass ten times at BASE and ten
# times in the working tree, then prints --compare A B (exit 1 on a
# `worse` row).  The child puts its own checkout's src/ first on
# PYTHONPATH, so each side runs from its own tree: BASE is exported
# with `git archive` into the git-ignored .bench_build/base and removed
# afterwards.  benchmarks/e2e must be identical on both sides.
BENCH_CMP := $(CURDIR)/.bench_build
E2E_RUNS = --pass e2e --runs 10 $(if $(WORKLOAD),--workload $(WORKLOAD))
bench-e2e-compare:
	@test -n "$(BASE)" || { echo "usage: make bench-e2e-compare BASE=<rev> [WORKLOAD=<name>]"; exit 2; }
	rm -rf $(BENCH_CMP)/base && mkdir -p $(BENCH_CMP)/base
	git archive $(BASE) | tar -x -C $(BENCH_CMP)/base
	cd $(BENCH_CMP)/base && python3 benchmarks/e2e/run.py $(E2E_RUNS) --out $(BENCH_CMP)/A.json; \
		status=$$?; rm -rf $(BENCH_CMP)/base; exit $$status
	python3 benchmarks/e2e/run.py $(E2E_RUNS) --out $(BENCH_CMP)/B.json
	python3 benchmarks/e2e/run.py --compare $(BENCH_CMP)/A.json $(BENCH_CMP)/B.json

report:
	$(PYTHON) -m repro.tools.report --out benchmarks/out

# one traced checkpoint/restart lifecycle: Chrome trace (load trace_out/
# trace.json at https://ui.perfetto.dev), metrics dump, phase breakdown
trace:
	$(PYTHON) -m repro.tools.trace --out trace_out

# the full paper report plus the traced-lifecycle artifacts
obs-report:
	$(PYTHON) -m repro.tools.report --out benchmarks/out --trace trace_out

# kill a node mid-run and write the full forensic record (incident
# dump, black box, OpenMetrics health) under forensics_out/
forensics-demo:
	$(PYTHON) -m repro.tools.forensics dump --out forensics_out

examples:
	@for s in examples/*.py; do echo "== $$s"; $(PYTHON) $$s || exit 1; done

all: test bench examples

clean:
	rm -rf benchmarks/out trace_out verify_out forensics_out .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
