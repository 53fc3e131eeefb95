# Convenience targets for the repro library.

.PHONY: install test lint bench bench-results bench-record \
	bench-check bench-e2e bench-e2e-compare bench-e2e-check \
	bench-e2e-pin examples clean

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

test-output:
	pytest tests/ 2>&1 | tee test_output.txt

# Two layers: a general linter (ruff when available — what CI
# installs — falling back to pyflakes, else a warning) plus
# reprolint, the in-tree AST invariant checker (`repro lint`: REP012
# and REP014 over src/; it imports repro, so it needs numpy and
# scipy). The overall exit status is the combination of whichever
# linters actually ran.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	elif command -v pyflakes >/dev/null 2>&1; then \
		pyflakes src tests benchmarks examples; \
	else \
		echo "warning: no general linter found (pip install" \
		     "ruff); running reprolint only"; \
	fi
	PYTHONPATH=src python -m repro lint

bench:
	pytest benchmarks/ --benchmark-only

bench-output:
	pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

# Baseline workflow (DESIGN.md §10): the `bench_record` fixture in
# benchmarks/conftest.py is the one writer and the one gate of the
# trajectory store. `bench-record` appends fresh records — the
# canonical deployment benches, then the test-scale ones; `bench-check`
# gates the reference workload, exp8_fleet, serving throughput and
# fleet overhead against the store in one pytest run. Every metric in
# the store is on the virtual clock and gated by exact match;
# wall-clock is `bench-e2e-check` below and nowhere else.
BENCH_STORE ?= benchmarks/baselines
BENCH_GATED := benchmarks/bench_trajectories.py \
	benchmarks/bench_serving_throughput.py \
	benchmarks/bench_fleet_overhead.py

bench-record:
	PYTHONPATH=src REPRO_BENCH_STORE=$(BENCH_STORE) pytest \
		benchmarks/bench_exp1_deployment.py::test_run_deployment \
		benchmarks/bench_exp3_materialization.py::test_table4 \
		--benchmark-only -q
	PYTHONPATH=src REPRO_BENCH_SCALE=test \
		REPRO_BENCH_STORE=$(BENCH_STORE) pytest $(BENCH_GATED) \
		--benchmark-only -q

bench-check:
	PYTHONPATH=src REPRO_BENCH_SCALE=test REPRO_BENCH_CHECK=1 \
		REPRO_BENCH_STORE=$(BENCH_STORE) pytest $(BENCH_GATED) \
		--benchmark-only -q

# The wall-clock benchmark BENCHMARK.json declares (benchmarks/e2e,
# see its README). `bench-e2e` runs the four workloads, each in a
# fresh process, and prints layer x self seconds x share per workload.
# `bench-e2e-compare REF=<sha>` is how a speed claim is checked before
# it is made: REF is exported with `git archive` next to the results,
# WORKLOAD (one name, or `all` for the four of BENCHMARK.json, one
# after another inside each pair) runs PAIRS times on REF and on the
# working tree — in alternating order, because this box's speed drifts
# between minutes — and each pair's two result directories go through
# `compare` (exit 1 if any pair has a `worse` verdict). Every workload
# runs at its own default seed, the one `expected.json`'s goldens were
# recorded at, unless SEED is given. It ends with one summary over all
# pairs (`benchmarks/pairs_summary.py`): per workload, medians with
# quartiles, pairs won, and whether the rule for claiming a gain holds.
# Everything lands under E2E_DIR (gitignored).
E2E_DIR ?= .bench_runs/e2e
WORKLOAD ?= url_continuous
PAIRS ?= 10
E2E_WORKLOADS = $(if $(filter all,$(WORKLOAD)),$(shell python3 -c \
	"import json; print(*(w['name'] for w in \
	json.load(open('BENCHMARK.json'))['workloads']))"),$(WORKLOAD))
E2E_RUN = python3 benchmarks/e2e/run.py $(if $(SEED),--seed $(SEED)) \
	--seconds 10 --trace 0

bench-e2e:
	PYTHONPATH=src python3 -m benchmarks.e2e.run --all \
		--run-root $(E2E_DIR)/runs --out $(E2E_DIR)/results
	python3 -m benchmarks.e2e.report $(E2E_DIR)/results

bench-e2e-compare: C = $(abspath $(E2E_DIR))/compare-$(REF)
bench-e2e-compare:
	@test -n "$(REF)" || { echo "usage: make bench-e2e-compare" \
		"REF=<sha> [WORKLOAD=<name>|all] [SEED=<each workload's" \
		"own>] [PAIRS=$(PAIRS)]"; exit 2; }
	rm -rf $C && mkdir -p $C/tree
	git archive $(REF) | tar -x -C $C/tree
	@status=0; \
	each() { for workload in $(E2E_WORKLOADS); do \
		"$$@" --workload $$workload || return 1; done; }; \
	parent() { (cd $C/tree && each $(E2E_RUN) --out $C/parent/$$1); }; \
	change() { each $(E2E_RUN) --run-root $C/runs --out $C/change/$$1; }; \
	for pair in $$(seq 1 $(PAIRS)); do \
		if [ $$((pair % 2)) -eq 1 ]; then \
			parent $$pair && change $$pair; \
		else \
			change $$pair && parent $$pair; \
		fi > $C/pair-$$pair.log 2>&1 \
			|| { cat $C/pair-$$pair.log; exit 1; }; \
		echo "pair $$pair of $(PAIRS) ($(E2E_WORKLOADS), seed" \
			"$(or $(SEED),each workload's own)):"; \
		python3 -m benchmarks.e2e.compare $C/parent/$$pair \
			$C/change/$$pair || status=1; \
	done; python3 -m benchmarks.pairs_summary $C; exit $$status

# The one wall gate. benchmarks/baselines/E2E_PIN is one line, `<sha>
# <reason>`: the commit the tree is held to, which moves only when
# someone says why (`make bench-e2e-pin REASON="..."` pins HEAD) — a
# reference that moved with every commit would let a ratchet of
# sub-bound regressions walk through. `bench-e2e-check` is the compare
# above against that commit, every workload, three pairs: both sides
# run within the same minutes, so raw wall is never compared across
# hours. After a re-pin, regenerate EXPERIMENTS.md's layer table
# (`make bench-e2e`).
E2E_PIN := benchmarks/baselines/E2E_PIN

bench-e2e-check:
	$(MAKE) bench-e2e-compare WORKLOAD=all PAIRS=3 \
		REF=$$(cut -d' ' -f1 $(E2E_PIN))

bench-e2e-pin:
	@test -n "$(REASON)" || { echo "usage: make bench-e2e-pin" \
		"REASON=\"why the reference moves\""; exit 2; }
	echo "$$(git rev-parse --short HEAD) $(REASON)" > $(E2E_PIN)

# End-to-end smoke recipes, one per subsystem; CI runs each as one
# entry of its `smoke` matrix job, `make smoke` runs them all locally.
# Every recipe starts from an empty scratch directory of its own.
SMOKES := serving perf monitor traffic fleet lineage recovery e2e figures
SMOKE_DIR ?= .smoke
REPRO := PYTHONPATH=src python -m repro
RUN := PYTHONPATH=src timeout
BENCH_GATE := PYTHONPATH=src REPRO_BENCH_SCALE=test timeout 120 \
	python -m pytest -q --benchmark-only

.PHONY: smoke $(SMOKES:%=smoke-%)
smoke: $(SMOKES:%=smoke-%)

$(SMOKES:%=smoke-%): D = $(SMOKE_DIR)/$(@:smoke-%=%)
$(SMOKES:%=smoke-%): smoke-%: smoke-scratch-%

smoke-scratch-%:
	rm -rf $(SMOKE_DIR)/$* && mkdir -p $(SMOKE_DIR)/$*

# Registry bootstrap, canary reject, promote, and quality-gated
# rollback, then the registry CLI — well under 60s.
smoke-serving:
	$(RUN) 60 python examples/serving_rollout.py
	$(RUN) 60 python -m repro serve --dataset url --scale test \
		--registry $D/registry
	$(REPRO) registry list --registry $D/registry

# A baseline for the reference workload, then an identical re-run
# gated against it: the self-comparison must pass exactly, because
# every metric in the store is deterministic (DESIGN.md §10). Then the
# run that workload's profile digest is taken from, and its report.
REFERENCE := benchmarks/bench_trajectories.py::test_reference_workload
smoke-perf:
	REPRO_BENCH_STORE=$D/baselines $(BENCH_GATE) $(REFERENCE)
	REPRO_BENCH_STORE=$D/baselines REPRO_BENCH_CHECK=1 $(BENCH_GATE) \
		$(REFERENCE)
	$(RUN) 120 python -m repro run --approach continuous --dataset url \
		--scale test --run-dir $D/p
	$(REPRO) obs $D/p

# A drifting deployment must fire AND resolve a drift alert (the
# example exits non-zero otherwise), two identical-seed instrumented
# runs must produce byte-identical health.json timelines, and the one
# reader must render the run directory.
smoke-monitor:
	$(RUN) 120 python examples/health_monitor.py
	$(RUN) 120 python -m repro exp1 --dataset url --scale test \
		--run-dir $D/a
	$(RUN) 120 python -m repro exp1 --dataset url --scale test \
		--run-dir $D/b
	cmp $D/a/health.json $D/b/health.json
	$(REPRO) obs $D/a

# exp7 must shed load during the burst and keep both identity
# guarantees (batched == row-at-a-time, a fresh-endpoint replay of
# regenerated arrivals), two identical monitored runs must export
# byte-identical health timelines, and serving throughput must pass
# its committed gate.
smoke-traffic:
	$(RUN) 120 python -m repro exp7 --dataset url --scale test \
		--run-dir $D/a
	$(RUN) 120 python -m repro exp7 --dataset url --scale test \
		--run-dir $D/b
	cmp $D/a/health.json $D/b/health.json
	REPRO_BENCH_CHECK=1 $(BENCH_GATE) \
		benchmarks/bench_serving_throughput.py

# The exp8 policy comparison must hold at smoke scale (fair-share
# beats round robin at an equal training budget) and each policy's
# same-seed re-run must match its schedule AND telemetry digests
# (exit 1 otherwise), a fleet SIGKILLed before epoch 5 must recover to
# the digest and health timeline of an uninterrupted run, and the
# scheduler-overhead bench must pass its committed gate. The reference run checkpoints at
# the same cadence: checkpoint writes are part of the monitored event
# stream, so the two health timelines are only comparable when both
# runs write the same checkpoints.
FLEET := --tenants 6 --chunks 10
smoke-fleet:
	$(RUN) 240 python -m repro exp8 $(FLEET)
	$(RUN) 120 python -m repro run --approach fleet $(FLEET) \
		--checkpoint-dir $D/ref-ckpt --cadence 2 \
		--run-dir $D/reference > $D/reference.txt
	$(RUN) 120 python -m repro run --approach fleet $(FLEET) \
		--checkpoint-dir $D/ckpt --cadence 2 --sigkill-at 5 \
		--run-dir $D/crashed || test $$? -eq 137
	$(RUN) 120 python -m repro recover --approach fleet \
		--checkpoint-dir $D/ckpt --cadence 2 \
		--run-dir $D/recovered > $D/recovered.txt
	cat $D/reference.txt $D/recovered.txt
	grep "fleet digest=" $D/reference.txt > $D/digest-a.txt
	grep "fleet digest=" $D/recovered.txt > $D/digest-b.txt
	cmp $D/digest-a.txt $D/digest-b.txt
	cmp $D/reference/health.json $D/recovered/health.json
	REPRO_BENCH_CHECK=1 $(BENCH_GATE) benchmarks/bench_fleet_overhead.py

# An instrumented exp5 rollout must export a digest-stamped
# lineage.json, blame on a corrupted candidate must name its training
# chunks, trace must walk a chunk downstream to serving versions, and
# two identical-seed runs must be byte-identical.
smoke-lineage:
	$(RUN) 120 python -m repro exp5 --dataset url --scale test \
		--run-dir $D/a
	$(REPRO) obs $D/a --version model:blind:v0002 --chunk chunk:0
	$(RUN) 120 python -m repro exp5 --dataset url --scale test \
		--run-dir $D/b
	cmp $D/a/lineage.json $D/b/lineage.json

# Crash recovery against a real SIGKILL: a short deployment is killed
# mid-stream at a random (logged) chunk, recovered in a fresh process,
# and the resumed run must be byte-identical to an uninterrupted
# reference; then the recovery CLI directly (exit 17 = injected crash).
# Then the same with everything attached, so the checkpoint's log
# segments (ledger entries, monitor snapshots) meet a kill: the recovered
# `lineage.json` must be the uninterrupted run's, byte for byte. The
# reference checkpoints at the same cadence (checkpoint writes are
# part of the monitored stream). `health.json` is compared on what a
# recovery leaves comparable: the window snapshots — restored from
# the log segments up to the kill — minus the `reliability.recovered`
# signal and the open-incident count, which rightly show the crash.
# Last, a run whose trigger has state (online has no trigger, a static
# interval no state): threshold is killed after its baseline was
# adopted (chunk 9) and before its one retraining (chunk 19; it
# recovers from cursor 16), so window, baseline and cooldown counter
# cross the process boundary and the retraining fires on the recovered
# side — the first four output lines (error series, cost series,
# summary, counters) must be the uninterrupted run's.
RECOVERY := --approach online --dataset url --scale test --cadence 4
STACKED := --approach continuous --dataset url --scale test --cadence 4
TRIGGERED := --approach threshold --dataset url --scale test --cadence 4
smoke-recovery:
	timeout 120 python examples/crash_recovery.py
	$(RUN) 60 python -m repro run $(RECOVERY) --checkpoint-dir $D/ckpt \
		--kill-at 9 || test $$? -eq 17
	$(RUN) 60 python -m repro recover $(RECOVERY) --checkpoint-dir $D/ckpt
	$(RUN) 60 python -m repro run $(STACKED) --checkpoint-dir $D/ckpt-ref \
		--run-dir $D/ref
	$(RUN) 60 python -m repro run $(STACKED) --checkpoint-dir $D/ckpt2 \
		--run-dir $D/crash --kill-at 9 || test $$? -eq 17
	$(RUN) 60 python -m repro recover $(STACKED) --checkpoint-dir $D/ckpt2 \
		--run-dir $D/rec
	cmp $D/ref/lineage.json $D/rec/lineage.json
	python -c "import json, sys; \
		a, b = ([dict(s, incidents_open=0, signals={k: v for k, v in \
		s['signals'].items() if k != 'reliability.recovered'}) for s in \
		json.load(open(p))['snapshots']] for p in sys.argv[1:]); \
		assert len(a) > 10 and a == b, 'health snapshots differ'" \
		$D/ref/health.json $D/rec/health.json
	$(RUN) 60 python -m repro run $(TRIGGERED) \
		--checkpoint-dir $D/ckpt3-ref > $D/threshold-ref.txt
	$(RUN) 60 python -m repro run $(TRIGGERED) --checkpoint-dir $D/ckpt3 \
		--kill-at 18 || test $$? -eq 17
	$(RUN) 60 python -m repro recover $(TRIGGERED) \
		--checkpoint-dir $D/ckpt3 > $D/threshold-rec.txt
	cat $D/threshold-rec.txt
	grep -q "retrainings=1" $D/threshold-rec.txt
	grep -q "recovered from checkpoint at chunk 16" $D/threshold-rec.txt
	head -4 $D/threshold-ref.txt > $D/threshold-ref.head
	head -4 $D/threshold-rec.txt | cmp - $D/threshold-ref.head

# The wall-clock benchmark's self-tests (benchmarks/e2e: traced ≡
# untraced, the expected.json goldens) — ~10 s, not part of tier-1.
smoke-e2e:
	$(RUN) 120 python -m pytest benchmarks/e2e -q

# The figure commands print virtual-clock numbers only, so their
# stdout at test scale is a golden, compared byte for byte:
# tests/experiments/golden/<command>-<dataset>-test.txt, recorded from
# the parent of the commit that added them (`git archive <parent> |
# tar -x -C <dir>`, run there). A PR that means to move a number
# re-records the same way and says which.
FIGURES := exp1-url table3-url fig5-url fig6-url fig7-url fig8-url \
	exp1-taxi fig7-taxi
smoke-figures:
	@for figure in $(FIGURES); do \
		echo "$$figure"; \
		$(RUN) 120 python -m repro $${figure%-*} --dataset $${figure#*-} \
			--scale test > $D/$$figure.txt || exit 1; \
		cmp $D/$$figure.txt tests/experiments/golden/$$figure-test.txt \
			|| exit 1; \
	done

examples:
	python examples/quickstart.py
	python examples/materialization_analysis.py
	python examples/custom_pipeline_component.py
	python examples/compare_deployment_approaches.py
	python examples/drift_detection.py
	python examples/persistence_and_resume.py
	python examples/url_classification.py
	python examples/serving_rollout.py

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache \
		$(SMOKE_DIR)
	find . -name __pycache__ -type d -exec rm -rf {} +
