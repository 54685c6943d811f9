# Developer entry points.  The tier-1 gate is `make check`: the repository
# linter must be clean, the static and determinism analyzers must report
# nothing outside their committed baselines, the full test suite must pass,
# the chaos suites and the remediation drill must survive their fixed seed
# matrices, and the telemetry-overhead benchmarks must stay within budget.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: check lint analyze analyze-baseline det-check det-baseline test \
        chaos chaos-train chaos-serve drill check-model obs-overhead \
        bench-obs-trace bench-serving help

check: lint analyze det-check test chaos chaos-train chaos-serve drill \
       obs-overhead bench-obs-trace

lint:
	$(PYTHON) -m repro.analysis.lint

# Abstract interpretation of every shipped model graph; any finding not in
# analysis_baseline.json (errors: ever) fails the build.
analyze:
	$(PYTHON) -m repro analyze --baseline analysis_baseline.json

analyze-baseline:
	$(PYTHON) -m repro analyze --update-baseline --baseline analysis_baseline.json

# Determinism & effect analyzer over the repro package itself: every
# declared determinism root must be pure modulo declared seeds.  Zero
# unaudited DET/FS findings ever; the audited set must match
# det_baseline.json *exactly* — a new audited finding is an unreviewed
# annotation, a vanished one is silent coverage loss (or a real fix:
# run `make det-baseline`).
det-check:
	$(PYTHON) -m repro analyze --effects --baseline det_baseline.json

det-baseline:
	$(PYTHON) -m repro analyze --effects --update-baseline --baseline det_baseline.json

test:
	$(PYTHON) -m pytest -x -q

# Fault-injection suite: seeded FaultInjector corrupting observations,
# raising from the scoring path, and truncating checkpoints, across the
# fixed seed matrix parametrized inside tests/runtime/test_chaos.py.
chaos:
	$(PYTHON) -m pytest tests/runtime/test_chaos.py -q

# Worker-fault chaos suite: seeded worker_kill / worker_hang / nan_grad
# faults on >=30% of fleet jobs; the run must complete, recovered groups
# must match the fault-free baseline bitwise, and FAILED groups must be
# reported (not raised) in the FleetReport.
chaos-train:
	$(PYTHON) -m pytest tests/runtime/test_chaos_train.py -q

# Serving-gateway chaos suite: seeded delivery faults on the full fleet
# plus workers hard-killed mid-traffic (applied, never acked); zero
# acknowledged updates may be lost — final worker states must match the
# fault-free baseline bitwise — and >=90% of services must end HEALTHY.
chaos-serve:
	$(PYTHON) -m pytest tests/runtime/test_chaos_serve.py -q

# Closed-loop remediation drill gate: across the seeded scenario matrix
# (>=30% of services faulted, remediation actions themselves sabotaged),
# at least 90% of faulted services must converge back to HEALTHY with a
# verified incident, and the policy engine's cooldown/blast-radius
# self-audit must record zero violations.
drill:
	$(PYTHON) -m pytest tests/runtime/test_drill.py -q

check-model:
	$(PYTHON) -m repro check-model

# Telemetry overhead gate: the instrumented (tracing-disabled, default)
# seeded 2-epoch trainer run must stay within 3% of the span-stripped
# baseline; also refreshes BENCH_obs.json (the perf-trajectory point).
obs-overhead:
	$(PYTHON) benchmarks/bench_obs_overhead.py

# Trace-propagation benchmark: re-verifies the <3% disabled-path gate
# with the propagation code in place (reduced rounds) and records the
# per-op cost of the trace primitives into BENCH_obs.json's "trace"
# section.
bench-obs-trace:
	$(PYTHON) benchmarks/bench_obs_trace.py

# Serving-gateway throughput/latency benchmark: >=8 services over >=2
# workers with >=30% injected faults; refreshes BENCH_serving.json (p50/
# p99 ack latency, points/sec) and fails if any acked update is lost.
bench-serving:
	$(PYTHON) benchmarks/bench_serving.py

help:
	@echo "make check            - lint + analyze + det-check + test + chaos +"
	@echo "                        chaos-train + chaos-serve + drill +"
	@echo "                        obs-overhead + bench-obs-trace (tier-1 gate)"
	@echo "make lint             - repo linter (repro.analysis.lint)"
	@echo "make analyze          - static model-graph analyzer vs committed baseline"
	@echo "make analyze-baseline - re-accept current analyzer warnings"
	@echo "make det-check        - determinism/effect analyzer vs det_baseline.json"
	@echo "make det-baseline     - re-snapshot the audited determinism findings"
	@echo "make test             - pytest"
	@echo "make chaos            - fault-injection suite (fixed seed matrix)"
	@echo "make chaos-train      - worker-fault chaos suite (fleet orchestrator)"
	@echo "make chaos-serve      - serving-gateway chaos suite (loss-free failover)"
	@echo "make drill            - closed-loop remediation drill gate (>=90% converge)"
	@echo "make check-model      - static MACE shape/dtype contract check"
	@echo "make obs-overhead     - telemetry overhead gate (<3% disabled-path cost)"
	@echo "make bench-obs-trace  - trace-propagation bench + overhead gate re-verify"
	@echo "make bench-serving    - gateway throughput/latency benchmark (BENCH_serving.json)"
