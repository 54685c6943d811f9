# Developer entry points.  The tier-1 gate is `make check`: the repository
# linter must be clean, the model-graph and determinism analyzers must
# report no unaudited finding and exactly the audited findings of
# analysis_baseline.json, the full test suite must pass,
# the chaos suites must survive their fixed seed matrices, the
# disabled-path telemetry overhead must stay within its
# effective budget, max(3%, 10 ms / baseline), and the detection-quality
# gate (`make quality`, about a minute) must reproduce the committed F1.
# `make check` measures without writing any tracked file.  Performance is
# measured by `make bench`, which is kept out of `check`.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: check lint analyze analyze-baseline test \
        chaos chaos-train chaos-serve check-model obs-overhead \
        quality bench help

check: lint analyze test chaos chaos-train chaos-serve \
       obs-overhead quality

lint:
	$(PYTHON) -m repro.analysis.lint

# One gate over two analyzers: abstract interpretation of every shipped
# model graph, and the effect analyzer over the repro package itself
# (every declared determinism root must be pure modulo declared seeds;
# fork safety of the multiprocessing layers).  Any unaudited finding
# fails; the audited findings must match analysis_baseline.json
# *exactly* — a new one is an unreviewed `# analyzer: ok` /
# `# effects: ok`, a vanished one is silent coverage loss (or a real
# fix: run `make analyze-baseline`).
analyze:
	$(PYTHON) -m repro analyze --baseline analysis_baseline.json

analyze-baseline:
	$(PYTHON) -m repro analyze --update-baseline --baseline analysis_baseline.json

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

check-model:
	$(PYTHON) -m repro check-model

# Detection-quality gate (benchmarks/quality.py): the six Table IX variants
# on smd and j-d1 must reproduce benchmarks/results/table9.json bit for bit,
# MACE must beat every Table V baseline in table5.json there, and the four
# ablations the paper's claims rest on must cost F1.  A change that states
# a tolerance runs it as
#     make quality QUALITY_ARGS="--tolerance 0.01"
# (absolute F1 per cell; the claims are checked either way).
quality:
	$(PYTHON) benchmarks/quality.py $(QUALITY_ARGS)

# Telemetry overhead gate: the instrumented (tracing-disabled, default)
# seeded 2-epoch trainer run, over 15 paired rounds (median of per-round
# differences), must stay within 3% of the span-stripped baseline or
# within 10 ms of it — an effective budget of max(3%, 10 ms / baseline),
# which the verdict line prints.  Writes no file.
obs-overhead:
	$(PYTHON) benchmarks/bench_obs_overhead.py

# The performance entry point (not part of `check`): the train, score and
# stream workloads on the real MACE model, 3 runs each, compared against
# the committed benchmarks/suite/baseline.json.
bench:
	@mkdir -p .bench_build
	$(PYTHON) benchmarks/suite/run.py --runs 3 --out .bench_build/bench.json
	$(PYTHON) benchmarks/suite/run.py --compare benchmarks/suite/baseline.json .bench_build/bench.json

help:
	@echo "make check            - lint + analyze + test + chaos +"
	@echo "                        chaos-train + chaos-serve +"
	@echo "                        obs-overhead + quality (tier-1 gate)"
	@echo "make lint             - repo linter (repro.analysis.lint)"
	@echo "make analyze          - model-graph + determinism analyzers vs"
	@echo "                        analysis_baseline.json (audited set, exact)"
	@echo "make analyze-baseline - re-snapshot the audited findings"
	@echo "make test             - pytest"
	@echo "make chaos            - fault-injection suite (fixed seed matrix)"
	@echo "make chaos-train      - worker-fault chaos suite (fleet orchestrator)"
	@echo "make chaos-serve      - serving-gateway chaos suite (loss-free failover)"
	@echo "make check-model      - static MACE shape/dtype contract check"
	@echo "make quality          - Table IX F1 vs table9.json + paper claims"
	@echo "make obs-overhead     - telemetry overhead gate (max(3%, 10 ms/baseline))"
	@echo "make bench            - MACE benchmark suite vs committed baseline"
