PYTHON ?= python

.PHONY: install test bench bench-smoke bench-tables-smoke examples lint verify-kernels verify-golden verify-executor verify-reliability verify-serving verify-gateway verify-chaos verify-obs verify-trace

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

verify-kernels:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_perf_kernels.py \
	    tests/test_perf_rnn_kernels.py \
	    tests/test_perf_char_cnn.py \
	    tests/test_crf*.py \
	    tests/test_autodiff_*.py \
	    tests/test_perf_fused_checkpoints.py -q
	PYTHONPATH=src $(PYTHON) -m repro chaos soak \
	    --scenario fused-nll-parity --scenario recurrent-kernel-parity \
	    --max-rounds 1 --seed 0

verify-golden:
	PYTHONPATH=src $(PYTHON) -m pytest -W error::RuntimeWarning \
	    tests/test_golden_eval.py \
	    tests/test_golden_serving.py \
	    tests/test_perf_fused_checkpoints.py \
	    tests/test_perf_inner_loop.py \
	    tests/test_perf_shared_pass.py \
	    tests/test_perf_char_cnn.py::TestDistinctRows \
	    tests/test_perf_char_cnn.py::TestOffTapeKernel \
	    tests/test_perf_char_cnn.py::TestOffTapeRangeCheck \
	    tests/test_perf_kernels.py::TestFusedNLLBitIdentity \
	    tests/test_perf_kernels.py::TestViterbiParity \
	    tests/test_autodiff_tensor.py::TestIndexing \
	    tests/test_serving_sanitize.py::TestAsciiFastPath \
	    tests/test_data_tags.py::TestTagSchemeBuiltOnce -q

verify-executor:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_perf_executor.py \
	    tests/test_perf_supervisor.py \
	    tests/test_meta_evaluate.py \
	    tests/test_obs_integration.py::TestBehaviouralInvisibility \
	    tests/test_golden_eval.py -q
	PYTHONPATH=src $(PYTHON) -m repro chaos soak \
	    --scenario executor-crash --scenario executor-hang \
	    --scenario executor-corrupt --scenario episode-eval-crash \
	    --max-rounds 1 --seed 0

verify-reliability:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_reliability_guard.py \
	    tests/test_reliability_checkpoint.py \
	    tests/test_reliability_harness.py \
	    tests/test_reliability_integrity.py \
	    tests/test_reliability_cli.py -q

verify-serving:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_serving_deadline.py \
	    tests/test_serving_sanitize.py \
	    tests/test_serving_service.py \
	    tests/test_serving_no_tape.py \
	    tests/test_data_vocab.py \
	    tests/test_data_lint.py \
	    tests/test_crf_greedy.py \
	    tests/test_cli_serving.py -q

verify-gateway:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_serving_routing.py \
	    tests/test_serving_gateway.py \
	    tests/test_serving_gateway_fleet.py \
	    tests/test_serving_loadgen.py \
	    tests/test_serving_priority.py \
	    tests/test_obs_fleet.py -q
	PYTHONPATH=src $(PYTHON) -m repro chaos soak \
	    --scenario gateway-replica-kill --max-rounds 2 \
	    --time-budget-s 120 --seed 0

verify-chaos:
	PYTHONPATH=src $(PYTHON) -m repro chaos soak --max-rounds 1 --seed 0

verify-obs:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_obs_trace.py \
	    tests/test_obs_metrics.py \
	    tests/test_obs_tape.py \
	    tests/test_obs_report.py \
	    tests/test_obs_integration.py -q
	PYTHONPATH=src $(PYTHON) -m repro experiment figure_adaptation \
	    --preset smoke --telemetry /tmp/verify_obs.jsonl > /dev/null
	PYTHONPATH=src $(PYTHON) -m repro obs report /tmp/verify_obs.jsonl

verify-trace:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_obs_reqtrace.py \
	    tests/test_serving_trace.py \
	    tests/test_obs_fleet.py -q
	PYTHONPATH=src $(PYTHON) -m repro chaos soak \
	    --scenario trace-determinism --scenario gateway-replica-kill \
	    --max-rounds 2 --time-budget-s 120 --seed 0

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

bench-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest repobench/tests -q

bench-tables-smoke:
	REPRO_SCALE=smoke $(PYTHON) -m pytest benchmarks/ --benchmark-only -s

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/custom_dataset.py
	$(PYTHON) examples/compare_methods.py
	$(PYTHON) examples/cross_domain_transfer.py
	$(PYTHON) examples/slot_filling.py
