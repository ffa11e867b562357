.PHONY: ci test lint smoke faults bench bench-record bench-check ingest fabric policies chaos perfbench

# Everything CI runs, in one command (tests + lint + smoke + faults).
ci:
	scripts/ci.sh all

test:
	scripts/ci.sh tests

lint:
	scripts/ci.sh lint

smoke:
	scripts/ci.sh smoke

faults:
	scripts/ci.sh faults

# Streaming-ingestion gate: trace adapter tests, a 100k-job fixture
# replayed under the RSS ceiling, and the BENCH_ingest.json check.
ingest:
	scripts/ci.sh ingest

# Distributed-fabric gate: lease/worker/coordinator tests, a 2-worker
# subprocess fleet that must match serial bit-for-bit, the CLI
# run-grid/cache round trip, and the BENCH_grid.json check.
fabric:
	scripts/ci.sh fabric

# Policy-registry gate: registry/spec/plugin tests, the registry-vs-
# direct golden grid plus fractional-determinism smoke, and the CLI
# `--policy SPEC` round trip.
policies:
	scripts/ci.sh policies

# Robustness gate: seeded chaos scenarios (kill storms, heartbeat
# freezes, corruption) against a live self-healing fleet, the invariant
# audit, the CLI round trip, and the BENCH_chaos.json recovery check.
chaos:
	scripts/ci.sh chaos

# Pipeline-benchmark gate: perfbench's own tests, then one traced round
# per workload that must reproduce the pinned digests and work counts.
perfbench:
	scripts/ci.sh perfbench

# Full reproduction log: every table/figure benchmark at current scale,
# then a refreshed point on the engine-throughput trajectory.
bench:
	PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only -s
	PYTHONPATH=src python scripts/bench_record.py

# Append one BENCH_engine.json record without the full reproduction log.
bench-record:
	PYTHONPATH=src python scripts/bench_record.py

# The CI throughput gate: fail on >20% normalised regression vs the
# last committed record.
bench-check:
	scripts/ci.sh bench
