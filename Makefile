# Build, test, and smoke-benchmark entry points (used by CI).

.PHONY: all build test test-verify bench-smoke rpcbench-smoke bench ci

all: build

build:
	dune build

test:
	dune runtest

# The whole suite again with the structural plan verifier running
# after every optimizer pass (Opt_config.default reads the variable).
# The verify flag is not part of plan-cache keys, so this exercises
# exactly the same pipelines and cache behavior as the default run.
test-verify:
	FLICK_VERIFY_PLANS=1 dune runtest --force

# The fast artifacts: the plan-optimizer/cache report (BENCH_1.json),
# the scatter-gather wire report (BENCH_2.json), the decode-plan
# report (BENCH_3.json), the full-matrix pass-trace report (merged
# into BENCH_1.json), the concurrent-server sweep (BENCH_4.json), the
# plan-executor report (BENCH_5.json) with its 64KB dirents
# encode-vs-rpcgen-style speedup gate, and the forward-relay report
# (BENCH_6.json) with its fused-vs-materialize throughput and
# zero-copy gates; the pipeline/
# verifier/engine-equality/pin/scaling/backpressure/byte-identity
# self-checks make the run exit non-zero on any regression.  The
# gateway artifact runs twice: first with fusion forced off
# (--no-forward), proving the materialize fallback still relays every
# cell byte-identically, then fused, which is the BENCH_6.json that
# check_bench gates on.  The value-dependent-encoding report
# (BENCH_7.json) runs the {msgpack,cbor} parity matrix with verifier,
# byte-identity, decode-equality and whole-message-consumption checks
# per cell.  The request-tracing report (BENCH_8.json) runs the phase
# attribution sweep with its exact phase-sum == client-RTT
# reconciliation (direct and two-hop gateway), exemplar-coverage, and
# disabled-recorder overhead gates; it must run last in the process,
# since its recorder-absent baseline is the state before the recorder
# is ever enabled.  check_bench re-parses every BENCH_*.json and fails
# on any recorded self-check failure, malformed serve sweep,
# missing/failed executor or gateway gate, unsound selfdesc matrix, or
# unreconciled/uncovered tail report.
bench-smoke:
	dune exec bench/main.exe -- gateway --smoke --no-forward
	dune exec bench/main.exe -- planopt sgwire decplan tracematrix serve executor gateway selfdesc tail --smoke
	dune exec bench/check_bench.exe

# The wall-clock RPC benchmark, three seconds per BENCHMARK.json
# workload: the served paths end to end.  Fails when a run reports
# "correct": false (a reply not byte-identical to its request, an
# unbalanced Mbuf pool, a plan-cache miss in the timed phase, ...).
RPCBENCH_WORKLOADS = rpc_bulk gateway_xenc selfdesc_rpc

rpcbench-smoke:
	@for w in $(RPCBENCH_WORKLOADS); do \
	  out=$$(bash rpcbench/run.sh --workload $$w --seconds 3 --trace 0 | tail -n 1) || \
	    { echo "rpcbench-smoke: $$w exited non-zero"; exit 1; }; \
	  case "$$out" in \
	    '{"correct": true,'*) echo "rpcbench-smoke: $$w correct" ;; \
	    *) echo "rpcbench-smoke: $$w not correct: $$out"; exit 1 ;; \
	  esac; \
	done

# Every artifact at default sizes (see EXPERIMENTS.md; --full for
# paper-scale sweeps).
bench:
	dune exec bench/main.exe

ci: build test test-verify bench-smoke rpcbench-smoke
