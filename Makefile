GO ?= go

.PHONY: all build vet test race test-race cover faults pipeline-faults sim fuzz-smoke obs bench bench-check bench-smoke analyze-smoke transport-conformance obs-live-smoke service-smoke outofcore-smoke profile-smoke cli-smoke ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/par ./internal/cluster ./internal/obs

# Race detector over the concurrency-heavy packages the simulation
# harness exercises (runtime, clustering protocol, GST build, harness)
# and the disk store, whose block cache recycles buffers across readers.
test-race:
	$(GO) test -race ./internal/par ./internal/cluster ./internal/pgst ./internal/sim ./internal/seq/diskstore

# Coverage gate: the harness and its union-find oracle model must stay
# above 70% statement coverage.
cover:
	@$(GO) test -cover ./internal/sim ./internal/unionfind > .cover.tmp || { cat .cover.tmp; rm -f .cover.tmp; exit 1; }
	@cat .cover.tmp
	@awk '/coverage:/ { p = $$5; sub(/%/, "", p); if (p + 0 < 70) { print "coverage gate: " $$2 " below 70% (" p "%)"; bad = 1 } } END { exit bad }' .cover.tmp; st=$$?; rm -f .cover.tmp; exit $$st

# Full-repo race run; the experiments package makes this slow.
race-all:
	$(GO) test -race ./...

# CI-sized fault-tolerance sweep: kills workers and drops messages,
# checks the partition stays exactly the serial one.
faults:
	$(GO) run ./cmd/experiments -run faults -quick

# End-to-end fault model: GST-phase crash + clustering crash +
# corrupting wire in one run (partition must stay exactly serial),
# kill-and-resume at every pipeline phase boundary (contigs must stay
# byte-identical), and quarantined assembly (must complete, not abort).
pipeline-faults:
	$(GO) run ./cmd/experiments -run pipelinefaults -quick

# Bounded simulation campaign: randomized (machine, genome, faults,
# schedule) cases, each checked against the serial-equivalence oracles.
# Failures print a (campaign, case) tuple that replays them exactly.
sim:
	$(GO) run ./cmd/simrunner -campaign 1 -seeds 40 -j 4

# Committed seed corpora for every fuzz target; a target whose corpus
# directory is empty fails before fuzzing starts.
FUZZ_CORPORA := testdata/fuzz/FuzzReadFASTA \
	internal/seq/testdata/fuzz/FuzzReadFASTA \
	internal/seq/testdata/fuzz/FuzzReadQual \
	internal/wire/testdata/fuzz/FuzzReader \
	internal/cluster/testdata/fuzz/FuzzDecodeReport \
	internal/par/nettrans/testdata/fuzz/FuzzDecodeFrame \
	internal/seq/diskstore/testdata/fuzz/FuzzOpenIndex \
	internal/seq/diskstore/testdata/fuzz/FuzzReadData \
	internal/obs/prof/testdata/fuzz/FuzzParseProfile

# Short fuzz passes over every parser the pipeline feeds untrusted
# bytes to: FASTA and qual readers plus the wire-format decoders.
fuzz-smoke:
	@for d in $(FUZZ_CORPORA); do \
		ls $$d/* >/dev/null 2>&1 || { echo "fuzz-smoke: empty corpus: $$d"; exit 1; }; \
	done
	$(GO) test -run=NONE -fuzz=FuzzReadFASTA -fuzztime=10s .
	$(GO) test -run=NONE -fuzz=FuzzReadFASTA -fuzztime=10s ./internal/seq
	$(GO) test -run=NONE -fuzz=FuzzReadQual -fuzztime=10s ./internal/seq
	$(GO) test -run=NONE -fuzz=FuzzReader -fuzztime=10s ./internal/wire
	$(GO) test -run=NONE -fuzz=FuzzDecodeReport -fuzztime=10s ./internal/cluster
	$(GO) test -run=NONE -fuzz=FuzzDecodeFrame -fuzztime=10s ./internal/par/nettrans
	$(GO) test -run=NONE -fuzz=FuzzOpenIndex -fuzztime=10s ./internal/seq/diskstore
	$(GO) test -run=NONE -fuzz=FuzzReadData -fuzztime=10s ./internal/seq/diskstore
	$(GO) test -run=NONE -fuzz=FuzzParseProfile -fuzztime=10s ./internal/obs/prof

# Instrumented quickstart: runs two quick experiments with tracing on
# and validates that every emitted trace file parses as balanced
# Chrome trace_event JSON (tracecheck is the Perfetto-load stand-in).
OBS_TRACE_DIR := $(shell mktemp -d 2>/dev/null || echo /tmp/obs-traces)
obs:
	$(GO) run ./cmd/experiments -run fig5,faults,pipelinefaults -quick -ranks 2,4 -trace-out $(OBS_TRACE_DIR)
	$(GO) run ./cmd/tracecheck $(OBS_TRACE_DIR)/*.trace.json
	rm -rf $(OBS_TRACE_DIR)

# Continuous benchmarks: fixed-seed workloads measured in host terms
# (ns/op, allocs, peak RSS) and modeled terms (critical path,
# comm/comp split from the causal DAG). `bench` rewrites the committed
# baselines; `bench-check` gates the current build against them with
# per-metric noise-calibrated thresholds and fails on regression.
bench:
	$(GO) run ./cmd/benchrun -workload cluster -out BENCH_cluster.json -profile-out PROF_cluster.txt
	$(GO) run ./cmd/benchrun -workload transport -ranks 4 -out BENCH_transport.json
	$(GO) run ./cmd/benchrun -workload pipeline -out BENCH_pipeline.json
	$(GO) run ./cmd/benchrun -workload outofcore -out BENCH_outofcore.json

bench-check:
	$(GO) run ./cmd/benchrun -workload cluster -check BENCH_cluster.json
	$(GO) run ./cmd/benchrun -workload transport -ranks 4 -check BENCH_transport.json
	$(GO) run ./cmd/benchrun -workload pipeline -check BENCH_pipeline.json
	# Out-of-core memory gate: mem/disk × scale-1/scale-10 subprocess
	# cells; the disk backend's peak-RSS ratio must stay flat while the
	# mem backend's must keep growing (proof the gate still bites).
	$(GO) run ./cmd/benchrun -workload outofcore -check BENCH_outofcore.json
	# Collector-on run against the collector-off baseline: live
	# telemetry streaming must cost less than the noise gates.
	$(GO) run ./cmd/benchrun -workload transport -ranks 4 -collector -check BENCH_transport.json
	# Profiling tax gate: alternating off/on iterations in one process;
	# the labeled capture must cost ≤5% (+50ms slack) over off.
	$(GO) run ./cmd/benchrun -workload cluster -profile-overhead

# Kernel microbenchmark smoke: one iteration of each per-kernel
# benchmark (GST bucket build in chars/s, disk-store reads in seqs/s),
# so they keep building and running.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./internal/suffixtree ./internal/seq/diskstore

# Transport conformance: the sim partition and causal-trace oracles
# against every transport backend under the race detector — in-process
# goroutines, then TCP and Unix-socket ranks as real OS processes (the
# test binary re-executes itself as the workers), plus one case that
# SIGKILLs a worker process mid-phase and requires lease-based
# recovery to the canonical partition.
transport-conformance:
	$(GO) test -race -v -run TestConformance ./internal/transconf

# Live telemetry smoke: a 4-process TCP run streams deltas to a run
# collector which must be ready mid-run, survive a SIGKILLed worker
# (marking it dead while the job recovers), serve a final merged trace
# byte-identical to merging the per-process dumps, and produce a live
# causal analysis equal to the post-hoc one.
obs-live-smoke:
	$(GO) test -v -run TestObsLive ./internal/transconf

# Assembly-as-a-service smoke: a real asmserve-style server (the test
# binary re-executes itself as both the server and its job runners) is
# SIGKILLed mid-job and restarted on the same directory; the journal
# must replay, the job must resume to byte-identical contigs, a repeat
# submission must hit the cache, and a poison job must be quarantined
# after its retry budget without disturbing healthy jobs.
service-smoke:
	$(GO) test -v -run 'TestServiceSmoke|TestPoisonJobQuarantined|TestHangDeadlineAndQueueFull|TestDrainRequeuesAndRestartCompletes' ./internal/jobs

# Causal-analysis smoke: replay one sim case with its raw events dump,
# stitch the causal DAG and print the critical path; a malformed DAG
# (unmatched message edge, cycle, CP != makespan) fails the target.
ANALYZE_TMP := $(shell mktemp -d 2>/dev/null || echo /tmp/analyze-smoke)
analyze-smoke:
	$(GO) run ./cmd/simrunner -campaign 1 -case 3 -events-out $(ANALYZE_TMP)/case3.events.json
	$(GO) run ./cmd/traceanalyze -chrome $(ANALYZE_TMP)/case3.crit.json $(ANALYZE_TMP)/case3.events.json
	$(GO) run ./cmd/tracecheck $(ANALYZE_TMP)/case3.crit.json
	rm -rf $(ANALYZE_TMP)

# Profiling-plane smoke under the race detector: capture a labeled
# 8-rank run (session manager + label hooks), decode every artifact
# with the in-repo pprof reader, cross-rank merge, and render the
# critical-path attribution report — plus the SIGKILL+resume profiled
# job whose archived merge must decode after restart.
PROF_TMP := $(shell mktemp -d 2>/dev/null || echo /tmp/profile-smoke)
profile-smoke:
	$(GO) test -race -v -run 'TestProfileLabelExactness' ./internal/bench
	$(GO) test -race -v -run 'TestProfiledJobSurvivesKill' ./internal/jobs
	$(GO) run ./cmd/benchrun -workload cluster -iters 1 -profile-dir $(PROF_TMP)
	$(GO) run ./cmd/asmprof $(PROF_TMP)
	$(GO) run ./cmd/asmprof -folded $(PROF_TMP) > $(PROF_TMP)/folded.txt
	$(GO) run ./cmd/asmprof -merge-out $(PROF_TMP)/merged.cpu.pb.gz $(PROF_TMP)
	rm -rf $(PROF_TMP)

# Out-of-core smoke: the disk-backed pipeline end to end under the
# race detector — fresh run matches the in-memory contigs, the store
# artifact is journaled, resume from every rollback depth is
# byte-identical (reusing, not rebuilding, the checksummed store), and
# a corrupted store artifact refuses to resume.
outofcore-smoke:
	$(GO) test -race -v -run 'TestOutOfCore' ./internal/pipeline

# Launcher smoke: builds asmcluster, asmpipeline and asmnode and runs
# them on one genomesim input — partitions identical across inproc,
# tcp, unix and asmnode -spawn, contigs identical in-process, over tcp
# and over unix on the disk store, per-rank events dumps merge-check,
# failures exit 1, no registry or temp store left in TMPDIR.
cli-smoke:
	GO=$(GO) bash scripts/cli-smoke.sh

ci: vet build test race test-race cover faults pipeline-faults sim fuzz-smoke obs analyze-smoke transport-conformance obs-live-smoke service-smoke outofcore-smoke profile-smoke cli-smoke bench-smoke bench-check
