# Tier-1 verify loop: static analysis, build+tests, and a race pass
# over the concurrent verification engine.
GO ?= go
RESUME_DIR ?= .verify-resume
OBS_DIR ?= .obs-smoke
ROUTED_DIR ?= .routed-smoke

.PHONY: verify build test vet vet386 race bench-routing bench bench-diff bench-smoke fuzz-smoke verify-resume obs-smoke routed-smoke

# Routing benchmarks: the adjacency-index and parallel-verification
# suites plus the A9 enumeration-kernel ablation, the A10 orbit
# reduction, and the A11 stage-1/default orbit kernel comparison;
# -benchmem adds the B/op and allocs/op columns the kernel work is
# judged by.
BENCH_PATTERN = BenchmarkVerifyFullRoutingAdjacency|BenchmarkA7ParallelVerification|BenchmarkA9EnumerationKernel|BenchmarkA10OrbitReduction|BenchmarkA11StageTwoKernel

verify: vet test race vet386

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

# 32-bit build + vet pass: catches int-width truncation bugs (like the
# nzKey byte(idx) collision and unguarded int(int64) casts on the
# checkpoint claim path) that are invisible on 64-bit hosts.
vet386:
	GOARCH=386 $(GO) build ./...
	GOARCH=386 $(GO) vet ./...

# The routing package owns all the goroutine fan-out (parallel
# Routing Theorem verification, lazy CSR index construction), the
# serve package layers SSE fan-out and the job broadcaster on top, and
# the obs package's runtime sampler publishes into the registry the
# debug server scrapes concurrently; run all three under the race
# detector on every verify. In the pebble package only SweepM starts
# goroutines: its concurrent simulations share one graph's lazily
# built CSR index. The race pass runs its SweepM tests; the rest of the
# package is single-goroutine, and its golden sweep alone takes over a
# minute under the race detector.
race:
	$(GO) test -race ./internal/routing/... ./internal/serve/... ./internal/obs/...
	$(GO) test -race -run 'SweepM' ./internal/pebble/...

bench-routing:
	$(GO) test -run xxx -bench '$(BENCH_PATTERN)' -benchtime 5x -benchmem .

# Machine-readable routing benchmark results (paths/s and allocation
# columns next to ns/op), via the stdlib-only converter in
# cmd/benchjson — no jq required. Single shell + trap so the
# intermediate .out is removed even when the bench or the converter
# fails.
bench:
	@set -e; trap 'rm -f bench_routing.out' EXIT; \
	$(GO) test -run xxx -bench '$(BENCH_PATTERN)' -benchtime 5x -benchmem . > bench_routing.out; \
	$(GO) run ./cmd/benchjson -o BENCH_routing.json < bench_routing.out

# Benchmark regression diff: rerun the routing suite and compare the
# ns/op / B/op / allocs/op columns against the checked-in
# BENCH_routing.json baseline via cmd/benchjson. allocs/op is the hard
# leg (benchjson -hard, exit 4 fails the target and CI): allocation
# counts are deterministic, so a regression there is a real kernel
# change, never runner noise. The wall-clock columns stay soft —
# shared runners are too noisy to gate on ns/op — so benchjson's soft
# exit 3 is downgraded to a warning while the delta table in the log
# keeps the regression visible.
# benchjson is run as a built binary, not `go run`: go run collapses
# every non-zero child exit to 1, which would erase the soft-vs-hard
# distinction the gate depends on.
BENCH_TOLERANCE ?= 25
bench-diff:
	@set -e; trap 'rm -f bench_diff.out bench_diff.benchjson' EXIT; \
	$(GO) test -run xxx -bench '$(BENCH_PATTERN)' -benchtime 5x -benchmem . > bench_diff.out; \
	$(GO) build -o bench_diff.benchjson ./cmd/benchjson; \
	st=0; ./bench_diff.benchjson -baseline BENCH_routing.json -tolerance $(BENCH_TOLERANCE) -hard allocs/op < bench_diff.out || st=$$?; \
	if [ $$st -eq 3 ]; then echo "bench-diff: WARNING: soft (wall-clock) metric past $(BENCH_TOLERANCE)% — not failing the gate"; st=0; fi; \
	exit $$st

# CI smoke: one iteration of the parallel-verification benchmark, the
# pebble simulator per policy, the segment certifier and the
# checkpointed engine's whole job (BenchmarkRunJob), with allocation
# counts — catches a bench-harness, kernel, simulator, certifier or
# checkpoint-engine regression without paying for a full measured run.
# These benchmarks, other than the first, are not in BENCH_PATTERN, so
# the hard allocs/op gate of bench-diff does not cover them yet.
bench-smoke:
	$(GO) test -run xxx -bench 'BenchmarkA7ParallelVerification|BenchmarkSimulatorRun|BenchmarkCertify' -benchtime 1x -benchmem .
	$(GO) test -run xxx -bench 'BenchmarkRunJob' -benchtime 1x -benchmem ./internal/routing

# Fuzz smoke: every fuzz target in the module for 10 s each, past its
# seed corpus (plain `go test` runs only the seeds). `go test -fuzz`
# takes one package and one target per run.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzLoadCheckpoint$$' -fuzztime 10s ./internal/routing
	$(GO) test -run '^$$' -fuzz '^FuzzOrbitStatsEquivalence$$' -fuzztime 10s ./internal/routing
	$(GO) test -run '^$$' -fuzz '^FuzzNzKeyInjectivity$$' -fuzztime 10s ./internal/cdag
	$(GO) test -run '^$$' -fuzz '^FuzzParseRoundTrip$$' -fuzztime 10s ./internal/rat
	$(GO) test -run '^$$' -fuzz '^FuzzArithmeticConsistency$$' -fuzztime 10s ./internal/rat

# End-to-end checkpoint/resume acceptance check: pause a Strassen k=4
# verification after 3 of 8 shards, resume it at a different worker
# count, and require the final stats line and the per-rank hit
# histogram table (built from the checkpoint's merged hit vector) to be
# byte-identical to an uninterrupted run; the paused run must print no
# table. Two more legs mix kernels across the pause: one pauses an
# -orbits run and resumes it with full enumeration, the other the
# reverse, and both must match the same uninterrupted run. Exit code 3
# is the verifier's "paused, rerun with -resume" signal. Single shell +
# trap so the scratch dir is removed even when a step fails.
verify-resume:
	@set -e; trap 'rm -rf $(RESUME_DIR)' EXIT; \
	rm -rf $(RESUME_DIR); mkdir -p $(RESUME_DIR); \
	$(GO) build -o $(RESUME_DIR)/routecheck ./cmd/routecheck; \
	st=0; $(RESUME_DIR)/routecheck -alg strassen -k 4 -workers 3 -shardrows 64 -maxshards 3 \
		-checkpoint $(RESUME_DIR)/k4.ckpt -journal $(RESUME_DIR)/runs.jsonl \
		> $(RESUME_DIR)/paused.out || st=$$?; \
	if [ $$st -ne 3 ]; then echo "expected pause exit 3, got $$st"; exit 1; fi; \
	$(RESUME_DIR)/routecheck -alg strassen -k 4 -workers 5 \
		-checkpoint $(RESUME_DIR)/k4.ckpt -resume -journal $(RESUME_DIR)/runs.jsonl \
		> $(RESUME_DIR)/resumed.out; \
	$(RESUME_DIR)/routecheck -alg strassen -k 4 -workers 2 > $(RESUME_DIR)/fresh.out; \
	grep '^stats:' $(RESUME_DIR)/resumed.out > $(RESUME_DIR)/resumed.stats; \
	grep '^stats:' $(RESUME_DIR)/fresh.out > $(RESUME_DIR)/fresh.stats; \
	cmp $(RESUME_DIR)/resumed.stats $(RESUME_DIR)/fresh.stats; \
	if grep -Eq '^(rank|[0-9]+) ' $(RESUME_DIR)/paused.out; then echo "paused run printed a histogram"; exit 1; fi; \
	grep -E '^(rank|[0-9]+) ' $(RESUME_DIR)/resumed.out > $(RESUME_DIR)/resumed.hist; \
	grep -E '^(rank|[0-9]+) ' $(RESUME_DIR)/fresh.out > $(RESUME_DIR)/fresh.hist; \
	[ -s $(RESUME_DIR)/fresh.hist ] || { echo "uninterrupted run printed no histogram"; exit 1; }; \
	cmp $(RESUME_DIR)/resumed.hist $(RESUME_DIR)/fresh.hist; \
	for leg in orbits-then-full full-then-orbits; do \
		first=""; second=""; \
		if [ $$leg = orbits-then-full ]; then first=-orbits; else second=-orbits; fi; \
		st=0; $(RESUME_DIR)/routecheck -alg strassen -k 4 -workers 3 -shardrows 64 -maxshards 3 $$first \
			-checkpoint $(RESUME_DIR)/$$leg.ckpt > $(RESUME_DIR)/$$leg-paused.out || st=$$?; \
		if [ $$st -ne 3 ]; then echo "$$leg: expected pause exit 3, got $$st"; exit 1; fi; \
		$(RESUME_DIR)/routecheck -alg strassen -k 4 -workers 5 $$second \
			-checkpoint $(RESUME_DIR)/$$leg.ckpt -resume > $(RESUME_DIR)/$$leg.out; \
		grep '^stats:' $(RESUME_DIR)/$$leg.out | cmp - $(RESUME_DIR)/fresh.stats; \
		grep -E '^(rank|[0-9]+) ' $(RESUME_DIR)/$$leg.out | cmp - $(RESUME_DIR)/fresh.hist; \
	done; \
	$(RESUME_DIR)/routecheck -summarize $(RESUME_DIR)/runs.jsonl; \
	echo "verify-resume: PASS — resumed stats and hit histogram byte-identical to an uninterrupted run, also across -orbits and full enumeration"

# Observability acceptance check: run a real verification with the
# debug server on an ephemeral port, scrape /metrics and /healthz, and
# assert the routing metric families and the live progress document are
# there. -debughold keeps the server up after the (short) run so the
# scrape cannot race its exit.
obs-smoke:
	@set -e; pid=""; trap 'rm -rf $(OBS_DIR); [ -z "$$pid" ] || kill $$pid 2>/dev/null || true' EXIT; \
	rm -rf $(OBS_DIR); mkdir -p $(OBS_DIR); \
	$(GO) build -o $(OBS_DIR)/routecheck ./cmd/routecheck; \
	$(OBS_DIR)/routecheck -alg strassen -k 4 -shardrows 64 \
		-checkpoint $(OBS_DIR)/k4.ckpt -debugaddr 127.0.0.1:0 -debughold 60s \
		> $(OBS_DIR)/run.out 2> $(OBS_DIR)/run.err & pid=$$!; \
	url=""; i=0; while [ $$i -lt 100 ]; do \
		url=$$(sed -n 's/^debug server listening on //p' $(OBS_DIR)/run.err); \
		[ -n "$$url" ] && break; i=$$((i+1)); sleep 0.1; done; \
	if [ -z "$$url" ]; then echo "obs-smoke: debug server never announced its URL"; cat $(OBS_DIR)/run.err; exit 1; fi; \
	ok=""; i=0; while [ $$i -lt 100 ]; do \
		if curl -sf "$$url/healthz" > $(OBS_DIR)/healthz.json 2>/dev/null \
			&& grep -q '"progress"' $(OBS_DIR)/healthz.json \
			&& grep -q '"checkpoint_shards"' $(OBS_DIR)/healthz.json; then ok=1; break; fi; \
		i=$$((i+1)); sleep 0.1; done; \
	if [ -z "$$ok" ]; then echo "obs-smoke: /healthz never reported progress + shard coverage"; cat $(OBS_DIR)/healthz.json 2>/dev/null; exit 1; fi; \
	grep -q '"status": "ok"' $(OBS_DIR)/healthz.json; \
	curl -sf "$$url/metrics" > $(OBS_DIR)/metrics.txt; \
	grep -q '^# TYPE routing_paths_verified_total counter' $(OBS_DIR)/metrics.txt; \
	grep -q '^routing_paths_verified_total ' $(OBS_DIR)/metrics.txt; \
	grep -q '^routing_paths_per_second ' $(OBS_DIR)/metrics.txt; \
	grep -q '^# TYPE routing_shard_enumerate_seconds histogram' $(OBS_DIR)/metrics.txt; \
	grep -q '^routing_shard_enumerate_seconds_bucket{le="+Inf"} ' $(OBS_DIR)/metrics.txt; \
	curl -sfo /dev/null "$$url/debug/pprof/"; \
	echo "obs-smoke: PASS — /metrics and /healthz live on $$url"

# Verification-service acceptance check, two legs against real daemons
# on ephemeral ports. Cache leg: submit a job, poll it to completion,
# resubmit the identical spec, and require the response to be served
# from the result cache — "cached": true and the engine's
# routing_paths_verified_total counter not advancing (nothing was
# re-enumerated). Durability leg: submit an 8-shard job to a daemon
# started with the -crashaftershards failpoint, let it die mid-job
# (exit 2, no drain), restart over the same data dir, and require the
# recovered job to resume from a partial checkpoint — routelog's merged
# trace must report at least one shard restored, so the leg cannot pass
# by rerunning from scratch — and finish with a certificate
# byte-identical to the uninterrupted run from the first leg. The resume is watched two ways at once: an SSE stream on
# /jobs/{id}/events whose terminal `final` event must carry the same
# certificate the polling loop sees, and the per-job journals of both
# daemon generations, which routelog must merge into a single trace
# (the trace ID is persisted with the spec, so the crash and resume
# legs share one identity). The resumed job's final doc must also
# carry a populated resources block with legs=2 — cost accounting
# accumulated across both daemon generations, not reset by the crash —
# and a manually triggered pprof capture must land in the ring and be
# retrievable from /debug/captures.
routed-smoke:
	@set -e; pids=""; trap 'rm -rf $(ROUTED_DIR); [ -z "$$pids" ] || kill $$pids 2>/dev/null || true' EXIT; \
	rm -rf $(ROUTED_DIR); mkdir -p $(ROUTED_DIR); \
	$(GO) build -o $(ROUTED_DIR)/routed ./cmd/routed; \
	$(ROUTED_DIR)/routed -addr 127.0.0.1:0 -datadir $(ROUTED_DIR)/data1 \
		-journal $(ROUTED_DIR)/d1.jsonl 2> $(ROUTED_DIR)/d1.err & pids="$$!"; \
	url=""; i=0; while [ $$i -lt 100 ]; do \
		url=$$(sed -n 's/^routed listening on //p' $(ROUTED_DIR)/d1.err); \
		[ -n "$$url" ] && break; i=$$((i+1)); sleep 0.1; done; \
	if [ -z "$$url" ]; then echo "routed-smoke: daemon1 never announced its URL"; cat $(ROUTED_DIR)/d1.err; exit 1; fi; \
	curl -sf -X POST -d '{"alg":"strassen","k":2}' "$$url/jobs" > $(ROUTED_DIR)/submit1.json; \
	id=$$(sed -n 's/^  "id": "\(j[0-9]*\)",*$$/\1/p' $(ROUTED_DIR)/submit1.json); \
	if [ -z "$$id" ]; then echo "routed-smoke: no job id in submit response"; cat $(ROUTED_DIR)/submit1.json; exit 1; fi; \
	ok=""; i=0; while [ $$i -lt 600 ]; do \
		curl -sf "$$url/jobs/$$id" > $(ROUTED_DIR)/job1.json; \
		if grep -q '"state": "done"' $(ROUTED_DIR)/job1.json; then ok=1; break; fi; \
		i=$$((i+1)); sleep 0.1; done; \
	if [ -z "$$ok" ]; then echo "routed-smoke: job $$id never completed"; cat $(ROUTED_DIR)/job1.json; exit 1; fi; \
	curl -sf "$$url/metrics" | sed -n 's/^routing_paths_verified_total //p' > $(ROUTED_DIR)/paths1; \
	curl -sf -X POST -d '{"alg":"strassen","k":2}' "$$url/jobs" > $(ROUTED_DIR)/submit2.json; \
	grep -q '"cached": true' $(ROUTED_DIR)/submit2.json \
		|| { echo "routed-smoke: resubmission missed the result cache"; cat $(ROUTED_DIR)/submit2.json; exit 1; }; \
	curl -sf "$$url/metrics" | sed -n 's/^routing_paths_verified_total //p' > $(ROUTED_DIR)/paths2; \
	cmp $(ROUTED_DIR)/paths1 $(ROUTED_DIR)/paths2 \
		|| { echo "routed-smoke: cache hit re-enumerated paths"; exit 1; }; \
	curl -sf -X POST -d '{"alg":"strassen","k":4,"shardrows":64}' "$$url/jobs" > $(ROUTED_DIR)/submit3.json; \
	id=$$(sed -n 's/^  "id": "\(j[0-9]*\)",*$$/\1/p' $(ROUTED_DIR)/submit3.json); \
	ok=""; i=0; while [ $$i -lt 3600 ]; do \
		curl -sf "$$url/jobs/$$id" > $(ROUTED_DIR)/job3.json; \
		if grep -q '"state": "done"' $(ROUTED_DIR)/job3.json; then ok=1; break; fi; \
		i=$$((i+1)); sleep 0.1; done; \
	if [ -z "$$ok" ]; then echo "routed-smoke: reference k=4 job never completed"; cat $(ROUTED_DIR)/job3.json; exit 1; fi; \
	sed -n 's/^  "certificate": "\(.*\)",*$$/\1/p' $(ROUTED_DIR)/job3.json > $(ROUTED_DIR)/fresh.cert; \
	[ -s $(ROUTED_DIR)/fresh.cert ] || { echo "routed-smoke: no certificate in reference job"; exit 1; }; \
	$(ROUTED_DIR)/routed -addr 127.0.0.1:0 -datadir $(ROUTED_DIR)/data2 \
		-journal $(ROUTED_DIR)/d2.jsonl \
		-crashaftershards 3 2> $(ROUTED_DIR)/d2.err & cpid=$$!; \
	url2=""; i=0; while [ $$i -lt 100 ]; do \
		url2=$$(sed -n 's/^routed listening on //p' $(ROUTED_DIR)/d2.err); \
		[ -n "$$url2" ] && break; i=$$((i+1)); sleep 0.1; done; \
	if [ -z "$$url2" ]; then echo "routed-smoke: failpoint daemon never announced its URL"; cat $(ROUTED_DIR)/d2.err; exit 1; fi; \
	curl -sf -X POST -d '{"alg":"strassen","k":4,"shardrows":64}' "$$url2/jobs" > $(ROUTED_DIR)/submit4.json; \
	st=0; wait $$cpid || st=$$?; \
	if [ $$st -ne 2 ]; then echo "routed-smoke: expected failpoint exit 2, got $$st"; cat $(ROUTED_DIR)/d2.err; exit 1; fi; \
	grep -q 'failpoint' $(ROUTED_DIR)/d2.err; \
	$(ROUTED_DIR)/routed -addr 127.0.0.1:0 -datadir $(ROUTED_DIR)/data2 \
		-journal $(ROUTED_DIR)/d3.jsonl \
		2> $(ROUTED_DIR)/d3.err & pids="$$pids $$!"; \
	url3=""; i=0; while [ $$i -lt 100 ]; do \
		url3=$$(sed -n 's/^routed listening on //p' $(ROUTED_DIR)/d3.err); \
		[ -n "$$url3" ] && break; i=$$((i+1)); sleep 0.1; done; \
	if [ -z "$$url3" ]; then echo "routed-smoke: restarted daemon never announced its URL"; cat $(ROUTED_DIR)/d3.err; exit 1; fi; \
	curl -sN "$$url3/jobs/j00000001/events" > $(ROUTED_DIR)/sse.out & pids="$$pids $$!"; \
	ok=""; i=0; while [ $$i -lt 3600 ]; do \
		curl -sf "$$url3/jobs/j00000001" > $(ROUTED_DIR)/job4.json; \
		if grep -q '"state": "done"' $(ROUTED_DIR)/job4.json; then ok=1; break; fi; \
		i=$$((i+1)); sleep 0.1; done; \
	if [ -z "$$ok" ]; then echo "routed-smoke: crashed job never resumed to completion"; cat $(ROUTED_DIR)/job4.json; exit 1; fi; \
	grep -q '"resumed": true' $(ROUTED_DIR)/job4.json \
		|| { echo "routed-smoke: recovered job not marked resumed"; cat $(ROUTED_DIR)/job4.json; exit 1; }; \
	sed -n 's/^  "certificate": "\(.*\)",*$$/\1/p' $(ROUTED_DIR)/job4.json > $(ROUTED_DIR)/resumed.cert; \
	cmp $(ROUTED_DIR)/resumed.cert $(ROUTED_DIR)/fresh.cert \
		|| { echo "routed-smoke: resumed certificate differs from uninterrupted run"; exit 1; }; \
	ok=""; i=0; while [ $$i -lt 100 ]; do \
		if grep -q '^event: final' $(ROUTED_DIR)/sse.out 2>/dev/null; then ok=1; break; fi; \
		i=$$((i+1)); sleep 0.1; done; \
	if [ -z "$$ok" ]; then echo "routed-smoke: SSE stream never delivered a final event"; cat $(ROUTED_DIR)/sse.out; exit 1; fi; \
	sed -n '/^event: final/{n;s/.*"certificate":"\([^"]*\)".*/\1/p;}' $(ROUTED_DIR)/sse.out > $(ROUTED_DIR)/sse.cert; \
	cmp $(ROUTED_DIR)/sse.cert $(ROUTED_DIR)/fresh.cert \
		|| { echo "routed-smoke: SSE terminal certificate differs from polled certificate"; cat $(ROUTED_DIR)/sse.out; exit 1; }; \
	grep -q '"legs": 2' $(ROUTED_DIR)/job4.json \
		|| { echo "routed-smoke: resumed job doc lacks accumulated resources (legs 2)"; cat $(ROUTED_DIR)/job4.json; exit 1; }; \
	grep -q '"wall_sec"' $(ROUTED_DIR)/job4.json && grep -q '"queue_wait_sec"' $(ROUTED_DIR)/job4.json \
		|| { echo "routed-smoke: resumed job doc has no cost attribution"; cat $(ROUTED_DIR)/job4.json; exit 1; }; \
	curl -sf -X POST "$$url3/debug/captures?reason=smoke" > $(ROUTED_DIR)/capture.json; \
	grep -q '"reason": "smoke"' $(ROUTED_DIR)/capture.json \
		|| { echo "routed-smoke: manual capture trigger failed"; cat $(ROUTED_DIR)/capture.json; exit 1; }; \
	hf=$$(sed -n 's/^  "heap_file": "\(.*\)",*$$/\1/p' $(ROUTED_DIR)/capture.json); \
	[ -n "$$hf" ] || { echo "routed-smoke: capture has no heap file"; cat $(ROUTED_DIR)/capture.json; exit 1; }; \
	curl -sfo $(ROUTED_DIR)/capture.heap "$$url3/debug/captures/$$hf" \
		|| { echo "routed-smoke: capture heap profile not retrievable"; exit 1; }; \
	[ -s $(ROUTED_DIR)/capture.heap ] || { echo "routed-smoke: capture heap profile empty"; exit 1; }; \
	curl -sf "$$url3/debug/captures" | grep -q '"total": 1' \
		|| { echo "routed-smoke: capture ring does not list the capture"; exit 1; }; \
	tr2=$$(sed -n 's/^  "trace": "\(.*\)",*$$/\1/p' $(ROUTED_DIR)/job4.json); \
	[ -n "$$tr2" ] || { echo "routed-smoke: resumed job has no trace ID"; cat $(ROUTED_DIR)/job4.json; exit 1; }; \
	$(GO) run ./cmd/routelog $(ROUTED_DIR)/d2.jsonl $(ROUTED_DIR)/d3.jsonl > $(ROUTED_DIR)/routelog.out; \
	[ $$(grep -c "^trace $$tr2" $(ROUTED_DIR)/routelog.out) -eq 1 ] \
		|| { echo "routed-smoke: crash and resume legs did not merge into one trace"; cat $(ROUTED_DIR)/routelog.out; exit 1; }; \
	grep "^trace $$tr2" $(ROUTED_DIR)/routelog.out | grep -q 'final paths=' \
		|| { echo "routed-smoke: merged trace has no final"; cat $(ROUTED_DIR)/routelog.out; exit 1; }; \
	grep -Eq 'restored from checkpoint: [1-9][0-9]*/8 shards' $(ROUTED_DIR)/routelog.out \
		|| { echo "routed-smoke: crashed job did not resume from a partial checkpoint"; cat $(ROUTED_DIR)/routelog.out; exit 1; }; \
	grep -q '^ waterfall:' $(ROUTED_DIR)/routelog.out \
		|| { echo "routed-smoke: routelog produced no waterfall"; cat $(ROUTED_DIR)/routelog.out; exit 1; }; \
	echo "routed-smoke: PASS — cache hit served without re-enumeration; crashed job resumed from a partial checkpoint to a byte-identical certificate (polled and streamed) with two-leg cost accounting; capture ring live; routelog merged both legs into one trace"
