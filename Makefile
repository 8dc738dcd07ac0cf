# Mirrors .github/workflows/ci.yml for local runs.

.PHONY: check build vet fmt-check bench-module test race bench bench-json bench-guard bench-e2e run-landscaped smoke-landscaped smoke-crash smoke-chaos smoke-overload smoke-shard smoke-replica smoke-poison fuzz-smoke

# Every recipe that backgrounds a daemon first arms KILL_ON_EXIT: the
# shell SIGKILLs the PIDs it names when the recipe exits, fails or is
# interrupted, so no smoke leaves a daemon running.
KILL_ON_EXIT = DPID= PRIM= FOLL=; \
	trap 'kill -KILL $$DPID $$PRIM $$FOLL 2>/dev/null' EXIT; trap 'exit 1' HUP INT TERM

check: build vet fmt-check bench-module test race

build:
	go build ./...

vet:
	go vet ./...

# Every tracked Go file must be gofmt-clean.
fmt-check:
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"

# The benchmark harness is its own module (bench/go.mod, replacing repro
# with this checkout); vet and test it so it cannot rot against the code
# it measures.
bench-module:
	go -C bench vet ./... && go -C bench test ./...

test:
	go build ./... && go test ./...

# The pipeline is concurrent; run the race detector before every change.
# -short keeps paper-scale scenarios and benchmarks out of the
# instrumented run.
race:
	go test -race -short ./...

bench:
	go test -bench . -benchtime 1x ./...

# Re-measure the B-clustering scalability trajectory (BENCH_bcluster.json),
# the streaming-service ingest throughput (BENCH_stream.json), and the
# adversarial poisoning validity sweep (BENCH_poison.json); entries from
# other labels, e.g. the committed pre-PR baselines, are preserved.
# LABEL is required, so rows never land under a stale label:
#   make bench-json LABEL=post-pr9
bench-json:
	$(if $(LABEL),,$(error bench-json needs a campaign label, e.g. make bench-json LABEL=post-pr9))
	go run ./cmd/benchjson -label $(LABEL) -o BENCH_bcluster.json -stream-o BENCH_stream.json -poison-o BENCH_poison.json

# Superlinearity canary: replay the n=1k and n=10k stream corpora and
# fail if ns/event grows more than 1.5x across the decade. Writes no
# files. Mirrors the CI "Bench guard" step.
bench-guard:
	go run ./cmd/benchjson -guard

# The daemon benchmark's four workloads end to end (BENCHMARK.json),
# one at a time in the foreground, each under a timeout; then fail if
# any daemon, driver or build is still running. The driver kills its
# daemon on the SIGTERM timeout sends; a SIGKILLed driver orphans it,
# which the final check catches. The bracketed patterns keep pgrep from
# matching this recipe's own shell.
#   make bench-e2e SEED=1
SEED ?= 1
BENCH_WORKLOADS = ingest-durable ingest-nosync sharded-mixed scenario-enrich
bench-e2e:
	@rc=0; for w in $(BENCH_WORKLOADS); do \
		timeout -k 10 300 bash bench/run.sh --workload $$w --seed $(SEED) --seconds 12 --trace 0 || rc=1; \
	done; \
	if pgrep -af '[l]andscaped|[s]ynthd|[.]bench_build'; then \
		echo "bench-e2e: processes left running" >&2; rc=1; \
	fi; \
	exit $$rc

# Serve the streaming landscape daemon on the small scenario; feed it
# with `go run ./cmd/landscaped -small -replay-to http://127.0.0.1:8844`
# and stop it with ctrl-c (it drains and shuts down gracefully).
run-landscaped:
	go run ./cmd/landscaped -small -addr 127.0.0.1:8844

# End-to-end daemon smoke: in-process replay convergence gate, then an
# HTTP round trip (serve → replay over HTTP → health + stats checks).
# Mirrors the CI "Landscaped smoke" step.
smoke-landscaped:
	go run ./cmd/landscaped -replay -small
	go build -o /tmp/landscaped-smoke ./cmd/landscaped
	$(KILL_ON_EXIT); \
	/tmp/landscaped-smoke -small -addr 127.0.0.1:18901 & \
	DPID=$$!; sleep 2; \
	/tmp/landscaped-smoke -small -replay-to http://127.0.0.1:18901 -batch 200 && \
	curl -sf http://127.0.0.1:18901/healthz && \
	curl -sf http://127.0.0.1:18901/v1/stats | grep -q '"events": 705'; \
	RC=$$?; kill -TERM $$DPID 2>/dev/null; wait $$DPID 2>/dev/null; \
	rm -f /tmp/landscaped-smoke; exit $$RC

# Crash-recovery smoke: serve with a WAL, feed half the scenario,
# SIGKILL the daemon mid-run, restart it from the WAL + checkpoint,
# feed the rest, and assert the recovered daemon converged with the
# batch pipeline. Mirrors the CI "Crash recovery smoke" step.
smoke-crash:
	go build -o /tmp/landscaped-crash ./cmd/landscaped
	rm -rf /tmp/landscaped-crash-wal && mkdir -p /tmp/landscaped-crash-wal
	$(KILL_ON_EXIT); \
	/tmp/landscaped-crash -small -addr 127.0.0.1:18902 \
		-wal-dir /tmp/landscaped-crash-wal -checkpoint-every 2 & \
	DPID=$$!; \
	/tmp/landscaped-crash -small -replay-to http://127.0.0.1:18902 \
		-batch 100 -replay-limit 350; RC=$$?; \
	kill -KILL $$DPID 2>/dev/null; wait $$DPID 2>/dev/null; \
	if [ $$RC -ne 0 ]; then rm -rf /tmp/landscaped-crash /tmp/landscaped-crash-wal; exit $$RC; fi; \
	/tmp/landscaped-crash -small -addr 127.0.0.1:18902 \
		-wal-dir /tmp/landscaped-crash-wal -checkpoint-every 2 & \
	DPID=$$!; \
	/tmp/landscaped-crash -small -replay-to http://127.0.0.1:18902 \
		-batch 100 -replay-offset 350 -replay-verify; \
	RC=$$?; kill -TERM $$DPID 2>/dev/null; wait $$DPID 2>/dev/null; \
	rm -rf /tmp/landscaped-crash /tmp/landscaped-crash-wal; exit $$RC

# Disk-fault chaos smoke (DESIGN.md §15). Leg 1: the in-process soak —
# 20 seeded write-side fault schedules (internal/chaos), each driving
# ingest through injected EIO/torn-write/ENOSPC/fsync/rename failures
# and operator restarts, each required to converge on cluster views
# byte-identical to a clean run. Leg 2: the real daemon — serve with a
# WAL under an injected fault schedule (-fault-seed), feed half the
# scenario, force two checkpoints so a fallback generation exists,
# SIGKILL the daemon, corrupt the live checkpoint on disk, restart it
# clean, and require generation-fallback recovery (-replay-verify plus
# the checkpoint_fallbacks counter), then a clean offline -wal-verify
# (which also verifies every retained checkpoint generation). Mirrors
# the CI "Chaos smoke" step.
smoke-chaos:
	go test -count=1 -v ./internal/chaos/
	go build -o /tmp/landscaped-chaos ./cmd/landscaped
	rm -rf /tmp/landscaped-chaos-wal && mkdir -p /tmp/landscaped-chaos-wal
	$(KILL_ON_EXIT); \
	/tmp/landscaped-chaos -small -addr 127.0.0.1:18905 \
		-wal-dir /tmp/landscaped-chaos-wal -checkpoint-every 2 -wal-nosync \
		-fault-seed 6 -fault-rate 0.25 -fault-max 6 & \
	DPID=$$!; \
	/tmp/landscaped-chaos -small -replay-to http://127.0.0.1:18905 \
		-batch 25 -replay-limit 350; RC=$$?; \
	curl -sf -X POST http://127.0.0.1:18905/v1/checkpoint >/dev/null || RC=1; \
	curl -sf -X POST http://127.0.0.1:18905/v1/checkpoint >/dev/null || RC=1; \
	kill -KILL $$DPID 2>/dev/null; wait $$DPID 2>/dev/null; \
	if [ $$RC -ne 0 ]; then rm -rf /tmp/landscaped-chaos /tmp/landscaped-chaos-wal; exit $$RC; fi; \
	dd if=/dev/zero of=/tmp/landscaped-chaos-wal/checkpoint.json \
		bs=1 seek=64 count=8 conv=notrunc status=none; \
	/tmp/landscaped-chaos -small -addr 127.0.0.1:18905 \
		-wal-dir /tmp/landscaped-chaos-wal -checkpoint-every 2 -wal-nosync & \
	DPID=$$!; \
	/tmp/landscaped-chaos -small -replay-to http://127.0.0.1:18905 \
		-batch 100 -replay-offset 350 -replay-verify; RC=$$?; \
	curl -sf http://127.0.0.1:18905/v1/stats | grep -q '"checkpoint_fallbacks": 1' || RC=1; \
	kill -TERM $$DPID 2>/dev/null; wait $$DPID 2>/dev/null; \
	/tmp/landscaped-chaos -wal-verify -wal-dir /tmp/landscaped-chaos-wal || RC=1; \
	rm -rf /tmp/landscaped-chaos /tmp/landscaped-chaos-wal; exit $$RC

# Overload smoke: a seeded multi-client load generator (internal/loadgen)
# drives the service >=10x past a pinned apply capacity over HTTP and
# asserts the no-collapse throughput band, fast structured rejections,
# per-client fairness, monotonic admission counters, and post-pressure
# convergence with the batch pipeline. Mirrors the CI "Overload smoke"
# step.
smoke-overload:
	go test -count=1 -run TestOverloadSmoke -v ./internal/loadgen/

# Sharding smoke: the race detector over the N-shard == 1-shard merged
# view equivalence, a 4-shard in-process replay convergence gate, and
# the loadgen flood through 1- and 4-shard daemons (merged-view
# equivalence plus the >=2x aggregate-throughput bound, enforced where
# the box has >=4 cores). Mirrors the CI "Shard smoke" step.
smoke-shard:
	go test -count=1 -race -run TestShardEquivalence ./internal/shard/
	go run ./cmd/landscaped -replay -small -shards 4
	go test -count=1 -run TestShardFloodSmoke -v ./internal/loadgen/

# Replication smoke. First the in-process fan-out harness: flood a
# durable primary (with a follower bootstrapping mid-flood and being
# abandoned), then require byte-identical cluster views on two fresh
# replicas at 1 and 4 shards plus the >=2x aggregate read-throughput
# bound (enforced where the box has >=4 cores). Then a real daemon
# pair: flood a -repl primary over HTTP, SIGKILL a follower
# mid-catch-up, restart it, and require byte-identical views, a typed
# read-only 403 for writes, and a clean offline -wal-verify walk of
# the primary's log. Mirrors the CI "Replica smoke" step.
smoke-replica:
	go test -count=1 -run TestReplicaFanoutSmoke -v ./internal/loadgen/
	go build -o /tmp/landscaped-repl ./cmd/landscaped
	rm -rf /tmp/landscaped-repl-wal && mkdir -p /tmp/landscaped-repl-wal
	$(KILL_ON_EXIT); \
	/tmp/landscaped-repl -small -addr 127.0.0.1:18903 -repl \
		-wal-dir /tmp/landscaped-repl-wal -checkpoint-every 2 -wal-nosync & \
	PRIM=$$!; \
	/tmp/landscaped-repl -small -replay-to http://127.0.0.1:18903 -batch 100; RC=$$?; \
	if [ $$RC -ne 0 ]; then kill -KILL $$PRIM 2>/dev/null; exit $$RC; fi; \
	/tmp/landscaped-repl -small -addr 127.0.0.1:18904 \
		-follow http://127.0.0.1:18903 -repl-poll 200ms & \
	FOLL=$$!; sleep 1; \
	kill -KILL $$FOLL 2>/dev/null; wait $$FOLL 2>/dev/null; \
	/tmp/landscaped-repl -small -addr 127.0.0.1:18904 \
		-follow http://127.0.0.1:18903 -repl-poll 200ms & \
	FOLL=$$!; RC=1; \
	for i in $$(seq 1 120); do \
		if curl -sf http://127.0.0.1:18904/readyz >/dev/null; then RC=0; break; fi; \
		sleep 1; \
	done; \
	if [ $$RC -eq 0 ]; then \
		for d in e p m b; do \
			curl -sf http://127.0.0.1:18903/v1/clusters/$$d > /tmp/repl-prim-$$d.json && \
			curl -sf http://127.0.0.1:18904/v1/clusters/$$d > /tmp/repl-foll-$$d.json && \
			cmp /tmp/repl-prim-$$d.json /tmp/repl-foll-$$d.json || { RC=1; break; }; \
		done; \
	fi; \
	curl -s -X POST -H 'Content-Type: application/json' -d '[]' \
		http://127.0.0.1:18904/v1/ingest | grep -q read_only || RC=1; \
	kill -TERM $$FOLL 2>/dev/null; wait $$FOLL 2>/dev/null; \
	kill -TERM $$PRIM 2>/dev/null; wait $$PRIM 2>/dev/null; \
	/tmp/landscaped-repl -wal-verify -wal-dir /tmp/landscaped-repl-wal || RC=1; \
	rm -rf /tmp/landscaped-repl /tmp/landscaped-repl-wal /tmp/repl-*.json; exit $$RC

# Poisoning smoke: sweep the small corpus through the seeded bridge and
# dilution attack (internal/poison), asserting that the undefended
# pipeline's B precision measurably degrades at 10% poison, that the
# defended streaming run recovers at least half of the lost precision,
# that quarantine stays queryable and fully drains on flush, and that
# the per-client ledger pins suspicion on the attacker's client
# identity. Mirrors the CI "Poison smoke" step.
smoke-poison:
	go test -count=1 -run 'TestSweepDefenseRecovery|TestDefendedServiceLedgerAndDrain' -v ./internal/poison/

# Short coverage-guided fuzz of the ingest decode -> validate -> apply
# path (FuzzIngestPipeline). The minimize budget is capped in execs so a
# noisy-coverage input cannot eat the whole fuzz window.
fuzz-smoke:
	go test -count=1 -run '^$$' -fuzz FuzzIngestPipeline -fuzztime 30s \
		-fuzzminimizetime 20x ./internal/httpapi/
