# Tier-1 verification: everything CI runs, runnable locally with
# "make check".

GO ?= go

.PHONY: check fmt vet build test bench-test race lint lint-fixtures loc fuzz-smoke bench bench-smoke phasecost resume-smoke serve-smoke obs-smoke cluster-smoke chaos shard-smoke

check: fmt vet build test bench-test race lint lint-fixtures loc

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# bench/ is a module of its own that imports internal/: vetting it here
# makes a change that stops the harness compiling fail at the first CI
# step, not in "make test".
vet:
	$(GO) vet ./...
	$(GO) vet -C bench ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench/ is a module of its own, so ./... does not descend into it; its
# test runs every workload of the harness at a tiny size (~3s) and
# requires every metric BENCHMARK.json names, with no failed operation.
bench-test:
	$(GO) test -C bench ./...

# The enumerator and the compilers are the concurrent subsystems; run
# their suites under the race detector. faultinject rides along: its
# faults fire on the enumerator's worker goroutines, so the panic /
# hang / corrupt paths must be race-clean too, fingerprint because
# workers summarize instances and compute equivalence keys concurrently
# through its pooled buffers and encoders (the -jobs + -equiv
# combination in the search suite exercises it end to end), distcl
# because the fleet worker runs assignments, heartbeats and drains on
# separate goroutines, rtl
# and opt because a frontier instance's analysis snapshot is read (and
# computed, once) by every worker attempting that node, and check
# because its liveness draws on the same pool of solver scratch the
# workers' phases do.
# -timeout 30m: the search suite's determinism grids run ~10m under
# -race on a 1-CPU box, brushing the 10m per-package default.
race:
	$(GO) test -race -timeout 30m ./internal/search/ ./internal/driver/ ./internal/telemetry/ ./internal/faultinject/ ./internal/fingerprint/ ./internal/server/ ./internal/distcl/ ./internal/rtl/ ./internal/opt/ ./internal/check/

# Static analysis beyond go vet. staticcheck and govulncheck run when
# installed and are skipped with a note otherwise, so the target stays
# green on a bare Go toolchain and tightens automatically where the
# tools exist.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed, skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# The rtllint fixtures double as an executable smoke test: the clean
# inputs must lint clean, the broken ones must fail.
lint-fixtures:
	$(GO) run ./cmd/rtllint cmd/rtllint/testdata/clean.rtl
	$(GO) run ./cmd/rtllint -batch cmd/rtllint/testdata/gcd.c
	@if $(GO) run ./cmd/rtllint cmd/rtllint/testdata/use_before_def.rtl >/dev/null; then \
		echo "use_before_def.rtl unexpectedly linted clean"; exit 1; fi
	@if $(GO) run ./cmd/rtllint cmd/rtllint/testdata/clobbered_ic.rtl >/dev/null; then \
		echo "clobbered_ic.rtl unexpectedly linted clean"; exit 1; fi

# Code size of the packages ROADMAP's quality-of-design goal is judged
# on: non-test, non-blank, non-comment Go lines, one line per package
# and their total. Informational (never fails), and part of check so
# that every CI log carries the number. The packages under the engine
# (phases, RTL, fingerprint with the equivalence encoder, and check —
# ROADMAP quotes opt + rtl for the analyses) and the instruments
# (telemetry) follow the total and stay out of it, so ROADMAP's series
# of totals remains comparable.
loc:
	@count() { ls $$1/*.go | grep -v _test.go | xargs cat | grep -vcE '^\s*(//.*)?$$'; }; \
	total=0; for d in internal/search internal/server internal/distcl cmd/explore; do \
		n=$$(count $$d); printf 'loc: %-20s %s\n' $$d $$n; total=$$((total + n)); \
	done; printf 'loc: %-20s %s\n' total $$total; \
	for d in internal/opt internal/rtl internal/fingerprint internal/check internal/telemetry; do \
		printf 'loc: %-20s %s (not in total)\n' $$d $$(count $$d); \
	done

# Every native fuzz target, 10 s each: long enough to replay the seed
# corpus and mutate a little, short enough for CI. Minimizing an
# interesting input is capped at 1 s, or the first one found eats the
# whole budget (the default is a minute). A crasher lands in the
# package's testdata/fuzz/ and fails the target; commit it with the fix
# (go test then replays it forever).
fuzz-smoke:
	$(GO) test ./internal/fingerprint/ -run '^$$' -fuzz '^FuzzEquivInvariance$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/search/ -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime 10s -fuzzminimizetime 1s

# Telemetry smoke test: instrument a tiny enumeration, then make
# phasestats re-read the snapshot and assert the core counters are
# nonzero. Catches metric-name drift and snapshot format breakage.
bench-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/explore -bench stringsearch -func tolower_c -check \
		-metrics "$$tmp/smoke.metrics.json" && \
	$(GO) run ./cmd/phasestats -from-metrics "$$tmp/smoke.metrics.json" \
		-require search.nodes,search.attempts,check.verify.calls

# Where an attempt's time goes, phase by phase: one instrumented round
# at one worker of the enumerate workload's timed default set, its
# snapshots merged into the attempted / active / mean active / mean
# dormant table EXPERIMENTS.md quotes, then the same table for
# jpeg/fdct_pass, the function fleet_shard's equivalence request
# enumerates, whose phase mix is not the enumerate set's. The
# instruments cost a clock read per attempt; compare rows and commits,
# not against the uninstrumented benchmark.
phasecost:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/explore" ./cmd/explore && \
	$(GO) build -o "$$tmp/phasestats" ./cmd/phasestats && \
	for f in stringsearch/bmh_search jpeg/get_code jpeg/quantize_block jpeg/fdct_pass; do \
		"$$tmp/explore" -bench "$${f%/*}" -func "$${f#*/}" -search-workers 1 \
			-metrics "$$tmp/$${f#*/}.json" >/dev/null 2>&1 \
			|| { echo "phasecost: explore failed on $$f"; exit 1; }; \
	done && \
	echo "== enumerate set: bmh_search, get_code, quantize_block" && \
	"$$tmp/phasestats" -from-metrics "$$tmp/bmh_search.json,$$tmp/get_code.json,$$tmp/quantize_block.json" && \
	echo && echo "== jpeg/fdct_pass (fleet_shard's equivalence request)" && \
	"$$tmp/phasestats" -from-metrics "$$tmp/fdct_pass.json"

# The repository's benchmark: four workloads (in-process engine,
# spaced cold and warm, the sharded fleet), every end-to-end and
# per-layer metric BENCHMARK.json names, every answer gated on
# bench/expected_hashes.json. Arguments pass through, e.g.
# make bench ARGS='--workload serve_cold --seconds 30 --trace 1'.
# bench/README.md has the details, bench/baseline.json the numbers.
bench:
	bash bench/run.sh $(ARGS)

# Crash/resume smoke test: SIGKILL an enumeration mid-run, resume it
# from its checkpoint file, and require the resumed space to hash
# identical (spacedot -hash, canonical serialization) to an
# uninterrupted run of the same function, in either tier (-equiv). If
# the machine is fast enough that the run finishes before the kill
# lands, the checkpoint file already holds the complete space; if the
# kill lands before the first cost-paced checkpoint, -resume starts
# over. The comparison applies either way.
resume-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/explore" ./cmd/explore && \
	$(GO) build -o "$$tmp/spacedot" ./cmd/spacedot || exit 1; \
	for tier in default equiv; do \
		d="$$tmp/$$tier"; mkdir -p "$$d"; flag=; \
		if [ $$tier = equiv ]; then flag=-equiv; fi; \
		"$$tmp/explore" -bench sha -func sha_transform $$flag -save "$$d" >/dev/null && \
		{ "$$tmp/explore" -bench sha -func sha_transform $$flag -checkpoint "$$d" >/dev/null 2>&1 & \
		pid=$$!; sleep 1.2; kill -9 $$pid 2>/dev/null || true; wait $$pid 2>/dev/null; } ; \
		"$$tmp/explore" -bench sha -func sha_transform $$flag -checkpoint "$$d" -resume >/dev/null && \
		a=$$("$$tmp/spacedot" -hash "$$d/sha.sha_transform.ckpt.space.gz" | cut -d' ' -f1) && \
		b=$$("$$tmp/spacedot" -hash "$$d/sha.sha_transform.space.gz" | cut -d' ' -f1) || exit 1; \
		if [ "$$a" != "$$b" ]; then \
			echo "resume-smoke: $$tier tier: resumed space differs from clean run: $$a vs $$b"; exit 1; \
		fi; \
		echo "resume-smoke: $$tier tier: killed+resumed space identical to clean run ($$a)"; \
	done

# Serving smoke test: start spaced, fire two concurrent identical
# requests plus one distinct one, and require (a) exactly one
# enumeration per distinct key (/v1/stats counters — coalescing or
# cache, either way the work ran once), (b) a warm repeat served from
# cache, (c) the served space hashing identical (spacedot -hash) to
# what cmd/explore writes for the same function, and the stored entry
# and the download both being those bytes (sha256sum), (d) a clean SIGTERM
# drain, (e) a second spaced on the same cache directory answering the
# first key from disk — same hash, no enumeration in the new process —
# and (f) a third, started after one byte of the stored entry was
# flipped, counting the pair corrupt and re-enumerating to the same
# hash. Needs curl and jq.
serve-smoke:
	@set -e; tmp=$$(mktemp -d); srv=""; \
	trap 'kill $$srv 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	start() { rm -f "$$tmp/addr"; \
		"$$tmp/spaced" -addr 127.0.0.1:0 -cache "$$tmp/cache" -ready-file "$$tmp/addr" \
			2>>"$$tmp/spaced.log" & srv=$$!; \
		for i in $$(seq 1 100); do [ -s "$$tmp/addr" ] && break; sleep 0.1; done; \
		[ -s "$$tmp/addr" ] || { echo "serve-smoke: spaced never became ready"; cat "$$tmp/spaced.log"; exit 1; }; \
		addr=$$(head -n1 "$$tmp/addr"); }; \
	stop() { kill -TERM $$srv; \
		wait $$srv || { echo "serve-smoke: spaced did not drain cleanly"; cat "$$tmp/spaced.log"; exit 1; }; \
		srv=""; }; \
	rotl() { curl -fsS -d '{"bench":"sha","func":"rotl"}' "http://$$addr/v1/enumerate" -o "$$tmp/$$1.json"; }; \
	count() { curl -fsS "http://$$addr/v1/stats" | jq ".counters[\"$$1\"] // 0"; }; \
	$(GO) build -o "$$tmp/explore" ./cmd/explore; \
	$(GO) build -o "$$tmp/spacedot" ./cmd/spacedot; \
	$(GO) build -o "$$tmp/spaced" ./cmd/spaced; \
	"$$tmp/explore" -bench sha -func rotl -save "$$tmp" >/dev/null; \
	want=$$("$$tmp/spacedot" -hash "$$tmp/sha.rotl.space.gz" | cut -d' ' -f1); \
	start; \
	curl -fsS "http://$$addr/healthz" >/dev/null; \
	rotl r1 & c1=$$!; \
	rotl r2 & c2=$$!; \
	wait $$c1; wait $$c2; \
	curl -fsS -d '{"bench":"stringsearch","func":"tolower_c"}' "http://$$addr/v1/enumerate" -o "$$tmp/r3.json"; \
	rotl r4; \
	for r in r1 r2; do \
		h=$$(jq -r .space_hash "$$tmp/$$r.json"); \
		[ "$$h" = "$$want" ] || { echo "serve-smoke: $$r served hash $$h, explore wrote $$want"; exit 1; }; \
	done; \
	warm=$$(jq -r .cache "$$tmp/r4.json"); \
	case "$$warm" in mem|disk) ;; *) echo "serve-smoke: warm repeat served as '$$warm', want a cache hit"; exit 1;; esac; \
	enums=$$(count server.enumerations); \
	[ "$$enums" = 2 ] || { echo "serve-smoke: $$enums enumerations for 2 distinct keys, want exactly 2"; exit 1; }; \
	key=$$(jq -r .key "$$tmp/r1.json"); \
	curl -fsS "http://$$addr/v1/space/$$key" -o "$$tmp/served.space.gz"; \
	got=$$("$$tmp/spacedot" -hash "$$tmp/served.space.gz" | cut -d' ' -f1); \
	[ "$$got" = "$$want" ] || { echo "serve-smoke: served space hashes $$got, explore wrote $$want"; exit 1; }; \
	for f in "$$tmp/cache/$$key.space.gz" "$$tmp/served.space.gz"; do [ "$$(sha256sum "$$f" | cut -d' ' -f1)" = "$$want" ] || { echo "serve-smoke: sha256sum of $$f is not the space_hash $$want"; exit 1; }; done; \
	stop; \
	start; rotl r5; \
	how=$$(jq -r .cache "$$tmp/r5.json"); h=$$(jq -r .space_hash "$$tmp/r5.json"); enums=$$(count server.enumerations); \
	[ "$$how" = disk ] && [ "$$h" = "$$want" ] && [ "$$enums" = 0 ] || \
		{ echo "serve-smoke: restart answered '$$how' hash $$h after $$enums enumerations, want disk $$want 0"; exit 1; }; \
	stop; \
	entry="$$tmp/cache/$$key.space.gz"; b=$$(od -An -tu1 -j100 -N1 "$$entry" | tr -d ' '); \
	printf "$$(printf '\\%03o' $$((b ^ 1)))" | dd of="$$entry" bs=1 seek=100 conv=notrunc status=none; \
	start; rotl r6; \
	how=$$(jq -r .cache "$$tmp/r6.json"); h=$$(jq -r .space_hash "$$tmp/r6.json"); bad=$$(count server.cache.corrupt); \
	[ "$$how" = miss ] && [ "$$h" = "$$want" ] && [ "$$bad" = 1 ] || \
		{ echo "serve-smoke: flipped entry answered '$$how' hash $$h with $$bad counted corrupt, want miss $$want 1"; exit 1; }; \
	stop; \
	echo "serve-smoke: coalesced+cached serving matches explore/spacedot ($$got); restart answers from disk, a flipped byte re-enumerates"

# Observability smoke test: start spaced with the JSON request log and
# a hang fault that keeps enumerations open long enough to coalesce,
# then run cold / warm / coalesced requests and require (a) /metrics
# parses as OpenMetrics (omlint) and covers the labeled request
# families, (b) every request's X-Request-ID is echoed and appears on
# its access-log line, (c) the slow-flight diagnostic fired, and
# (d) the flight recorder links the coalesced follower to its leader's
# request ID. Needs curl and jq.
obs-smoke:
	@set -e; tmp=$$(mktemp -d); srv=""; \
	trap 'kill $$srv 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/spaced" ./cmd/spaced; \
	$(GO) build -o "$$tmp/omlint" ./cmd/omlint; \
	"$$tmp/spaced" -addr 127.0.0.1:0 -cache "$$tmp/cache" -ready-file "$$tmp/addr" \
		-log json -slow-flight 1ms -faults 'hang=c:100ms' \
		2>"$$tmp/spaced.log" & srv=$$!; \
	for i in $$(seq 1 100); do [ -s "$$tmp/addr" ] && break; sleep 0.1; done; \
	[ -s "$$tmp/addr" ] || { echo "obs-smoke: spaced never became ready"; cat "$$tmp/spaced.log"; exit 1; }; \
	addr=$$(head -n1 "$$tmp/addr"); \
	curl -fsS -H 'X-Request-ID: obs-cold' -D "$$tmp/h1" \
		-d '{"bench":"sha","func":"rotl"}' "http://$$addr/v1/enumerate" -o "$$tmp/r1.json"; \
	grep -qi '^x-request-id: obs-cold' "$$tmp/h1" \
		|| { echo "obs-smoke: client X-Request-ID not echoed"; cat "$$tmp/h1"; exit 1; }; \
	[ "$$(jq -r .cache "$$tmp/r1.json")" = miss ] \
		|| { echo "obs-smoke: cold request cache=$$(jq -r .cache "$$tmp/r1.json"), want miss"; exit 1; }; \
	curl -fsS -H 'X-Request-ID: obs-warm' \
		-d '{"bench":"sha","func":"rotl"}' "http://$$addr/v1/enumerate" -o "$$tmp/r2.json"; \
	[ "$$(jq -r .cache "$$tmp/r2.json")" = mem ] \
		|| { echo "obs-smoke: warm request cache=$$(jq -r .cache "$$tmp/r2.json"), want mem"; exit 1; }; \
	curl -fsS -H 'X-Request-ID: obs-lead' \
		-d '{"bench":"stringsearch","func":"tolower_c"}' "http://$$addr/v1/enumerate" -o "$$tmp/r3.json" & c1=$$!; \
	sleep 0.05; \
	curl -fsS -H 'X-Request-ID: obs-follow' \
		-d '{"bench":"stringsearch","func":"tolower_c"}' "http://$$addr/v1/enumerate" -o "$$tmp/r4.json" & c2=$$!; \
	wait $$c1; wait $$c2; \
	curl -fsS "http://$$addr/metrics" -o "$$tmp/metrics.txt"; \
	"$$tmp/omlint" -q "$$tmp/metrics.txt" \
		|| { echo "obs-smoke: /metrics rejected by omlint"; exit 1; }; \
	for want in \
		'http_request_duration_ns_bucket{endpoint="/v1/enumerate",status="200"' \
		'server_cache_requests_total{cache_tier="mem"}' \
		'server_cache_requests_total{cache_tier="miss"}' \
		'server_cache_requests_total{cache_tier="coalesced"}' \
		server_queue_depth server_flight_duration_ns_count; do \
		grep -qF "$$want" "$$tmp/metrics.txt" \
			|| { echo "obs-smoke: /metrics missing $$want"; exit 1; }; \
	done; \
	for id in obs-cold obs-warm obs-lead obs-follow; do \
		grep '"msg":"access"' "$$tmp/spaced.log" | grep -qF "\"request_id\":\"$$id\"" \
			|| { echo "obs-smoke: no access-log line for $$id"; cat "$$tmp/spaced.log"; exit 1; }; \
	done; \
	grep -q '"msg":"slow flight"' "$$tmp/spaced.log" \
		|| { echo "obs-smoke: slow-flight diagnostic never fired"; exit 1; }; \
	curl -fsS "http://$$addr/v1/debug/flights" -o "$$tmp/flights.json"; \
	jq -e '[.flights[] | select(.coalesced)] | length == 1' "$$tmp/flights.json" >/dev/null \
		|| { echo "obs-smoke: expected exactly one coalesced flight"; cat "$$tmp/flights.json"; exit 1; }; \
	leader=$$(jq -r '.flights[] | select(.coalesced) | .leader_request_id' "$$tmp/flights.json"); \
	fid=$$(jq -r '.flights[] | select(.coalesced) | .flight_id' "$$tmp/flights.json"); \
	jq -e --arg l "$$leader" --arg f "$$fid" \
		'[.flights[] | select((.coalesced | not) and .request_id == $$l and .flight_id == $$f)] | length == 1' \
		"$$tmp/flights.json" >/dev/null \
		|| { echo "obs-smoke: follower's leader_request_id=$$leader does not match the leader's record"; cat "$$tmp/flights.json"; exit 1; }; \
	jq -e '.flights[] | select(.cache == "miss") | .enumerate_ms > 0 and .total_ms >= .enumerate_ms' \
		"$$tmp/flights.json" | grep -qv false \
		|| { echo "obs-smoke: implausible timing splits"; cat "$$tmp/flights.json"; exit 1; }; \
	kill -TERM $$srv; \
	wait $$srv || { echo "obs-smoke: spaced did not drain cleanly"; cat "$$tmp/spaced.log"; exit 1; }; \
	srv=""; \
	echo "obs-smoke: request IDs, OpenMetrics, access log and flight recorder all line up"

# Distributed-enumeration crash test: coordinator + two workers, the
# lease holder SIGKILLed mid-space, hash parity with a single-node run
# and clean TERM drains required. scripts/cluster_smoke.sh has the
# details. Needs curl and jq.
cluster-smoke:
	sh scripts/cluster_smoke.sh

# cluster-smoke under injected network chaos: both workers run with a
# budgeted fault plan (dropped responses, stalled requests) on top of
# the SIGKILL, and the served bytes still may not change. Override the
# plan with REPRO_FAULTS, e.g.
# REPRO_FAULTS='httpdrop=4,httpslow=4:200ms' make chaos.
# The sharded harness rides along with the same plan: network faults
# compose with intra-space sharding, phase-level faults do not (they
# are keyed by shard-relative node sequence; DESIGN.md §14).
chaos:
	CLUSTER_FAULTS="$${REPRO_FAULTS:-httpdrop=2,httpslow=2:100ms}" sh scripts/cluster_smoke.sh
	CLUSTER_FAULTS="$${REPRO_FAULTS:-httpdrop=2,httpslow=2:100ms}" sh scripts/shard_smoke.sh

# Intra-space sharding crash test: coordinator with -shard-fanout 2 +
# two workers, one enumeration split into frontier shards across the
# fleet, first the coordinator (restarted on the same cache, it must
# resume the warm-up) and then a shard holder SIGKILLed mid-space, and
# the merged space —
# plus an equivalence-tier request, one unsplit assignment on the same
# fleet —
# required to hash byte-identically (spacedot -hash) to single-node
# cmd/explore runs. scripts/shard_smoke.sh has the details. Needs curl
# and jq.
shard-smoke:
	sh scripts/shard_smoke.sh
