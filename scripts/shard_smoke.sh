#!/bin/sh
# shard_smoke.sh — intra-space sharding crash test.
#
# Starts a spaced coordinator with -shard-fanout 2 plus two fleet
# workers, fires one enumeration so the coordinator warms the space up
# locally, splits its frontier into two shard assignments, and runs
# them on the fleet. First the coordinator itself is SIGKILLed with
# both shards leased and restarted on the same cache directory and
# address; the workers re-register and the request is issued again.
# Mid-space of that second attempt, whichever worker holds a shard
# lease is SIGKILLed, and the script requires:
#
#   0. the restarted coordinator resumed the warm-up from the request
#      key's checkpoint slot (server.enumerations.resumed) rather than
#      redoing it — the only state of a split that outlives its
#      coordinator; shard progress lived in the dead process's memory,
#      and no *.shard* file exists to say otherwise,
#   1. the space really was sharded (dist.shard.splits) and the dead
#      holder's lease expired (dist.lease_expiries), re-dispatching
#      only that shard,
#   2. the merged space hashes byte-identical (spacedot -hash) to what
#      a single-node cmd/explore run writes for the same function,
#   3. a second, equivalence-tier request on the same two-worker fleet
#      is one assignment: its flight has exactly one dispatch event and
#      no shard-split, and it hashes identical to a single-node -equiv
#      run,
#   4. no merge ever failed verification, the sharded flight's record
#      in /v1/debug/flights carries merge_ms, and the surviving worker
#      and the coordinator drain cleanly on SIGTERM.
#
# CLUSTER_FAULTS, when set, is passed to both workers as their fault
# plan. Keep it to network directives (httpdrop/httpslow): phase-level
# faults are keyed by node sequence, which is shard-relative below the
# partition frontier, so a deep phase fault can fire in one shard and
# not another and the merge correctly refuses the inconsistent oracle
# (see DESIGN.md §14).
#
# Needs curl and jq, like cluster-smoke.
set -eu

GO=${GO:-go}
tmp=$(mktemp -d)
coord=""
w1=""
w2=""
w3=""
cleanup() {
	for pid in $w1 $w2 $w3 $coord; do kill -9 "$pid" 2>/dev/null || true; done
	rm -rf "$tmp"
}
trap cleanup EXIT

fail() {
	echo "shard-smoke: $*" >&2
	echo "--- coordinator log ---" >&2
	cat "$tmp/coord.log" >&2 || true
	echo "--- worker logs ---" >&2
	cat "$tmp"/w?.log >&2 2>/dev/null || true
	exit 1
}

stat_counter() { # stat_counter <series-name>
	curl -fsS "http://$addr/v1/stats" | jq -r --arg k "$1" '.counters[$k] // 0'
}

"$GO" build -o "$tmp/explore" ./cmd/explore
"$GO" build -o "$tmp/spacedot" ./cmd/spacedot
"$GO" build -o "$tmp/spaced" ./cmd/spaced

# Single-node references, one per tier: the sharded answers must hash
# identically.
mkdir -p "$tmp/ref" "$tmp/refeq"
"$tmp/explore" -bench sha -func sha_transform -save "$tmp/ref" >/dev/null
want=$("$tmp/spacedot" -hash "$tmp/ref/sha.sha_transform.space.gz" | cut -d' ' -f1)
"$tmp/explore" -bench sha -func sha_transform -equiv -save "$tmp/refeq" >/dev/null
wanteq=$("$tmp/spacedot" -hash "$tmp/refeq/sha.sha_transform.space.gz" | cut -d' ' -f1)

# Lease TTL 2s (not cluster-smoke's 1s): a shard holder saturates its
# CPUs mid-level, and on a loaded CI box a >1s heartbeat-scheduling
# hiccup would expire a healthy survivor's lease. -deadline stretches
# the request budget for the same reason — the recovery path replays
# the dead holder's shard from its last uploaded checkpoint.
start_coord() { # start_coord <listen-addr>  (sets coord and addr)
	rm -f "$tmp/addr"
	REPRO_FAULTS= "$tmp/spaced" -addr "$1" -cache "$tmp/cache" \
		-ready-file "$tmp/addr" -shard-fanout 2 -lease-ttl 2s -poll-wait 250ms \
		-dispatch-attempts 5 -deadline 240s -metrics "$tmp/coord.metrics.json" \
		-log json 2>>"$tmp/coord.log" &
	coord=$!
	for _ in $(seq 1 100); do [ -s "$tmp/addr" ] && break; sleep 0.1; done
	[ -s "$tmp/addr" ] || fail "coordinator never became ready"
	addr=$(head -n1 "$tmp/addr")
}
start_coord 127.0.0.1:0

start_worker() { # start_worker <id>  (sets wpid)
	# -search-workers 2 keeps the two workers from oversubscribing the
	# box (each would otherwise claim every CPU), which starves their
	# own heartbeat loops and fakes lease expiries.
	REPRO_FAULTS= "$tmp/spaced" -worker -join "http://$addr" \
		-worker-id "$1" -workers 1 -search-workers 2 -scratch "$tmp/$1" \
		${CLUSTER_FAULTS:+-faults "$CLUSTER_FAULTS"} \
		-log json >/dev/null 2>"$tmp/$1.log" &
	wpid=$!
}
wait_fleet() { # wait_fleet <what-went-wrong>
	for _ in $(seq 1 150); do
		[ "$(curl -fsS "http://$addr/v1/stats" | jq -r '.fleet.workers_live // 0')" = 2 ] && return
		sleep 0.1
	done
	fail "$1"
}
start_worker w1; w1=$wpid
start_worker w2; w2=$wpid
wait_fleet "two workers never registered"

# The coordinator dies with both shards leased. What it knew about them
# dies with it; what must survive is the warm-up in the request key's
# checkpoint slot.
curl -sS -d '{"bench":"sha","func":"sha_transform"}' \
	"http://$addr/v1/enumerate" -o /dev/null 2>/dev/null &
req=$!
leased=0
for _ in $(seq 1 200); do
	leased=$(curl -fsS "http://$addr/v1/stats" \
		| jq -r '[.fleet.workers[]? | select(.assignments > 0)] | length')
	[ "$leased" = 2 ] && break
	sleep 0.05
done
[ "$leased" = 2 ] || fail "the two shards were never both leased"
kill -9 "$coord"
wait "$coord" 2>/dev/null || true
wait "$req" 2>/dev/null || true
echo "shard-smoke: SIGKILLed the coordinator with both shards leased"
start_coord "$addr"
wait_fleet "workers never re-registered with the restarted coordinator"

curl -fsS -H 'X-Request-ID: shard-smoke-default' -d '{"bench":"sha","func":"sha_transform"}' \
	"http://$addr/v1/enumerate" -o "$tmp/r1.json" &
req=$!

# Wait for the split, find a shard holder, give it a heartbeat or two
# to upload shard progress, then kill it without a goodbye.
victim=""
for _ in $(seq 1 200); do
	[ "$(stat_counter 'dist.shard.splits')" -ge 1 ] || { sleep 0.05; continue; }
	victim=$(curl -fsS "http://$addr/v1/stats" \
		| jq -r '.fleet.workers[]? | select(.assignments > 0) | .id' | head -n1)
	[ -n "$victim" ] && break
	sleep 0.05
done
[ -n "$victim" ] || fail "space never split into shard assignments"
sleep 0.6
if [ "$victim" = w1 ]; then vpid=$w1; survivor=w2; else vpid=$w2; survivor=w1; fi
kill -9 "$vpid"
echo "shard-smoke: SIGKILLed shard holder $victim mid-space"
# A replacement joins so the dead holder's shard re-dispatches promptly
# and the later equivalence-tier request meets a 2-worker fleet, one a
# default-tier request would be split across.
start_worker w3; w3=$wpid

wait "$req" || fail "enumerate request failed"
got=$(jq -r .space_hash "$tmp/r1.json")
[ "$got" = "$want" ] || fail "sharded hash $got, single-node run wrote $want"

resumed=$(stat_counter "server.enumerations.resumed")
[ "$resumed" -ge 1 ] || fail "the restarted coordinator redid the warm-up instead of resuming it"
if ls "$tmp/cache" | grep -q '\.shard'; then
	fail "shard files in the cache directory: $(ls "$tmp/cache")"
fi
splits=$(stat_counter "dist.shard.splits")
[ "$splits" -ge 1 ] || fail "space was never sharded"
merges=$(stat_counter "dist.shard.merges")
[ "$merges" -ge 1 ] || fail "shards were never merged (local fallback answered?)"
mergefails=$(stat_counter "dist.shard.merge_failures")
[ "$mergefails" = 0 ] || fail "$mergefails shard merges failed verification"
exp=$(stat_counter "dist.lease_expiries{worker=\"$victim\"}")
[ "$exp" -ge 1 ] || fail "no lease expiry for $victim; kill landed after its shard completed?"

# Byte identity of what the coordinator serves from its cache.
key=$(jq -r .key "$tmp/r1.json")
curl -fsS "http://$addr/v1/space/$key" -o "$tmp/served.space.gz"
served=$("$tmp/spacedot" -hash "$tmp/served.space.gz" | cut -d' ' -f1)
[ "$served" = "$want" ] || fail "served space hashes $served, want $want"

# Equivalence tier: one whole-space assignment, never split, answered
# by the worker's live equiv run, must match a direct single-node -equiv
# run bit for bit.
curl -fsS -H 'X-Request-ID: shard-smoke-equiv' \
	-d '{"bench":"sha","func":"sha_transform","options":{"equiv":true}}' \
	"http://$addr/v1/enumerate" -o "$tmp/r2.json" || fail "equiv enumerate request failed"
goteq=$(jq -r .space_hash "$tmp/r2.json")
[ "$goteq" = "$wanteq" ] || fail "fleet equiv hash $goteq, single-node -equiv run wrote $wanteq"
# The request's record lands when its handler returns, a moment after
# the response may have.
eqflight=""
for _ in $(seq 1 50); do
	curl -fsS "http://$addr/v1/debug/flights" >"$tmp/flights.json"
	eqflight=$(jq -r '[.flights[] | select(.request_id == "shard-smoke-equiv")][0].flight_id // ""' "$tmp/flights.json")
	[ -n "$eqflight" ] && break
	sleep 0.05
done
[ -n "$eqflight" ] || fail "no flight record for the equiv request"
flight_events() { # flight_events <event>
	jq -r --arg id "$eqflight" --arg e "$1" \
		'[.flights[] | select(.flight_id == $id and .event == $e)] | length' "$tmp/flights.json"
}
eqdispatch=$(flight_events dispatch)
eqsplit=$(flight_events shard-split)
[ "$eqdispatch" = 1 ] && [ "$eqsplit" = 0 ] \
	|| fail "equiv flight $eqflight had $eqdispatch dispatches and $eqsplit splits, want 1 and 0"

# Where the coordinator's own time went must be on the sharded flight's
# record (a presence gate, not a threshold).
merge1=$(jq -r '[.flights[] | select(.request_id == "shard-smoke-default")][0].merge_ms // "missing"' "$tmp/flights.json")
[ "$merge1" != missing ] || fail "sharded flight record lacks merge_ms"

# Clean drains: surviving workers first, then the coordinator.
if [ "$survivor" = w1 ]; then spid=$w1; else spid=$w2; fi
kill -TERM "$spid" "$w3"
wait "$spid" || fail "surviving worker did not drain cleanly"
wait "$w3" || fail "replacement worker did not drain cleanly"
w1=""; w2=""; w3=""
kill -9 "$vpid" 2>/dev/null || true
kill -TERM "$coord"
wait "$coord" || fail "coordinator did not drain cleanly"
coord=""

# The coordinator's exit snapshot must surface the shard series through
# phasestats -from-metrics (the fleet operator's offline view).
"$GO" run ./cmd/phasestats -from-metrics "$tmp/coord.metrics.json" \
	-require dist.shard.splits,dist.shard.merges,dist.assignments \
	>"$tmp/phasestats.txt" || fail "phasestats -from-metrics rejected the coordinator snapshot"
grep -q 'dist:   shards:' "$tmp/phasestats.txt" \
	|| fail "phasestats -from-metrics printed no dist.shard series"
echo "shard-smoke: coordinator killed mid-split and resumed its warm-up, $victim killed mid-shard, $survivor absorbed it, both tiers hash-identical ($want / $wanteq); merge_ms $merge1, equiv flight one dispatch, no split"
