#!/bin/sh
# cluster_smoke.sh — distributed-enumeration crash test.
#
# Starts a spaced coordinator plus two fleet workers and fires an
# enumeration, which the coordinator leases to one worker as a single
# whole-space assignment. The workers crawl (a hang=c:2ms fault stalls
# every application of phase c), so the space takes seconds on either
# of them and each kill below lands mid-space by construction, not by
# timing. First the coordinator itself is SIGKILLed with that
# assignment leased, once the lessee's progress checkpoint has been
# mirrored into the request key's space file; it is restarted on the
# same cache directory and address, the workers re-register (the
# assignment table died with the old process), and the request is sent
# again. Then, mid-space of that second attempt, whichever worker holds
# the lease is SIGKILLed, and the script requires:
#
#   1. the restarted coordinator's dispatch is seeded from the mirrored
#      checkpoint (dist.recoveries) rather than starting afresh,
#   2. the victim's lease expires and the assignment is re-dispatched,
#   3. the surviving worker completes it,
#   4. the served space hashes byte-identical (spacedot -hash,
#      canonical serialization) to what a single-node cmd/explore run
#      writes for the same function,
#   5. the survivor and the coordinator both drain cleanly on SIGTERM.
#
# CLUSTER_FAULTS, when set, is added to both workers' fault plan (e.g.
# "httpdrop=2,httpslow=2:100ms" for network chaos — see `make chaos`).
# The coordinator always runs fault-free: the point is that faults on
# the workers never change the served bytes.
#
# Needs curl and jq, like serve-smoke.
set -eu

GO=${GO:-go}
tmp=$(mktemp -d)
coord=""
w1=""
w2=""
cleanup() {
	for pid in $w1 $w2 $coord; do kill -9 "$pid" 2>/dev/null || true; done
	rm -rf "$tmp"
}
trap cleanup EXIT

fail() {
	echo "cluster-smoke: $*" >&2
	echo "--- coordinator log ---" >&2
	cat "$tmp/coord.log" >&2 || true
	echo "--- worker logs ---" >&2
	cat "$tmp/w1.log" "$tmp/w2.log" >&2 2>/dev/null || true
	exit 1
}

stat_counter() { # stat_counter <series-name>
	curl -fsS "http://$addr/v1/stats" | jq -r --arg k "$1" '.counters[$k] // 0'
}

stat_sum() { # stat_sum <metric>: the counter summed over its labels
	curl -fsS "http://$addr/v1/stats" | jq -r --arg k "$1{" \
		'[.counters | to_entries[] | select(.key | startswith($k)) | .value] | add // 0'
}

lessee() { # lessee: the worker holding an assignment, if any
	curl -fsS "http://$addr/v1/stats" \
		| jq -r '.fleet.workers[]? | select(.assignments > 0) | .id' | head -n1
}

"$GO" build -o "$tmp/explore" ./cmd/explore
"$GO" build -o "$tmp/spacedot" ./cmd/spacedot
"$GO" build -o "$tmp/spaced" ./cmd/spaced

# Single-node reference: the distributed answer must hash identically.
"$tmp/explore" -bench sha -func sha_transform -save "$tmp" >/dev/null
want=$("$tmp/spacedot" -hash "$tmp/sha.sha_transform.space.gz" | cut -d' ' -f1)

# Coordinator with smoke-scale leases: a killed worker is noticed in
# about a second instead of the production default.
start_coord() { # start_coord <listen-addr>  (sets coord and addr)
	rm -f "$tmp/addr"
	REPRO_FAULTS= "$tmp/spaced" -addr "$1" -cache "$tmp/cache" \
		-ready-file "$tmp/addr" -lease-ttl 1s -poll-wait 250ms \
		-dispatch-attempts 5 -log json 2>>"$tmp/coord.log" &
	coord=$!
	for _ in $(seq 1 100); do [ -s "$tmp/addr" ] && break; sleep 0.1; done
	[ -s "$tmp/addr" ] || fail "coordinator never became ready"
	addr=$(head -n1 "$tmp/addr")
}
start_coord 127.0.0.1:0

start_worker() { # start_worker <id>  (sets wpid)
	REPRO_FAULTS= "$tmp/spaced" -worker -join "http://$addr" \
		-worker-id "$1" -workers 1 -scratch "$tmp/$1" \
		-faults "hang=c:2ms${CLUSTER_FAULTS:+,$CLUSTER_FAULTS}" \
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

# The coordinator dies with the assignment leased and the lessee's
# progress checkpoint mirrored into the key's space file.
curl -sS -d '{"bench":"sha","func":"sha_transform"}' \
	"http://$addr/v1/enumerate" -o /dev/null 2>/dev/null &
req=$!
mirrored=""
for _ in $(seq 1 300); do
	if [ -n "$(lessee)" ] && ls "$tmp/cache"/*.space.gz >/dev/null 2>&1; then
		mirrored=1
		break
	fi
	sleep 0.05
done
[ -n "$mirrored" ] || fail "no checkpoint of the leased assignment was ever mirrored"
kill -9 "$coord"
wait "$coord" 2>/dev/null || true
wait "$req" 2>/dev/null || true
echo "cluster-smoke: SIGKILLed the coordinator with the assignment leased and its checkpoint mirrored"
start_coord "$addr"
wait_fleet "workers never re-registered with the restarted coordinator"

curl -fsS -d '{"bench":"sha","func":"sha_transform"}' \
	"http://$addr/v1/enumerate" -o "$tmp/r1.json" &
req=$!

# Find the lessee of the re-sent request: its dispatch must be seeded
# from what the dead coordinator mirrored. Give it a heartbeat or two to
# upload progress of its own, then kill it without a goodbye; at 2ms a
# phase-c application it is seconds from done.
victim=""
for _ in $(seq 1 200); do
	victim=$(lessee)
	[ -n "$victim" ] && break
	sleep 0.05
done
[ -n "$victim" ] || fail "assignment never dispatched"
seeded=""
for _ in $(seq 1 20); do
	[ "$(stat_sum dist.recoveries)" -ge 1 ] && seeded=1 && break
	sleep 0.05
done
[ -n "$seeded" ] ||
	fail "the restarted coordinator's dispatch was not seeded from the mirrored checkpoint"
sleep 0.6
if [ "$victim" = w1 ]; then vpid=$w1; survivor=w2; else vpid=$w2; survivor=w1; fi
kill -9 "$vpid"
echo "cluster-smoke: SIGKILLed $victim mid-space; expecting $survivor to recover"

wait "$req" || fail "enumerate request failed"
got=$(jq -r .space_hash "$tmp/r1.json")
[ "$got" = "$want" ] || fail "recovered hash $got, single-node run wrote $want"

# The kill really landed mid-space: the victim's lease expired and the
# survivor delivered the completion.
exp=$(stat_counter "dist.lease_expiries{worker=\"$victim\"}")
[ "$exp" -ge 1 ] || fail "no lease expiry for $victim; kill landed after completion?"
done_n=$(stat_counter "dist.completions{worker=\"$survivor\"}")
[ "$done_n" -ge 1 ] || fail "survivor $survivor never completed the assignment"

# Byte identity of what the coordinator serves from its cache.
key=$(jq -r .key "$tmp/r1.json")
curl -fsS "http://$addr/v1/space/$key" -o "$tmp/served.space.gz"
served=$("$tmp/spacedot" -hash "$tmp/served.space.gz" | cut -d' ' -f1)
[ "$served" = "$want" ] || fail "served space hashes $served, want $want"

# Clean drains: survivor first, then the coordinator.
if [ "$survivor" = w1 ]; then spid=$w1; else spid=$w2; fi
kill -TERM "$spid"
wait "$spid" || fail "surviving worker did not drain cleanly"
w1=""; w2=""
kill -9 "$vpid" 2>/dev/null || true
kill -TERM "$coord"
wait "$coord" || fail "coordinator did not drain cleanly"
coord=""
echo "cluster-smoke: coordinator killed and restarted, $victim killed, $survivor recovered, hash parity holds ($want)"
