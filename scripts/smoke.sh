#!/usr/bin/env bash
# smoke.sh — multi-process end-to-end smoke test of the netdht
# deployment path: build dhsnode, start an N-process ring on loopback
# with admin endpoints enabled, insert a known workload through one
# member, require the counted estimate to land within the estimator's
# error envelope, and scrape every node's /metrics and /healthz —
# asserting the ring reports healthy and actually metered RPC traffic.
# Scraped metrics land in $LOGDIR/metrics-*.prom (a CI artifact).
#
# This is the one test in the repository where separate OS processes
# form a real Chord ring over TCP; everything the simulator cannot
# vouch for (framing, deadlines, join/stabilize over sockets, process
# shutdown) is on the line here. CI runs it per push; run it locally
# with `make smoke`.
#
# Environment:
#   NODES   ring size                (default 5)
#   ITEMS   distinct items inserted  (default 2000)
#   TOL     accepted relative error  (default 0.35; m=64 sLL ≈ 13% σ)
#   LOGDIR  node log directory       (default ./smoke-logs)
#
# Ports are dynamic: every node listens on 127.0.0.1:0 and the script
# reads the kernel-assigned address back from the node's "serving on"
# log line, so concurrent smoke runs (or anything else on the host)
# never collide on a fixed port range.
set -euo pipefail

NODES="${NODES:-5}"
ITEMS="${ITEMS:-2000}"
TOL="${TOL:-0.35}"
LOGDIR="${LOGDIR:-smoke-logs}"

# The sketch geometry every writer and reader of the ring agrees on — the
# one bench/ring.go passes — given on each command line, so a change of a
# binary's default geometry cannot move the smoke run.
GEOM=(-k 16 -m 64 -kind sll -lim 5)

cd "$(dirname "$0")/.."
mkdir -p "$LOGDIR"
BIN="$LOGDIR/dhsnode"

echo "== building dhsnode, dhsd, dhsload"
go build -o "$BIN" ./cmd/dhsnode
go build -o "$LOGDIR/dhsd" ./cmd/dhsd
go build -o "$LOGDIR/dhsload" ./cmd/dhsload

PIDS=()
cleanup() {
    local status=$?
    for pid in "${PIDS[@]:-}"; do
        kill "$pid" 2>/dev/null || true
    done
    wait 2>/dev/null || true
    if [ "$status" -ne 0 ]; then
        echo "== smoke FAILED (exit $status); node logs:"
        for f in "$LOGDIR"/node-*.log; do
            echo "---- $f"
            cat "$f"
        done
    fi
    exit "$status"
}
trap cleanup EXIT

# wait_for_addr LOGFILE — poll the node log for the "serving on ADDR"
# line and print ADDR. The daemon logs it right after binding, so this
# doubles as the startup barrier.
wait_for_addr() {
    local logfile=$1 addr
    for _ in $(seq 1 100); do
        addr=$(sed -n 's/.*serving on \([0-9.]*:[0-9]*\).*/\1/p' "$logfile" 2>/dev/null | head -n1)
        if [ -n "$addr" ]; then
            echo "$addr"
            return 0
        fi
        sleep 0.1
    done
    echo "== $logfile never reported a listen address" >&2
    return 1
}

# wait_for_admin LOGFILE — same barrier for the "admin on ADDR" line.
wait_for_admin() {
    local logfile=$1 addr
    for _ in $(seq 1 100); do
        addr=$(sed -n 's/.*admin on \([0-9.]*:[0-9]*\).*/\1/p' "$logfile" 2>/dev/null | head -n1)
        if [ -n "$addr" ]; then
            echo "$addr"
            return 0
        fi
        sleep 0.1
    done
    echo "== $logfile never reported an admin address" >&2
    return 1
}

# metric_value FILE NAME_WITH_LABELS — print the sample value, 0 if the
# series is absent.
metric_value() {
    awk -v name="$2" '$1 == name { print $2; found = 1 } END { if (!found) print 0 }' "$1"
}

echo "== starting $NODES-node ring (dynamic ports, admin endpoints on)"
"$BIN" serve -listen 127.0.0.1:0 -admin 127.0.0.1:0 -name node-0 >"$LOGDIR/node-0.log" 2>&1 &
PIDS+=($!)
ENTRY=$(wait_for_addr "$LOGDIR/node-0.log")
echo "== bootstrap $ENTRY"
for i in $(seq 1 $((NODES - 1))); do
    "$BIN" serve -listen 127.0.0.1:0 -admin 127.0.0.1:0 -join "$ENTRY" -name "node-$i" \
        >"$LOGDIR/node-$i.log" 2>&1 &
    PIDS+=($!)
done

# Joins retry internally; give the wall-clock maintenance a moment to
# close the ring before loading it.
sleep 2

for pid in "${PIDS[@]}"; do
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "== a node exited during startup" >&2
        exit 1
    fi
done

# A converged node that serves no client allocates nothing (DESIGN.md §15
# "A converged node allocates nothing"): its maintenance rounds, at both
# ends of every exchange, and the scrapes of its admin endpoints leave
# nothing behind, and a node that has not reached its first collection
# keeps every byte it allocates. Once the ring has settled, each node's
# go_heap_allocs_bytes is read twice, QUIET seconds apart, with no client
# on the ring; what the node allocated in between, per second, must stay
# at most ALLOC_BOUND. The series moves a span at a time (8 KiB of small
# objects), and what is left — the second scrape's accept, about 1.5 KB —
# reads 0 or 1638 B/s over 5 s. The bound allows two and a half spans;
# rounds that allocate (a string per peer address decoded, a successor
# list per stabilize round) read 22-26 KB/s a node on this ring and fail.
QUIET=5
ALLOC_BOUND=4096
sleep 2 # the fingers' last cycles
heap_allocs() {
    curl -fsS --max-time 5 "http://$(wait_for_admin "$LOGDIR/node-$1.log")/metrics" |
        metric_value /dev/stdin go_heap_allocs_bytes
}
echo "== allocation of the settled ring over ${QUIET}s with no client (bound $ALLOC_BOUND B/s a node)"
allocs0=()
for i in $(seq 0 $((NODES - 1))); do
    heap_allocs "$i" >/dev/null # the pooled scrape buffers' first use
    allocs0+=("$(heap_allocs "$i")")
done
sleep "$QUIET"
for i in $(seq 0 $((NODES - 1))); do
    a1=$(heap_allocs "$i")
    rate=$(awk -v a="${allocs0[$i]}" -v b="$a1" -v q="$QUIET" 'BEGIN { printf "%.0f", (b - a) / q }')
    echo "   node-$i: $rate heap bytes allocated a second"
    if [ "$rate" -gt "$ALLOC_BOUND" ]; then
        echo "== node-$i allocated $rate B/s on a settled ring with no client, want at most $ALLOC_BOUND" >&2
        exit 1
    fi
done

# ring_sum SERIES — one /metrics series (name{labels}) summed over every node.
ring_sum() {
    local sum=0 i admin v
    for i in $(seq 0 $((NODES - 1))); do
        admin=$(wait_for_admin "$LOGDIR/node-$i.log")
        v=$(curl -fsS --max-time 5 "http://$admin/metrics" | metric_value /dev/stdin "$1")
        sum=$((sum + ${v%.*}))
    done
    echo "$sum"
}

# node_sample I — "gc-cycles allocated-bytes requests-handled resident-bytes
# resident-file-bytes" of node I, read off its /metrics: the runtime series
# (DESIGN.md §15) and every tag of netdht_rpc_requests_total.
node_sample() {
    curl -fsS --max-time 5 "http://$(wait_for_admin "$LOGDIR/node-$1.log")/metrics" | awk '
        $1 == "go_gc_cycles" { gc = $2 }
        $1 == "go_heap_allocs_bytes" { bytes = $2 }
        index($1, "netdht_rpc_requests_total{") == 1 { reqs += $2 }
        $1 == "process_resident_memory_bytes" { rss = $2 }
        $1 == "process_resident_file_bytes" { file = $2 }
        END { printf "%.0f %.0f %.0f %.0f %.0f\n", gc, bytes, reqs, rss, file }'
}
for i in $(seq 0 $((NODES - 1))); do
    node_sample "$i" >"$LOGDIR/runtime-before-$i.txt"
done

echo "== inserting $ITEMS items"
routed_before=$(ring_sum 'dhs_node_load{op="routed"}') # /statusz "routed"
"$BIN" insert "${GEOM[@]}" -entry "$ENTRY" -metric smoke -items "$ITEMS" 2>&1 | tee "$LOGDIR/insert.log"
routed=$(($(ring_sum 'dhs_node_load{op="routed"}') - routed_before))
handled=$(ring_sum 'netdht_rpc_requests_total{tag="insert"}')

# An insert is one routed exchange at the client (DESIGN.md §14): the
# request carries the tuple to the node the route ends at. A lookup
# followed by a separate store would read 2 x ITEMS here.
exchanges=$(sed -n 's/.* exchanges=\([0-9]*\).*/\1/p' "$LOGDIR/insert.log" | tail -n1)
if ! awk -v x="${exchanges:-0}" -v n="$ITEMS" 'BEGIN { exit !(x >= n && x <= 1.1 * n) }'; then
    echo "== $ITEMS inserts cost the client '${exchanges}' exchanges, want $ITEMS <= exchanges <= 1.1 x $ITEMS" >&2
    exit 1
fi
echo "   client exchanges per insert: $exchanges / $ITEMS"

# And it costs few bytes: each socket remembers the last store it carried
# and the last ack (DESIGN.md §14 "Socket memory"), so a warm store sends
# its key, vector and bit and little else, and its ack is two bytes. Whole
# stores and acks, about 30 bytes an insert, would fail this.
bytes=$(sed -n 's/.* bytes=\([0-9]*\).*/\1/p' "$LOGDIR/insert.log" | tail -n1)
if ! awk -v b="${bytes:-0}" -v n="$ITEMS" 'BEGIN { exit !(b > 0 && b <= 20 * n) }'; then
    echo "== $ITEMS inserts moved '${bytes}' client bytes, want at most 20 per insert" >&2
    exit 1
fi
echo "   client wire bytes per insert: $(awk -v b="$bytes" -v n="$ITEMS" 'BEGIN { printf "%.1f", b / n }')"

# And it is sent to the owner of its target once the client has heard of it
# (DESIGN.md §14 "The ring view"): all but the first few stores of the run
# go by the view, and one node handles each. Every store entering at the
# bootstrap reads about 2.25 x ITEMS handlings here. The ring's forwarded
# hops meanwhile are printed, not asserted: on an idle ring the fix-fingers
# rounds alone forward over a thousand a second.
via_view=$(sed -n 's/.* via=view:\([0-9]*\).*/\1/p' "$LOGDIR/insert.log" | tail -n1)
if [ "${via_view:-0}" -eq 0 ]; then
    echo "== no store of the run was sent by the client's view of the ring" >&2
    exit 1
fi
if ! awk -v h="$handled" -v n="$ITEMS" 'BEGIN { exit !(h >= n && h <= 1.1 * n) }'; then
    echo "== the ring handled $handled store requests for $ITEMS inserts, want $ITEMS <= handled <= 1.1 x $ITEMS" >&2
    exit 1
fi
echo "   stores sent by the view: $via_view / $ITEMS; nodes handling an insert: $handled / $ITEMS; hops forwarded meanwhile: $routed"

echo "== counting (expect $ITEMS, tol $TOL)"
"$BIN" count "${GEOM[@]}" -entry "$ENTRY" -metric smoke -expect "$ITEMS" -tol "$TOL" | tee "$LOGDIR/count.log"

# What the load cost each node's runtime: collections run, and heap bytes
# allocated per request handled, between the sample before the inserts and
# now. A node whose handling allocates nothing per request reads a few
# hundred bytes here — the maintenance rounds' and the scrapes' own — and
# does not collect; kilobytes per request is a handler that allocates.
# Beside them, the node's resident memory now and its file-backed share,
# which is mostly the dhsnode binary itself (DESIGN.md §15 "Admin surface").
echo "== runtime cost of the insert and count phases, per node"
for i in $(seq 0 $((NODES - 1))); do
    read -r gc0 bytes0 reqs0 _ <"$LOGDIR/runtime-before-$i.txt"
    read -r gc1 bytes1 reqs1 rss1 file1 < <(node_sample "$i")
    awk -v i="$i" -v gc="$((gc1 - gc0))" -v b="$((bytes1 - bytes0))" -v r="$((reqs1 - reqs0))" -v rss="$rss1" -v file="$file1" 'BEGIN {
        printf "   node-%d: gc cycles +%d, %d requests handled, %.0f heap bytes allocated per request, resident %.1f MiB (%.1f MiB file-backed)\n",
            i, gc, r, (r > 0 ? b / r : 0), rss / 1048576, file / 1048576 }'
done | tee "$LOGDIR/runtime.log"

echo "== scraping /healthz and /metrics on every node"
for i in $(seq 0 $((NODES - 1))); do
    ADMIN=$(wait_for_admin "$LOGDIR/node-$i.log")

    health=$(curl -fsS --max-time 5 "http://$ADMIN/healthz")
    if [ "$health" != "ok" ]; then
        echo "== node-$i /healthz = '$health', want 'ok'" >&2
        exit 1
    fi

    curl -fsS --max-time 5 "http://$ADMIN/metrics" >"$LOGDIR/metrics-node-$i.prom"

    # Every node served routing traffic (insert/count lookups enter at
    # the bootstrap, but find_succ hops and probes land ring-wide), and
    # its ring gauges report a linked member with live successors.
    rpc=$(metric_value "$LOGDIR/metrics-node-$i.prom" 'netdht_rpc_requests_total{tag="find_succ"}')
    if [ "${rpc%.*}" -eq 0 ]; then
        echo "== node-$i metered zero find_succ requests" >&2
        exit 1
    fi
    succ=$(metric_value "$LOGDIR/metrics-node-$i.prom" 'netdht_successors')
    if [ "${succ%.*}" -eq 0 ]; then
        echo "== node-$i reports an empty successor list" >&2
        exit 1
    fi
    # The maintenance ticker ran every protocol round, each metered under
    # its own label.
    rounds=""
    for round in stabilize fix_fingers check_pred; do
        n=$(metric_value "$LOGDIR/metrics-node-$i.prom" "netdht_round_seconds_count{round=\"$round\"}")
        if [ "${n%.*}" -eq 0 ]; then
            echo "== node-$i metered zero $round rounds" >&2
            exit 1
        fi
        rounds="$rounds $round=$n"
    done
    echo "   node-$i healthy; find_succ=$rpc successors=$succ rounds:$rounds"
done

# The counting scan's probe RPCs land on the interval owners, spread
# over the ring: the ring-wide total must be nonzero.
probes=0
for i in $(seq 0 $((NODES - 1))); do
    p=$(metric_value "$LOGDIR/metrics-node-$i.prom" 'netdht_rpc_requests_total{tag="probe"}')
    probes=$((probes + ${p%.*}))
done
if [ "$probes" -eq 0 ]; then
    echo "== ring metered zero probe requests" >&2
    exit 1
fi
echo "   ring-wide probe requests: $probes"

echo "== dhsnode status against the bootstrap"
ADMIN0=$(wait_for_admin "$LOGDIR/node-0.log")
"$BIN" status "$ADMIN0" | tee "$LOGDIR/status.log"
grep -q 'health ok=true' "$LOGDIR/status.log" || {
    echo "== dhsnode status did not report a healthy node" >&2
    exit 1
}

echo "== dhsd query frontend + dhsload"
# Start dhsd over the same ring and drive it with a short closed-loop
# dhsload run. Low load against a warm cache must show cache hits and
# shed nothing; the JSON report (qps, p50/p99/p999) is a CI artifact.
"$LOGDIR/dhsd" "${GEOM[@]}" -entry "$ENTRY" -listen 127.0.0.1:0 -cache-ttl 1s >"$LOGDIR/dhsd.log" 2>&1 &
PIDS+=($!)
DHSD=""
for _ in $(seq 1 100); do
    DHSD=$(sed -n 's/.*serving estimates on \([0-9.]*:[0-9]*\).*/\1/p' "$LOGDIR/dhsd.log" 2>/dev/null | head -n1)
    if [ -n "$DHSD" ]; then
        break
    fi
    sleep 0.1
done
if [ -z "$DHSD" ]; then
    echo "== dhsd never reported a listen address" >&2
    exit 1
fi
echo "== dhsd on $DHSD"

"$LOGDIR/dhsload" -target "http://$DHSD" -concurrency 4 -metrics 1 -prefix smoke \
    -duration 2s -warmup 300ms -json >"$LOGDIR/dhsload.json"
cat "$LOGDIR/dhsload.json"

grep -q '"errors":0,' "$LOGDIR/dhsload.json" || {
    echo "== dhsload reported request errors" >&2
    exit 1
}
grep -q '"shed":0,' "$LOGDIR/dhsload.json" || {
    echo "== dhsd shed queries at low load" >&2
    exit 1
}
p99=$(sed -n 's/.*"p99_ms":\([0-9.]*\).*/\1/p' "$LOGDIR/dhsload.json")
echo "   dhsload p99 = ${p99}ms (report: $LOGDIR/dhsload.json)"

# Several metrics kept warm are refreshed together (DESIGN.md §16 "Cohort
# refresh"): a miss's fan-out carries every cached metric that is in demand
# and at least half a TTL old, so once the first misses have merged the
# whole set costs one scan per TTL. Eight Zipf-hot metrics, a first run to
# get there, then three TTLs between two scrapes: at most two fan-outs per
# TTL, and more than one metric in the average fan-out. Without the cohort
# rule this reads eight fan-outs per TTL of one metric each.
HOT=8
TTLS=3
for i in $(seq 0 $((HOT - 1))); do
    "$BIN" insert "${GEOM[@]}" -entry "$ENTRY" -metric "smoke-$i" -items 200 >/dev/null 2>&1
done
"$LOGDIR/dhsload" -target "http://$DHSD" -concurrency 4 -metrics "$HOT" -prefix smoke \
    -duration 2s -warmup 0s -json >/dev/null
curl -fsS --max-time 5 "http://$DHSD/metrics" >"$LOGDIR/metrics-dhsd-warm.prom"
"$LOGDIR/dhsload" -target "http://$DHSD" -concurrency 4 -metrics "$HOT" -prefix smoke \
    -duration "${TTLS}s" -warmup 0s -json >"$LOGDIR/dhsload-hot.json"
curl -fsS --max-time 5 "http://$DHSD/metrics" >"$LOGDIR/metrics-dhsd.prom"
grep -q '"errors":0,' "$LOGDIR/dhsload-hot.json" || {
    echo "== dhsload reported request errors on the hot set" >&2
    exit 1
}
fan=$(($(metric_value "$LOGDIR/metrics-dhsd.prom" 'dhsd_fanout_seconds_count') - $(metric_value "$LOGDIR/metrics-dhsd-warm.prom" 'dhsd_fanout_seconds_count')))
scanned=$(($(metric_value "$LOGDIR/metrics-dhsd.prom" 'dhsd_fanout_metrics_total') - $(metric_value "$LOGDIR/metrics-dhsd-warm.prom" 'dhsd_fanout_metrics_total')))
if ! awk -v f="$fan" -v m="$scanned" -v t="$TTLS" 'BEGIN { exit !(f > 0 && f <= 2 * t && m > f) }'; then
    echo "== $HOT hot metrics over $TTLS TTLs: $fan fan-outs scanning $scanned metrics, want 0 < fan-outs <= $((2 * TTLS)) and more than one metric per fan-out" >&2
    exit 1
fi
echo "   $HOT hot metrics over $TTLS TTLs: $fan fan-outs, $scanned metrics scanned"

# An owner sends a mask, or an arc, that the socket carried in its last
# reply as one byte (DESIGN.md §14 "Socket memory"). Over the hot-set window
# dhsd's sockets are warm and the ring is quiet, so most of the masks it
# reads must have come as kept; none would mean the memory is off, and a
# minority that it is reset between exchanges.
masks_in() {
    awk '$1 ~ /^netdht_probe_masks_total\{/ { n += $2 } END { print n + 0 }' "$1"
}
form_kept='netdht_probe_masks_total{form="kept"}'
kept=$(($(metric_value "$LOGDIR/metrics-dhsd.prom" "$form_kept") - $(metric_value "$LOGDIR/metrics-dhsd-warm.prom" "$form_kept")))
masks=$(($(masks_in "$LOGDIR/metrics-dhsd.prom") - $(masks_in "$LOGDIR/metrics-dhsd-warm.prom")))
if [ "$masks" -le 0 ] || [ $((2 * kept)) -le "$masks" ]; then
    echo "== $kept of $masks probe-reply masks over the hot-set window came as kept, want a majority" >&2
    exit 1
fi
echo "   probe-reply masks over the hot-set window: $kept of $masks kept"

# A warm probe exchange carries only what its socket does not already hold:
# the request names only the fields that changed since the socket's last,
# and the reply leaves out the header that restates the request — two bytes
# when every mask and the arc are kept. Over the same window dhsd's client
# bytes, both ways, per probe exchange must be at most 12; about 24 means
# requests go whole and replies carry their header again. The bytes are
# printed split into requests (dir="out") and replies (dir="in"), so a run
# over the bound shows which side went over.
window_delta() {
    echo $(($(metric_value "$LOGDIR/metrics-dhsd.prom" "$1") - $(metric_value "$LOGDIR/metrics-dhsd-warm.prom" "$1")))
}
req_bytes=$(window_delta 'netdht_out_bytes_total{dir="out"}')
reply_bytes=$(window_delta 'netdht_out_bytes_total{dir="in"}')
wire_bytes=$((req_bytes + reply_bytes))
exchanges=$(window_delta 'netdht_out_rpc_total{tag="probe"}')
split="$wire_bytes client bytes ($req_bytes in requests, $reply_bytes in replies) over $exchanges probe exchanges"
if ! awk -v b="$wire_bytes" -v p="$exchanges" 'BEGIN { exit !(p > 0 && b <= 12 * p) }'; then
    echo "== dhsd moved $split in the hot-set window, want at most 12 an exchange" >&2
    exit 1
fi
echo "   hot-set window: $split"

# A cache hit allocates nothing end to end (DESIGN.md §16): dhsd's
# keep-alive responder reads the head and writes the reply in its
# connection's buffers, and the engine answers from the cache. Over the
# hot-set window dhsd's heap still grows by what its few fan-outs, the
# dhsload connections' setup and the closing scrape allocate, which over
# tens of thousands of hits reads a few bytes a hit; net/http's server
# allocated about 2 KB a request. HIT_ALLOC_BOUND sits between the two.
HIT_ALLOC_BOUND=256
hit_alloc=$(awk -v a0="$(metric_value "$LOGDIR/metrics-dhsd-warm.prom" go_heap_allocs_bytes)" \
    -v a1="$(metric_value "$LOGDIR/metrics-dhsd.prom" go_heap_allocs_bytes)" \
    -v h0="$(metric_value "$LOGDIR/metrics-dhsd-warm.prom" 'dhsd_cache_requests_total{result="hit"}')" \
    -v h1="$(metric_value "$LOGDIR/metrics-dhsd.prom" 'dhsd_cache_requests_total{result="hit"}')" \
    'BEGIN { if (h1 > h0) printf "%.0f %.0f", (a1 - a0) / (h1 - h0), h1 - h0; else print "-1 0" }')
read -r per_hit window_hits <<<"$hit_alloc"
if [ "$per_hit" -lt 0 ] || [ "$per_hit" -gt "$HIT_ALLOC_BOUND" ]; then
    echo "== dhsd allocated $per_hit heap bytes a cache hit over $window_hits hot-set hits, want at most $HIT_ALLOC_BOUND" >&2
    exit 1
fi
echo "   hot-set window: $per_hit heap bytes allocated a cache hit over $window_hits hits"

hits=$(metric_value "$LOGDIR/metrics-dhsd.prom" 'dhsd_cache_requests_total{result="hit"}')
if [ "${hits%.*}" -eq 0 ]; then
    echo "== dhsd served a Zipf-hot workload with zero cache hits" >&2
    exit 1
fi
echo "   dhsd cache hits: $hits"

# A counting scan routes a target only when no arc the client remembers
# covers it (DESIGN.md §14), and on a ring that is not changing every
# lookup teaches the client at least one arc it keeps: however many
# fan-outs ran, dhsd has made at least one lookup and at most one per
# node. More means the view is not carried from scan to scan (about one
# per fan-out) or not filled at all (about 45).
lookups=$(metric_value "$LOGDIR/metrics-dhsd.prom" 'netdht_out_rpc_total{tag="find_succ"}')
fanouts=$(metric_value "$LOGDIR/metrics-dhsd.prom" 'dhsd_fanout_seconds_count')
arcs=$(metric_value "$LOGDIR/metrics-dhsd.prom" 'netdht_view_arcs')
if ! awk -v l="$lookups" -v f="$fanouts" -v n="$NODES" 'BEGIN { exit !(f > 1 && l > 0 && l <= n) }'; then
    echo "== dhsd made $lookups find_succ lookups over $fanouts fan-outs, want 0 < lookups <= $NODES whatever the fan-outs" >&2
    exit 1
fi
if ! awk -v a="$arcs" -v n="$NODES" 'BEGIN { exit !(a > 0 && a <= n) }'; then
    echo "== dhsd remembers $arcs ring arcs, want 0 < arcs <= $NODES" >&2
    exit 1
fi
curl -fsS --max-time 5 "http://$DHSD/statusz" >"$LOGDIR/statusz-dhsd.json"
grep -q '"ring_view"' "$LOGDIR/statusz-dhsd.json" || {
    echo "== dhsd /statusz does not show the ring view" >&2
    exit 1
}
echo "   dhsd lookups: $lookups over $fanouts fan-outs; ring view holds $arcs arcs"

# And it asks each owner once, for every position of the scan its arc
# holds: at most one probe exchange per node and one more for the node
# whose arc wraps the identifier circle, where one exchange per scanned
# interval and owner costs a dozen or more.
probes=$(metric_value "$LOGDIR/metrics-dhsd.prom" 'netdht_out_rpc_total{tag="probe"}')
if ! awk -v p="$probes" -v f="$fanouts" -v n="$NODES" 'BEGIN { exit !(p > 0 && p / f <= n + 1) }'; then
    echo "== dhsd made $probes probe exchanges over $fanouts fan-outs, want 0 < probes/fan-out <= $((NODES + 1))" >&2
    exit 1
fi
echo "   dhsd probes per fan-out: $probes / $fanouts"

curl -fsS --max-time 5 "http://$DHSD/healthz" >/dev/null || {
    echo "== dhsd /healthz failed against a live ring" >&2
    exit 1
}

echo "== clean shutdown"
for pid in "${PIDS[@]}"; do
    kill -TERM "$pid" 2>/dev/null || true
done
for pid in "${PIDS[@]}"; do
    wait "$pid" 2>/dev/null || true
done
PIDS=()

echo "== smoke OK"
