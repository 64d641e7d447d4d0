#!/bin/sh
# CI smoke: build every cmd/ binary, run each at tiny scale with -trace
# and -metrics, and check both exports land non-empty and schema-valid.
# Catches wiring rot between the experiment drivers and the
# cost-ledger/trace export plus the host-metrics session that unit tests
# can't see (flag parsing, sink plumbing, file writing, exit codes).
#
# Set SMOKE_OUT to keep the trace/metrics files (e.g. as CI artifacts);
# by default they land in a temp dir removed on exit.
set -eu

tmp=$(mktemp -d)
out=${SMOKE_OUT:-$tmp}
mkdir -p "$out"
bin="$tmp/bin"
trap 'rm -rf "$tmp"' EXIT

go build -o "$bin/" ./cmd/...

check_trace() {
	name=$1
	file=$2
	if ! [ -s "$file" ]; then
		echo "smoke: $name wrote no trace to $file" >&2
		exit 1
	fi
	if ! grep -q '"costs"' "$file"; then
		echo "smoke: $name trace lacks the cost-ledger section" >&2
		exit 1
	fi
	echo "smoke: $name ok ($(wc -c <"$file") bytes of trace)"
}

# Every binary must write a schema-stamped, non-empty metrics snapshot:
# at minimum the host_* session gauges, so an empty counters+gauges set
# means the session wiring is broken.
check_metrics() {
	name=$1
	file=$2
	if ! [ -s "$file" ]; then
		echo "smoke: $name wrote no metrics snapshot to $file" >&2
		exit 1
	fi
	if ! grep -q '"schema": "almostmix-metrics/v1"' "$file"; then
		echo "smoke: $name metrics snapshot lacks the schema stamp" >&2
		exit 1
	fi
	if ! grep -q '"host_session_wall_ns"' "$file"; then
		echo "smoke: $name metrics snapshot lacks the session gauges" >&2
		exit 1
	fi
	echo "smoke: $name metrics ok ($(wc -c <"$file") bytes)"
}

"$bin/hierarchy" -n 48 -d 6 -trace "$out/hierarchy.json" -metrics "$out/hierarchy-metrics.json" >/dev/null
check_trace hierarchy "$out/hierarchy.json"
check_metrics hierarchy "$out/hierarchy-metrics.json"

"$bin/routing" -quick -trace "$out/routing.json" -metrics "$out/routing-metrics.json" >/dev/null
check_trace routing "$out/routing.json"
check_metrics routing "$out/routing-metrics.json"

"$bin/mst" -quick -trace "$out/mst.json" -metrics "$out/mst-metrics.json" >/dev/null
check_trace mst "$out/mst.json"
check_metrics mst "$out/mst-metrics.json"

"$bin/clique" -n 32 -trace "$out/clique.json" -metrics "$out/clique-metrics.json" >/dev/null
check_trace clique "$out/clique.json"
check_metrics clique "$out/clique-metrics.json"

"$bin/mincut" -trace "$out/mincut.json" -metrics "$out/mincut-metrics.json" >/dev/null
check_trace mincut "$out/mincut.json"
check_metrics mincut "$out/mincut-metrics.json"

# walks traces per-round records (no cost ledger); mixing has no trace.
# Run both at small scale to keep the drivers alive.
"$bin/walks" -n 64 -d 6 -steps 20 -trace "$out/walks.json" -metrics "$out/walks-metrics.json" >/dev/null
[ -s "$out/walks.json" ] || { echo "smoke: walks wrote no trace" >&2; exit 1; }
echo "smoke: walks ok"
check_metrics walks "$out/walks-metrics.json"

"$bin/mixing" -metrics "$out/mixing-metrics.json" >/dev/null
echo "smoke: mixing ok"
check_metrics mixing "$out/mixing-metrics.json"

# The span/wall pairing: an engine-bearing run with metrics on must
# record span_wall_ns counters for its cost-ledger spans.
if ! grep -q 'span_wall_ns{' "$out/mst-metrics.json"; then
	echo "smoke: mst metrics snapshot lacks span_wall_ns pairing counters" >&2
	exit 1
fi
echo "smoke: span/wall pairing ok"

# E15 at quick scale: the fault-injection degradation sweep must run and
# its fault counters must land in both the metrics snapshot and the trace.
"$bin/walks" -n 48 -d 6 -steps 10 -faults 'drop=0.05' \
	-trace "$out/walks-faults.json" -metrics "$out/walks-faults-metrics.json" >/dev/null
[ -s "$out/walks-faults.json" ] || { echo "smoke: faulty walks wrote no trace" >&2; exit 1; }
if ! grep -q '"dropped"' "$out/walks-faults.json"; then
	echo "smoke: faulty walks trace lacks fault counters" >&2
	exit 1
fi
if ! grep -q '"congest_msgs_dropped_total"' "$out/walks-faults-metrics.json"; then
	echo "smoke: faulty walks metrics snapshot lacks fault counters" >&2
	exit 1
fi
echo "smoke: E15 walks fault sweep ok"

"$bin/mst" -quick -faults 'drop=0.01' -metrics "$out/mst-faults-metrics.json" >/dev/null
if ! grep -q '"congest_msgs_dropped_total"' "$out/mst-faults-metrics.json"; then
	echo "smoke: faulty mst metrics snapshot lacks fault counters" >&2
	exit 1
fi
echo "smoke: E15 mst fault sweep ok"

# E18 at quick scale: the cluster-scoped tier (expander decomposition +
# per-cluster hierarchies) must route and span through both drivers, and
# the decomposition / build / run ledgers must all land in the trace.
"$bin/routing" -decomp -quick -trace "$out/routing-decomp.json" \
	-metrics "$out/routing-decomp-metrics.json" >/dev/null
check_trace "routing -decomp" "$out/routing-decomp.json"
check_metrics "routing -decomp" "$out/routing-decomp-metrics.json"
for ledger in decomp decomp-build decomp-route; do
	if ! grep -q "\"run\": \"rr64d8 $ledger\"" "$out/routing-decomp.json"; then
		echo "smoke: routing -decomp trace lacks the $ledger ledger" >&2
		exit 1
	fi
done
"$bin/mst" -decomp -quick -trace "$out/mst-decomp.json" >/dev/null
check_trace "mst -decomp" "$out/mst-decomp.json"
if ! grep -q '"decomp-mst"' "$out/mst-decomp.json"; then
	echo "smoke: mst -decomp trace lacks the decomp-mst ledger" >&2
	exit 1
fi
"$bin/hierarchy" -n 48 -d 6 -decomp -trace "$out/hierarchy-decomp.json" >/dev/null
check_trace "hierarchy -decomp" "$out/hierarchy-decomp.json"
if ! grep -q 'decomp/certificates/cluster-' "$out/hierarchy-decomp.json"; then
	echo "smoke: hierarchy -decomp trace lacks per-cluster certificate spans" >&2
	exit 1
fi
echo "smoke: E18 decomposition tier ok"

# Uniform up-front flag validation: nonsense values and unwritable output
# paths must exit 2 before any work starts.
expect_reject() {
	desc=$1
	shift
	if "$@" >/dev/null 2>&1; then
		echo "smoke: accepted $desc" >&2
		exit 1
	fi
	"$@" >/dev/null 2>&1 || code=$?
	if [ "${code:-0}" -ne 2 ]; then
		echo "smoke: $desc exited $code, want 2" >&2
		exit 1
	fi
}
expect_reject "walks -workers -1" "$bin/walks" -workers -1
expect_reject "walks -n 1" "$bin/walks" -n 1
expect_reject "walks -steps -5" "$bin/walks" -steps -5
expect_reject "walks -seed -1" "$bin/walks" -seed -1
expect_reject "walks bad -faults" "$bin/walks" -faults 'drop=2.0'
expect_reject "walks NaN -faults" "$bin/walks" -faults 'drop=NaN'
expect_reject "mst NaN -faults" "$bin/mst" -faults 'delay=NaN:2'
expect_reject "mst -workers -2" "$bin/mst" -workers -2
expect_reject "mst -attempts 0" "$bin/mst" -attempts 0
expect_reject "hierarchy -d 0" "$bin/hierarchy" -d 0
expect_reject "walks -d 1" "$bin/walks" -n 8 -d 1
expect_reject "walks n·d odd" "$bin/walks" -n 5 -d 3
expect_reject "hierarchy -d >= -n" "$bin/hierarchy" -n 4 -d 8
expect_reject "clique -n 0" "$bin/clique" -n 0
expect_reject "mixing unwritable -metrics" "$bin/mixing" -metrics /no/such/dir/m.json
expect_reject "routing unwritable -trace" "$bin/routing" -quick -trace /no/such/dir/t.json
expect_reject "mincut unwritable -pprofout" "$bin/mincut" -pprof cpu -pprofout /no/such/dir/p.pprof
expect_reject "mixing -pprof bogus" "$bin/mixing" -pprof bogus
expect_reject "clique -pprofout without -pprof" "$bin/clique" -pprofout "$out/never.pprof"
expect_reject "walks -transport bogus" "$bin/walks" -transport bogus
expect_reject "walks -shards 0" "$bin/walks" -shards 0
expect_reject "walks bad -listen" "$bin/walks" -transport tcp -listen not-a-hostport
expect_reject "walks proc with -obsout" "$bin/walks" -obsout "$out/never.json"
expect_reject "mst -transport bogus" "$bin/mst" -transport bogus
expect_reject "mst proc with -obsout" "$bin/mst" -quick -obsout "$out/never.json"
expect_reject "routing -phi 0" "$bin/routing" -decomp -phi 0
expect_reject "routing -phi 1.5" "$bin/routing" -decomp -phi 1.5
expect_reject "mst -decomp -phi 1" "$bin/mst" -decomp -phi 1
expect_reject "hierarchy -phi -0.1" "$bin/hierarchy" -decomp -phi -0.1
echo "smoke: flag validation ok"

# Export I/O failures must reach the exit code as 1 (a run that worked
# but could not deliver its artifacts), distinct from the flag-error 2.
# /dev/full passes the up-front Writable probe (open succeeds) and then
# fails every write with ENOSPC — exactly the late-failure class the
# exit-code contract covers.
expect_export_fail() {
	desc=$1
	shift
	code=0
	"$@" >/dev/null 2>&1 || code=$?
	if [ "$code" -ne 1 ]; then
		echo "smoke: $desc exited $code, want 1 (export I/O failure)" >&2
		exit 1
	fi
}
if [ -w /dev/full ]; then
	expect_export_fail "walks -trace /dev/full" \
		"$bin/walks" -n 48 -d 6 -steps 5 -trace /dev/full
	expect_export_fail "mixing -metrics /dev/full" \
		"$bin/mixing" -metrics /dev/full
	expect_export_fail "mst -trace /dev/full" \
		"$bin/mst" -quick -trace /dev/full
	echo "smoke: export exit-code propagation ok"
else
	echo "smoke: /dev/full unavailable, skipping export exit-code cases"
fi

# E17 at quick scale: the multi-process TCP backend must be trace-for-
# trace identical to the in-process engine. cmd/tcpnode sits next to the
# walks binary (both came out of the same go build -o "$bin/"), so the
# default -tcpnode discovery path is exercised too.
"$bin/walks" -n 48 -d 6 -steps 10 -trace "$out/walks-proc-par.json" >/dev/null
"$bin/walks" -n 48 -d 6 -steps 10 -transport tcp -shards 2 \
	-trace "$out/walks-tcp-par.json" >/dev/null
if ! cmp -s "$out/walks-proc-par.json" "$out/walks-tcp-par.json"; then
	echo "smoke: TCP transport trace diverges from the in-process engine" >&2
	exit 1
fi
echo "smoke: E17 TCP/proc trace parity ok"

# The multi-part engine through a binary: at -workers 2 and -workers 0
# (one part per CPU) each run must write the -workers 1 run's trace byte
# for byte — the walks' message-bound rounds and GHS's skipped windows.
"$bin/walks" -n 48 -d 6 -steps 10 -workers 1 -trace "$out/walks-w1.json" >/dev/null
"$bin/mst" -quick -ghsnet -workers 1 -trace "$out/mst-w1.json" >/dev/null
for w in 2 0; do
	"$bin/walks" -n 48 -d 6 -steps 10 -workers "$w" -trace "$out/walks-w$w.json" >/dev/null
	"$bin/mst" -quick -ghsnet -workers "$w" -trace "$out/mst-w$w.json" >/dev/null
	for name in walks mst; do
		if ! cmp -s "$out/$name-w1.json" "$out/$name-w$w.json"; then
			echo "smoke: $name -workers $w trace diverges from -workers 1" >&2
			exit 1
		fi
	done
done
echo "smoke: multi-part trace parity ok"

# The probe-less wire: with neither -trace nor -metrics no probe is
# attached, so the shards send the coordinator no REPORT, and at three
# shards each shard splits its sends between two peers' frames. stdout
# must equal the in-process run's, the backend label in the table title
# aside.
"$bin/walks" -n 48 -d 6 -steps 10 | sed 's/(transport=[^)]*)//' >"$out/walks-proc.txt"
"$bin/walks" -n 48 -d 6 -steps 10 -transport tcp -shards 3 | sed 's/(transport=[^)]*)//' >"$out/walks-tcp3.txt"
if ! cmp -s "$out/walks-proc.txt" "$out/walks-tcp3.txt"; then
	echo "smoke: probe-less TCP run at three shards prints other numbers than the in-process engine" >&2
	exit 1
fi
echo "smoke: probe-less TCP/proc stdout parity ok"

# E20: faults over the wire. -faults with -transport=tcp must run the
# E15 sweep on real shard processes — each replaying the fault plan from
# the spec — and stay trace-for-trace identical to the in-process engine.
"$bin/walks" -n 48 -d 6 -steps 10 -faults 'drop=0.05' \
	-trace "$out/walks-e20-proc.json" >/dev/null
"$bin/walks" -n 48 -d 6 -steps 10 -faults 'drop=0.05' -transport tcp -shards 2 \
	-trace "$out/walks-e20-tcp.json" >/dev/null
if ! cmp -s "$out/walks-e20-proc.json" "$out/walks-e20-tcp.json"; then
	echo "smoke: faulty TCP run's trace diverges from the in-process engine" >&2
	exit 1
fi
"$bin/mst" -quick -faults 'drop=0.01' -transport tcp -shards 2 \
	-metrics "$out/mst-tcp-metrics.json" >/dev/null
echo "smoke: E20 faulty TCP/proc trace parity ok"

# One exchange per executed round across real tcpnode processes: each
# shard sends each peer one ROUND frame a round it runs, so S shards send
# at most S(S-1) of them per executed round — round 0's included, one per
# run beyond the rounds the metrics count — and none for the rounds the
# skip rule jumps while GHS sleeps out its windows, which must be some.
# GHS, which is not quiet-terminating, never holds a step back for a SENDS.
check_metrics "mst -transport tcp" "$out/mst-tcp-metrics.json"
counter() {
	grep -A 1 "\"$1\"" "$2" | sed -n 's/.*"value": \([0-9]*\).*/\1/p' | head -n 1
}
rounds=$(counter congest_rounds_total "$out/mst-tcp-metrics.json")
skipped=$(counter congest_rounds_skipped_total "$out/mst-tcp-metrics.json")
runs=$(counter congest_runs_total "$out/mst-tcp-metrics.json")
frames=$(counter 'tcpnet_frames_sent_total{type=ROUND}' "$out/mst-tcp-metrics.json")
if [ -z "$rounds" ] || [ -z "$skipped" ] || [ -z "$runs" ] || [ -z "$frames" ] || [ "$frames" -gt $((2 * (rounds - skipped + runs))) ]; then
	echo "smoke: tcp GHS run sent ${frames:-no} ROUND frames in ${rounds:-?} rounds (${skipped:-?} skipped) of ${runs:-?} runs: more than S(S-1) = 2 an executed round" >&2
	exit 1
fi
if [ "$skipped" -eq 0 ]; then
	echo "smoke: tcp GHS run skipped no round: its idle window tails were stepped" >&2
	exit 1
fi
if grep -q '"tcpnet_frames_sent_total{type=SENDS}"' "$out/mst-tcp-metrics.json"; then
	echo "smoke: tcp GHS run held a step back (SENDS frames)" >&2
	exit 1
fi
echo "smoke: one exchange per executed round ok ($frames ROUND frames, $rounds rounds, $skipped skipped)"

# A fault rule naming a node or edge the graph does not have is a run
# error (exit 1, the graph is only known once the run builds it), with
# the same message on both backends.
for backend in "-transport proc" "-transport tcp -shards 2"; do
	code=0
	# shellcheck disable=SC2086
	"$bin/walks" -n 48 -d 6 -steps 10 -faults 'crash=999@1,sever=5000@1' $backend \
		>/dev/null 2>"$out/walks-oor.err" || code=$?
	if [ "$code" -ne 1 ] || ! grep -q 'clause "crash=999@1": node 999 outside' "$out/walks-oor.err"; then
		echo "smoke: out-of-range fault rule ($backend) exited $code: $(cat "$out/walks-oor.err")" >&2
		exit 1
	fi
done
echo "smoke: out-of-range fault rules rejected on proc and tcp"

# E19: distributed-run observability. A clean real-process tcp run with
# -obsout must leave a schema-valid merged document (both sides' flight
# recorders, wire stats, timeline, skew) and its metrics snapshot must
# carry non-zero shard-side tcpnet_shard_* counters — the TELEMETRY
# frame ship-back working end to end.
"$bin/walks" -n 48 -d 6 -steps 10 -transport tcp -shards 2 \
	-obsout "$out/walks-obs.json" -metrics "$out/walks-obs-metrics.json" >/dev/null
if ! grep -q '"schema": "almostmix-obs/v1"' "$out/walks-obs.json"; then
	echo "smoke: obs document lacks the schema stamp" >&2
	exit 1
fi
if ! grep -q '"reason": "finish"' "$out/walks-obs.json"; then
	echo "smoke: clean run's obs document does not say finish" >&2
	exit 1
fi
if ! grep -q 'tcpnet_shard_frames_total{shard=0}' "$out/walks-obs-metrics.json"; then
	echo "smoke: metrics snapshot lacks shard-side wire counters (TELEMETRY ship-back broken)" >&2
	exit 1
fi
if grep -A 1 '"tcpnet_shard_frames_total{shard=0}"' "$out/walks-obs-metrics.json" | grep -q '"value": 0'; then
	echo "smoke: shard-side wire counter is zero" >&2
	exit 1
fi
# SPEC asks for the shards' flight dumps on an -obsout run: the document
# holds both, each with a frame its shard sent. obsreport prints a whole
# ring with -tail 512 (kind is the third column) and "no dump shipped" for
# a missing one.
"$bin/obsreport" -obs "$out/walks-obs.json" -tail 512 -out "$out/obsreport-dumps.txt"
for shard in 0 1; do
	if ! awk -v hdr="== flight recorder: shard $shard ==" '
		$0 == hdr { in_dump = 1; next }
		/^== / { in_dump = 0 }
		in_dump && $3 == "frame-sent" { found = 1 }
		END { exit !found }' "$out/obsreport-dumps.txt"; then
		echo "smoke: obs document lacks shard $shard's flight dump, or it shows no frame sent" >&2
		exit 1
	fi
done
echo "smoke: E19 obs document + shard telemetry + shard flight dumps ok"

# E19 failure path: an induced stall (env fault injection on a real
# tcpnode process, short deadline) must exit 1 and leave a
# barrier-deadline dump naming the guilty shard, its last completed
# round and the phase its peer waited on it in — and, like every exit
# path, the trace of the rounds that did complete next to the metrics
# snapshot.
code=0
TCPNODE_STALL_SHARD=1 TCPNODE_STALL_ROUND=3 \
	"$bin/walks" -n 48 -d 6 -steps 10 -transport tcp -shards 2 -tcptimeout 2s \
	-obsout "$out/walks-stall-obs.json" -trace "$out/walks-stall.json" \
	-metrics "$out/walks-stall-metrics.json" >/dev/null 2>&1 || code=$?
if [ "$code" -ne 1 ]; then
	echo "smoke: stalled tcp run exited $code, want 1" >&2
	exit 1
fi
if ! grep -q '"reason": "barrier-deadline"' "$out/walks-stall-obs.json"; then
	echo "smoke: stall dump reason is not barrier-deadline" >&2
	exit 1
fi
if ! grep -q '"guilty_shard": 1' "$out/walks-stall-obs.json"; then
	echo "smoke: stall dump does not blame shard 1" >&2
	exit 1
fi
if ! grep -q '"phase": "peer-wait"' "$out/walks-stall-obs.json"; then
	echo "smoke: stall dump does not name the peer-wait phase" >&2
	exit 1
fi
if ! grep -A 1 '"run": "E4b k=1"' "$out/walks-stall.json" | grep -q '"round": 2'; then
	echo "smoke: stalled run's trace lacks the two rounds completed before the stall" >&2
	exit 1
fi
check_metrics "stalled walks" "$out/walks-stall-metrics.json"
echo "smoke: E19 induced stall attribution ok"

# E19 report join: cmd/obsreport must merge the obs document, the
# metrics snapshot and the committed benchmark document into one report
# with the per-round attribution table, and name the guilty shard for
# the stall.
"$bin/obsreport" -obs "$out/walks-obs.json" -metrics "$out/walks-obs-metrics.json" \
	-bench bench/baseline.json -out "$out/obsreport.txt"
if ! grep -q 'per-round attribution' "$out/obsreport.txt"; then
	echo "smoke: obsreport lacks the per-round attribution section" >&2
	exit 1
fi
if ! grep -q 'tcpnet_round_skew_ns' "$out/obsreport.txt"; then
	echo "smoke: obsreport metrics join lacks the skew histogram" >&2
	exit 1
fi
if ! grep -q 'transport.round_skew_p99_us' "$out/obsreport.txt"; then
	echo "smoke: obsreport bench join lacks the tcp workloads' transport rows" >&2
	exit 1
fi
"$bin/obsreport" -obs "$out/walks-stall-obs.json" -out "$out/obsreport-stall.txt"
if ! grep -q 'guilty_shard=1' "$out/obsreport-stall.txt"; then
	echo "smoke: obsreport does not surface the guilty shard for the stall" >&2
	exit 1
fi
# The report counts a run's executed and skipped rounds: a walk never
# sleeps, GHS sleeps out most of each window.
if ! grep -q '^executed_rounds=[1-9][0-9]* skipped_rounds=0$' "$out/obsreport.txt"; then
	echo "smoke: obsreport of the walks run does not show its executed rounds, none skipped" >&2
	exit 1
fi
"$bin/mst" -quick -ghsnet -transport tcp -shards 2 -obsout "$out/mst-obs.json" >/dev/null
"$bin/obsreport" -obs "$out/mst-obs.json" -out "$out/obsreport-mst.txt"
if ! grep -q '^executed_rounds=[1-9][0-9]* skipped_rounds=[1-9][0-9]*$' "$out/obsreport-mst.txt"; then
	echo "smoke: obsreport of the GHS run does not show executed and skipped rounds" >&2
	exit 1
fi
expect_reject "obsreport without -obs" "$bin/obsreport"
expect_export_fail "obsreport bad -obs file" "$bin/obsreport" -obs /no/such/obs.json
echo "smoke: E19 obsreport join ok"
