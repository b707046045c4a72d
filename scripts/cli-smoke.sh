#!/usr/bin/env bash
# CLI smoke: builds the three launchers and runs them end to end on a
# small genomesim input.
#
#   - asmcluster's cluster TSV must be identical under -transport
#     inproc, tcp and unix, and equal to asmnode -spawn's;
#   - asmpipeline's contigs must be identical in-process, over tcp, and
#     over unix on the disk store;
#   - every rank of a multi-process run leaves its own -events-out
#     dump (FILE.rank<r>), and the set merges cleanly under
#     tracecheck -events;
#   - a run that fails (missing input, or an unwritable -out after the
#     workers were spawned) exits 1;
#   - no rendezvous registry (asm*-registry-*) or temp disk store
#     (asmstore-*) is left in TMPDIR.
#
# Usage: scripts/cli-smoke.sh   (or: make cli-smoke)
set -euo pipefail

GO=${GO:-go}
RANKS=4
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
bin=$work/bin
export TMPDIR=$work/tmp
mkdir -p "$bin" "$TMPDIR"

for c in genomesim asmcluster asmpipeline asmnode tracecheck; do
	"$GO" build -o "$bin/$c" "./cmd/$c"
done

"$bin/genomesim" -kind wgs -len 20000 -coverage 6 -seed 4 -out "$work/sim" >/dev/null
reads=$work/sim_reads.fa

# checkdumps BASE: one events dump per rank, merged and checked.
checkdumps() {
	local dumps=()
	for ((r = 0; r < RANKS; r++)); do
		[[ -s $1.rank$r ]] || { echo "cli-smoke: missing events dump $1.rank$r" >&2; exit 1; }
		dumps+=("$1.rank$r")
	done
	"$bin/tracecheck" -events "${dumps[@]}"
}

"$bin/asmcluster" -in "$reads" -ranks $RANKS -out "$work/inproc.tsv" \
	-events-out "$work/inproc.ev.json" >/dev/null
[[ -s $work/inproc.ev.json ]] || { echo "cli-smoke: in-process events dump missing" >&2; exit 1; }
"$bin/tracecheck" -events "$work/inproc.ev.json"
for t in tcp unix; do
	"$bin/asmcluster" -in "$reads" -ranks $RANKS -transport $t -out "$work/$t.tsv" \
		-events-out "$work/$t.ev.json" >/dev/null
	cmp "$work/inproc.tsv" "$work/$t.tsv"
	checkdumps "$work/$t.ev.json"
done

"$bin/asmnode" -in "$reads" -size $RANKS -transport tcp -spawn -out "$work/node.tsv" \
	-events-out "$work/node.ev.json" >/dev/null
cmp "$work/inproc.tsv" "$work/node.tsv"
checkdumps "$work/node.ev.json"

"$bin/asmpipeline" -in "$reads" -ranks $RANKS -out "$work/inproc.fa" >/dev/null
"$bin/asmpipeline" -in "$reads" -ranks $RANKS -transport tcp -out "$work/tcp.fa" \
	-events-out "$work/pipe.ev.json" >/dev/null
cmp "$work/inproc.fa" "$work/tcp.fa"
checkdumps "$work/pipe.ev.json"
"$bin/asmpipeline" -in "$reads" -ranks $RANKS -transport unix -store disk \
	-workdir "$work/job" -out "$work/disk.fa" >/dev/null
cmp "$work/inproc.fa" "$work/disk.fa"

# expect1 CMD...: the command must fail with status 1.
expect1() {
	local st=0
	"$@" >/dev/null 2>&1 || st=$?
	[[ $st == 1 ]] || { echo "cli-smoke: want status 1, got $st: $*" >&2; exit 1; }
}
expect1 "$bin/asmcluster" -in "$work/missing.fa" -ranks 3 -transport tcp
expect1 "$bin/asmcluster" -in "$reads" -ranks 3 -transport tcp -out "$work/missing/out.tsv"
expect1 "$bin/asmpipeline" -in "$reads" -ranks 3 -transport unix -out "$work/missing/out.fa"

left=$(find "$TMPDIR" -maxdepth 1 \( -name 'asm*-registry-*' -o -name 'asmstore-*' \))
if [[ -n $left ]]; then
	echo "cli-smoke: temp directories left behind:" >&2
	echo "$left" >&2
	exit 1
fi
echo "cli-smoke: ok"
