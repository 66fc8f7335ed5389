#!/bin/sh
# Memory-ceiling gate: route state must be O(N·s) wiring plus one hop
# buffer per in-flight message, not the old O(N²) of per-(proc,mem)
# precomputed paths. The scalability
# benchmarks report the GC'd live heap of the largest machine they
# build; going from 64 to 256 nodes (4x) a quadratic structure would
# grow ~16x, so the gate asserts live-heap(256) < 16 * live-heap(64).
# Linear-ish growth sits around 3-4x, leaving the bound loose enough
# to never trip on noise and tight enough to catch an accidental
# return to quadratic tables. Runs on any host.
set -eu
cd "$(dirname "$0")/.."

memout=$(go test -run '^$' -bench 'BenchmarkScalability(64|256)Nodes$' -benchtime 1x .)
echo "$memout"

heapmb() {
	awk -v unit="live-heap-mb-$1" '{ for (i = 2; i <= NF; i++) if ($i == unit) print $(i-1) }'
}
h64=$(echo "$memout" | heapmb 64n)
h256=$(echo "$memout" | heapmb 256n)
if [ -z "$h64" ] || [ -z "$h256" ]; then
	echo "heapgate: FAIL: could not parse live-heap-mb metrics (64n: '$h64', 256n: '$h256')"
	exit 1
fi
echo "heapgate: live heap: 64 nodes ${h64} MB, 256 nodes ${h256} MB"
if awk "BEGIN { exit !($h256 >= $h64 * 16) }"; then
	echo "heapgate: FAIL: 256-node live heap is >=16x the 64-node heap — route state is growing quadratically"
	exit 1
fi
awk "BEGIN { printf \"heapgate: OK: 64->256-node heap growth %.2fx (sub-quadratic bound 16x)\\n\", $h256 / $h64 }"
