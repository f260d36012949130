#!/usr/bin/env bash
# Regenerates reference.txt, the tune reports the benchmark checks every
# tuning op against. Run from anywhere; it writes only inside the repo.
#
#   - "auto" and "AVG" specs over all flags: cmd/peak output, verbatim;
#   - flag-subset specs: the tuning service's report (perfbench
#     -capture-subsets), because cmd/peak has no flag-subset option.
#
# Regenerate only when a change alters tuning results on purpose.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
bin="$root/.bench_build/capture"
mkdir -p "$bin"
go build -o "$bin/peak" ./cmd/peak
(cd perfbench && go build -o "$bin/perfbench" .)
out="$root/perfbench/reference.txt"
tmp="$out.tmp"
: > "$tmp"
for b in $("$bin/peak" -list | awk 'NR > 1 { print $1 }'); do
	for m in sparc2 p4; do
		echo "=== $b/$m/auto" >> "$tmp"
		"$bin/peak" -bench "$b" -machine "$m" >> "$tmp"
		echo "=== $b/$m/AVG" >> "$tmp"
		"$bin/peak" -bench "$b" -machine "$m" -method AVG >> "$tmp"
	done
done
"$bin/perfbench" -capture-subsets >> "$tmp"
mv "$tmp" "$out"
echo "wrote $out ($(grep -c '^=== ' "$out") reports)"
