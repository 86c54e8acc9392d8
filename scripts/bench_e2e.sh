#!/usr/bin/env bash
# Paired end-to-end timings of two checkouts, appended to BENCH_e2e.json.
#
#   bash scripts/bench_e2e.sh BASE_DIR HEAD_DIR
#
# Builds `sdlc-cli` in each checkout (release, into its own `target/`),
# then times the rows flowbench does not cover on one pinned core (the last
# CPU of this machine), in pairs of one base and one head run, alternating
# which side runs first, so both sides see the same machine state:
#
#   sdlc-cli synth --width {16,64,128} --depth 4
#
# plus 10 paired `flowbench` synth passes (seed 1, 10 s each), recording
# both of their end-to-end metrics, `flow_ms` and `setup_s`.
# Every record holds the side, git rev, the hash of the checkout's
# `crates/` tree (equal to `git rev-parse <commit>:crates` for a commit
# holding the same sources, so a row names the code it measured even when
# recorded before commit), date, core count, the per-run values and their
# median and quartiles; head records also count the pairs head won. CLI
# rows hold the SHA-256 of the run's stdout, so equal hashes on both sides
# show the outputs are byte-identical. CLI repeats are few on purpose (the
# parent's 128-bit row takes minutes).
set -euo pipefail

base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
out="$(cd "$(dirname "$0")/.." && pwd)/BENCH_e2e.json"
cpu=$(($(nproc) - 1))
cores=$(nproc)
date=$(date -u +%Y-%m-%dT%H:%M:%SZ)

rev() { git -C "$1" describe --always --dirty=+uncommitted; }

# Tree hash of the checkout's working `crates/` directory, staged into a
# throwaway index so the checkout's own index is untouched.
crates_tree() {
    local index
    index=$(mktemp -u)
    GIT_INDEX_FILE=$index git -C "$1" add crates
    GIT_INDEX_FILE=$index git -C "$1" write-tree --prefix=crates/
    rm -f "$index"
}

for dir in "$base" "$head"; do
    (cd "$dir" && CARGO_TARGET_DIR=target cargo build --quiet --release --offline --bin sdlc-cli)
done
base_tree=$(crates_tree "$base")
head_tree=$(crates_tree "$head")

# Median and quartiles (linear interpolation) of whitespace-separated values.
stats() {
    tr ' ' '\n' | sort -g | awk '
        { v[NR] = $1 }
        function q(p,  h, lo) { h = (NR - 1) * p + 1; lo = int(h); return v[lo] + (h - lo) * (v[lo + 1 > NR ? NR : lo + 1] - v[lo]) }
        END { printf "\"q1\": %.4f, \"median\": %.4f, \"q3\": %.4f", q(0.25), q(0.5), q(0.75) }'
}

# Pairs (same position in both lists) where head is lower: "won/pairs".
wins() {
    paste -d' ' <(tr ' ' '\n' <<< "$1") <(tr ' ' '\n' <<< "$2") |
        awk '{ n++; if ($2 < $1) w++ } END { printf "\"%d/%d\"", w, n }'
}

records=()
record() { # side flow unit values [extra]
    local dir=$base tree=$base_tree values=$4
    if [ "$1" = head ]; then dir=$head tree=$head_tree; fi
    records+=("  {\"side\": \"$1\", \"rev\": \"$(rev "$dir")\", \"crates_tree\": \"$tree\", \"date\": \"$date\", \"cores\": $cores, \"pinned_cpu\": $cpu, \"flow\": \"$2\", \"unit\": \"$3\", \"runs\": [${values// /, }], $(echo "$values" | stats)${5:+, $5}}")
}

# One timed CLI run: prints "<seconds> <stdout sha256>".
time_cli() {
    local start end sha
    start=$EPOCHREALTIME
    sha=$(taskset -c "$cpu" "$1/target/release/sdlc-cli" "${@:2}" | sha256sum | cut -d' ' -f1)
    end=$EPOCHREALTIME
    echo "$(awk "BEGIN { print $end - $start }") $sha"
}

for width_repeats in 16:5 64:3 128:1; do
    width=${width_repeats%:*}
    repeats=${width_repeats#*:}
    args=(synth --width "$width" --depth 4)
    base_times="" head_times=""
    for i in $(seq "$repeats"); do
        for side in $( ((i % 2)) && echo base head || echo head base); do
            if [ "$side" = base ]; then
                read -r t base_sha < <(time_cli "$base" "${args[@]}")
                base_times+="${base_times:+ }$(printf '%.3f' "$t")"
            else
                read -r t head_sha < <(time_cli "$head" "${args[@]}")
                head_times+="${head_times:+ }$(printf '%.3f' "$t")"
            fi
        done
    done
    echo "${args[*]}: base [$base_times] head [$head_times]" >&2
    record base "${args[*]}" s "$base_times" "\"stdout_sha256\": \"$base_sha\""
    record head "${args[*]}" s "$head_times" \
        "\"stdout_sha256\": \"$head_sha\", \"head_won\": $(wins "$base_times" "$head_times")"
done

# One flowbench pass: prints "<flow_ms> <setup_s>".
flowbench_pass() {
    (cd "$1" && CARGO_TARGET_DIR=.bench_build bash flowbench/run.sh --workload synth --seed 1 --seconds 10 --trace 0) |
        tail -n 1 |
        sed -E 's/.*"flow_ms": \{"value": ([0-9.eE+-]+).*"setup_s": \{"value": ([0-9.eE+-]+).*/\1 \2/'
}
base_ms="" head_ms="" base_s="" head_s=""
for i in $(seq 10); do
    for side in $( ((i % 2)) && echo base head || echo head base); do
        if [ "$side" = base ]; then
            read -r ms s < <(flowbench_pass "$base")
            base_ms+="${base_ms:+ }$ms" base_s+="${base_s:+ }$s"
        else
            read -r ms s < <(flowbench_pass "$head")
            head_ms+="${head_ms:+ }$ms" head_s+="${head_s:+ }$s"
        fi
    done
done
echo "flowbench synth flow_ms: base [$base_ms] head [$head_ms]" >&2
echo "flowbench synth setup_s: base [$base_s] head [$head_s]" >&2
flow="flowbench synth --seed 1 --seconds 10"
record base "$flow (flow_ms)" ms "$base_ms"
record head "$flow (flow_ms)" ms "$head_ms" "\"head_won\": $(wins "$base_ms" "$head_ms")"
record base "$flow (setup_s)" s "$base_s"
record head "$flow (setup_s)" s "$head_s" "\"head_won\": $(wins "$base_s" "$head_s")"

# Append to the JSON array (created on first use).
if [ -s "$out" ]; then
    sed '$d' "$out" | sed '$s/$/,/' > "$out.tmp" # drop "]", extend the last record
else
    echo '[' > "$out.tmp"
fi
(IFS=$'\n'; echo "${records[*]}") | sed '$!s/$/,/' >> "$out.tmp"
echo ']' >> "$out.tmp"
mv "$out.tmp" "$out"
echo "appended ${#records[@]} records to $out" >&2
