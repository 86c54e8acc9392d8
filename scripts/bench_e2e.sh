#!/usr/bin/env bash
# Paired end-to-end timings of two checkouts, appended to BENCH_e2e.json.
#
#   bash scripts/bench_e2e.sh WORKLOAD BASE_DIR HEAD_DIR
#
# WORKLOAD is `synth`, `verify` or `errors`. Builds `sdlc-cli` in each
# checkout (release, into its own `target/`), then times the workload's
# rows that flowbench does not cover on one pinned core (the last CPU of
# this machine), in pairs of one base and one head run, alternating which
# side runs first, so both sides see the same machine state:
#
#   synth:  sdlc-cli synth --width {16,64,128} --depth 4          (5, 3, 1 pairs)
#   verify: sdlc-cli verify --width 12 --depth 2                   (10 pairs)
#           sdlc-cli verify --width 10 --depth 2 --signed          (10 pairs)
#           sdlc-cli verify --width 16 --depth 2 --samples 4000000 (5 pairs;
#                   the sampled path, which flowbench's exhaustive
#                   requests never reach), unsigned and --signed
#   errors: sdlc-cli errors --width 14 --depth 2 --engine bitsliced (5 pairs)
#           sdlc-cli errors --width 16 --depth 2 --engine bitsliced (2 pairs;
#                   the full 2^32-pair sweep, about a minute a run)
#           sdlc-cli errors --width 24 --depth 3 --engine bitsliced (5 pairs;
#                   the sampled path past the 20-bit exhaustive ceiling)
#           sdlc-cli errors --width 14 --depth 2 --signed --engine bitsliced
#                   (5 pairs; the signed exhaustive row)
#
# plus 10 paired `flowbench` passes of the workload (seed 1, 10 s each),
# recording both of their end-to-end metrics, `flow_ms` and `setup_s`
# (scaled by flowbench's calibration kernel), the same two metrics in
# wall-clock time as flowbench prints them on stderr, and each pass's
# median calibration-kernel time, which tracks the machine's speed during
# the pass. The wall-clock rows show whether a scaled difference comes
# from the flows or from the calibration kernel.
#
# Then 10 crossed pairs: the base checkout's flowbench binary drives each
# side's `sdlc-cli`, recorded as `(crossed flow_ms)` and `(crossed
# setup_s)`. Each side's own flowbench compiles its own calibration
# kernel, whose speed moves with code placement; the crossed `flow_ms`
# holds the kernel fixed, so it compares the two CLIs alone. The crossed
# `setup_s` runs the base's in-process references on both sides, so its
# spread is the A/A noise floor of a `setup_s` reading.
#
# Every record holds the side, git rev, the hashes of the checkout's
# `crates/` and `src/` trees (equal to `git rev-parse <commit>:crates` and
# `<commit>:src` for a commit holding the same sources, so a row names the
# code it measured even when recorded before commit), date, core count,
# the per-run values and their median and quartiles; head records of
# timings also count the pairs head won. CLI rows hold the SHA-256 of the
# run's stdout, so equal hashes on both sides show the outputs are
# byte-identical, and each CLI row has a `(peak rss MB)` twin: the peak
# resident set of each run (`ru_maxrss` from `wait4`, through a python3
# wrapper that also times the run from fork to exit). CLI repeats are few
# where runs are long (the parent's 128-bit synth row takes minutes).
set -euo pipefail

workload=${1:-}
case $workload in
    synth) rows=("5|synth --width 16 --depth 4" "3|synth --width 64 --depth 4" "1|synth --width 128 --depth 4") ;;
    verify) rows=("10|verify --width 12 --depth 2" "10|verify --width 10 --depth 2 --signed" "5|verify --width 16 --depth 2 --samples 4000000" "5|verify --width 16 --depth 2 --samples 4000000 --signed") ;;
    errors) rows=("5|errors --width 14 --depth 2 --engine bitsliced" "2|errors --width 16 --depth 2 --engine bitsliced" "5|errors --width 24 --depth 3 --engine bitsliced" "5|errors --width 14 --depth 2 --signed --engine bitsliced") ;;
    *)
        echo "usage: $0 {synth|verify|errors} BASE_DIR HEAD_DIR" >&2
        exit 2
        ;;
esac
base=$(cd "$2" && pwd)
head=$(cd "$3" && pwd)
out="$(cd "$(dirname "$0")/.." && pwd)/BENCH_e2e.json"
cpu=$(($(nproc) - 1))
cores=$(nproc)
date=$(date -u +%Y-%m-%dT%H:%M:%SZ)

rev() { git -C "$1" describe --always --dirty=+uncommitted; }

# Tree hash of one of the checkout's working directories (`crates` or
# `src`), staged into a throwaway index so the checkout's own index is
# untouched.
tree_of() {
    local index
    index=$(mktemp -u)
    GIT_INDEX_FILE=$index git -C "$1" add "$2"
    GIT_INDEX_FILE=$index git -C "$1" write-tree --prefix="$2/"
    rm -f "$index"
}

for dir in "$base" "$head"; do
    (cd "$dir" && CARGO_TARGET_DIR=target cargo build --quiet --release --offline --bin sdlc-cli)
done
base_tree=$(tree_of "$base" crates) base_src=$(tree_of "$base" src)
head_tree=$(tree_of "$head" crates) head_src=$(tree_of "$head" src)

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
    local dir=$base tree=$base_tree src=$base_src values=$4
    if [ "$1" = head ]; then dir=$head tree=$head_tree src=$head_src; fi
    records+=("  {\"side\": \"$1\", \"rev\": \"$(rev "$dir")\", \"crates_tree\": \"$tree\", \"src_tree\": \"$src\", \"date\": \"$date\", \"cores\": $cores, \"pinned_cpu\": $cpu, \"flow\": \"$2\", \"unit\": \"$3\", \"runs\": [${values// /, }], $(echo "$values" | stats)${5:+, $5}}")
}

# Runs `argv[2:]`, then writes "<seconds> <peak rss MB>" of that child to
# the file `argv[1]` and exits with its status.
peak_rss='
import os, sys, time
start = time.monotonic()
pid = os.fork()
if pid == 0:
    os.execv(sys.argv[2], sys.argv[2:])
_, status, usage = os.wait4(pid, 0)
with open(sys.argv[1], "w") as f:
    f.write(f"{time.monotonic() - start} {usage.ru_maxrss / 1024:.1f}")
sys.exit(os.waitstatus_to_exitcode(status))
'

# One timed CLI run: prints "<seconds> <stdout sha256> <peak rss MB>".
time_cli() {
    local sha usage
    usage=$(mktemp)
    sha=$(taskset -c "$cpu" python3 -c "$peak_rss" "$usage" "$1/target/release/sdlc-cli" "${@:2}" |
        sha256sum | cut -d' ' -f1)
    echo "$(cut -d' ' -f1 "$usage") $sha $(cut -d' ' -f2 "$usage")"
    rm -f "$usage"
}

for row in "${rows[@]}"; do
    repeats=${row%%|*}
    read -ra args <<< "${row#*|}"
    base_times="" head_times="" base_rss="" head_rss=""
    for i in $(seq "$repeats"); do
        for side in $( ((i % 2)) && echo base head || echo head base); do
            if [ "$side" = base ]; then
                read -r t base_sha rss < <(time_cli "$base" "${args[@]}")
                base_times+="${base_times:+ }$(printf '%.3f' "$t")" base_rss+="${base_rss:+ }$rss"
            else
                read -r t head_sha rss < <(time_cli "$head" "${args[@]}")
                head_times+="${head_times:+ }$(printf '%.3f' "$t")" head_rss+="${head_rss:+ }$rss"
            fi
        done
    done
    echo "${args[*]}: base [$base_times] head [$head_times]" >&2
    echo "${args[*]} peak rss MB: base [$base_rss] head [$head_rss]" >&2
    record base "${args[*]}" s "$base_times" "\"stdout_sha256\": \"$base_sha\""
    record head "${args[*]}" s "$head_times" \
        "\"stdout_sha256\": \"$head_sha\", \"head_won\": $(wins "$base_times" "$head_times")"
    record base "${args[*]} (peak rss MB)" MB "$base_rss"
    record head "${args[*]} (peak rss MB)" MB "$head_rss" "\"head_won\": $(wins "$base_rss" "$head_rss")"
done

# One flowbench pass on the checkout DIR: prints "<flow_ms> <setup_s>
# <calibration_ms> <wall flow_ms> <wall setup_s>". Runs DIR's own
# flowbench, or with MODE `crossed`, the base checkout's flowbench binary
# driving DIR's `sdlc-cli` (both built by an earlier own pass).
flowbench_pass() { # DIR [MODE]
    local log cmd
    log=$(mktemp)
    if [ "${2:-}" = crossed ]; then
        cmd=("$base/.bench_build/release/flowbench" --cli "$1/.bench_build/release/sdlc-cli")
    else
        cmd=(env CARGO_TARGET_DIR=.bench_build bash flowbench/run.sh)
    fi
    (cd "$1" && "${cmd[@]}" --workload "$workload" --seed 1 --seconds 10 --trace 0 2> "$log") |
        tail -n 1 |
        sed -E 's/.*"flow_ms": \{"value": ([0-9.eE+-]+).*"setup_s": \{"value": ([0-9.eE+-]+).*/\1 \2/' |
        tr '\n' ' '
    sed -nE 's/.*wall-clock flow_ms ([0-9.]+), setup_s ([0-9.]+); calibration ([0-9.]+) ms.*/\3 \1 \2/p' "$log" | tail -n 1
    rm -f "$log"
}

# 10 alternating pairs of flowbench passes in MODE (see flowbench_pass),
# collected into the base_* and head_* lists.
paired_passes() { # [MODE]
    base_ms="" head_ms="" base_s="" head_s="" base_cal="" head_cal=""
    base_wall_ms="" head_wall_ms="" base_wall_s="" head_wall_s=""
    local i side ms s cal wall_ms wall_s
    for i in $(seq 10); do
        for side in $( ((i % 2)) && echo base head || echo head base); do
            if [ "$side" = base ]; then
                read -r ms s cal wall_ms wall_s < <(flowbench_pass "$base" "${1:-}")
                base_ms+="${base_ms:+ }$ms" base_s+="${base_s:+ }$s" base_cal+="${base_cal:+ }$cal"
                base_wall_ms+="${base_wall_ms:+ }$wall_ms" base_wall_s+="${base_wall_s:+ }$wall_s"
            else
                read -r ms s cal wall_ms wall_s < <(flowbench_pass "$head" "${1:-}")
                head_ms+="${head_ms:+ }$ms" head_s+="${head_s:+ }$s" head_cal+="${head_cal:+ }$cal"
                head_wall_ms+="${head_wall_ms:+ }$wall_ms" head_wall_s+="${head_wall_s:+ }$wall_s"
            fi
        done
    done
}

flow="flowbench $workload --seed 1 --seconds 10"
paired_passes
echo "flowbench $workload flow_ms: base [$base_ms] head [$head_ms]" >&2
echo "flowbench $workload setup_s: base [$base_s] head [$head_s]" >&2
echo "flowbench $workload calibration_ms: base [$base_cal] head [$head_cal]" >&2
echo "flowbench $workload wall flow_ms: base [$base_wall_ms] head [$head_wall_ms]" >&2
echo "flowbench $workload wall setup_s: base [$base_wall_s] head [$head_wall_s]" >&2
record base "$flow (flow_ms)" ms "$base_ms"
record head "$flow (flow_ms)" ms "$head_ms" "\"head_won\": $(wins "$base_ms" "$head_ms")"
record base "$flow (setup_s)" s "$base_s"
record head "$flow (setup_s)" s "$head_s" "\"head_won\": $(wins "$base_s" "$head_s")"
record base "$flow (calibration_ms)" ms "$base_cal"
record head "$flow (calibration_ms)" ms "$head_cal"
record base "$flow (wall flow_ms)" ms "$base_wall_ms"
record head "$flow (wall flow_ms)" ms "$head_wall_ms" "\"head_won\": $(wins "$base_wall_ms" "$head_wall_ms")"
record base "$flow (wall setup_s)" s "$base_wall_s"
record head "$flow (wall setup_s)" s "$head_wall_s" "\"head_won\": $(wins "$base_wall_s" "$head_wall_s")"

paired_passes crossed
echo "flowbench $workload crossed flow_ms: base [$base_ms] head [$head_ms]" >&2
echo "flowbench $workload crossed setup_s: base [$base_s] head [$head_s]" >&2
record base "$flow (crossed flow_ms)" ms "$base_ms"
record head "$flow (crossed flow_ms)" ms "$head_ms" "\"head_won\": $(wins "$base_ms" "$head_ms")"
record base "$flow (crossed setup_s)" s "$base_s"
record head "$flow (crossed setup_s)" s "$head_s" "\"head_won\": $(wins "$base_s" "$head_s")"

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
