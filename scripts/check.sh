#!/usr/bin/env bash
# Repo gate: build, test, format check, the committed experiment tables,
# the examples, and CLI / benchmark smokes.
# Everything runs offline — no network, no external dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

# The value of metric $1 in a `benchmark/` result line $2 (empty if absent).
bench_metric() {
  printf '%s' "$2" | sed -n "s/.*\"$1\":{\"value\":\([0-9.eE+-]*\).*/\1/p"
}

# The shard gate, on one traced `shard_run` result line: the sharded run's
# critical path (slowest shard's up + down, + merge + top) must not exceed
# the single wide arena doing the same work. A line missing either metric
# is a failure, not a skip.
shard_gate() {
  local crit single vs
  crit="$(bench_metric 'shard\.critical_path_us' "$1")"
  single="$(bench_metric 'sim\.single_wide_us' "$1")"
  vs="$(bench_metric 'shard\.vs_single' "$1")"
  if [ -z "$crit" ] || [ -z "$single" ]; then
    echo "shard gate: result line lacks shard.critical_path_us or sim.single_wide_us" >&2
    return 1
  fi
  # Wall-clock shard.vs_single reads 1.0-1.2 on a 2-vCPU host: too close
  # to 1 to gate, so it is printed only.
  echo "shard gate: critical path ${crit} us vs single wide arena ${single} us (wall-clock shard.vs_single = ${vs:-absent}, ungated)"
  awk -v c="$crit" -v s="$single" 'BEGIN { exit !(c + 0 <= s + 0) }' || {
    echo "shard gate failed: critical path ${crit} us > single wide arena ${single} us" >&2
    return 1
  }
}

# The prose's citations must resolve: every backticked benchmark metric in
# README.md, DESIGN.md or EXPERIMENTS.md (`sim.rel2_us`, or the metric of
# `lat_p02_us @ sim_stream`) is one of BENCHMARK.json's end_to_end /
# per_layer names, and every E<n> / A<n> README.md or DESIGN.md cites has
# an EXPERIMENTS.md heading (E3 resolves to E3a, E3b, ...). Reports every
# miss, then fails if there was one.
cited_names_check() {
  local metrics namespaces name id miss=0
  metrics="$(sed -n 's/.*"name": "\([^"]*\)", "unit".*/\1/p' BENCHMARK.json)"
  namespaces="$(printf '%s\n' "$metrics" | sed -n 's/^\([a-z]*\)\..*/\1/p' | sort -u | paste -sd'|')"
  for name in $(grep -ohE "\`(($namespaces)\.[A-Za-z0-9_.]+|[A-Za-z0-9_.]+ @ [A-Za-z0-9_]+)\`" \
      README.md DESIGN.md EXPERIMENTS.md | tr -d '`' | sed 's/ @ .*//' | sort -u); do
    printf '%s\n' "$metrics" | grep -qxF "$name" || {
      echo "cited metric \`$name\` is not in BENCHMARK.json" >&2; miss=1; }
  done
  for id in $(grep -ohE '\b[EA][0-9]+[a-z]?\b' README.md DESIGN.md | sort -u); do
    grep -qE "^#+ ${id}[a-z]?\b" EXPERIMENTS.md || {
      echo "cited experiment $id has no EXPERIMENTS.md heading" >&2; miss=1; }
  done
  return "$miss"
}

echo "==> cited metric and experiment names resolve"
cited_names_check

echo "==> the newest CHANGES.md entry is at most 15 lines"
# An entry starts at a `- PR` line; continuation lines are indented.
entry_lines="$(awk '/^- PR / { n = 0 } { n++ } END { print n }' CHANGES.md)"
[ "$entry_lines" -le 15 ] || {
  echo "the newest CHANGES.md entry has $entry_lines lines (at most 15)" >&2
  exit 1
}

echo "==> library crates read no environment variables"
# A library crate takes its settings through its config types only, so a
# hidden knob cannot come back unnoticed.
if grep -rn 'env::var' crates/*/src; then
  echo "crates/*/src reads an environment variable (listed above)" >&2
  exit 1
fi

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test --workspace --release"
cargo test --workspace --release --quiet

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> repro all vs EXPERIMENTS.md (every committed table, in order, byte for byte)"
# Each experiment's test pins its own blocks; this also catches a stale,
# missing or reordered block in the committed section.
diff <(target/release/repro all) \
  <(awk '/^<!-- repro all ends/ { exit } on; /^<!-- repro all begins/ { on = 1 }' EXPERIMENTS.md)

echo "==> examples (each must exit 0)"
for example in examples/*.rs; do
  cargo run --release --quiet --example "$(basename "$example" .rs)" > /dev/null
done

echo "==> ftsim simulate pins (cycles and delivery-order fingerprint per run)"
# Each row is one `ftsim simulate ... --format json` run and the result it
# must print: message count, whether the workload streamed, cycles, and the
# `order_fnv` delivery-order fingerprint. A `#` line explains the rows
# below it (times are release builds on a 2-vCPU host).
while read -r messages streamed cycles fnv flags; do
  case "$messages" in '#'* | '') continue ;; esac
  sim_json="$(timeout 120 target/release/ftsim simulate $flags --format json)"
  case "$sim_json" in
    '{"schema":"ftsim-simulate/v1"'*'"messages":'"$messages"',"streamed":'"$streamed"',"cycles":'"$cycles"','*'"order_fnv":"'"$fnv"'"}') ;;
    *) echo "ftsim simulate $flags left the pinned result ($messages messages, $cycles cycles, order_fnv $fnv)" >&2
       printf '%s\n' "$sim_json" | cut -c1-300 >&2
       exit 1 ;;
  esac
done <<'PINS'
# A full streamed permutation at 2^20 leaves through the fused body, lazy
# ingest, in interactive time (~0.15s).
1048576 true 3 4235888c3627a8ad --n 1048576 --w 262144 --workload streamperm
# Heights 21-24 and a 2^21 all-reduce: every value was taken at commit
# 0a639e7, where the default config ran the level passes on trees taller
# than 2^20; the fused body must reproduce them byte for byte (2^24:
# 1.8-2.2s, 498 MiB peak, 31 B per leaf, with no per-channel capacity
# table; the all-reduce's 62.9 M messages: 12-19s, 1.8 GiB peak).
2097152 true 3 d4c5ef5cefedc519 --n 2097152 --w 524288 --workload streamperm
4194304 true 3 797894a195af114d --n 4194304 --w 1048576 --workload streamperm
8388608 true 3 d69d427c05ccdd6d --n 8388608 --w 2097152 --workload streamperm
16777216 true 3 64bec0cac909276d --n 16777216 --w 4194304 --workload streamperm
62914560 true 30 cc34586b8aba2b25 --n 2097152 --w 524288 --workload allreduce:16
# A long retry tail with out-of-order, repeated sources: 8 200 delivery
# cycles, most of them over a few thousand pending messages (~0.8s).
131072 true 8200 a7c4f1830e3ca57d --n 65536 --w 16384 --workload bursty:8
# The run-level lemma (DESIGN.md §10): a permutation on a degree-2 tree
# sends and receives one message per leaf, so besides the static list's
# free levels it skips levels 16, 8, 7 and 6 going up and 6-16 coming
# down, visiting 5 of 16 levels each way (~0.02s). A ring all-reduce in
# pods of 16 arrives with unsorted sources, so its busiest source comes
# from the load sort's buckets; 30 messages per leaf free nothing more
# (~0.4s). Both pins were taken before the lemma landed.
65536 true 3 8afd8a8bb8f7c69d --topology degree:n=65536,w=16384,d=2 --workload streamperm
1966080 true 30 e6e0405e3d3b5b25 --n 65536 --w 16384 --workload allreduce:16
# Materialised runs that retry, one per cycle body: a 2-relation at 2^14 on
# the fused sweeps, and on the level passes under partial switches and
# under random arbitration (6-7 cycles, < 0.2s each). The set is loaded
# once and every retry runs on the arena's compacted pending set; the pins
# were taken when `run_to_completion` still re-loaded its survivors each
# cycle.
32768 false 7 89b49b87b1c80d81 --n 16384 --w 4096 --workload krel:2
32768 false 6 29407b6fc4172f05 --n 16384 --w 4096 --workload krel:2 --switch partial
32768 false 7 23ccc50cc57fae91 --n 16384 --w 4096 --workload krel:2 --arb random
PINS

echo "==> ftsim schedule / online / emulate / universality pins (whole stdout per run)"
# A `$ ` line is one `ftsim` run; the `> ` lines under it are its whole
# stdout, byte for byte. Values were taken at commit 2bb8186, before λ,
# the lower bounds and `Schedule::validate` moved onto ft-core's load
# tally, unless a row's comment names another commit (times are release
# builds on a 2-vCPU host).
sched_pin() {
  local got
  got="$(timeout 60 target/release/ftsim $1)"
  [ "$got" = "$2" ] || {
    echo "ftsim $1 left its pin:" >&2
    diff <(printf '%s\n' "$2") <(printf '%s\n' "$got") >&2
    exit 1
  }
}
pin_args="" pin_out=""
while IFS= read -r line; do
  case "$line" in
    '$ '*) if [ -n "$pin_args" ]; then sched_pin "$pin_args" "$pin_out"; fi
           pin_args="${line#\$ }" pin_out="" ;;
    '> '*) pin_out="${pin_out:+$pin_out$'\n'}${line#> }" ;;
  esac
done <<'PINS'
# Every scheduler on a materialised 2-relation, Corollary 2 on a degree-16
# tree and Theorem 1 on a padded k-ary embedding (< 0.1s each).
$ schedule --n 16384 --w 4096 --workload krel:2
> Theorem 1: 32768 messages, λ(M) = 3.81, lower bound 4 ⇒ 24 delivery cycles
$ schedule --n 16384 --w 4096 --workload krel:2 --scheduler greedy
> greedy first-fit: 32768 messages, λ(M) = 3.81, lower bound 4 ⇒ 6 delivery cycles
$ schedule --n 4096 --w 1024 --workload krel:2 --scheduler compressed
> Theorem 1 + compression: 8192 messages, λ(M) = 3.85, lower bound 4 ⇒ 13 delivery cycles
$ schedule --topology degree:n=1024,w=1024,d=16 --workload krel:16 --scheduler bigcap
> topology degree:n=1024,w=1024,d=16: 1024 processors embedded on a padded binary tree of n = 1024
> Corollary 2: 16384 messages, λ(M) = 7.62, lower bound 8 ⇒ 16 delivery cycles
$ schedule --topology kary:k=24,over=2 --workload alltoall:12
> topology kary:k=24,over=2: 3456 processors embedded on a padded binary tree of n = 8192
> Theorem 1: 38016 messages, λ(M) = 11.00, lower bound 11 ⇒ 15 delivery cycles
# All-to-one: one message per cycle. First-fit keeps each open cycle's
# loads only on the channels it uses (~0.4s; 2.8s and a dense table per
# cycle at the parent); validating 16 383 one-message cycles costs
# O(lg n) each (~0.02s; 1.2s at the parent).
$ schedule --n 4096 --w 1024 --workload hotspot --scheduler greedy
> greedy first-fit: 4095 messages, λ(M) = 4095.00, lower bound 4095 ⇒ 4095 delivery cycles
$ schedule --n 16384 --w 4096 --workload hotspot
> Theorem 1: 16383 messages, λ(M) = 16383.00, lower bound 16383 ⇒ 16383 delivery cycles
# A 2^22 permutation: one count for λ and the lower bound, the arena, and
# a validation by tally and sort. With no table kept twice in the arena:
# 3.2-3.5s, peak 368 MiB, 91.9 B per leaf (2.8-3.4s, 445 MiB, 111.2 B
# per leaf before, the two builds run alternately).
$ schedule --n 4194304 --w 1048576 --workload streamperm
> Theorem 1: 4194304 messages, λ(M) = 1.89, lower bound 2 ⇒ 23 delivery cycles
# The same at 2^24, taken at 659cf95 (12.8-13.1s, peak 1 770 MiB, 110.6 B
# per leaf there; 11.6-12.2s, 1 439 MiB, 89.9 B per leaf now).
$ schedule --n 16777216 --w 4194304 --workload streamperm
> Theorem 1: 16777216 messages, λ(M) = 1.89, lower bound 2 ⇒ 25 delivery cycles
# The on-line router, contention line included (2^22: ~1.9s; 4.1s at the parent).
$ online --n 16384 --w 4096 --workload krel:2
> on-line: 32768 messages, λ = 3.81 → 7 cycles (shape λ+lg n·lglg n = 57.1)
> contention: 54924 resends, hottest at level 14 (32860 blocked); blocked root→leaf: 0/2294/4636/6948/6087/0/0/0/0/4/108/512/1475/32860
$ online --n 4194304 --w 1048576 --workload streamperm
> on-line: 4194304 messages, λ = 1.89 → 2 cycles (shape λ+lg n·lglg n = 100.0)
> contention: 1816131 resends, hottest at level 5 (733892 blocked); blocked root→leaf: 0/133598/369292/579349/733892/0/0/0/0/0/0/0/0/0/0/0/0/0/0/0/0/0
# The padded k-ary tree's non-monotone switch-internal capacities (~0.02s;
# taken at 7e49552, before the claim walk became one kernel).
$ online --topology kary:k=24,over=2 --workload alltoall:12
> topology kary:k=24,over=2: 3456 processors embedded on a padded binary tree of n = 8192
> on-line: 38016 messages, λ = 11.00 → 23 cycles (shape λ+lg n·lglg n = 59.1)
> contention: 325366 resends, hottest at level 13 (314480 blocked); blocked root→leaf: 0/0/0/0/0/0/0/0/0/0/2091/8795/314480
# Theorem 10's identification on deep cuts (the tree machine's placement
# cuts ≈ 2.5·lg n deep). Taken at 5ea96c8, where the decomposition tree
# kept all 2^r leaf slots: 2.6s, 2.5s and 0.94s there; < 0.2s each now.
$ emulate --net tree --dim 10
> tree(10 levels) (n = 1023, degree 3) hosted on a degree-3 universal fat-tree:
> minimal root capacity w = 321, λ(edge set) = 1.00, 38 ticks per guest step
$ universality --net tree --dim 10
> tree(10 levels): n = 1023, volume 1024 → fat-tree w = 102
> t_R = 268, λ = 4.76, d = 14 ⇒ slowdown 0.52 (lg³n bound 333.3)
$ emulate --net mesh2d --side 256
> mesh2d(256x256) (n = 65536, degree 4) hosted on a degree-4 universal fat-tree:
> minimal root capacity w = 5121, λ(edge set) = 1.00, 62 ticks per guest step
# 2^43 leaf slots, which 5ea96c8 could not allocate: this stdout is the
# sparse decomposition tree's own (~0.2s, ~21 MiB).
$ emulate --net tree --dim 16
> tree(16 levels) (n = 65535, degree 3) hosted on a degree-3 universal fat-tree:
> minimal root capacity w = 5121, λ(edge set) = 1.00, 62 ticks per guest step
# Theorem 10's delivery side at 2^14 processors: the tree machine's
# store-and-forward run of 4091 steps. Taken at bc0aa74, where every step
# hashed each live message's next link into a map (1.3s there, 0.3s now).
$ universality --net tree --dim 14
> tree(14 levels): n = 16383, volume 16384 → fat-tree w = 645
> t_R = 4091, λ = 12.02, d = 37 ⇒ slowdown 0.13 (lg³n bound 914.7)
PINS
sched_pin "$pin_args" "$pin_out"

echo "==> ftsim report / trace smoke (telemetry)"
report_json="$(cargo run --release --quiet --bin ftsim -- \
  report --n 64 --w 16 --workload krel:2 --format json)"
case "$report_json" in
  '{"schema":"ftsim-report/v2"'*'"client_p50_us":'*'}') ;;
  *) echo "ftsim report --format json emitted an unexpected document" >&2
     exit 1 ;;
esac
cargo run --release --quiet --bin ftsim -- \
  trace --n 32 --w 8 --workload perm --events 256 --verify 1 > /dev/null
# --verify must run (and be able to fail) with csv output too.
cargo run --release --quiet --bin ftsim -- \
  trace --n 32 --w 8 --workload perm --format csv --verify 1 > /dev/null

echo "==> ftsim shard smoke (distributed engine)"
shard_json="$(cargo run --release --quiet --bin ftsim -- \
  shard --n 64 --w 16 --workload perm --shards 2 --format json)"
case "$shard_json" in
  '{"schema":"ftsim-shard/v1"'*'"matches_single_arena":true'*'}') ;;
  *) echo "ftsim shard --format json emitted an unexpected document" >&2
     echo "$shard_json" >&2
     exit 1 ;;
esac

echo "==> ftsim shard pipe smoke (worker processes)"
pipe_json="$(cargo run --release --quiet --bin ftsim -- \
  shard --n 64 --w 16 --workload perm --shards 4 --transport pipe --format json)"
case "$pipe_json" in
  '{"schema":"ftsim-shard/v1"'*'"transport":"pipe"'*'"matches_single_arena":true'*'"merge_ns":'*'}') ;;
  *) echo "ftsim shard --transport pipe emitted an unexpected document" >&2
     echo "$pipe_json" >&2
     exit 1 ;;
esac

echo "==> shard critical-path gate (traced benchmark/ shard_run vs single wide arena)"
shard_gate "$(cargo run --release --offline --quiet \
  --manifest-path benchmark/Cargo.toml -- \
  --workload shard_run --seconds 5 --trace 1 | tail -n 1)"

echo "==> ftsim serve smoke (coalescing service, verified clients, reaping)"
# Spawn the service with its stdin on a fifo we hold open (closing it is
# the graceful-shutdown signal), drive it with four verifying clients plus
# one dead client the 500ms idle reaper must clear, then close the fifo
# and check the summary line. Everything is time-capped: a hang here is a
# bug, not slowness.
serve_fifo="$(mktemp -u).fifo"; mkfifo "$serve_fifo"
serve_log="$(mktemp --suffix .serve)"
trap 'rm -f "$serve_fifo" "$serve_log"' EXIT
target/release/ftsim serve --n 64 --w 16 --slots 4 --idle-ms 500 \
  --addr 127.0.0.1:0 --metrics-addr 127.0.0.1:0 < "$serve_fifo" > "$serve_log" &
serve_pid=$!
exec 9> "$serve_fifo"   # hold the write end open: server stays up
for _ in $(seq 50); do
  grep -q '"event":"listening"' "$serve_log" && break
  sleep 0.1
done
serve_addr="$(sed -n 's/.*"addr":"\([^"]*\)".*"metrics_addr".*/\1/p;q' "$serve_log")"
metrics_addr="$(sed -n 's/.*"metrics_addr":"\([^"]*\)".*/\1/p;q' "$serve_log")"
if [ -z "$serve_addr" ] || [ -z "$metrics_addr" ]; then
  echo "ftsim serve never printed its listening line (with metrics_addr)" >&2
  cat "$serve_log" >&2; exit 1
fi
# A dead client (handshake then silence) in the background while four
# verifying clients hammer the service — reaping must not disturb them.
timeout 60 target/release/ftsim bench-client --addr "$serve_addr" \
  --n 64 --w 16 --clients 1 --requests 0 --mode dead --hold-ms 1000 &
dead_pid=$!
timeout 60 target/release/ftsim bench-client --addr "$serve_addr" \
  --n 64 --w 16 --clients 4 --requests 120 --messages 32 --verify 1
# Scrape the live metrics endpoint between the two client waves and again
# after the second: the served counter must be monotonic and the JSON page
# must carry every documented block.
scrape1="$(timeout 60 target/release/ftsim metrics-scrape --addr "$metrics_addr")"
timeout 60 target/release/ftsim bench-client --addr "$serve_addr" \
  --n 64 --w 16 --clients 4 --requests 80 --engine online --verify 1
scrape2="$(timeout 60 target/release/ftsim metrics-scrape --addr "$metrics_addr")"
case "$scrape2" in
  '{"schema":"ftsim-metrics/v1"'*'"requests":'*'"lambda_budget":'*'"batch_occupancy":'*'"stages":'*'"wall_by_width":'*'"spans":'*'}') ;;
  *) echo "metrics-scrape JSON page is missing documented blocks" >&2
     echo "$scrape2" >&2; exit 1 ;;
esac
served1="$(printf '%s' "$scrape1" | grep -o '"served":[0-9]*' | head -n1 | tr -dc 0-9)"
served2="$(printf '%s' "$scrape2" | grep -o '"served":[0-9]*' | head -n1 | tr -dc 0-9)"
if [ -z "$served1" ] || [ -z "$served2" ] || [ "$served2" -lt "$served1" ] \
  || [ "$served1" -lt 120 ]; then
  echo "metrics-scrape served counter is not monotonic (got $served1 -> $served2)" >&2
  exit 1
fi
timeout 60 target/release/ftsim metrics-scrape --addr "$metrics_addr" --path /metrics \
  | grep -q '^ftsim_serve_requests_total ' || {
  echo "metrics-scrape /metrics page lacks the Prometheus served counter" >&2
  exit 1
}
wait "$dead_pid"
exec 9>&-               # close the fifo: graceful shutdown
for _ in $(seq 50); do
  kill -0 "$serve_pid" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$serve_pid" 2>/dev/null; then
  echo "ftsim serve did not exit after stdin EOF" >&2
  kill "$serve_pid"; exit 1
fi
wait "$serve_pid"
grep -q '"event":"summary"' "$serve_log" || {
  echo "ftsim serve exited without a summary line" >&2
  cat "$serve_log" >&2; exit 1
}
grep -q '"served":200' "$serve_log" || {
  echo "ftsim serve summary did not count 200 served requests" >&2
  cat "$serve_log" >&2; exit 1
}

echo "==> ftsim topology smoke (generalized topologies, all three families)"
# Every constructor family must describe itself as a well-formed
# ftsim-topology/v1 document, and the engines must accept the same specs.
for spec in "universal:n=64,w=16" "kary:k=8,over=4" "twolayer:r=16,p=8"; do
  topo_json="$(cargo run --release --quiet --bin ftsim -- \
    topology --topology "$spec" --format json)"
  case "$topo_json" in
    '{"schema":"ftsim-topology/v1"'*'"levels":['*'"lambda_perm_bound":'*'"cost":{"switches":'*'}') ;;
    *) echo "ftsim topology --topology $spec emitted an unexpected document" >&2
       echo "$topo_json" >&2
       exit 1 ;;
  esac
done
# A mixed-radix machine end to end through the simulator: 104 processors
# (13 pods of 8) embedded on a padded binary tree.
topo_run="$(cargo run --release --quiet --bin ftsim -- \
  simulate --topology twolayer:r=16,p=8,n=100 --workload perm --format json)"
case "$topo_run" in
  '{"schema":"ftsim-simulate/v1","topology":"twolayer:r=16,p=8,n=104"'*'"messages":104'*'}') ;;
  *) echo "ftsim simulate --topology emitted an unexpected document" >&2
     echo "$topo_run" >&2
     exit 1 ;;
esac
# Malformed specs must be rejected with a usage error, not a panic.
if cargo run --release --quiet --bin ftsim -- \
  topology --topology kary:k=7 >/dev/null 2>&1; then
  echo "ftsim topology accepted a malformed spec (kary:k=7)" >&2
  exit 1
fi

echo "==> ftsim shard fault smoke (dead link must fail structured, not hang)"
# A 100% drop plan can never complete: the run must terminate within the
# timeout wrapper with a structured error and a non-zero exit, never hang.
fault_json="$(timeout 60 cargo run --release --quiet --bin ftsim -- \
  shard --n 32 --shards 2 --drop 1.0 --timeout-ms 100 --retries 1 --format json)" \
  && { echo "ftsim shard with a dead link unexpectedly succeeded" >&2; exit 1; }
rc=$?
if [ "$rc" -eq 124 ]; then
  echo "ftsim shard with a dead link hung until the timeout wrapper killed it" >&2
  exit 1
fi
case "$fault_json" in
  '{"schema":"ftsim-shard/v1","error":{"kind":"timeout"'*'}') ;;
  *) echo "ftsim shard fault run emitted an unexpected document" >&2
     echo "$fault_json" >&2
     exit 1 ;;
esac

echo "All checks passed."
