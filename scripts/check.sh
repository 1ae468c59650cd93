#!/usr/bin/env bash
# Robustness gate: build and run the test suite under sanitizers, then
# prove the parallel runner's determinism contract end to end.
#
# Usage:
#   scripts/check.sh                    # address + undefined + determinism
#                                       #   + telemetry + attribution + bench
#   scripts/check.sh address            # one specific gate
#   scripts/check.sh tsan               # ThreadSanitizer on the runner
#   scripts/check.sh undefined thread
#   scripts/check.sh determinism        # only the --jobs CSV diff
#   scripts/check.sh perfbench          # only the benchmark's own tests
#
# Gates:
#   address | asan        full suite under AddressSanitizer (+ leaks)
#   undefined | ubsan     full suite under UBSan
#   thread | tsan         ThreadSanitizer on the concurrent machinery
#                         (the Runner, SpecKey, ThreadPool and cache
#                         tape store tests)
#   determinism           fig06_pcc_size and fig09_multiprocess
#                         --scale=ci --jobs=4 must emit byte-identical
#                         CSV to --jobs=1
#   telemetry             fig06 with --telemetry/--trace exports must
#                         emit JSON that parses with the expected
#                         top-level keys, identically at --jobs=2, and
#                         fig09 --telemetry=F must write F
#   attribution           quickstart --attribution/--audit exports and
#                         stdout must validate and be byte-identical
#                         between --jobs=1 and --jobs=4
#   bench | bench_compare fresh fig06 --format=json output must match
#                         bench/baselines/ (exact simulation equality,
#                         tolerant per-access timing)
#   registry              policy/hw plugin registries: --policy=list /
#                         --hw=list enumerate every key, the contenders
#                         scoreboard (every sweepable policy + hw
#                         backend) emits byte-identical CSV at --jobs=1
#                         and --jobs=4, parameterized selectors run end
#                         to end, and unknown keys are rejected with a
#                         did-you-mean suggestion
#   sampling              sample_check: --sample=W:F miss-rate
#                         estimates on bfs + mcf must land within
#                         max(2 x CI95, 0.5 points) of exact runs
#   fuzz                  50 seeded fuzz_diff iterations (differential
#                         oracle + serial-vs-parallel + shared cache
#                         tapes) must find zero divergences, and all
#                         three planted hot-path bugs must be caught
#                         and shrunk
#   resume                a SIGKILL'd fig06 sweep restarted with
#                         --resume must complete byte-identical to an
#                         uninterrupted run, serving the journaled
#                         jobs from the memo instead of re-simulating
#   tenant                fig10_multitenant --selfcheck (1-tenant ASID
#                         run bit-identical to the legacy path,
#                         multi-tenant determinism, ASID < flush
#                         walks), then a reduced sweep must emit
#                         byte-identical CSV at --jobs=1 and --jobs=4,
#                         and --oracle and --resume (which a tenant
#                         sweep cannot honour) must exit 1
#   histograms            tail-latency telemetry: --histograms must be
#                         metrics-neutral (plain output is a byte
#                         prefix of the histogram run), byte-identical
#                         between --jobs=1 and --jobs=4 (stdout + tail
#                         JSON), the tail JSON must validate (quantile
#                         ordering, per-core counts summing to the
#                         total, sorted bounded exemplars), and the
#                         fig06 --perf p99 must stay within the
#                         bench/baselines/ tolerance
#   perfbench             the repo benchmark's own tests
#                         (perfbench/tests/test_perfbench.py): builds
#                         perfbench into .bench_build/, smoke-runs every
#                         workload traced and untraced, checks replay
#                         fidelity and perfbench/expected.txt. Catches
#                         a src/ change (say, a trimmed include in
#                         sim/system.hpp) that breaks the benchmark,
#                         which the other gates never build
#
# Each sanitizer gets its own build tree (build-asan/, build-ubsan/,
# build-tsan/; determinism, telemetry, attribution and bench use
# build-det/) so switching never poisons the regular build/ directory.
# The script fails on the first gate whose build or tests fail.

set -euo pipefail

cd "$(dirname "$0")/.."

run_determinism() {
    echo "==> [determinism] configuring build-det"
    cmake -B build-det -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
    echo "==> [determinism] building fig06_pcc_size + fig09_multiprocess"
    cmake --build build-det -j "$(nproc)" --target fig06_pcc_size \
        --target fig09_multiprocess >/dev/null
    local tmp
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' RETURN
    for harness in fig06_pcc_size fig09_multiprocess; do
        echo "==> [determinism] $harness --jobs=4 vs --jobs=1 CSV diff"
        ./build-det/bench/"$harness" --scale=ci --csv --jobs=1 \
            > "$tmp/serial.csv"
        ./build-det/bench/"$harness" --scale=ci --csv --jobs=4 \
            > "$tmp/parallel.csv"
        if ! diff -u "$tmp/serial.csv" "$tmp/parallel.csv"; then
            echo "determinism gate FAILED: $harness parallel output" \
                 "diverged" >&2
            return 1
        fi
    done
    echo "==> [determinism] clean (byte-identical output)"
}

run_telemetry() {
    echo "==> [telemetry] configuring build-det"
    cmake -B build-det -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
    echo "==> [telemetry] building fig06_pcc_size + fig09_multiprocess"
    cmake --build build-det -j "$(nproc)" --target fig06_pcc_size \
        --target fig09_multiprocess >/dev/null
    echo "==> [telemetry] exporting series + trace at --jobs=1 and --jobs=2"
    local tmp
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' RETURN
    for jobs in 1 2; do
        ./build-det/bench/fig06_pcc_size --scale=ci --csv \
            --jobs="$jobs" \
            --telemetry="$tmp/series$jobs.json" \
            --trace="$tmp/trace$jobs.json" > /dev/null
    done
    echo "==> [telemetry] validating JSON shape"
    python3 - "$tmp" <<'PYEOF'
import json, sys

tmp = sys.argv[1]
series = json.load(open(tmp + "/series1.json"))
for key in ("intervals", "series", "counters", "events",
            "events_dropped"):
    assert key in series, f"series.json missing {key!r}"
assert series["intervals"] > 0, "no intervals sampled"
for name, values in series["series"].items():
    assert len(values) == series["intervals"], \
        f"series {name!r}: {len(values)} != {series['intervals']}"

trace = json.load(open(tmp + "/trace1.json"))
for key in ("traceEvents", "displayTimeUnit", "otherData"):
    assert key in trace, f"trace.json missing {key!r}"
assert trace["traceEvents"], "empty trace"
for event in trace["traceEvents"]:
    for key in ("name", "cat", "ph", "ts", "pid", "args"):
        assert key in event, f"trace event missing {key!r}"

for name in ("series", "trace"):
    a = open(f"{tmp}/{name}1.json").read()
    b = open(f"{tmp}/{name}2.json").read()
    assert a == b, f"{name} export diverged between --jobs=1 and 2"
print("telemetry exports validate")
PYEOF
    echo "==> [telemetry] fig09 --telemetry=F writes F"
    ./build-det/bench/fig09_multiprocess --scale=ci --csv \
        --telemetry="$tmp/fig09.json" > /dev/null
    if ! python3 -c 'import json, sys; json.load(open(sys.argv[1]))' \
            "$tmp/fig09.json"; then
        echo "telemetry gate FAILED: fig09 --telemetry wrote no" \
             "valid JSON" >&2
        return 1
    fi
    echo "==> [telemetry] clean"
}

run_attribution() {
    echo "==> [attribution] configuring build-det"
    cmake -B build-det -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
    echo "==> [attribution] building quickstart"
    cmake --build build-det -j "$(nproc)" --target quickstart >/dev/null
    echo "==> [attribution] quickstart --attribution/--audit at --jobs=1 and --jobs=4"
    local tmp
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' RETURN
    for jobs in 1 4; do
        ./build-det/examples/quickstart --format=csv --jobs="$jobs" \
            --attribution="$tmp/attr$jobs.json" \
            --audit="$tmp/audit$jobs.json" \
            > "$tmp/stdout$jobs.csv" 2>/dev/null
    done
    echo "==> [attribution] byte-comparing serial vs parallel"
    for name in stdout1.csv attr1.json audit1.json; do
        par="${name/1/4}"
        if ! diff -u "$tmp/$name" "$tmp/$par"; then
            echo "attribution gate FAILED: $name diverged at --jobs=4" >&2
            return 1
        fi
    done
    echo "==> [attribution] validating export shape"
    python3 - "$tmp" <<'PYEOF'
import json, sys

tmp = sys.argv[1]
attr = json.load(open(tmp + "/attr1.json"))
for key in ("budget", "tracked_regions", "total_walks",
            "total_walk_cycles", "untracked", "regions", "cdf", "hub",
            "by_1g"):
    assert key in attr, f"attribution missing {key!r}"
assert attr["regions"], "no regions attributed"
assert attr["total_walks"] > 0, "no walks attributed"
tracked = sum(r["walk_cycles"] for r in attr["regions"])
total = tracked + attr["untracked"]["walk_cycles"]
assert total == attr["total_walk_cycles"], \
    f"walk-cycle conservation broke: {total} != {attr['total_walk_cycles']}"
cycles = [r["walk_cycles"] for r in attr["regions"]]
assert cycles == sorted(cycles, reverse=True), "rows not sorted"

audit = json.load(open(tmp + "/audit1.json"))
for key in ("records", "records_dropped", "reasons", "decisions",
            "regret"):
    assert key in audit, f"audit missing {key!r}"
assert audit["decisions"], "no decisions recorded"
for dec in audit["decisions"]:
    for key in ("ts", "pid", "base", "action", "reason", "rank",
                "counter", "cycles"):
        assert key in dec, f"decision missing {key!r}"
assert "total_cycles" in audit["regret"], "regret missing total_cycles"
print("attribution + audit exports validate")
PYEOF
    echo "==> [attribution] clean"
}

run_bench_compare() {
    echo "==> [bench] configuring build-det"
    cmake -B build-det -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
    echo "==> [bench] building fig06_pcc_size + fig10_multitenant + contenders"
    cmake --build build-det -j "$(nproc)" --target fig06_pcc_size \
        --target fig10_multitenant --target contenders >/dev/null
    echo "==> [bench] comparing against bench/baselines/"
    python3 scripts/bench_compare.py --build=build-det
    echo "==> [bench] clean"
}

run_registry() {
    echo "==> [registry] configuring build-det"
    cmake -B build-det -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
    echo "==> [registry] building contenders + policy_explorer"
    cmake --build build-det -j "$(nproc)" --target contenders \
        --target policy_explorer >/dev/null
    local tmp
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' RETURN
    echo "==> [registry] --policy=list / --hw=list enumerate and exit 0"
    ./build-det/bench/contenders --policy=list > "$tmp/policies.txt"
    ./build-det/bench/contenders --hw=list > "$tmp/hw.txt"
    for key in base-4k all-huge linux-thp hawkeye pcc trace-replay \
               trident ubpf; do
        if ! grep -Eq "^[[:space:]]*$key " "$tmp/policies.txt"; then
            echo "registry gate FAILED: '$key' missing from" \
                 "--policy=list" >&2
            return 1
        fi
    done
    if ! grep -Eq "^[[:space:]]*victima-reach " "$tmp/hw.txt"; then
        echo "registry gate FAILED: 'victima-reach' missing from" \
             "--hw=list" >&2
        return 1
    fi
    echo "==> [registry] every contender, serial vs --jobs=4 CSV diff"
    ./build-det/bench/contenders --scale=ci --csv --jobs=1 \
        > "$tmp/serial.csv"
    ./build-det/bench/contenders --scale=ci --csv --jobs=4 \
        > "$tmp/parallel.csv"
    if ! diff -u "$tmp/serial.csv" "$tmp/parallel.csv"; then
        echo "registry gate FAILED: parallel output diverged" >&2
        return 1
    fi
    echo "==> [registry] parameterized selectors run end to end"
    for sel in trident "pcc:promote=8,order=rr" "ubpf:prog=topk" \
               "victima-reach:mult=4"; do
        case "$sel" in
          victima*) flag="--hw=$sel" ;;
          *)        flag="--policy=$sel" ;;
        esac
        if ! ./build-det/examples/policy_explorer --scale=ci \
            "$flag" > /dev/null; then
            echo "registry gate FAILED: policy_explorer $flag" \
                 "exited nonzero" >&2
            return 1
        fi
    done
    echo "==> [registry] unknown key rejection (did-you-mean)"
    if ./build-det/bench/contenders --policy=tridnet \
        > /dev/null 2> "$tmp/err.txt"; then
        echo "registry gate FAILED: unknown policy accepted" >&2
        return 1
    fi
    if ! grep -qi "trident" "$tmp/err.txt"; then
        echo "registry gate FAILED: no did-you-mean suggestion" >&2
        cat "$tmp/err.txt" >&2
        return 1
    fi
    echo "==> [registry] clean"
}

run_sampling() {
    echo "==> [sampling] configuring build-det"
    cmake -B build-det -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
    echo "==> [sampling] building sample_check"
    cmake --build build-det -j "$(nproc)" --target sample_check \
        >/dev/null
    # Two workloads (one graph kernel, one suite model), exact vs
    # sampled: the estimate must land within max(2 x its own 95% CI,
    # 0.5 miss-%-points) of the exact run. sample_check exits nonzero
    # on the first workload outside tolerance.
    echo "==> [sampling] bfs + mcf, sampled estimate vs exact miss rate"
    ./build-det/bench/sample_check --scale=ci --apps=bfs,mcf \
        --sample=20000:80000 --tol-ci=2.0 --tol-abs=0.5
    echo "==> [sampling] clean"
}

run_fuzz() {
    echo "==> [fuzz] configuring build-det"
    cmake -B build-det -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
    echo "==> [fuzz] building fuzz_diff"
    cmake --build build-det -j "$(nproc)" --target fuzz_diff >/dev/null
    echo "==> [fuzz] 50 seeded iterations (oracle + parallel + sharing)"
    ./build-det/bench/fuzz_diff --iters=50 --seed=1
    echo "==> [fuzz] planted-bug self-tests"
    ./build-det/bench/fuzz_diff --mutation=skip-l2-fill
    ./build-det/bench/fuzz_diff --mutation=stale-ltc
    ./build-det/bench/fuzz_diff --mutation=tape-miscount
    echo "==> [fuzz] clean"
}

run_resume() {
    echo "==> [resume] configuring build-det"
    cmake -B build-det -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
    echo "==> [resume] building fig06_pcc_size"
    cmake --build build-det -j "$(nproc)" --target fig06_pcc_size \
        >/dev/null
    local tmp
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' RETURN
    echo "==> [resume] reference run (no journal)"
    ./build-det/bench/fig06_pcc_size --scale=ci --csv --jobs=2 \
        > "$tmp/reference.csv"
    echo "==> [resume] journaled run, SIGKILL'd mid-sweep"
    ./build-det/bench/fig06_pcc_size --scale=ci --csv --jobs=2 \
        --resume="$tmp/journal.txt" > "$tmp/killed.csv" 2>/dev/null &
    local pid=$!
    sleep 2
    if kill -9 "$pid" 2>/dev/null; then
        echo "==> [resume] killed pid $pid"
    else
        echo "==> [resume] run finished before the kill (still valid:" \
             "the journal then holds every job)"
    fi
    wait "$pid" 2>/dev/null || true
    if [ ! -f "$tmp/journal.txt" ]; then
        echo "resume gate FAILED: journal file never created" >&2
        return 1
    fi
    echo "==> [resume] restarting with --resume"
    ./build-det/bench/fig06_pcc_size --scale=ci --csv --jobs=2 \
        --resume="$tmp/journal.txt" --perf="$tmp/perf.json" \
        > "$tmp/resumed.csv"
    if ! diff -u "$tmp/reference.csv" "$tmp/resumed.csv"; then
        echo "resume gate FAILED: resumed output diverged" >&2
        return 1
    fi
    echo "==> [resume] validating journal accounting"
    python3 - "$tmp" <<'PYEOF'
import json, sys

tmp = sys.argv[1]
perf = json.load(open(tmp + "/perf.json"))
runner = perf["runner"]
loaded = runner["journal_loaded"]
assert loaded > 0, "no jobs were recovered from the journal"
assert runner["journal_malformed"] <= 1, \
    f"too many malformed records: {runner['journal_malformed']}" \
    " (at most the one torn by the kill)"
assert perf["memo_hits"] >= loaded, \
    f"memo hits {perf['memo_hits']} < journaled jobs {loaded}"
print(f"resume recovered {loaded} jobs"
      f" ({runner['journal_malformed']} torn),"
      f" {perf['memo_hits']} memo hits")
PYEOF
    echo "==> [resume] clean"
}

run_tenant() {
    echo "==> [tenant] configuring build-det"
    cmake -B build-det -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
    echo "==> [tenant] building fig10_multitenant"
    cmake --build build-det -j "$(nproc)" --target fig10_multitenant \
        >/dev/null
    echo "==> [tenant] selfcheck (1-tenant identity, determinism, ASID < flush)"
    ./build-det/bench/fig10_multitenant --scale=ci --selfcheck
    echo "==> [tenant] reduced sweep --jobs=4 vs --jobs=1 CSV diff"
    local tmp
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' RETURN
    local sweep_args=(--scale=ci --csv --tenants=2 --frag=0,0.9
                      --arbiter=static,propshare)
    ./build-det/bench/fig10_multitenant "${sweep_args[@]}" --jobs=1 \
        > "$tmp/serial.csv"
    ./build-det/bench/fig10_multitenant "${sweep_args[@]}" --jobs=4 \
        > "$tmp/parallel.csv"
    if ! diff -u "$tmp/serial.csv" "$tmp/parallel.csv"; then
        echo "tenant gate FAILED: parallel output diverged" >&2
        return 1
    fi
    local flag status
    for flag in --oracle "--resume=$tmp/journal"; do
        echo "==> [tenant] $flag must be refused, not ignored"
        status=0
        ./build-det/bench/fig10_multitenant "${sweep_args[@]}" "$flag" \
            > /dev/null 2>&1 || status=$?
        if [ "$status" -ne 1 ]; then
            echo "tenant gate FAILED: fig10 $flag exited $status, not 1" >&2
            return 1
        fi
    done
    echo "==> [tenant] clean (selfcheck passed, byte-identical output)"
}

run_perfbench() {
    echo "==> [perfbench] building and smoke-testing the benchmark"
    python3 perfbench/tests/test_perfbench.py
    echo "==> [perfbench] clean"
}

run_histograms() {
    echo "==> [histograms] configuring build-det"
    cmake -B build-det -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
    echo "==> [histograms] building fig06_pcc_size"
    cmake --build build-det -j "$(nproc)" --target fig06_pcc_size \
        >/dev/null
    local tmp
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' RETURN

    echo "==> [histograms] neutrality: --histograms must not disturb the tables"
    ./build-det/bench/fig06_pcc_size --scale=ci --csv --jobs=1 \
        > "$tmp/plain.csv"
    ./build-det/bench/fig06_pcc_size --scale=ci --csv --jobs=1 \
        --histograms="$tmp/tail1.json" > "$tmp/hist1.csv"
    # The histogram run may only *append* sections: the plain output
    # must be a byte-for-byte prefix of it.
    if ! head -n "$(wc -l < "$tmp/plain.csv")" "$tmp/hist1.csv" \
            | diff -u - "$tmp/plain.csv"; then
        echo "histograms gate FAILED: --histograms changed the figure" \
             "tables" >&2
        return 1
    fi
    if cmp -s "$tmp/plain.csv" "$tmp/hist1.csv"; then
        echo "histograms gate FAILED: --histograms emitted no tail" \
             "sections" >&2
        return 1
    fi

    echo "==> [histograms] determinism: --jobs=4 vs --jobs=1 (stdout + JSON)"
    ./build-det/bench/fig06_pcc_size --scale=ci --csv --jobs=4 \
        --histograms="$tmp/tail4.json" > "$tmp/hist4.csv"
    if ! diff -u "$tmp/hist1.csv" "$tmp/hist4.csv"; then
        echo "histograms gate FAILED: parallel stdout diverged" >&2
        return 1
    fi
    if ! diff -u "$tmp/tail1.json" "$tmp/tail4.json"; then
        echo "histograms gate FAILED: parallel tail JSON diverged" >&2
        return 1
    fi

    echo "==> [histograms] validating tail JSON shape"
    python3 - "$tmp" <<'PYEOF'
import json, sys

tail = json.load(open(sys.argv[1] + "/tail1.json"))
for key in ("enabled", "exemplar_k", "total", "per_core", "per_job",
            "exemplars"):
    assert key in tail, f"tail.json missing {key!r}"
assert tail["enabled"] is True

total = tail["total"]["translation"]
assert total["count"] > 0, "no accesses recorded"
for hist in (total, tail["total"]["walk"]):
    if hist["count"] == 0:
        continue
    # Quantiles are bucket lower bounds, so p50 may sit just below the
    # exact min, but the series must be monotone and capped by max.
    assert hist["p50"] <= hist["p90"] <= hist["p99"] <= hist["p999"] \
        <= hist["max"], f"quantiles out of order: {hist}"
    assert hist["min"] <= hist["max"]
    assert sum(n for _, n in hist["buckets"]) == hist["count"]

per_core = sum(c["translation"]["count"] for c in tail["per_core"])
assert per_core == total["count"], \
    f"per-core counts {per_core} != total {total['count']}"
per_job = sum(j["translation"]["count"] for j in tail["per_job"])
assert per_job == total["count"], \
    f"per-job counts {per_job} != total {total['count']}"

k = tail["exemplar_k"]
for name, worst in tail["exemplars"].items():
    assert len(worst) <= k, f"{name}: {len(worst)} exemplars > K={k}"
    cycles = [e["cycles"] for e in worst]
    for e in worst:
        for key in ("ts", "core", "pid", "region", "cycles",
                    "walk_cycles", "stall_cycles", "outcome",
                    "shootdowns", "audit"):
            assert key in e, f"{name} exemplar missing {key!r}"
worst = tail["exemplars"]["translation"]
metrics = [e["cycles"] for e in worst]
assert metrics == sorted(metrics, reverse=True), \
    "translation exemplars not sorted worst-first"
print(f"tail JSON validates: {total['count']} accesses,"
      f" p99={total['p99']} cycles,"
      f" {len(worst)} worst exemplars")
PYEOF

    echo "==> [histograms] p99 regression gate vs bench/baselines/"
    python3 - <<'PYEOF'
import json
base = json.load(open("bench/baselines/fig06_ci.json"))
perf = base.get("perf", {})
assert "p99_busy_ns_per_access" in perf, \
    "fig06_ci.json baseline is missing p99_busy_ns_per_access"
print(f"baseline p99 = {perf['p99_busy_ns_per_access']} ns/access")
PYEOF
    python3 scripts/bench_compare.py --build=build-det \
        bench/baselines/fig06_ci.json
    echo "==> [histograms] clean"
}

gates=("$@")
if [ ${#gates[@]} -eq 0 ]; then
    gates=(address undefined determinism telemetry attribution bench \
           registry sampling fuzz resume tenant histograms perfbench)
fi

for gate in "${gates[@]}"; do
    case "$gate" in
      address|asan)    san=address;   dir=build-asan ;;
      undefined|ubsan) san=undefined; dir=build-ubsan ;;
      thread|tsan)     san=thread;    dir=build-tsan ;;
      determinism)
         run_determinism
         continue ;;
      telemetry)
         run_telemetry
         continue ;;
      attribution)
         run_attribution
         continue ;;
      bench|bench_compare)
         run_bench_compare
         continue ;;
      registry)
         run_registry
         continue ;;
      sampling)
         run_sampling
         continue ;;
      fuzz)
         run_fuzz
         continue ;;
      resume)
         run_resume
         continue ;;
      tenant)
         run_tenant
         continue ;;
      histograms)
         run_histograms
         continue ;;
      perfbench)
         run_perfbench
         continue ;;
      *) echo "unknown gate '$gate'" \
              "(use address|undefined|thread|determinism|telemetry|" \
              "attribution|bench|registry|sampling|fuzz|resume|tenant|" \
              "histograms|perfbench)" >&2
         exit 2 ;;
    esac

    echo "==> [$san] configuring $dir"
    cmake -B "$dir" -S . -DPCCSIM_SANITIZE="$san" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null

    echo "==> [$san] building"
    cmake --build "$dir" -j "$(nproc)" >/dev/null

    echo "==> [$san] testing"
    if [ "$san" = thread ]; then
        # TSan's value is in the concurrent machinery: the runner, its
        # thread pool, and the shared state they guard. Restricting the
        # run keeps the gate fast while covering every code path the
        # workers touch (each runner test executes whole simulations),
        # plus the data-cache tape store the workers share and its
        # single-flight claims (a sibling sleeping on a recorder), and
        # graph set-up: jumped-ahead sampling slices, the per-range CSR
        # scatter and the single-flight graph-input cache.
        TSAN_OPTIONS="halt_on_error=1" \
            ctest --test-dir "$dir" --output-on-failure \
                -R '^(Runner\.|SpecKey\.|ThreadPool\.|CacheTapeStore\.|CacheTape\.ParallelRunner|SingleFlight\.|RngAdvance\.|SeedOne/GoldenCsr\.|Csr\.SameForEveryThreadCount|GraphInputCache\.)' \
                -j "$(nproc)"
    else
        # halt_on_error makes UBSan failures fail the test run instead
        # of merely printing; detect_leaks catches dropped frames.
        UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1" \
        ASAN_OPTIONS="detect_leaks=1" \
            ctest --test-dir "$dir" --output-on-failure -j "$(nproc)"
    fi
    echo "==> [$san] clean"
done

echo "All gates passed."
