#!/bin/sh
# Tier-2 verification: vet plus the full test suite under the race
# detector. The concurrency in the experiment engine (singleflight run
# cache, worker-pool planner, kernel/compile caches) is only meaningfully
# exercised with -race, so this runs alongside the tier-1
# `go build ./... && go test ./...` gate. A coverage floor over the
# simulation core (scripts/cover.sh) rides along.
set -eux
cd "$(dirname "$0")/.."
test -z "$(gofmt -l cmd internal scripts examples *.go)"
go vet ./...
# The store reaches the disk through raw system calls on Linux and through
# package os elsewhere (internal/store/dirio_*.go); nothing else builds the
# portable file, so it is vetted for two of the systems it serves.
GOOS=darwin go vet ./internal/store ./internal/serve
GOOS=freebsd go vet ./internal/store ./internal/serve
# linux/386 builds the portable file too, so its tests run here, on the
# host, against the spelling every non-linux unix uses.
GOARCH=386 go test -count=1 ./internal/store ./internal/serve
# A kernel's graph and liveness are computed once per kernel, by cfg.For:
# the only other analysis site is regalloc, which analyses a kernel it
# then rewrites (examples/ are not product code and are not looked at).
# (test -z, not `! ... | grep -q`: set -e ignores the status of a negated
# pipeline.)
test -z "$(grep -rn 'cfg\.New(\|cfg\.ComputeLiveness(' --include=*.go cmd internal regless.go |
	grep -v _test | grep -v '^internal/cfg/\|^internal/regalloc/')"
# One way to build a machine (DESIGN.md §8): gpu.New is the only product
# code that calls an SM constructor (internal/gen/bare, the tests'
# hand-written reference machine, is not product code: see the
# internal/gen guard below), experiments.Assemble the only place options
# meet the default configuration (Table 1 prints it) and the only one
# that attaches the sanitizer or the injector to an SM.
test -z "$(grep -rn 'sim\.New(' --include=*.go cmd internal regless.go |
	grep -v _test.go | grep -v '^internal/gpu/\|^internal/gen/bare/')"
# Arena memory is asked for by element type (arena.Make/New/Grow), with
# no per-package handles, and an SM or a registry has one constructor,
# arena first (nil: the heap).
test -z "$(grep -rn 'arena\.Of\[\|arena\.Type\[\|NewWithHierarchy\|NewRegistryIn' --include=*.go cmd internal regless.go scripts)"
test -z "$(grep -rn 'sim\.DefaultConfig()\|gpu\.DefaultConfig()' --include=*.go cmd internal/experiments |
	grep -v _test.go | grep -v '^internal/experiments/chip.go:\|^internal/experiments/figures.go:')"
test "$(grep -rn 'AttachSanitizer(\|AttachFaults(' --include=*.go cmd internal regless.go |
	grep -v _test.go | grep -vc '^internal/sim/\|^internal/core/')" = 2
# A counter is spelled once (DESIGN.md §9): a tagged field of its owner's
# statistics struct, which the registry views and metrics.Add folds. No
# second set of handles, no hand-written bind or sum list: every
# "provider/... literal in product code is unique, and Registry.Bind is
# called directly only for what a tag cannot name — the compressor's
# per-pattern array.
test -z "$(grep -rn 'ProviderCounters\|StallCharger\|metrics\.Counter\|addProviderStats\|addMemStats' --include=*.go cmd internal regless.go)"
test -z "$(grep -rho '"provider/[a-z0-9_/]*' --include=*.go cmd internal regless.go --exclude=*_test.go | sort | uniq -d)"
test -z "$(grep -rn 'r\.Bind(' --include=*.go cmd internal regless.go |
	grep -v _test.go | grep -v '^internal/metrics/\|^internal/compress/metrics.go:')"
# The CLI path says it once (DESIGN.md §8). One bench ruler: benchmark/ +
# BENCHMARK.json, so the first-generation one stays gone. One declaration
# of what an experiment reads (plan.go's Reads), none beside it. One
# registration of the machine flags, for `regless` and `regless serve`
# both.
test -z "$(git ls-files 'BENCH_*' scripts/bench.sh bench_test.go)"
test -z "$(grep -rn 'Requirements\|emitSnapshot\|benchSnapshot\|validateServeFlags\|snapshot-sha' --include=*.go --exclude=*_test.go cmd internal regless.go)"
test "$(grep -rn '"max-cycles"' --include=*.go --exclude=*_test.go cmd | wc -l)" = 1
# The service path says it once (DESIGN.md §14): its clients decode with
# serve's own wire types, and the OSU's bank count is isa.NumBanks.
test -z "$(grep -rn 'type runRequest\|type runStatus\|type sweepStatus' --include=*.go cmd scripts)"
test -z "$(grep -rn 'NumBanks *= *[0-9]' --include=*.go cmd internal regless.go | grep -v '^internal/isa/')"
# A stored payload's JSON check is spelled once (DESIGN.md §14): the store's
# one-pass isJSONValue, which FuzzJSONValue holds to encoding/json's
# predicate; only tests spell the predicate.
test -z "$(grep -rn 'json\.Valid(' --include=*.go --exclude=*_test.go internal/store internal/serve)"
# A register scheme meets the SM in one of the paper's two shapes
# (DESIGN.md §12), sim.Provider or sim.Stager, resolved once in the SM
# constructor, and warps are scheduled GTO or two-level: the nine optional
# provider refinements and the LRR scheduler stay gone, and no SM code
# asks its provider again what it is.
test -z "$(grep -rnw 'IssueMasker\|IssueProber\|HotPathHints\|HintedProvider\|TickIdler\|RecorderAware\|SanitizerAware\|FaultAware\|WarpReporter\|SchedLRR' --include=*.go cmd internal regless.go)"
test -z "$(grep -rn 'sm\.Provider\.(' --include=*.go --exclude=*_test.go internal/sim)"
# An issued instruction is read off its decoded record (cfg.Insn, built
# once per kernel with the graph, DESIGN.md §12): the SM's issue path and
# RegLess's issue hook do not re-ask the opcode table or re-derive the
# global index and region per issue.
test -z "$(grep -n 'ClassOf()\|NumSrc()\|HasDst()\|GlobalIndex(\|RegionOf\[' internal/sim/sim.go internal/sim/warp.go internal/core/hooks.go)"
# One spelling of the energy model's inputs and of the states (DESIGN.md
# §4, §10): energy prices the simulator's own counters, and a warp's
# capacity state and an OSU line's state are declared in events, which
# cm, osu and the sanitizer use as they are.
test -z "$(grep -rn 'func FromRun\|func lineState\|PhaseInactive uint8\|phaseName' --include=*.go cmd internal regless.go)"
test -z "$(grep -rn 'mirrors' internal/events)"
# The run path keeps only what its callers use (DESIGN.md §8, §14): a
# suite run is never canceled, the store keeps keys as given (serve's
# KeyFor is the one canonicaliser), and the service's window and SSE
# periods and the store's quarantine retention are constants, not knobs.
test -z "$(grep -rn 'isCtxErr\|CachedRuns\|reglessScheme\|QuarantineMaxAge\|SSEHeartbeat\|SSEBuffer\|MetricsEvery' --include=*.go cmd internal regless.go scripts)"
# A sweep's event stream reads its own jobs (DESIGN.md §14): no subscriber
# registry, publish hook or drain signal of its own, and a stopped server is
# its drained channel closed, not a third state.
test -z "$(grep -rnw 'runSubs\|sseMu\|publishRun\|sseDrain\|sseBuffer\|stateStopped' internal/serve)"
test -z "$(grep -rn 'Normalized' --include=*.go --exclude=*_test.go internal/store)"
# One L2 model (DESIGN.md §13): a chip of one's slice is a one-bank
# BankedL2, so the private slice type and the seam it sat behind stay gone.
test -z "$(grep -rnw 'privateL2\|l2Level' --include=*.go cmd internal)"
# A run's memory is taken, given back and copied in one place each
# (DESIGN.md §8), checked on the type-checked product code: arena.Take and
# arena.Put only in experiments.runPoint, a clone of sim.Stats.BackingSeries
# only in experiments.(*Run).Detach.
go run ./scripts/smoke guard
# The compiler's validator (internal/regions/validate_test.go) is a second
# model only while it uses none of the analysis it checks.
test -z "$(grep -nw 'Lv\|LiveIn\|LiveOut\|SoftDef\|PlanRegisters\|ComputeLiveness' internal/regions/validate_test.go)"
# The race gate prints each package's wall time and fails a package past
# 480 s, well before go test's 600 s default timeout kills it mid-run.
racelog="$(mktemp)"
rc=0
go test -race -shuffle=on ./... > "$racelog" 2>&1 || rc=$?
cat "$racelog"
slow="$(awk '$1 == "ok" && $3 ~ /s$/ { t = $3; sub(/s$/, "", t); printf "race gate: %s %ss\n", $2, t > "/dev/stderr"; if (t + 0 > 480) print $2 }' "$racelog")"
rm -f "$racelog"
test "$rc" = 0
test -z "$slow"
# Allocation counts are the program's only without the race detector,
# whose instrumentation changes what allocates: each package's
# TestAllocations skips itself in the race gate above and holds its heap
# paths to its testdata/allocs.txt here (internal/allocs, DESIGN.md §8).
# The harness is test-only, and the names of the gates it replaced —
# per-test ceilings, byte counters and build-tag skips — stay gone.
go test -count=1 -run '^TestAllocations$' ./...
test -z "$(grep -rln 'raceEnabled\|rawIO\|skipUncounted\|bytesPerRun\|AllocCeiling\|BytesCeiling' --include=*.go .)"
test -z "$(go list -deps ./cmd/... . | grep '^repro/internal/allocs$')"
# The program generator and the bare reference machine (internal/gen,
# internal/gen/bare) are test support too: no product code imports them.
test -z "$(go list -deps ./cmd/... . | grep '^repro/internal/gen')"
# The paper comparison is the claims experiment, computed from runs: no
# product code parses a rendered table back into numbers.
test -z "$(grep -rln 'fmtSscan' --include=*.go --exclude=*_test.go cmd internal regless.go)"
scripts/cover.sh
# The benchmark is its own module (benchmark/go.mod), so the root
# ./... patterns never compile it: a signature change that breaks it
# must fail here, not in the pipeline that runs BENCHMARK.json.
go -C benchmark vet ./...
go -C benchmark test ./...
# Fuzz smokes, five seconds each (go test takes one package and one
# target per -fuzz run): the store's canonical key bytes against
# json.Marshal, its in-place entry verifier against the decode-based
# oracle and its read path (each input read back from disk through
# View/Get) against the verifier, the service's body memo and scanner
# against the strict decoder, and the scanner alone against the decoder's
# reading of every body it accepts. The
# committed seeds run in the race gate above; this looks a little past
# them on every check.
go test -run '^$' -fuzz '^FuzzKeyCanonical$' -fuzztime 5s ./internal/store
go test -run '^$' -fuzz '^FuzzVerifyEntry$' -fuzztime 5s ./internal/store
go test -run '^$' -fuzz '^FuzzRunRequestDecode$' -fuzztime 5s ./internal/serve
go test -run '^$' -fuzz '^FuzzRunRequestScan$' -fuzztime 5s ./internal/serve
# The handler/store benchmarks are the quick rulers DESIGN.md §14 and
# the README quote; one iteration each keeps them compiling and passing
# their own checks.
go test -run '^$' -bench . -benchtime 1x ./internal/serve ./internal/store

# What the CLI prints, byte for byte, is one table in tier-1
# (TestExtensionGoldens in cmd/regless: every scripts/golden file but the
# serve one below, and the runs -no-fastforward and -sanitize must not
# change); the race gate above has run it. Left here is what a golden
# cannot say: a chip gets one timeline per SM.
test "$(go run ./cmd/regless -bench nw -scheme regless -warps 8 -sms 4 -timeline | grep -c '^SM [0-3] ')" = 4

# Trace-schema smoke test: a small traced run must produce a Perfetto
# trace that validates — every span on a named track, on a chip's later
# SMs too — and a stall report that tiles (no WARNING line).
tracedir="$(mktemp -d)"
trap 'rm -rf "$tracedir"' EXIT
go run ./cmd/regless -bench nw -scheme regless -warps 8 \
	-trace "$tracedir/trace.json" -trace-report > "$tracedir/report.txt"
go run ./scripts/smoke trace "$tracedir/trace.json"
grep -q "stall attribution" "$tracedir/report.txt"
test -z "$(grep "WARNING" "$tracedir/report.txt")"
go run ./cmd/regless -bench nw -scheme regless -warps 8 -sms 4 \
	-trace "$tracedir/trace4.json" > /dev/null
go run ./scripts/smoke trace "$tracedir/trace4.json"

# Fault-injection smoke suite (DESIGN.md §11): every class must be
# tolerated (exit 0) or detected with a diagnostic naming a component
# (exit 1 + bundle) — never a hang (the watchdog bounds the run) and
# never a raw panic.
go build -o "$tracedir/regless" ./cmd/regless
for machine in "-bench nw -scheme regless" "-experiment oversub"; do
	for class in mem-delay mem-drop osu-tag osu-state compress-pattern meta-bank meta-erase; do
		rc=0
		rm -f "$tracedir/diag-${class}.json"
		"$tracedir/regless" $machine -warps 8 \
			-faults "${class}@200; seed=3" -sanitize -watchdog 20000 \
			-diag-out "$tracedir/diag-${class}.json" \
			> "$tracedir/out-${class}.txt" 2> "$tracedir/err-${class}.txt" || rc=$?
		test -z "$(grep "panic:" "$tracedir/err-${class}.txt")"
		case "$rc" in
		0) ;; # tolerated
		1)
			grep -q "^component  " "$tracedir/err-${class}.txt"
			grep -q '"component"' "$tracedir/diag-${class}.json"
			;;
		*)
			echo "fault smoke: $machine $class exited $rc" >&2
			exit 1
			;;
		esac
	done
done
# A pinned detection: a corrupted OSU tag must be caught by the OSU
# partition invariant, not merely time out.
rc=0
"$tracedir/regless" -bench nw -scheme regless -warps 8 \
	-faults "osu-tag@200; seed=3" -sanitize -watchdog 20000 \
	2> "$tracedir/err-pinned.txt" > /dev/null || rc=$?
test "$rc" = 1
grep -q "component  osu/" "$tracedir/err-pinned.txt"

# Sweep-service smoke (DESIGN.md §14): start `regless serve` on an
# ephemeral port over a fresh store, render a cold sweep table (all
# misses), restart the server over the same store directory, and require
# the warm pass (served from disk) to be byte-identical to both the cold
# pass and the committed golden. The load generator then hammers the
# warm server, and shutdown must be clean on SIGTERM. The full 2000-
# request soak runs in the race gate above; the reduced soak here pins
# the env knob CI uses.
go build -o "$tracedir/reglessload" ./cmd/reglessload
start_serve() {
	rm -f "$tracedir/addr"
	"$tracedir/regless" serve -addr 127.0.0.1:0 -addr-file "$tracedir/addr" \
		-store "$tracedir/store" -warps 8 2>> "$tracedir/serve-log.txt" &
	servepid=$!
	i=0
	while [ ! -s "$tracedir/addr" ]; do
		i=$((i + 1))
		test "$i" -le 100
		sleep 0.1
	done
	serveaddr="http://$(cat "$tracedir/addr")"
}
start_serve
"$tracedir/reglessload" -addr "$serveaddr" -wait-ready 10s -table \
	-benchmarks nw -schemes baseline,regless > "$tracedir/serve-cold.txt"
kill -TERM "$servepid"
wait "$servepid"
start_serve
"$tracedir/reglessload" -addr "$serveaddr" -wait-ready 10s -table \
	-benchmarks nw -schemes baseline,regless > "$tracedir/serve-warm.txt"
cmp "$tracedir/serve-cold.txt" "$tracedir/serve-warm.txt"
cmp "$tracedir/serve-cold.txt" scripts/golden/serve_nw_warps8.txt
"$tracedir/reglessload" -addr "$serveaddr" -requests 200 -clients 8 \
	-benchmarks nw -schemes baseline,regless > "$tracedir/serve-load.txt"
grep -q "request latency" "$tracedir/serve-load.txt"

# Observability smoke (DESIGN.md §15): against the still-warm server,
# follow a sweep over SSE to its summary event, fetch a run trace and
# check its spans tile, and strict-parse the Prometheus exposition
# (unique series, monotone cumulative buckets, frozen span-histogram
# names) plus one live metrics window.
go run ./scripts/smoke obs -addr "$serveaddr"
kill -TERM "$servepid"
wait "$servepid"
test "$(grep -c "shut down cleanly" "$tracedir/serve-log.txt")" = 2
REGLESS_SOAK_REQUESTS=250 go test -race -count=1 -run TestServeSoak ./internal/serve

# Lifecycle smoke (DESIGN.md §16): smoke life owns its own server with a
# tiny -store-max-bytes, SIGTERMs it with a sweep still in flight, and
# verifies the shutdown contract — exit 0, a drain report, no orphaned
# tmp files, the byte budget honored on disk, and a healthy warm restart
# that serves a run. The chaos drain soak then runs every serve fault
# class against a live server under -race at a pinned request count,
# with a mid-soak drain.
go run ./scripts/smoke life -bin "$tracedir/regless"
REGLESS_CHAOS_REQUESTS=160 go test -race -count=1 -run TestServeChaosDrainSoak ./internal/serve
