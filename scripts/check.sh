#!/bin/sh
# check.sh is the contributor gate: formatting, vet, pcflint (the
# repo's own static analyzers, see DESIGN.md §10 and §15), build, and
# the full test suite under the race detector. Run it before sending a
# change.
set -eu

# Resolve the script's real location so the gate works when invoked
# through a symlink, then run from the repo root. readlink -f is not
# POSIX, so follow links manually.
script=$0
while [ -L "$script" ]; do
	target=$(readlink "$script")
	case $target in
	/*) script=$target ;;
	*) script=$(dirname "$script")/$target ;;
	esac
done
cd "$(dirname "$script")/.."

# scratch holds what the gate builds and writes, one directory per run,
# removed however the run ends, so two runs at once share no file.
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

# run_named_tests is go test for a step that names its tests in a -run
# list. Every alternative of that list must match a test, fuzz target or
# example in the step's packages, or the gate fails naming it: a renamed
# or deleted test would otherwise drop out of its step without a word.
# The listing takes the step's own flags, so it compiles what the run
# then reuses, and skips the race runtime's one-second pause at exit:
# ≈ 7 s over the eight steps on two cores.
run_named_tests() {
	pattern= prev=
	for arg do
		case $prev in -run) pattern=$arg ;; esac
		prev=$arg
	done
	names=$(GORACE=atexit_sleep_ms=0 go test "$@" -list . | grep -E '^(Test|Fuzz|Example)')
	set -f
	ifs=$IFS
	IFS='|'
	for alt in $pattern; do
		if ! printf '%s\n' "$names" | grep -Eq -- "$alt"; then
			echo "-run alternative $alt matches no test, fuzz target or example in its packages" >&2
			exit 1
		fi
	done
	IFS=$ifs
	set +f
	go test "$@"
}

echo "== gofmt"
# Only tracked files: gofmt -l . would also complain about generated
# trees and scratch files that are not part of the change.
unformatted=$(git ls-files -z -- '*.go' | xargs -0 gofmt -l)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet"
go vet ./...

echo "== pcflint (-tests: test files held to the same bar)"
go run ./cmd/pcflint -tests ./...

echo "== pcflint docs"
# The analyzer table in DESIGN.md must match `pcflint -list` exactly.
./scripts/lintdocs.sh

echo "== go build"
go build ./...

echo "== go build cmd/pcfd + cmd/pcffe"
# Link the daemon and front-end binaries explicitly: `go build ./...`
# type-checks main packages but a broken link (e.g. a bad linker flag
# or a main-only symbol clash) only surfaces when the binary is
# actually produced.
go build -o "$scratch/pcfd" ./cmd/pcfd
go build -o "$scratch/pcffe" ./cmd/pcffe

echo "== examples (each must exit 0)"
# The four programs under examples/ are documentation that runs, and
# failuredrill is the only non-test caller of RealizeProportional and,
# beside benchmark/, of Sweep.Check: each must still run to exit 0, not
# just compile.
for example in examples/*/; do
	go run "./$example" >/dev/null
done

echo "== go test -race"
# Among them the daemon's chaos soak at full length (concurrent clients,
# injected LP faults, torn checkpoints, kill-restart cycles) and its
# drain, shed and breaker tests (TestServerPCFMasterFailsOncePerBest:
# each best solve fails a broken PCF master once and answers FFC, a
# breaker opens and closes with one record each way;
# TestServerBreakerRetryAfter), the fleet chaos soak at full length, the
# warm-start and parallel-sweep properties of lp, mcf, routing and
# linsolve, and faultinject's PCF-CLS → FFC ladder fallbacks
# (TestSolveLadderRungs, TestSolveBestFrom).
go test -race ./...

echo "== fleet chaos smoke (-race -short)"
# The fleet soak ran at full length above; this pass runs its -short
# kill/partition/tear schedule (the fault count at its assertion floor,
# ≥ 60) with the front end's and planner's goroutine lifecycle tests
# and the sync-protocol regressions beside it, among them that a
# replica serves only epochs its planner published.
run_named_tests -race -short -count=1 -run 'TestFleetChaosSoak|TestFrontend|TestPlannerDrain|TestReplicaLeaseSurvivesPlannerRestart|TestReplicaSyncIsOneRequest|TestReplicaDefaultCadenceFollowsLeaseTTL|TestReplicaServesOnlyPlannerEpochs' ./internal/fleet/

echo "== separation oracle reuse (-race -count=2)"
# Polytope.Minimize lowers its rows as Compile would, bit for bit, and
# answers costs that repeat the previous call's with the saved answer:
# no solve, no allocation, the answer of a fresh Polytope. Costs one ulp
# apart, AddRow and AddVar force a solve. Every master the cut loop
# solves is pinned: the BTNorthAmerica PCF-CLS loop's rounds, cuts,
# pivots, oracle calls and solves, pricing passes and priced columns;
# the §3.5 flow model (Sprint dense and sparse, Generalized-R3 on three
# parallel links) and the full-pool referee on btna-cls-f2 to their
# value bits and work counts (TestMasterWorkCounts, ~16 s on two
# cores). The BTNorthAmerica loop: 6 rounds, 515 pivots, 337 oracle
# solves, 3 pricing passes, 37 bypasses. Seed cuts are one row per
# distinct cut, 184 on Sprint's PCF-TF master and 1 000 on synth1k's
# (TestSeedCutsDistinct). The pair → LSs index lists what a scan lists
# (DESIGN.md §11).
run_named_tests -race -count=2 -run 'TestPolytopeMinimizeReusesCompiledRows|TestPolytopeMinimizeReusesAnswer|TestPolytopeLoweringMatchesCompile|TestCutLoopOracleCounts|TestMasterWorkCounts|TestLSIndexMatchesScan|TestSeedCutsDistinct' ./internal/lp/ ./internal/core/

echo "== kept masters (-race -count=2)"
# pcfd keeps three masters at most across re-plans, shared by every row
# whose ladder holds a rung on them (PCF-CLS and PCF-LS share one priced
# master, and best's two rungs are the PCF-CLS and FFC rows'): three
# re-plans of every row, and of best answering on FFC with the PCF
# master failing at its first start, equal a one-shot solve bit for
# bit, best builds nothing after the rows that
# own its rungs, a canceled re-plan or a pricing breakdown (which serves
# the LS iterate) leaves the master reusable, concurrent solves take
# turns and agree, a finished LP solve leaves nothing of itself in the
# workspace, and a second Sprint PCF-TF re-plan allocates at most a
# quarter of the first. AddColumn re-solves warm to a cold solve's
# optimum and every row's duals price z as pricing reads them (DESIGN.md
# §11, "The kept master", "Pricing the pool"), and a solve reusing its
# last round's Solution returns what a fresh one would; these add ≈ 10 s.
# A clone written over the last re-plan's grown clone grows again with
# no allocation, solves as a fresh Clone and writes nothing the source
# shares (TestCloneInReusesGrownClone).
run_named_tests -race -count=2 -run 'TestReplansMatchOneShot|TestCanceledReplanThenFull|TestConcurrentSolvesTakeTurns|TestRowsShareRungMasters|TestReplanAllocs|TestSolverKeepsMasters|TestSolveLeavesNoStateInWorkspace|TestPricingFailureServesLSIterate|TestAddColumnWarmMatchesCold|TestReuseMatchesFreshSolution|TestMasterDualsPriceZ|TestCloneInReusesGrownClone' ./internal/serve/ ./internal/core/ ./internal/lp/

echo "== sampled-validation determinism (-race -count=2)"
# The coverage report of a sampled validation must be byte-identical
# for the same seed, run after run, regardless of sweep-worker
# scheduling (DESIGN.md §18). It must also be identical whether the
# request runs through the published engine — the designed set judged
# by the pass its publish validation kept, the draws on a fork of it —
# or through a fresh one-shot engine, on a 4-worker pool while another
# goroutine realizes beyond-budget link sets through the same engine.
# A cancellation in
# the tail sweep, at its first, a middle or its last draw, must be the
# call's error. The tail realizes one draw per class of draws and must
# report exactly what realizing every draw reports (DESIGN.md §12, "The
# sampled tail"), and the report's Total must cover the serial draw
# loop. On a validated engine the request realizes no designed
# representative; a canceled ValidateStats keeps no pass, a failing
# designed set answers every call with its first error, and two first
# calls racing on a fresh engine report alike
# (TestSampledReadsDesignedOutcome). -count=2 forces two fresh runs so
# a time- or schedule-dependent regression cannot hide behind Go's test
# result cache.
run_named_tests -race -count=2 -run 'TestSampledCoverageDeterminism|TestSamplerSeedDeterminism|TestSamplerMatchesExactTail|TestSampledOnPublishedMatchesOneShot|TestValidateSampledCanceledInTail|TestTailClassesMatchPerDraw|TestTailRealizesOnePerClass|TestValidateSampledChargesWholeCall|TestSampledReadsDesignedOutcome' ./internal/routing/ ./internal/failures/

echo "== delta validation ≡ dense (-race -count=2)"
# The sweep replays a recorded emission for every destination a scenario
# cannot change, adds to each arc the others' moved flows cross the
# change of every such flow, and takes every other verdict from the
# record; the dense path it replaced lives on as the test-file oracle
# and must agree — pairs, U and flows bit for bit, arc loads within
# their round-off bound — serially and on a forced 4-worker pool, which
# is what the race detector examines here (DESIGN.md §12). The one cold path (the
# scenario's own sparse rows, factored afresh; Realize runs it too) is
# held to the dense n×n oracle at 1e-9 with every corrected scenario
# forced cold. Outcome, what /v1/realize runs, must equal Realize + its
# MLU bit for bit on a warm, a forced-cold and a cold-only engine.
# An SMW corrector keeps only its nonzeros: it must equal the dense
# correction it replaced (linsolve's test-file oracle) under ==, with
# the same singular / ill-conditioned verdicts, and its build from
# nonzeros must equal the dense build field for field, on random
# shapes, crafted pivot ties, cancellations and both sides of the
# condition bound, and the fuzz target's seed corpus; the engine's
# inverse-column memo must hold only nonzeros; every realization of
# the four benchmark plans, prepared by eval.Prepare as the benchmark
# prepares them, must hash to their goldens (U and flows as recorded
# with the dense corrector); and a corrector-cache miss must allocate five objects at
# any rank, bytes linear in its nonzeros (skipped under -race, whose own
# allocations would count). Both checks answer a realization that does
# not fit the plan (arc count, destination or tunnel out of range) with
# an error naming it, never a panic; and the §4.2 proportional router,
# which reads its pairs of interest off the engine's closure, must hash
# to the goldens recorded before it did. A designed sweep realizes one
# scenario per class of bit-identical ones: every member must realize to
# its representative's MLU and verdict, and ValidateStats, WorstMLUStats
# and ValidateSampled must answer as the per-scenario sweep (the
# test-file referee) does, on failing plans and degraded SRLGs too.
# A low-rank scenario's arc loads are its base loads plus what changed:
# each within its round-off bound of the dense loop's, 0 exactly where
# no flow crosses, with the dense verdict wherever the bound decides
# it, and every MLU, verdict and first error a sweep, ValidateStats,
# WorstMLUStats, ValidateSampled or WorstMLUSearch reads bit-equal to a
# serial realize + judge, on the gadgets, Sprint CLS, the four benchmark
# plans and a plan crafted so an arc's low-rank and dense loads
# straddle capacity + Overload, on forced 4-worker pools.
# -count=2 keeps Go's test cache from answering for a
# schedule-dependent regression.
run_named_tests -race -count=2 -run 'TestDeltaEmissionMatchesDense|TestReplayedDestinationIsChecked|TestRecordedArcVerdicts|TestColdPathMatchesDenseOracle|TestOutcomeMatchesRealize|TestOutcomeFromKeptPass|TestSparseCorrectorMatchesDense|TestSparseCorrectorVerdicts|TestSparseBuildMatchesDenseBuild|TestSparseBuildCraftedCapacitances|FuzzCorrectorMatchesDense|TestCorrectionFingerprints|TestCorrectorFootprint|TestInverseColumnMemoHoldsNonzeros|TestCheckRejectsMisshapenRealization|TestProportionalGolden|TestClassesMatchFullSweep|TestDegradedScenariosStandAlone|TestSweptErrorsKeepTheirScenario|TestArcLoadsMatchDenseLoop' ./internal/routing/ ./internal/linsolve/ ./internal/eval/

echo "== kernel solve ≡ full LU, BTRAN ≡ dense, high-rank scenarios ≡ cold (-race -count=2)"
# lp factors only the kernel of a refactored basis (the columns left
# once every single-entry column has covered its row) and solves the
# rest by substitution; a full-basis LU sharing none of that code must
# agree to 1e-12 (DESIGN.md §17). BTRAN follows only the non-zeros of
# its input; the dense BTRAN it replaced is the test oracle, and every
# BTRAN of cold, warm and dual solves must equal it entry for entry,
# with the same pivots and bit-equal values. routing turns no scenario
# away for its correction's rank; every designed scenario of the
# benchmark's Sprint and BTNorthAmerica PCF-TF plans, k > n/2 included,
# must be served low-rank within 1e-9 of the dense oracle (DESIGN.md §12).
run_named_tests -race -count=2 -run 'TestKernelSolveMatchesFullLU|TestBTRANMatchesDenseOracle|TestBTRANWalksMatchDenseOracle|TestHighRankScenariosServedLowRank' ./internal/lp/ ./internal/routing/

echo "== tunnel search ≡ full pass, prepare fingerprints, warm confirmation (-count=2)"
# The disjoint-path search evaluates only arcs whose tail label moved and
# builds each source's first tree once; the full-pass Bellman-Ford it
# replaced is the test oracle and must give the same paths, and Select
# the same tunnel IDs, on every graph and k (DESIGN.md §11). The
# prepared instance of the benchmark's option sets and a 2 000-node
# Waxman graph is pinned by golden fingerprints, and the MLU-scaling
# confirmation must be a warm hit with no pivot. Single-threaded, so no
# -race; -count=2 keeps Go's test cache from answering.
run_named_tests -count=2 -run 'TestSearchMatchesFullPass|TestSelectMatchesFullPass|TestPrepareFingerprints|TestScaleConfirmationWarm' ./internal/tunnels/ ./internal/eval/ ./internal/mcf/

echo "== one scheme table, one PCF-CLS instance (-count=2)"
# Every row of core's scheme table must report one value, bit for bit,
# through pcfd's solve path on the instance it prepares, pcfplan's solve
# and eval.Setup.Run on all 21 topologies (FFC the paper's, best on its
# PCF-CLS rung); pcfplan -scheme best must print -scheme pcf-cls's
# value; pcfd's boot solve must leave a solve record; a setup builds the
# instance once and TopSort filters a copy; the priced PCF-CLS equals
# the full bypass pool's value to 1e-9 on btna-cls-f2, all 21
# topologies at f=1 and Fig. 12's setting (≈ 9 s). -count=2 keeps Go's
# test cache from answering.
run_named_tests -count=2 -run 'TestEntryPointsAgree|TestSolveReturnsReportedPlan|TestBootSolveLeavesSolveRecord|TestPrepareServesEvalCLS|TestBestAnswersOnCLSRung|TestCLSInstanceBuiltOnce|TestTopSortLeavesSharedInstance|TestPricedMatchesFullPool' ./cmd/pcfplan/ ./cmd/pcfd/ ./internal/eval/ ./internal/core/

echo "== 1 000-node links file plans (timeout 120 s)"
# A links file prepares without a flow LP: on topogen's 1 000-node
# Waxman output pcfplan -scheme pcf-tf prints its value in ~3 s. While
# preparation solved the exact MCF only to print its MLU, this run
# never finished.
wax=$scratch/wax
mkdir "$wax"
go build -o "$wax/pcfplan" ./cmd/pcfplan
go run ./cmd/topogen -synth waxman -nodes 1000 -pairs 250 -out "$wax/wax1k" >/dev/null
timeout 120 "$wax/pcfplan" -links "$wax/wax1k.links" -tm "$wax/wax1k.tm" -pairs 250 -scheme pcf-tf >"$wax/plan.txt"
grep -q '^PCF-TF guaranteed demand scale: ' "$wax/plan.txt"

echo "== bench smoke (-benchtime 1x)"
# Every Go benchmark once, for its tripwires: BenchmarkSolveSynth1k
# b.Fatals on a phase-1 iteration or a kernel as large as the basis,
# BenchmarkSolveBTNACLS on a cut loop whose separation oracle reuses no
# saved answer, BenchmarkValidateSweepSynth1k on a sweep that replays
# nothing or checks every arc of every scenario. BenchmarkPrepareSynth1k reports
# the cold start's prepare_ms and tunnel count.
go test -run '^$' -bench . -benchtime 1x . ./internal/core

echo "== benchmark smoke (frozen API)"
# benchmark/ may not change with the code it measures, so it compiles
# against whatever the tree exports: a renamed or re-typed function it
# calls must fail here, not in the pipeline that runs the benchmark
# afterwards. A 2-second sprint run builds it, drives every end-to-end
# phase once through the daemon's HTTP surface and checks every reply;
# a 2-second fleet run does the same through the planner, three
# replicas and the front end, the only workload that reaches fleet.
for workload in sprint-tf-f1 fleet-btna-tf-f2; do
	smoke=$(bash benchmark/run.sh --workload "$workload" --seed 1 --seconds 2 --trace 0)
	if ! printf '%s\n' "$smoke" | grep -Eq '^ops_failed +0$'; then
		echo "benchmark smoke ($workload) did not report ops_failed 0:" >&2
		printf '%s\n' "$smoke" >&2
		exit 1
	fi
done

echo "== size (scripts/loc.sh; printed, gates nothing)"
./scripts/loc.sh

echo "OK"
