#!/usr/bin/env bash
# ci.sh — the repo's full verification gate.
#
#   fmt        gofmt -l must be empty (formatting is part of the gate)
#   vet        static checks
#   build      every package compiles
#   race tests the whole suite under the race detector with shuffled
#              test order (the parallel sweep runner makes this the
#              load-bearing pass; shuffling flushes out inter-test
#              state)
#   alloc gate the zero-alloc budgets of the data-plane hot paths,
#              run WITHOUT the race detector (race instrumentation
#              allocates, so the budgets only hold in a plain build)
#   fuzz smoke a short coverage-guided run of each fuzz target on top
#              of the checked-in seed corpus
#
# Usage: scripts/ci.sh [--no-fuzz]
#   FUZZTIME=30s scripts/ci.sh   # longer fuzz smoke
set -euo pipefail
cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-10s}"
RUN_FUZZ=1
if [[ "${1:-}" == "--no-fuzz" ]]; then
    RUN_FUZZ=0
fi

echo "==> gofmt -l"
UNFORMATTED="$(gofmt -l .)"
if [[ -n "$UNFORMATTED" ]]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go test -race -shuffle=on ./..."
# The experiments suite runs whole simulation sweeps; under the race
# detector on a small machine that legitimately exceeds go test's
# default 10m budget.
go test -race -shuffle=on -timeout=60m ./...

echo "==> go test -run Acyclic ./internal/routing/cdg (deadlock-freedom gate)"
# Every shipped routing engine must stay provably deadlock-free: the
# channel-dependency graphs of the irregular, fat-tree and dragonfly
# engines are re-verified acyclic across the seeded shape grid.
go test -run 'Acyclic' -count=1 ./internal/routing/cdg

echo "==> go test -race -run TestParallelShard ./internal/fabric (sharded-core race gate)"
# The conservative-lookahead window protocol is only correct if shards
# share nothing inside a window; the multi-shard smoke under the race
# detector is the proof obligation (-count=1 so it always re-runs).
go test -race -run 'TestParallelShard' -count=1 ./internal/fabric

echo "==> go test -race -run TestParallelControl ./internal/experiments (control-lane race gate)"
# Churn and faults run their control planes — mid-run table programs,
# retransmission, audits — as typed events serialized at window
# barriers; the multi-shard churn/faults smoke under the race detector
# proves the control lane never touches shard state inside a window.
go test -race -run 'TestParallelControl' -count=1 ./internal/experiments

echo "==> go test -run AllocBudget . (zero-alloc hot-path gate)"
# testing.AllocsPerRun budgets: 0 allocs/op on arbiter pick and on a
# full per-hop packet forwarding step with metrics disabled.  Must run
# without -race (the detector's instrumentation allocates).
go test -run 'AllocBudget' -count=1 .

if [[ "$RUN_FUZZ" -eq 1 ]]; then
    # -fuzz takes one target per invocation; -run='^$' skips the unit
    # tests already covered by the race pass.
    while read -r pkg target; do
        echo "==> fuzz smoke: $pkg $target ($FUZZTIME)"
        go test "$pkg" -run='^$' -fuzz="^${target}\$" -fuzztime="$FUZZTIME"
    done <<'EOF'
./internal/core FuzzAllocatorTrace
./internal/core FuzzShape
./internal/mad FuzzHighTableDecode
./internal/faults FuzzFaultSchedule
./internal/faults FuzzFailureSchedule
./internal/topology FuzzTopologyGenerate
./internal/fabric FuzzISLIPSchedule
./internal/plan FuzzPlanSpec
EOF
fi

echo "==> ibsim -exp faults -scale tiny (smoke)"
go run ./cmd/ibsim -exp faults -scale tiny >/dev/null

echo "==> ibsim -exp failover -scale tiny (live-failure recovery smoke, -race)"
# Failure recovery rewires routes, drains buffers and reprograms
# tables mid-run; the smoke runs it under the race detector so the
# engine-confined design stays honest.
go run -race ./cmd/ibsim -exp failover -scale tiny >/dev/null

echo "==> ibsim -exp scale -scale tiny (smoke)"
go run ./cmd/ibsim -exp scale -scale tiny >/dev/null

echo "==> ibsim -exp hol -scale tiny (smoke)"
go run ./cmd/ibsim -exp hol -scale tiny >/dev/null

echo "==> ibsim -exp plan -scale tiny (analytical capacity-plan smoke)"
go run ./cmd/ibsim -exp plan -scale tiny >/dev/null

echo "==> ibsim scale/hol/churn/faults -shard-det sweep (det mode must match -shards 1)"
# The deterministic shard mode pins every shard to one engine, so each
# sweep's output must stay byte-identical at every shard count.
for exp in scale hol churn faults; do
    go run ./cmd/ibsim -exp "$exp" -scale tiny -shards 1 -shard-det > /tmp/ci_det_base.out
    for n in 2 4 8; do
        go run ./cmd/ibsim -exp "$exp" -scale tiny -shards "$n" -shard-det > /tmp/ci_det_n.out
        diff /tmp/ci_det_base.out /tmp/ci_det_n.out
    done
done
rm -f /tmp/ci_det_base.out /tmp/ci_det_n.out

echo "==> ibsim -exp shardbench (parallel core smoke)"
go run ./cmd/ibsim -exp shardbench -bench-shards 1,4 -bench-horizon 200000 >/dev/null

echo "==> ci.sh: all green"
