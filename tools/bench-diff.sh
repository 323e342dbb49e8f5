#!/bin/sh
# Bench regression gate: runs the smoke benchmark suite and diffs its
# deterministic work counters against the committed BENCH_baseline.json,
# flagging any counter that moved by more than 30%.
#
# The smoke experiments (bench/main.ml smoke_experiments) count work in
# Stats counters — nodes scanned/copied/skipped, duplicates, index
# probes — which are deterministic for a given code revision, unlike
# ns/run figures.  Spans that contain bechamel measurements (detected by
# an ns_per_run annotation anywhere below them) accumulate counters per
# measurement iteration and are excluded from the diff; for those only
# their annotations are checked (the copykernel experiment must report
# counter_parity=true).  The workload experiment additionally reports
# per-client-count throughput (qps_cN, informational — wall-clock-bound)
# and gates buffer-pool hit rates (hit_rate_cN, wide absolute tolerance)
# and the cross-client result/counter parity flag (counter_parity).
#
# Speedup annotations (the morsel and flwor experiments) are
# achieved/required ratios: speedup_floor_* keys are gated absolutely
# (the ratio must stay >= 0.9 — morsel only emits them on hosts with
# enough cores for the target to be physically reachable; the flwor
# floor is a deterministic work ratio, compiled vs interpreter, and is
# always gated), speedup_info_* keys are reported but never gate.  The
# flwor experiment also gates counter_parity (compiled results =
# interpreter results; join-free programs counter-identical) and its
# count_work_* / count_flwor_result keys like any other counts.
#
# A gated key the baseline has and the fresh run lacks fails the gate:
# counter_parity, count_*, hit_rate* and speedup_floor_* annotations, work
# counters, and whole experiments.  A missing baseline fails too.
#
# Refreshing the baseline (after an intentional work-profile change):
#   dune exec bench/main.exe -- --smoke --json | tail -1 > BENCH_baseline.json
#
# Skips with success when python3 is missing so the script stays
# runnable in minimal images.
set -eu

cd "$(dirname "$0")/.."

if ! command -v python3 >/dev/null 2>&1; then
  echo "bench-diff: python3 not installed, skipping bench diff" >&2
  exit 0
fi

if [ ! -f BENCH_baseline.json ]; then
  echo "bench-diff: BENCH_baseline.json missing (create it with:" >&2
  echo "  dune exec bench/main.exe -- --smoke --json | tail -1 > BENCH_baseline.json)" >&2
  exit 1
fi

fresh=$(mktemp)
trap 'rm -f "$fresh"' EXIT

dune exec bench/main.exe -- --smoke --json 2>/dev/null | tail -1 > "$fresh"

python3 - "$fresh" <<'EOF'
import json
import sys

THRESHOLD = 0.30

with open("BENCH_baseline.json") as f:
    baseline = json.load(f)
with open(sys.argv[1]) as f:
    fresh = json.load(f)


def has_measurement(span):
    if "ns_per_run" in (span.get("attrs") or {}):
        return True
    return any(has_measurement(c) for c in span.get("children") or [])


def counters(span):
    work = span.get("work")
    if isinstance(work, str):
        work = json.loads(work)
    return work or {}


def gated(key):
    return (
        key == "counter_parity"
        or key.startswith("count_")
        or key.startswith("hit_rate")
        or key.startswith("speedup_floor")
    )


problems = []
base_by_name = {s["name"]: s for s in baseline}
for span in fresh:
    name = span["name"]
    base = base_by_name.get(name)
    if base is None:
        print(f"bench-diff: note: new experiment {name!r} not in baseline")
        continue
    attrs = span.get("attrs") or {}
    base_attrs = base.get("attrs") or {}
    for key in sorted(base_attrs):
        if gated(key) and key not in attrs:
            problems.append(f"{name}: gated key {key} in the baseline, missing from fresh run")
    if attrs.get("counter_parity", "true") != "true":
        problems.append(f"{name}: counter_parity is {attrs['counter_parity']}")
    if "blit_speedup" in attrs:
        print(f"bench-diff: {name}: blit_speedup {attrs['blit_speedup']}x (informational)")
    for key, val in sorted(attrs.items()):
        # throughput is wall-clock-bound: report, never gate
        if key.startswith("qps_"):
            base_v = base_attrs.get(key)
            extra = f", baseline {base_v}" if base_v is not None else ""
            print(f"bench-diff: {name}: {key} {val}{extra} (informational)")
        # hit rates depend on scheduling only mildly; gate with a wide
        # absolute tolerance to catch eviction-policy regressions (covers
        # pool-level hit_rate_cN, per-query hit_rate_tally_cN, and the
        # shard experiment's per-policy victim rates hit_rate_victim_*)
        elif key.startswith("hit_rate") and key in base_attrs:
            drift = abs(float(val) - float(base_attrs[key]))
            if drift > 0.15:
                problems.append(
                    f"{name}: {key} moved {base_attrs[key]} -> {val} (>0.15 absolute tolerance)"
                )
        # speedup floors are achieved/required ratios, only emitted when
        # the host has enough cores to reach the target: gate absolutely
        elif key.startswith("speedup_floor"):
            if float(val) < 0.9:
                problems.append(
                    f"{name}: {key} = {val} (achieved/required ratio below the 0.9 floor)"
                )
        # the same ratios on under-provisioned hosts or off-target
        # worker counts: report only
        elif key.startswith("speedup_info"):
            base_v = base_attrs.get(key)
            extra = f", baseline {base_v}" if base_v is not None else ""
            print(f"bench-diff: {name}: {key} {val}{extra} (informational)")
        # deterministic integer counts exported as annotations (store
        # faults, bytes read): gate like work counters, 30% relative
        elif key.startswith("count_") and key in base_attrs:
            base_v = float(base_attrs[key])
            if base_v != 0:
                drift = abs(float(val) - base_v) / base_v
                if drift > THRESHOLD:
                    problems.append(
                        f"{name}: {key} moved {base_attrs[key]} -> {val} ({drift:+.0%} vs {THRESHOLD:.0%} threshold)"
                    )
    if has_measurement(span):
        continue  # counters scale with bechamel iterations; not comparable
    base_work = counters(base)
    fresh_work = counters(span)
    for key in sorted(base_work):
        if key not in fresh_work:
            problems.append(f"{name}: work counter {key} in the baseline, missing from fresh run")
    for key, fresh_v in fresh_work.items():
        base_v = base_work.get(key, 0)
        if base_v == 0:
            continue
        drift = abs(fresh_v - base_v) / base_v
        if drift > THRESHOLD:
            problems.append(
                f"{name}: {key} moved {base_v} -> {fresh_v} ({drift:+.0%} vs {THRESHOLD:.0%} threshold)"
            )

missing = [n for n in base_by_name if n not in {s["name"] for s in fresh}]
for name in missing:
    problems.append(f"{name}: present in baseline but missing from fresh run")

if problems:
    print("bench-diff: work-counter regressions detected:")
    for p in problems:
        print(f"  {p}")
    print("bench-diff: if intentional, refresh the baseline:")
    print("  dune exec bench/main.exe -- --smoke --json | tail -1 > BENCH_baseline.json")
    sys.exit(1)
print("bench-diff: all work counters within threshold")
EOF
