#!/usr/bin/env bash
# Paired benchmark series: compares two checkouts of this repository
# workload by workload, the way a performance change is judged.
#
#   ci/pairs.sh PARENT CHANGE [--workloads emb-hot,rem-scan] [--pairs 10] [--seconds 14] [--trace 0] [--out DIR]
#
# PARENT and CHANGE are checkout directories (git archive or git clone;
# a worktree shares the parent's files). Each side runs its own
# benchmark/run.sh, so each is built from its own source. For every
# workload and every pair k = 1..PAIRS both sides run once with
# --seed k, back to back: odd seeds run the change first, even seeds
# the parent, so a drift of the host over the series falls on both
# sides alike. Each run is under `timeout -s QUIT` at three times its
# window: a run that hangs is killed with a goroutine dump (its .err
# file), counted as hung, and the series goes on.
#
# Every run's stdout and stderr are kept in DIR (default: a new
# directory under ${TMPDIR:-/tmp}), named WORKLOAD-SIDE-SEED.out/.err.
# At the end it prints one row per workload and end-to-end metric of
# CHANGE's BENCHMARK.json (per-layer metric, with --trace 1): the
# median parent -> change, the change's
# adverse move in % (negative = better; against the metric's direction),
# the parent's interquartile range as % of its median (quartiles as
# benchmark/spread.py takes them, statistics.quantiles' default
# exclusive method), and the pairs the change won. Runs that were not correct, had failed units, or hung are
# listed below the table and left out of it. Exit status: 0, or 1 when
# any run hung or was not correct.
set -euo pipefail

usage() {
	sed -n '4p' "$0" >&2
	exit 2
}

[ "$#" -ge 2 ] || usage
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
shift 2
workloads=$(python3 -c 'import json,sys; print(",".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$change/BENCHMARK.json")
pairs=10
seconds=14
trace=0
out=""
while [ "$#" -gt 0 ]; do
	case "$1" in
	--workloads) workloads=$2; shift 2 ;;
	--pairs) pairs=$2; shift 2 ;;
	--seconds) seconds=$2; shift 2 ;;
	--trace) trace=$2; shift 2 ;;
	--out) out=$2; shift 2 ;;
	*) usage ;;
	esac
done
[ -n "$out" ] || out=$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")
mkdir -p "$out"
limit=$(python3 -c 'import sys; print(int(float(sys.argv[1]) * 3 + 0.999))' "$seconds")

# Build both sides first, outside the timeout: run.sh builds, then the
# binary exits at -h.
for side in "$parent" "$change"; do
	(cd "$side" && bash benchmark/run.sh -h >/dev/null 2>&1) || true
done

# run SIDE NAME WORKLOAD SEED: one timed run, its exit status noted.
run() {
	local dir=$1 name=$2 wl=$3 seed=$4 status=0
	(cd "$dir" && timeout -s QUIT "$limit" bash benchmark/run.sh --workload "$wl" --seed "$seed" \
		--seconds "$seconds" --trace "$trace") >"$out/$wl-$name-$seed.out" 2>"$out/$wl-$name-$seed.err" || status=$?
	echo "$status" >"$out/$wl-$name-$seed.status"
	echo "$wl seed $seed $name: exit $status" >&2
}

for wl in ${workloads//,/ }; do
	for seed in $(seq 1 "$pairs"); do
		if [ $((seed % 2)) -eq 1 ]; then
			run "$change" change "$wl" "$seed"
			run "$parent" parent "$wl" "$seed"
		else
			run "$parent" parent "$wl" "$seed"
			run "$change" change "$wl" "$seed"
		fi
	done
done

echo "runs in $out"
exec python3 - "$out" "$change/BENCHMARK.json" "$workloads" "$pairs" "$trace" <<'EOF'
import json, os, statistics, sys

out, spec_path, workloads, pairs = sys.argv[1], sys.argv[2], sys.argv[3].split(","), int(sys.argv[4])
spec = json.load(open(spec_path))
# A traced run reports the per-layer metrics, which have no bound.
metrics = spec["per_layer"] if sys.argv[5] == "1" else spec["end_to_end"]
bad = []

def result(wl, side, seed):
    base = os.path.join(out, f"{wl}-{side}-{seed}")
    status = int(open(base + ".status").read().strip() or 0)
    line = None
    for l in open(base + ".out"):
        if l.startswith('{"correct"'):
            line = l
    if status == 124:
        bad.append(f"{wl} {side} seed {seed}: hung (killed at the limit; goroutine dump in {base}.err)")
        return None
    if line is None:
        bad.append(f"{wl} {side} seed {seed}: exit {status}, no result line")
        return None
    r = json.loads(line)
    if not r.get("correct") or r.get("failed", 0) != 0:
        bad.append(f"{wl} {side} seed {seed}: correct={r.get('correct')} failed={r.get('failed')}")
        return None
    return {k: v["value"] for k, v in r["metrics"].items()}

def fmt(v):
    if abs(v) >= 1000:
        return f"{v:,.0f}".replace(",", " ")
    return f"{v:.1f}" if abs(v) >= 10 else f"{v:.3g}"

print("| workload | metric | parent -> change (medians) | adverse move | parent IQR | pairs won |")
print("| --- | --- | --- | --- | --- | --- |")
for wl in workloads:
    runs = [(result(wl, "parent", s), result(wl, "change", s)) for s in range(1, pairs + 1)]
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        ps = [p[name] for p, c in runs if p and c and name in p and name in c]
        cs = [c[name] for p, c in runs if p and c and name in p and name in c]
        if not ps:
            continue
        pm, cm = statistics.median(ps), statistics.median(cs)
        adverse = (cm - pm) / pm * 100 if pm else 0.0
        if not lower:
            adverse = -adverse
        q = statistics.quantiles(ps, n=4) if len(ps) > 1 else [pm, pm, pm]
        iqr = (q[2] - q[0]) / pm * 100 if pm else 0.0
        won = sum(1 for p, c in zip(ps, cs) if (c < p if lower else c > p))
        bound = f" (bound {m['bound']*100:.0f} %)" if "bound" in m else ""
        print(f"| {wl} | {name} | {fmt(pm)} -> {fmt(cm)} | {adverse:+.1f} %{bound} | {iqr:.1f} % | {won}/{len(ps)} |")
for b in bad:
    print("NOT COUNTED:", b)
sys.exit(1 if bad else 0)
EOF
