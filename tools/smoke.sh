#!/usr/bin/env bash
# Smoke check for the experiment/bench path: full build, the complete test
# suite, static verification, then the Table 1, cycle-accounting and
# static-dependence sections of the bench harness
# through the unified experiment engine (serial, so the output is stable).
# The account section writes bench/account.json and exits non-zero if any
# record violates the conservation invariant (categories summing to
# PUs x cycles); the deps section writes bench/deps.json and exits non-zero
# if any observed cross-task memory dependence escaped the static analyzer
# (dep/sound).  Either failure fails the smoke.  A final perf gate re-times
# the figure5 report against the committed BENCH_figure5.json baseline and
# fails if it has regressed by more than 10%.  Run from anywhere:
#
#   tools/smoke.sh
#
# Each phase runs as a named step: the banner identifies the phase and the
# script stops at the first failing one, so a red smoke names its culprit.
#
# The bench-section checks are also wired as dune aliases:
#
#   dune build @bench-smoke   # table1 + account sections
#   dune build @deps-smoke    # static-dependence soundness section
#   dune build @absint-smoke  # flow-sensitive refinement precision section
#   dune build @cost-smoke    # static cost-model quality section
#   dune build @fuzz-smoke    # differential fuzzing over the synth corpus
#   dune build @lint          # static verification of every plan
set -euo pipefail
cd "$(dirname "$0")/.."

step() {
  local name=$1
  shift
  echo "== smoke: $name =="
  "$@" || { echo "smoke: FAILED at $name" >&2; exit 1; }
}

step build dune build
step tests dune runtest
step lint dune build @lint
step bench env HARNESS_JOBS=1 dune exec bench/main.exe -- table1 account
step deps env HARNESS_JOBS=1 dune exec bench/main.exe -- deps
step absint env HARNESS_JOBS=1 dune exec bench/main.exe -- absint
step cost env HARNESS_JOBS=1 dune exec bench/main.exe -- cost
# differential fuzzing, fail-fast: a fixed 200-program corpus through every
# level with the full oracle stack; on any violation msc fuzz shrinks the
# offender, prints the reproducer path under /tmp/msc_fuzz_smoke and exits
# non-zero (parallel jobs are fine here — results are job-count invariant)
step fuzz dune exec bin/msc.exe -- fuzz --seed 42 -n 200 --out /tmp/msc_fuzz_smoke

# belt and braces: re-derive the conservation check from the exported JSON,
# independently of the bench process that wrote it
check_account_json() {
  grep -q '"accounts":' bench/account.json || {
    echo "smoke: bench/account.json missing breakdown records" >&2
    return 1
  }
  if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
import json, sys
accounts = json.load(open("bench/account.json"))["accounts"]
cats = ["useful", "ctrl_squash", "data_wait", "mem_squash",
        "load_imbalance", "overhead", "idle"]
bad = [a for a in accounts
       if sum(a[c] for c in cats) != a["budget"]
       or any(a[c] < 0 for c in cats)]
for a in bad[:10]:
    print("smoke: conservation violated: %s %s %dPU" %
          (a["workload"], a["level"], a["num_pus"]), file=sys.stderr)
if bad:
    sys.exit(1)
print("smoke: conservation re-verified for %d records" % len(accounts))
EOF
  fi
}

# same for the dependence export: soundness means every observed pair is
# predicted, record by record
check_deps_json() {
  grep -q '"deps":' bench/deps.json || {
    echo "smoke: bench/deps.json missing dependence summaries" >&2
    return 1
  }
  if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
import json, sys
deps = json.load(open("bench/deps.json"))["deps"]
bad = [d for d in deps
       if d["violations"] != 0 or d["predicted_hit"] != d["observed"]]
for d in bad[:10]:
    print("smoke: dep/sound violated: %s %s" %
          (d["workload"], d["level"]), file=sys.stderr)
if bad:
    sys.exit(1)
print("smoke: dep soundness re-verified for %d records" % len(deps))
EOF
  fi
}

# and for the precision export: the refinement bound must hold row by row
# (refined mem edges never above the flow-insensitive baseline) and the
# suite-wide refinement must actually prune something
check_absint_json() {
  grep -q '"precision":' bench/absint.json || {
    echo "smoke: bench/absint.json missing precision rows" >&2
    return 1
  }
  if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
import json, sys
doc = json.load(open("bench/absint.json"))
rows = doc["precision"]
bad = [r for r in rows if r["mem_edges"] > r["fi_mem_edges"]
       or r["pruned"] != r["fi_mem_edges"] - r["mem_edges"]]
for r in bad[:10]:
    print("smoke: absint/refines violated: %s %s (%d > %d)" %
          (r["workload"], r["level"], r["mem_edges"], r["fi_mem_edges"]),
          file=sys.stderr)
if bad:
    sys.exit(1)
fi = sum(r["fi_mem_edges"] for r in rows)
ab = sum(r["mem_edges"] for r in rows)
total = doc["total"]
if (fi, ab) != (total["fi_mem_edges"], total["mem_edges"]):
    sys.exit("smoke: absint totals disagree with rows: %d/%d vs %s" %
             (fi, ab, total))
if ab >= fi:
    sys.exit("smoke: refinement pruned nothing suite-wide (%d >= %d)" %
             (ab, fi))
print("smoke: absint precision re-verified for %d rows: %d -> %d mem edges"
      % (len(rows), fi, ab))
EOF
  fi
}

# and for the cost export: re-derive the predicted-vs-measured data_wait
# Pearson from bench/cost.json joined against bench/account.json, fully
# independently of the OCaml Stat.pearson that computed the shipped value,
# and re-check the correlation and feedback gates from the raw numbers
check_cost_json() {
  grep -q '"cost":' bench/cost.json || {
    echo "smoke: bench/cost.json missing cost rows" >&2
    return 1
  }
  if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
import json, math, sys
cost = json.load(open("bench/cost.json"))
accounts = json.load(open("bench/account.json"))["accounts"]
meas = {(a["workload"], a["level"]): a["data_wait"] / a["budget"]
        for a in accounts if a["num_pus"] == 8 and not a["in_order"]}
def pearson(pts):
    n = len(pts)
    mx = sum(x for x, _ in pts) / n
    my = sum(y for _, y in pts) / n
    vx = sum((x - mx) ** 2 for x, _ in pts)
    vy = sum((y - my) ** 2 for _, y in pts)
    cov = sum((x - mx) * (y - my) for x, y in pts)
    if vx <= 0 or vy <= 0:
        sys.exit("smoke: degenerate series in cost join")
    return cov / math.sqrt(vx * vy)
shipped = {(c["level"], c["category"]): c["pearson"]
           for c in cost["correlation"]}
for level in ["cf", "dd", "ts"]:
    pts = [(r["pred_data_wait"], meas[(r["workload"], r["level"])])
           for r in cost["cost"]
           if r["level"] == level and r["num_pus"] == 8
           and not r["in_order"] and (r["workload"], r["level"]) in meas]
    if len(pts) < 2:
        sys.exit("smoke: too few joined rows at level %s" % level)
    r = pearson(pts)
    want = shipped.get((level, "data_wait"))
    if want is None or abs(r - want) > 1e-6:
        sys.exit("smoke: %s data_wait pearson mismatch: re-derived %+.6f, "
                 "shipped %s" % (level, r, want))
    if r < 0.5:
        sys.exit("smoke: %s data_wait pearson %+.3f < +0.5" % (level, r))
geo = {g["level"]: g["geomean"] for g in cost["geomean_ipc"]}
if not ("fb" in geo and "ts" in geo and geo["fb"] > geo["ts"]):
    sys.exit("smoke: fb geomean %s does not beat ts geomean %s" %
             (geo.get("fb"), geo.get("ts")))
print("smoke: cost model re-verified: data_wait r matches and >= +0.5 at "
      "cf/dd/ts; fb geomean %.3f > ts %.3f" % (geo["fb"], geo["ts"]))
EOF
  fi
}

step account-json check_account_json
step deps-json check_deps_json
step absint-json check_absint_json
step cost-json check_cost_json

# service smoke: boot the mscd daemon on a throwaway socket, drive it with
# the deterministic load generator, verify the run from the machine-readable
# report (zero errors, dedup observed, tail latency present), then check the
# SIGTERM drain path exits cleanly
check_service() {
  local sock report daemon_log pid
  sock=$(mktemp -u /tmp/mscd-smoke-XXXXXX.sock)
  report=/tmp/mscd_smoke_loadgen.json
  daemon_log=/tmp/mscd_smoke_daemon.log
  dune exec bin/msc.exe -- daemon --socket "$sock" >"$daemon_log" 2>&1 &
  pid=$!
  local i=0
  until [ -S "$sock" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ] || ! kill -0 "$pid" 2>/dev/null; then
      echo "smoke: mscd did not come up on $sock" >&2
      cat "$daemon_log" >&2
      return 1
    fi
    sleep 0.1
  done
  if ! dune exec tools/loadgen.exe -- --socket "$sock" -n 600 -c 8 \
      --seed 42 --json "$report"; then
    echo "smoke: loadgen reported request failures" >&2
    kill -TERM "$pid" 2>/dev/null || true
    return 1
  fi
  if command -v python3 >/dev/null 2>&1; then
    python3 - "$report" <<'EOF' || { kill -TERM "$pid" 2>/dev/null || true; return 1; }
import json, sys
r = json.load(open(sys.argv[1]))
if r["requests"] < 500:
    sys.exit("smoke: loadgen sent only %d requests (< 500)" % r["requests"])
if r["errors"] != 0:
    sys.exit("smoke: service returned %d errors" % r["errors"])
server = r["server"]
if not isinstance(server, dict) or server.get("dedup_hits", 0) <= 0:
    sys.exit("smoke: no server-side dedup hits on a repeating key space")
lat = r["latency"]
for q in ("p50", "p99"):
    if not isinstance(lat.get(q), (int, float)) or lat[q] <= 0:
        sys.exit("smoke: loadgen latency report missing %s" % q)
print("smoke: service served %d requests, 0 errors, %d dedup hits, "
      "p50 %.0fus p99 %.0fus" %
      (r["requests"], server["dedup_hits"], lat["p50"], lat["p99"]))
EOF
  fi
  kill -TERM "$pid"
  local rc=0
  wait "$pid" || rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "smoke: mscd SIGTERM drain exited $rc (want 0)" >&2
    cat "$daemon_log" >&2
    return 1
  fi
  if [ -S "$sock" ]; then
    echo "smoke: mscd left its socket behind after drain" >&2
    return 1
  fi
  echo "smoke: mscd drained cleanly on SIGTERM"
}

step service check_service

# perf gate: the event core must not quietly regress.  Re-time the figure5
# report and fail fast if it runs more than 10% slower than the committed
# BENCH_figure5.json baseline (scaled comparisons are meaningless across
# machines, so the gate only fires when a baseline exists).
check_perf() {
  if [ ! -f BENCH_figure5.json ]; then
    echo "smoke: no BENCH_figure5.json baseline; skipping perf gate"
    return 0
  fi
  dune exec bin/msc.exe -- bench-time -o /tmp/bench_figure5_now.json \
    >/dev/null
  python3 - <<'EOF'
import json, sys
def section(path, name):
    for s in json.load(open(path))["sections"]:
        if s["section"] == name:
            return s["seconds"]
    return None
for name in ["figure5", "cost"]:
    base = section("BENCH_figure5.json", name)
    if base is None:
        # older baselines predate the cost section; only figure5 is mandatory
        if name == "figure5":
            sys.exit("smoke: BENCH_figure5.json has no figure5 section")
        print("smoke: baseline has no %s section; skipping" % name)
        continue
    now = section("/tmp/bench_figure5_now.json", name)
    if now is None:
        sys.exit("smoke: fresh timing has no %s section" % name)
    if now > base * 1.10:
        sys.exit("smoke: %s perf regression: %.2fs now vs %.2fs baseline "
                 "(>10%% slower)" % (name, now, base))
    print("smoke: %s %.2fs vs %.2fs baseline: within 10%%" % (name, now, base))
# parallel gate, from the fresh timing alone: when the host has more than
# one core, the work-stealing figure5 run must not lose to the serial one
fresh = json.load(open("/tmp/bench_figure5_now.json"))["sections"]
par = next((s for s in fresh if s["section"] == "figure5_parallel"), None)
if par is None:
    sys.exit("smoke: fresh timing has no figure5_parallel section")
serial = next(s["seconds"] for s in fresh if s["section"] == "figure5")
if par["jobs"] > 1 and par["seconds"] > serial:
    sys.exit("smoke: parallel figure5 (%d jobs) slower than serial: "
             "%.2fs vs %.2fs" % (par["jobs"], par["seconds"], serial))
print("smoke: figure5 parallel %.2fs (jobs=%d) vs serial %.2fs: ok"
      % (par["seconds"], par["jobs"], serial))
EOF
}

step perf check_perf

echo "smoke: OK"
