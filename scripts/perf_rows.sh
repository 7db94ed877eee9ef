#!/usr/bin/env bash
# Run perfbench workloads and append their end-to-end metrics to
# BENCH_perf.json as afc-bench-v1 rows, one row per (workload, metric),
# labelled with AFC_BENCH_LABEL.
#
#   AFC_BENCH_LABEL=<label> scripts/perf_rows.sh [--tree DIR] [workload...]
#
# Each workload runs `python3 perfbench/run.py --workload W --seed 42
# --seconds 20 --trace 0` in the checkout DIR (default: this repository),
# whose perfbench builds into its own .bench_build/. The last line of the
# program's standard output is its JSON result. With no workloads named, all
# four run: randwrite_file, randwrite_flash, randread_clean, mixed_zipf.
#
# Rows always go to this repository's BENCH_perf.json. Each workload's rows
# are spliced into the document in a temp file that is then renamed into
# place, so an interrupted run leaves the old file or the new one, never a
# torn one. A run whose program exits non-zero adds no rows, and the script
# exits non-zero after the remaining workloads.
#
# To compare two revisions, export the other one (git archive) and call the
# script once per side per workload, alternating the sides so both see the
# same machine load.
set -euo pipefail

cd "$(dirname "$0")/.."
REPO="$PWD"
TREE="$REPO"
if [ "${1:-}" = "--tree" ]; then
  TREE="$(cd "$2" && pwd)"
  shift 2
fi
LABEL="${AFC_BENCH_LABEL:?set AFC_BENCH_LABEL to label the rows}"
OUT="$REPO/BENCH_perf.json"
if [ "$#" -eq 0 ]; then
  set -- randwrite_file randwrite_flash randread_clean mixed_zipf
fi

failures=0
for workload in "$@"; do
  log="$(mktemp "${TMPDIR:-/tmp}/afc-perf-rows.XXXXXX")"
  echo "running $workload in $TREE (label $LABEL)"
  if ! (cd "$TREE" && python3 perfbench/run.py --workload "$workload" --seed 42 \
          --seconds 20 --trace 0) > "$log"; then
    echo "FAILED: $workload (output in $log)"
    failures=$((failures + 1))
    continue
  fi
  python3 - "$OUT" "$LABEL" "$workload" "$log" <<'PY'
import json, os, sys, time

out, label, workload, log = sys.argv[1:]
with open(log) as f:
    result = json.loads(f.read().rstrip("\n").split("\n")[-1])
header, footer = '{"schema":"afc-bench-v1","runs":[', "]}\n"
body = header + footer
if os.path.exists(out):
    with open(out) as f:
        body = f.read()
cut = body.rfind(footer)
if not body.startswith(header) or cut < 0:
    sys.exit("perf_rows: %s is not an afc-bench-v1 document" % out)
rows = []
for metric, m in result["metrics"].items():
    rows.append(json.dumps({
        "bench": "perfbench", "config": "%s seed 42 20s trace 0" % workload,
        "label": label, "utc": int(time.time()), "workload": workload,
        "metric": metric, "value": m["value"], "unit": m["unit"],
        "attempted": result["attempted"], "failed": result["failed"],
    }, separators=(",", ":")))
first = body[cut - 1] == "["
entry = ("\n" if first else ",\n") + ",\n".join(rows) + "\n"
body = body[:cut] + entry + body[cut:]
tmp = out + ".tmp"
with open(tmp, "w") as f:
    f.write(body)
os.replace(tmp, out)
print("appended %d rows for %s to %s" % (len(rows), workload, out))
PY
  rm -f "$log"
done
[ "$failures" -eq 0 ]
