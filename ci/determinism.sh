#!/usr/bin/env bash
# Determinism matrix: every way of scheduling a sweep must give the
# serial reference's bytes.
#
# Run from the repository root:
#
#     PYTHONPATH=src bash ci/determinism.sh [OUT_DIR]
#
# Sweep artifacts land in OUT_DIR (default: ci-out/).  The script exits
# non-zero at the first `cmp`, `grep` or assert that fails.
#
# Sections:
#   1. lowered == disable_lowering() on the perf-gate scenarios (for
#      ext-faults also its trace and sim metrics, and an untraced
#      ext-faults result equal to the traced one), and the fig4/fig7
#      goldens;
#   2. fig7 over a transport x {plain, obs, telemetry, chaos} matrix
#      (process with a crash, tcp with a SIGKILL): result JSON, trace
#      and sim metrics must `cmp` equal to the serial run's;
#   3. warm-cache resume, a fabric resume from a serial run's cache,
#      cache keys that follow model edits and ignore tooling edits, a
#      remote TCP worker joining mid-run, and the handshake gate
#      refusing a wrong token and a checkout with edited model code;
#   4. the runtime telemetry plane's outputs: the run directory holds
#      only the span file, the timeline and the progress file, and every
#      worker's lane holds cells (process and tcp), then summary and
#      tail on a serial, a process and a tcp run;
#   5. reruns, trace lint and report byte-stability on fig4, fig7 and
#      ext-faults, and ext-faults' Chrome trace cold, from a warm cache
#      and over two fabric workers;
#   6. every registered scenario, traced, over two fabric workers:
#      result JSON, trace and sim metrics must `cmp` equal to the
#      serial run's.
set -euo pipefail

OUT=${1:-ci-out}
rm -rf "$OUT"
mkdir -p "$OUT"

# sweep NAME SCENARIO FLAGS...: one --seeds 2 sweep, result JSON in
# $OUT/NAME.json and stdout in $OUT/NAME.log.
sweep() {
  local name=$1 scenario=$2
  shift 2
  echo "== $name: $scenario $*"
  python -m repro.experiments "$scenario" --seeds 2 --no-bench \
    --json "$OUT/$name.json" "$@" > "$OUT/$name.log"
}

# traced NAME SCENARIO FLAGS...: sweep with the obs session on.
traced() {
  local name=$1 scenario=$2
  shift 2
  sweep "$name" "$scenario" --trace "$OUT/$name.jsonl" \
    --metrics-json "$OUT/$name-metrics.json" "$@"
}

# same_obs REF NAME: result, trace and sim metrics all byte-equal.
same_obs() {
  cmp "$OUT/$1.json" "$OUT/$2.json"
  cmp "$OUT/$1.jsonl" "$OUT/$2.jsonl"
  cmp "$OUT/$1-metrics.json" "$OUT/$2-metrics.json"
}

echo "## 1. lowering oracle and goldens"
python - <<'EOF'
import json
from repro.experiments.executor import execute_sweep
from repro.experiments.scenarios import get_scenario
from repro.simkernel.plan import disable_lowering
# fig8, fig9 and ablation-history run the windowed and
# hyperexponential policies the bounded decision scan serves;
# ext-spawn and ext-contracts run the spawn and contract SWAP variants;
# ext-faults runs the fault branch of every strategy, and fig6 CR and
# DLB at 1 GB state.
for name in ("fig4", "fig6", "fig7", "fig8", "fig9", "ablation-history",
             "ext-spawn", "ext-contracts", "ext-faults"):
    spec = get_scenario(name)
    fast, timing = execute_sweep(spec, seeds=2)
    with disable_lowering():
        ref, _ = execute_sweep(spec, seeds=2)
    dumped = json.dumps(fast.to_dict(), sort_keys=True, indent=2) + "\n"
    assert dumped == json.dumps(ref.to_dict(), sort_keys=True,
                                indent=2) + "\n", f"{name}: lowered != scalar"
    if name in ("fig4", "fig7"):
        golden = open(f"tests/experiments/goldens/{name}-seeds2.json").read()
        assert dumped == golden, f"{name}: drifted from committed golden"
    assert timing.engine_events > 0, f"{name}: engine events not counted"
    print(f"{name}: byte-identical, "
          f"{timing.iterations_per_sec:.0f} it/s, "
          f"{timing.engine_events} kernel events")
EOF

# The fault path is lowered too: its revocation, stall and recovery
# records must come out of both bindings byte for byte.
traced faults-lowered ext-faults --no-cache
python - "$OUT" > "$OUT/faults-oracle.log" <<'EOF'
import sys
from repro.experiments.cli import main
from repro.simkernel.plan import disable_lowering
out = sys.argv[1]
with disable_lowering():
    code = main(["ext-faults", "--seeds", "2", "--no-bench", "--no-cache",
                 "--json", f"{out}/faults-oracle.json",
                 "--trace", f"{out}/faults-oracle.jsonl",
                 "--metrics-json", f"{out}/faults-oracle-metrics.json"])
sys.exit(code)
EOF
same_obs faults-lowered faults-oracle
# Tracing must not change a faulted result: the untraced sweep's JSON
# is the traced one's byte for byte.
sweep faults-plain ext-faults --no-cache
cmp "$OUT/faults-lowered.json" "$OUT/faults-plain.json"

echo "## 2. fig7 transport matrix"
sweep serial fig7 --no-cache --jobs 1
traced serial-obs fig7 --no-cache --jobs 1 \
  --runtime-telemetry "$OUT/rt-serial"
cmp "$OUT/serial.json" "$OUT/serial-obs.json"

# name|flags|chaos spec
MATRIX=(
  "process|--jobs 4|crash:0:2"
  "tcp|--jobs 2 --fabric-transport tcp|kill:0:2"
)
for row in "${MATRIX[@]}"; do
  IFS='|' read -r name flags chaos <<< "$row"
  read -r -a argv <<< "$flags"
  sweep "$name" fig7 --no-cache "${argv[@]}"
  cmp "$OUT/serial.json" "$OUT/$name.json"
  traced "$name-obs" fig7 --no-cache "${argv[@]}"
  same_obs serial-obs "$name-obs"
  # The wall-clock plane must not touch a single sim-time byte.
  traced "$name-telemetry" fig7 --no-cache "${argv[@]}" \
    --runtime-telemetry "$OUT/rt-$name" --progress
  same_obs serial-obs "$name-telemetry"
  sweep "$name-chaos" fig7 --no-cache "${argv[@]}" --fabric-chaos "$chaos"
  cmp "$OUT/serial.json" "$OUT/$name-chaos.json"
  grep -q " 1 worker(s) lost" "$OUT/$name-chaos.log"
done

echo "## 3. warm resume, remote join, handshake gate"
sweep fabric-cold fig7 --cache-dir "$OUT/fabric-cache" --jobs 4
sweep fabric-warm fig7 --cache-dir "$OUT/fabric-cache" --jobs 4
grep -q "; 0/20 cells computed" "$OUT/fabric-warm.log"
cmp "$OUT/fabric-cold.json" "$OUT/fabric-warm.json"
cmp "$OUT/serial.json" "$OUT/fabric-warm.json"
# Mixed writers: a serial run's segment serves the fabric's resume.
sweep mixed-serial fig7 --cache-dir "$OUT/mixed-cache" --jobs 1 --seeds 1
sweep mixed-resume fig7 --cache-dir "$OUT/mixed-cache" --jobs 4
grep -q "; 10/20 cells computed" "$OUT/mixed-resume.log"
cmp "$OUT/serial.json" "$OUT/mixed-resume.json"
# Cache keys cover the model's source and nothing else: a checkout
# with one comment added to a strategy recomputes every cell (to the
# same bytes) without evicting the real checkout's, and one whose only
# edit is in a tooling module hits them all.
for copy in diverged tooling-edit; do
  mkdir -p "$OUT/$copy"
  cp -r src "$OUT/$copy/src"
done
echo "# diverged" >> "$OUT/diverged/src/repro/strategies/dlb.py"
echo "# edited" >> "$OUT/tooling-edit/src/repro/obs/report.py"
PYTHONPATH="$OUT/diverged/src" sweep diverged fig7 \
  --cache-dir "$OUT/fabric-cache"
grep -q "; 20/20 cells computed" "$OUT/diverged.log"
cmp "$OUT/serial.json" "$OUT/diverged.json"
sweep fabric-rewarm fig7 --cache-dir "$OUT/fabric-cache" --jobs 4
grep -q "; 0/20 cells computed" "$OUT/fabric-rewarm.log"
PYTHONPATH="$OUT/tooling-edit/src" sweep tooling-edit fig7 \
  --cache-dir "$OUT/fabric-cache"
grep -q "; 0/20 cells computed" "$OUT/tooling-edit.log"

python -m repro.experiments.fabric worker 127.0.0.1:39218 \
  --token ci-secret --retry-for 60 &
WORKER=$!
sweep tcp-join fig7 --no-cache --jobs 1 --fabric-transport tcp \
  --listen 127.0.0.1:39218 --fabric-token ci-secret
wait $WORKER
cmp "$OUT/serial.json" "$OUT/tcp-join.json"

DIVERGED="$OUT/diverged/src" python - <<'EOF'
import os, subprocess, sys, time
from repro.experiments.fabric import (COORDINATOR, WELCOME,
                                      Envelope, HandshakeInfo,
                                      TcpTransport,
                                      welcome_payload)
from repro.experiments.scenarios import get_scenario

def refuse(info, token, expect, pump_welcome=False, env=None):
    transport = TcpTransport(info, listen="127.0.0.1:0")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.experiments.fabric",
         "worker", transport.address, "--token", token],
        stderr=subprocess.PIPE, text=True, env=env)
    while proc.poll() is None:
        for channel, _hello in transport.poll_peers():
            if pump_welcome:
                channel.send(Envelope(
                    kind=WELCOME, sender=COORDINATOR,
                    payload=welcome_payload(info, "w0")))
        time.sleep(0.02)
    err = proc.stderr.read()
    transport.close()
    assert proc.returncode == 2, (proc.returncode, err)
    assert expect in err, err
    assert "Traceback" not in err, err
    print(f"refused cleanly: {expect!r}")

fig7 = get_scenario("fig7")
good = HandshakeInfo(token="s3cret", scenario="fig7",
                     fingerprint=fig7.fingerprint())
refuse(good, "wrong-token", "bad token")
# A worker run from the checkout with the edited strategy.
refuse(good, "s3cret", "fingerprint mismatch", pump_welcome=True,
       env=dict(os.environ, PYTHONPATH=os.environ["DIVERGED"]))
EOF

echo "## 4. runtime telemetry exports"
# Workers write no telemetry: the coordinator's one span file holds
# every worker's cells, each on that worker's lane.
for name in process tcp; do
  python -m repro.obs timeline "$OUT/rt-$name" \
    --out "$OUT/fleet-$name.trace.json"
  RUN="$OUT/rt-$name" FLEET="$OUT/fleet-$name.trace.json" python - <<'EOF'
import json, os, pathlib
names = sorted(p.name for p in pathlib.Path(os.environ["RUN"]).iterdir())
assert names == ["progress.json", "spans.jsonl", "timeline.trace.json"], names
events = json.load(open(os.environ["FLEET"]))["traceEvents"]
lanes = {e["pid"]: e["args"]["name"] for e in events if e["ph"] == "M"}
assert "coordinator" in lanes.values(), lanes
workers = {pid for pid, name in lanes.items() if name.startswith("worker ")}
computed = {e["pid"] for e in events
            if e["ph"] == "X" and e["name"] == "cell.compute"}
assert workers and workers <= computed, (lanes, computed)
EOF
done
for name in serial process tcp; do
  python -m repro.obs runtime-summary "$OUT/rt-$name"
  python -m repro.obs tail "$OUT/rt-$name"
done

echo "## 5. reruns, trace lint, report byte-stability"
traced fig4-1 fig4 --no-cache
traced fig4-2 fig4 --no-cache
cmp "$OUT/fig4-1.jsonl" "$OUT/fig4-2.jsonl"
cmp "$OUT/fig4-1-metrics.json" "$OUT/fig4-2-metrics.json"
sweep fig4-chrome fig4 --no-cache --trace "$OUT/fig4-chrome.json" \
  --trace-format chrome
CHROME="$OUT/fig4-chrome.json" python -c "import json, os; d = json.load(open(os.environ['CHROME'])); assert d['traceEvents'], 'empty trace'"

python -m repro.obs lint "$OUT/serial-obs.jsonl" \
  --metrics "$OUT/serial-obs-metrics.json"
for i in 1 2; do
  python -m repro.obs report "$OUT/serial-obs.jsonl" \
    --metrics "$OUT/serial-obs-metrics.json" --out "$OUT/report-$i" --strict
done
cmp "$OUT/report-1/report.md" "$OUT/report-2/report.md"
cmp "$OUT/report-1/gantt.svg" "$OUT/report-2/gantt.svg"
for jobs in 1 4; do
  sweep "report-j$jobs" fig7 --cache-dir "$OUT/report-cache" --jobs "$jobs" \
    --report "$OUT/report-j$jobs"
done
cmp "$OUT/report-j1/report.md" "$OUT/report-j4/report.md"
cmp "$OUT/report-j1/gantt.svg" "$OUT/report-j4/gantt.svg"

traced faults-1 ext-faults --no-cache
traced faults-2 ext-faults --no-cache
cmp "$OUT/faults-1.jsonl" "$OUT/faults-2.jsonl"
cmp "$OUT/faults-1-metrics.json" "$OUT/faults-2-metrics.json"
for jobs in 1 4; do
  sweep "faults-j$jobs" ext-faults --cache-dir "$OUT/fault-cache" \
    --jobs "$jobs" --trace "$OUT/faults-j$jobs.jsonl"
done
cmp "$OUT/faults-j1.jsonl" "$OUT/faults-j4.jsonl"
cmp "$OUT/faults-1.jsonl" "$OUT/faults-j1.jsonl"
# Trace rows read back from the cache or from a worker export as the
# computed ones do, in the Chrome format too: cold, warm (every cell a
# hit from the runs above) and over two fabric workers.
for run in "cold|--no-cache" "warm|--cache-dir $OUT/fault-cache" \
           "j2|--no-cache --jobs 2"; do
  IFS='|' read -r name flags <<< "$run"
  read -r -a argv <<< "$flags"
  sweep "faults-chrome-$name" ext-faults "${argv[@]}" \
    --trace "$OUT/faults-chrome-$name.json" --trace-format chrome
done
grep -q "; 0/12 cells computed" "$OUT/faults-chrome-warm.log"
cmp "$OUT/faults-chrome-cold.json" "$OUT/faults-chrome-warm.json"
cmp "$OUT/faults-chrome-cold.json" "$OUT/faults-chrome-j2.json"
# The TL rules on a faulted trace: TL005 against its sim metrics,
# TL007 on its fault records.
python -m repro.obs lint "$OUT/faults-1.jsonl" \
  --metrics "$OUT/faults-1-metrics.json"

echo "## 6. every scenario: serial vs two fabric workers"
SCENARIOS=$(python -c "from repro.experiments.scenarios import ALL_SCENARIOS; print(' '.join(sorted(ALL_SCENARIOS)))")
for scenario in $SCENARIOS; do
  traced "all-$scenario-j1" "$scenario" --no-cache --jobs 1
  traced "all-$scenario-j2" "$scenario" --no-cache --jobs 2
  same_obs "all-$scenario-j1" "all-$scenario-j2"
done

echo "determinism matrix: all comparisons byte-identical"
