#!/bin/sh
# Usage: tools/output_digests.sh <tree> <workdir>
#
# Runs a fixed-seed set of gen/train/detect/probe/ablate/gradcheck commands
# with <tree>/src on PYTHONPATH, once at OPENBLAS_NUM_THREADS=1 and once at 2,
# writing everything under <workdir>/threads_1 and <workdir>/threads_2
# (<workdir> is emptied first). It prints "sha256  path" for every output of
# the first run, gradcheck's stdout included, and then for every run manifest,
# whose digest covers only its deterministic fields (subcommand, seed, config,
# outputs, status, error), not the git revision, wall time or machine facts.
# Two trees that compute the same results print the same lines. If the two
# thread counts give different lines, it prints those that differ and exits 1.
set -eu
[ $# -eq 2 ] || { echo "usage: $0 <tree> <workdir>" >&2; exit 1; }
tree=$(cd "$1" && pwd)
rm -rf "$2"
mkdir -p "$2"
work=$(cd "$2" && pwd)
shiftssd() { PYTHONPATH="$tree/src" python3 -m shiftssd.cli "$@"; }

# the 96-point two-stage layout of tests/test_cli.py
cat > "$work/small.json" <<'JSON'
{
 "synth": {"extent": 14.0, "points_per_scene": 96, "noise_points": 48,
  "objects_min": 1, "objects_max": 2, "classes": [
   {"name": "crate", "mean_size": [2.0, 1.2, 1.0], "size_jitter": [0.2, 0.1, 0.1]},
   {"name": "post", "mean_size": [0.6, 0.6, 1.6], "size_jitter": [0.05, 0.05, 0.1]}]},
 "model": {"stage_points": [24, 8], "stage_ssa": [
   {"scales": [{"radius": 1.0, "k": 4, "mlp": [8]}, {"radius": 2.0, "k": 8, "mlp": [8]}],
    "shift_ratio": 0.125, "aggregation": [12], "exchange_op": "cs", "selection": "farthest"},
   {"scales": [{"radius": 2.0, "k": 4, "mlp": [12]}, {"radius": 4.0, "k": 8, "mlp": [12]}],
    "shift_ratio": 0.125, "aggregation": [16], "exchange_op": "cs", "selection": "farthest"}],
  "num_classes": 2, "anchors": [[2.0, 1.2, 1.0], [0.6, 0.6, 1.6]], "vote_hidden": [12],
  "agg_radius": 3.0, "agg_k": 8, "agg_f": [16], "agg_a": [16], "head_hidden": [12],
  "angle_bins": 4, "score_threshold": 0.2},
 "train": {"epochs": 3, "peak_lr": 0.005}
}
JSON

# run_set <threads>: run every command in <workdir>/threads_<threads> and
# write its digest list to <workdir>/threads_<threads>.sha256
run_set() {
  mkdir "$work/threads_$1"
  cp "$work/small.json" "$work/threads_$1/"
  (
    cd "$work/threads_$1"
    export OPENBLAS_NUM_THREADS="$1"
    {
      shiftssd gen --seed 11 --scenes 3 --config small.json --out small
      shiftssd gen --seed 5 --scenes 2 --out default
      shiftssd train --seed 11 --config small.json --data small --out run_small
      shiftssd train --seed 7 --epochs 2 --data default --out run_default
      shiftssd train --seed 11 --config small.json --data small --out run_diverged --lr 1e30 2>/dev/null || true
      shiftssd detect --seed 3 --model run_small/model.ckpt --in small/scene_0000.bin \
        --out dets_small.jsonl --score-threshold 0.0
      shiftssd detect --seed 3 --model run_default/model.ckpt --in default/scene_0001.bin \
        --out dets_default.jsonl --score-threshold 0.0
      shiftssd probe --seed 2 --model run_small/model.ckpt --data small --out probe.csv
      shiftssd ablate --seed 3 --epochs 1 --config small.json --data small --out ablate_small.csv
      shiftssd ablate --seed 3 --epochs 1 --axis exchange --data default --out ablate_default.csv
      shiftssd gradcheck --seed 1 --manifest gradcheck.manifest.json > gradcheck.stdout
    } > /dev/null
    find . -type f ! -name '*manifest.json' ! -name small.json | LC_ALL=C sort | xargs sha256sum
    find . -type f -name '*manifest.json' | LC_ALL=C sort | xargs python3 -c '
import hashlib, json, sys
for path in sys.argv[1:]:
    with open(path) as fh:
        record = json.load(fh)
    kept = {k: record[k] for k in ("subcommand", "seed", "config", "outputs", "status", "error") if k in record}
    print(hashlib.sha256(json.dumps(kept, sort_keys=True).encode()).hexdigest() + "  " + path)
'
  ) > "$work/threads_$1.sha256"
}

run_set 1
run_set 2
cat "$work/threads_1.sha256"
if ! cmp -s "$work/threads_1.sha256" "$work/threads_2.sha256"; then
  echo "outputs differ between OPENBLAS_NUM_THREADS=1 (<) and 2 (>):" >&2
  diff "$work/threads_1.sha256" "$work/threads_2.sha256" | grep '^[<>]' >&2
  exit 1
fi
