#!/usr/bin/env bash
# ci/cli_runs.sh OUTDIR [BASE_SHA]
#
# The CLI runs that CI makes on every push, runnable by hand from any
# directory of the repository:
#   1. audited runs of every policy, with warnings as errors; plain EXP4
#      given a gamma must write the bytes of its run without one, and an
#      unaudited run must exit 0 and write the audited run's bytes;
#   2. no play state crosses seeds: seed 1 writes the same rows after seed 0
#      as alone;
#   3. a replay run writes the bytes of the run it was saved from;
#   4. with BASE_SHA, every run above is made again on that commit's sources
#      (from `git archive`) and its rounds and summary CSVs must equal this
#      tree's byte for byte.
# Each run's CSVs go to OUTDIR/runs/NAME_{rounds,summary}.csv and its
# arguments to OUTDIR/runs/NAME.args.  The script stops at the first failed
# run, `cmp` or line count, with a non-zero exit status.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ] || [ -z "$1" ]; then
  echo "usage: $0 OUTDIR [BASE_SHA]" >&2
  exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
out=$(cd "$1" && pwd)
base_sha=${2:-}
runs=$out/runs
rm -rf "$runs" "$out/seed1" "$out/base"
mkdir -p "$runs" "$out/seed1"
cd "$root"
export PYTHONPATH=$root/src

# cli NAME ARGS...: run the CLI with ARGS, write its rounds and summary CSVs
# as $runs/NAME_*.csv and its ARGS as NAME.args, so the base commit can be
# run on the same arguments.
cli() {
  local name=$1
  shift
  printf '%q ' "$@" > "$runs/$name.args"
  python -m myga.cli "$@" --out "$runs/$name"
}

echo "== Audited runs of every policy with warnings as errors"
(
  export PYTHONWARNINGS=error
  cli audited_lattice --policy myga --env adversarial_minority --arms 5 \
    --experts 8 --horizon 300 --eta 0.2 --gamma 0.4 --grid-denominator 4000 --seed 0,1
  cli audited_baseline --policy exp4_threshold --env zero_loss_expert --arms 3 \
    --experts 4 --horizon 300
  cli audited_exp4 --policy exp4 --env stochastic_gap
  # Plain EXP4 ignores gamma: the same run with a gamma writes the same bytes.
  cli audited_exp4_gamma --policy exp4 --env stochastic_gap --gamma 0.25
  for kind in rounds summary; do
    cmp "$runs/audited_exp4_$kind.csv" "$runs/audited_exp4_gamma_$kind.csv"
  done
  echo "audited_exp4_gamma: rounds and summary equal audited_exp4's"
  cli audited_gap --policy myga --env stochastic_gap --arms 2 --experts 4 \
    --horizon 2000 --seed 0,1
  # gamma = 1/2 leaves an empty threshold grid: the solver's and the
  # residual's grid-free paths and the empty removed-mass table.
  cli audited_empty_grid --policy myga --env adversarial_minority --arms 3 \
    --experts 4 --horizon 500 --gamma 0.5 --seed 0,1
  # The bench's gap_wide_grid configuration, so the comparison with the
  # base commit below covers that workload's own bytes.
  cli audited_gap_wide_grid --policy myga --env stochastic_gap --arms 2 --experts 4 \
    --horizon 10000 --mu-star 0.16 --delta 0.2 --lstar 1600 --seed 0
)

echo "== An unaudited run exits 0 and writes the audited run's bytes"
# With the audit off no violation is recorded, so the run exits 0 (set -e
# stops the script on any other status).  The audited gap run records no
# violation either, so the two runs write the same rows and summaries.
cli unaudited_gap --policy myga --env stochastic_gap --arms 2 --experts 4 \
  --horizon 2000 --seed 0,1 --audit false
for kind in rounds summary; do
  cmp "$runs/audited_gap_$kind.csv" "$runs/unaudited_gap_$kind.csv"
done
echo "unaudited_gap: exit 0, rounds and summary equal audited_gap's"

echo "== No play state crosses seeds (seed 1 writes the same rows after seed 0 as alone)"
check() {   # name, seed-1 round rows, then the run's arguments
  local name=$1 rows=$2 kind
  shift 2
  cli "${name}_both" "$@" --seed 0,1
  cli "${name}_one" "$@" --seed 1
  for kind in rounds summary; do
    grep '^1,' "$runs/${name}_both_$kind.csv" > "$out/seed1/${name}_both_$kind.seed1"
    grep '^1,' "$runs/${name}_one_$kind.csv" > "$out/seed1/${name}_one_$kind.seed1"
    cmp "$out/seed1/${name}_both_$kind.seed1" "$out/seed1/${name}_one_$kind.seed1"
    echo "$name $kind: $(wc -l < "$out/seed1/${name}_one_$kind.seed1") seed-1 rows equal"
  done
  test "$(wc -l < "$out/seed1/${name}_one_rounds.seed1")" -eq "$rows"
  test "$(wc -l < "$out/seed1/${name}_one_summary.seed1")" -eq 1
}
check gap 2000 --policy myga --env stochastic_gap --arms 2 --experts 4 --horizon 2000
# Two chunks of generated rounds per seed, and no repeated play.
check lattice 1500 --policy myga --env adversarial_minority --arms 5 --experts 8 \
  --horizon 1500 --eta 0.2 --gamma 0.4 --grid-denominator 4000
# The baseline play path, over two chunks of generated rounds per seed.
check baseline 1500 --policy exp4_threshold --env zero_loss_expert --arms 3 \
  --experts 4 --horizon 1500

echo "== A replay run writes the bytes of the run it was saved from"
# Outside the runs folder, at a path the base commit's runs read too.
replay=$out/zero_loss.txt
python -c '
import sys
from myga.environments import EnvSpec, generate, save_replay
spec = EnvSpec(kind="zero_loss_expert", num_arms=3, num_experts=4, horizon=1500, seed=1)
save_replay(sys.argv[1], [generate(spec, t) for t in range(1, 1501)])
' "$replay"
for policy in exp4_threshold myga; do
  run="--policy $policy --arms 3 --experts 4 --horizon 1500 --seed 1"
  cli "${policy}_replay" $run --env replay --replay "$replay"
  cli "${policy}_generated" $run --env zero_loss_expert
  for kind in rounds summary; do
    cmp "$runs/${policy}_replay_$kind.csv" "$runs/${policy}_generated_$kind.csv"
  done
  test "$(wc -l < "$runs/${policy}_replay_rounds.csv")" -eq 1501
  echo "$policy: the replay run's 1500 rows and summary equal the generated run's"
done

if [ -z "$base_sha" ]; then
  echo "== No base commit given: the comparison with its CSVs is skipped"
  exit 0
fi
echo "== Rounds and summary CSVs equal the base commit's ($base_sha)"
shopt -s nullglob
base=$out/base
mkdir -p "$base"
git -C "$root" archive "$base_sha" | tar -x -C "$base"
recorded=("$runs"/*.args)
test "${#recorded[@]}" -gt 0
# Every run the steps above made with cli, on its own arguments.
for args in "${recorded[@]}"; do
  name=$(basename "$args" .args)
  eval "set -- $(cat "$args")"
  (cd "$base" && PYTHONPATH=src python -m myga.cli "$@" --out "$base/$name")
  for kind in rounds summary; do
    cmp "$base/${name}_$kind.csv" "$runs/${name}_$kind.csv"
  done
  echo "$name: $(( $(wc -l < "$runs/${name}_rounds.csv") - 1 )) round rows" \
    "and the summary equal the base commit's"
done
