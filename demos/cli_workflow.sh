#!/bin/sh
# End-to-end command-line workflow:
#   1. emit a canonical figure-style configuration (four REQUIRED fields),
#   2. fill the REQUIRED physical constants,
#   3. sweep the LOS-ball geometry,
#   4. run the analytic-vs-simulation coverage comparison gate.
# Exit status of the compare step: 0 pass, 1 tolerance missed, 2 bad input.
# Uses the installed `wearnet` command when there is one, else runs the
# package from this checkout's src/ directory.
set -e

if ! command -v wearnet >/dev/null 2>&1; then
    ROOT=$(cd "$(dirname "$0")/.." && pwd)
    wearnet() {
        PYTHONPATH="$ROOT/src${PYTHONPATH:+:$PYTHONPATH}" python3 -m wearnet.cli "$@"
    }
fi

OUT=demo_out/cli
mkdir -p "$OUT"

wearnet --out-dir "$OUT" figure-config --figure fig7
sed -e 's/^alpha_L = REQUIRED/alpha_L = 3.2/' \
    -e 's/^alpha_N = REQUIRED/alpha_N = 3.4/' \
    -e 's/^R0 = REQUIRED/R0 = 0.25/' \
    -e 's/^noise_power = REQUIRED/noise_power = 1.0/' \
    "$OUT/fig7.cfg" > "$OUT/scenario.cfg"

wearnet --config "$OUT/scenario.cfg" --out-dir "$OUT" --seed 1 \
    losball --rnet-grid 1:20:1 --lambda-family 1,3,5

wearnet --config "$OUT/scenario.cfg" --out-dir "$OUT" --seed 1 \
    compare --kind coverage --trials 20000 --beta-grid-dB=-10:30:2

echo "artifacts:"
ls "$OUT"
