#!/usr/bin/env bash
# The console-script smoke run of both tier-1 CI jobs: the installed
# `matmean` entry point, run with no PYTHONPATH from a scratch
# directory, where it writes its files.  Reads RUNNER_TEMP and
# GITHUB_WORKSPACE, which GitHub Actions sets.
set -eo pipefail

# expect_error CODE PREFIX ARGS...: `matmean ARGS...` exits CODE with one
# stderr line that starts with PREFIX
expect_error() {
  local code=$1 prefix=$2 status=0
  shift 2
  matmean "$@" 2> error.txt || status=$?
  test "$status" -eq "$code"
  test "$(wc -l < error.txt)" -eq 1
  grep -q "^$prefix" error.txt
}

# the certificate, less its float shadow, is the benchmark's stored
# reference bit for bit
matmean certify --which all --out cert.json
python - "$GITHUB_WORKSPACE/perfbench/reference/certificate.json" <<'EOF'
import json, sys
cert = json.load(open("cert.json"))
cert.pop("float_shadow")
if cert != json.load(open(sys.argv[1])):
    sys.exit("cert.json, less its float shadow, differs from the reference certificate")
EOF
# the float shadow of one certified instance alone
matmean certify --which dir1
matmean certify --which dir2
matmean suite --trials 8 --out /dev/null
# X of an eps-level would miss the Riccati residual bound on these
# runs; no check reads it, so it is never computed and both exit
# 0.  The second also runs the n = 32 stage.
matmean suite --seed 7 --trials 53 --out /dev/null
matmean suite --trials 12 --dims 16,24,32 --out /dev/null
# 11 of these trials reject their first noncommuting candidate:
# the draw restores the rng and draws the rest of the trial again
matmean suite --trials 24 --cond 1.2 --out /dev/null
# the full suite's report and margin table, and the one script
matmean suite --trials 8 --pretty --out "$RUNNER_TEMP/pretty.json"
python "$GITHUB_WORKSPACE/scripts/sharpness_sweep.py" --instances 1 --dim 3 --out /dev/null
# the README's compute -> check example, through the f(P) path
echo '{"dim": 3, "re": [[2.0, 0.5, 0.0], [0.5, 1.5, 0.2], [0.0, 0.2, 1.0]]}' > A.json
echo '{"dim": 3, "re": [[1.0, 0.3, 0.1], [0.3, 2.0, 0.0], [0.1, 0.0, 1.2]]}' > B.json
matmean compute heron_kubo A.json B.json --out H.json
matmean compute wasserstein A.json B.json --out W.json
matmean check weak H.json W.json
# the spectral endpoint is a true majorization (exit 0) and the
# geometric one fails it on the trace (exit 1); the geometric mean
# is log-majorized by the spectral mean (exit 0), not the other
# way round (exit 1)
matmean compute heron_spectral A.json B.json --out HS.json
matmean check major HS.json W.json
status=0
matmean check major H.json W.json || status=$?
test "$status" -eq 1
matmean compute geo A.json B.json --out G.json
matmean compute spectral A.json B.json --out N.json
matmean check log G.json N.json
status=0
matmean check log N.json G.json || status=$?
test "$status" -eq 1
# entries whose norms would overflow the gate are rejected as
# input (exit 2), not judged on an inf or nan residual
echo '{"dim": 2, "re": [[1e300, 0.0], [0.0, 1e300]]}' > big.json
expect_error 2 "error: " check weak big.json big.json
# the rest of cli.EXIT_CODES: an indefinite operand (exit 3), a weight
# outside its domain (exit 4), and a weight whose products overflow, a
# numerical failure (exit 1)
echo '{"dim": 3, "re": [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]]}' > indefinite.json
expect_error 3 "error: " compute geo indefinite.json B.json
expect_error 4 "error: " compute wasserstein A.json B.json -a nan
expect_error 1 "numerical failure: " compute wasserstein A.json B.json -a 1e160 -b 1
# at cond 1e7 a gated matrix is not positive definite: the run aborts
# with exit 3 and one error line.  The lift of Phi_R(C) fails the gate;
# the keys of pinching, the lift and the limit lead the compared gate,
# so its index holds
expect_error 3 "error: " suite --trials 120 --cond 1e7 --out /dev/null
grep -q '(stack index (1,))$' error.txt
# at tol 1e-16 rounding fails some theorem parts, among them pinching's
# lambda(Phi_R(C)) prec_w lambda(C), the quadratic lift's hypothesis:
# they fail their records (exit 1) and the report is written.  Every
# checker with an identity part (tagged `equality` in suite.PARTS) fails
# on its rounding, the equality case's commuting records included.  Each
# failure serializes the context of its own pair of the stage: the
# certified pair's, or the drawn pair's with C and R on the compression
# pairs (pinching and the lift) and a variant on the equality pairs and
# the eps-levels (the limit's A0 and B0)
status=0
matmean suite --trials 2 --tol 1e-16 --out tol.json || status=$?
test "$status" -eq 1
python - <<'EOF'
import json, sys
from matmean.suite import PARTS
report = json.load(open("tol.json"))
failing = {check["name"] for check in report["checks"] if check["failures"]}
tagged = {name for name, parts in PARTS.items() if any(part.equality for part in parts)}
if report["ok"] is not False or tagged - failing:
    sys.exit(f"checkers with an identity part passing at tol 1e-16: {sorted(tagged - failing)}")
stream = {"seed_offset", "dim", "a", "b", "A", "B"}
extra = {"pinching": {"C", "R"}, "quadratic_lifting": {"C", "R"},
         "equality_iff_commuting": {"variant"}, "semidefinite_limit": {"variant"}}
for check in report["checks"]:
    for failure in check["failures"]:
        instance = failure["instance"]
        if failure["seed_offset"] is None:
            expected = {"seed_offset", "instance", "a", "b"}
            if instance.get("instance") != "certified-3x3":
                sys.exit(f"{check['name']}: a fixed-instance failure of {instance.get('instance')!r}")
        else:
            expected = stream | extra.get(check["name"], set())
        if set(instance) != expected:
            sys.exit(f"{check['name']} failure at {failure['seed_offset']}: instance keys {sorted(instance)}")
EOF
# at cond 1e6 some records fail (exit 1) and serialize their
# instances; an abort (exit 2-4) fails the step, and so does a failing
# checker with no identity part (tagged `equality` in suite.PARTS):
# only an identity's rounding may fail here, never a theorem
status=0
matmean suite --trials 120 --cond 1e6 --out "$RUNNER_TEMP/illcond.json" || status=$?
test "$status" -le 1
python - "$RUNNER_TEMP/illcond.json" <<'EOF'
import json, sys
from matmean.suite import PARTS
failing = [check["name"] for check in json.load(open(sys.argv[1]))["checks"] if check["failures"]]
bare = [name for name in failing if not any(part.equality for part in PARTS.get(name, ()))]
if bare:
    sys.exit(f"checkers failing at cond 1e6 with no identity part: {bare}")
EOF
