#!/usr/bin/env sh
# Tier-1 verification: configure, build everything, run the full ctest suite,
# then check the generated docs have not drifted from the code.
#
#   verify.sh            build + ctest in ./build (Release by default),
#                        then the doc-drift gate (docs/METRICS.md must match
#                        its regenerated form; DESIGN.md must keep its
#                        numbered sections)
#   verify.sh --asan     additionally build with ASan+UBSan in ./build-asan
#                        and run the TPM and core suites under the sanitizers
#   verify.sh --faults   additionally run the fault-injection campaign
#                        (ctest -L faults, crash matrix included) under
#                        ASan+UBSan and refresh BENCH_robustness.json
#   verify.sh --net      additionally run the adversarial-network campaign
#                        (ctest -L net, chaos matrix included) under
#                        ASan+UBSan and refresh BENCH_net.json
#   verify.sh --obs      additionally run the observability campaign:
#                        obs-labeled suites under ASan+UBSan, two same-seed
#                        SSH trace exports diffed byte-for-byte, a
#                        -DFLICKER_OBS=OFF build proving the instrumentation
#                        compiles out, and a BENCH_obs.json refresh
#   verify.sh --perf     additionally run the SIMD differential campaign: a
#                        -DFLICKER_SIMD=OFF rebuild in ./build-noperf whose
#                        hash/HMAC/batch-quote/OS/rootkit suites must pass
#                        and whose paper tables/figures (Table 1/2/4,
#                        Fig. 9) must be byte-identical to the vectorized
#                        build's - speed is the only thing SIMD may change
#   verify.sh --fleet    additionally run the fleet simulation campaign:
#                        fleet-labeled suites under ASan+UBSan, a
#                        1000-machine sanitizer smoke run, a same-seed
#                        double run of the flagship bench whose JSON must be
#                        byte-identical (refreshing BENCH_fleet.json), and a
#                        multi-seed 64-machine chaos sweep in which
#                        accepted_wrong must stay zero
#   verify.sh --vtpm     additionally run the vTPM multiplexer campaign:
#                        vtpm-labeled suites (wire hardening, rollback
#                        attack, crash matrix, double faults) under
#                        ASan+UBSan, then multi-seed noisy-neighbor chaos
#                        double runs whose JSON must be byte-identical
#                        (refreshing BENCH_vtpm.json) with accepted_wrong
#                        pinned at zero
#   verify.sh --chaos-fuzz
#                        additionally run the composite chaos-fuzz campaign
#                        under ASan+UBSan: a clean-store campaign that must
#                        find nothing, a seeded misordered-commit campaign
#                        that must find a torn_state violation and shrink
#                        it, and the committed minimal replay
#                        (tools/chaos/minimal_torn_state.replay) re-run
#                        twice - byte-identical output, signature matched
#   verify.sh --hv       additionally run the concurrent-execution campaign:
#                        hv-labeled suites (late-launch, classic/concurrent
#                        parity, cross-core adversary battery, fleet
#                        campaign) under ASan+UBSan, then the release
#                        build's flagship bench twice with the same seed -
#                        byte-identical JSON (refreshing BENCH_hv.json,
#                        micro_hv exits 2 if any attack is accepted or
#                        mistyped) - and a multi-seed quiet sweep
#
# Usage: verify.sh [--asan|--faults|--net|--obs|--perf|--fleet|--vtpm|--chaos-fuzz|--hv] [build-dir]
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)
mode=
case "${1:-}" in
  --asan | --faults | --net | --obs | --perf | --fleet | --vtpm | --chaos-fuzz | --hv)
    mode=${1#--}
    shift
    ;;
esac
build_dir=${1:-"$repo_root/build"}
jobs=$(nproc 2>/dev/null || echo 4)
asan_dir="$repo_root/build-asan"

# Sanitizer campaign step: configures ./build-asan (ASan+UBSan), builds the
# targets after the ctest selector and runs that selection under the
# sanitizers. $1 $2 is the selector: "-L label" or "-R regex".
asan_suite() {
  select_flag=$1
  select_value=$2
  shift 2
  cmake -B "$asan_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Asan
  cmake --build "$asan_dir" -j "$jobs" --target "$@"
  ctest --test-dir "$asan_dir" --output-on-failure -j "$jobs" "$select_flag" "$select_value"
}

# Determinism gate: runs a command twice and fails with message $1 unless
# both runs write byte-identical output. $2 names the output (dir/name.ext;
# the runs write dir/name_a.ext and dir/name_b.ext), $3 is the flag prefix
# that takes the output path ("" when the output is stdout), the rest is
# the command.
same_twice() {
  message=$1
  out_a="${2%.*}_a.${2##*.}"
  out_b="${2%.*}_b.${2##*.}"
  path_flag=$3
  shift 3
  for out in "$out_a" "$out_b"; do
    if [ -n "$path_flag" ]; then
      "$@" "$path_flag$out" > /dev/null
    else
      "$@" > "$out"
    fi
  done
  if ! cmp -s "$out_a" "$out_b"; then
    echo "verify.sh: $message" >&2
    diff -u "$out_a" "$out_b" >&2 || true
    exit 1
  fi
}

cmake -B "$build_dir" -S "$repo_root"
cmake --build "$build_dir" -j "$jobs"
ctest --test-dir "$build_dir" --output-on-failure -j "$jobs"

# ---- Doc-drift gate (always on) ----
#
# docs/METRICS.md is generated from the metric definition tables in
# src/obs/metrics.cc; a hand edit or a new metric without a regen fails here.
# Regenerate with: build/bench/micro_obs --dump_metrics_md=docs/METRICS.md
"$build_dir/bench/micro_obs" --dump_metrics_md="$build_dir/METRICS.regen.md" > /dev/null
if ! cmp -s "$build_dir/METRICS.regen.md" "$repo_root/docs/METRICS.md"; then
  echo "verify.sh: docs/METRICS.md drifted from src/obs/metrics.cc" >&2
  echo "  regenerate with: $build_dir/bench/micro_obs --dump_metrics_md=docs/METRICS.md" >&2
  diff -u "$repo_root/docs/METRICS.md" "$build_dir/METRICS.regen.md" >&2 || true
  exit 1
fi
# DESIGN.md must keep its numbered sections; a refactor that silently drops
# the observability/robustness design record fails here.
for heading in \
  '## 5\.' '## 8\.' '## 9\.' '## 10\.' '## 11\.' '## 13\.' '## 14\.' '## 15\.' \
  '## 16\.'; do
  if ! grep -q "^$heading" "$repo_root/DESIGN.md"; then
    echo "verify.sh: DESIGN.md is missing section heading '$heading'" >&2
    exit 1
  fi
done
# docs/HYPERVISOR.md is the operator's record of the concurrent-execution
# mode; it must keep the threat model, the protection table, and the two
# session lifecycles. README.md must keep the build-flag matrix the docs
# point operators at.
for heading in '## Threat model' '## Nested protections' \
  '## Session lifecycles' '## Denial taxonomy'; do
  if ! grep -q "^$heading" "$repo_root/docs/HYPERVISOR.md"; then
    echo "verify.sh: docs/HYPERVISOR.md is missing heading '$heading'" >&2
    exit 1
  fi
done
if ! grep -q '^## Build-flag matrix' "$repo_root/README.md"; then
  echo "verify.sh: README.md is missing the '## Build-flag matrix' section" >&2
  exit 1
fi

# ---- Time-discipline gate (always on) ----
#
# Only the discrete-event engine (src/sim/) and the hardware-model charge
# sites listed in tools/time_discipline.allow may advance a SimClock
# directly. Anything else that wants time to pass must post an event.
allow_regex="$build_dir/time_discipline.regex"
sed -e 's/#.*//' -e 's/[[:space:]]*$//' -e '/^$/d' -e 's/\./\\./g' \
    -e 's#^#^#' -e 's#$#:#' \
    "$repo_root/tools/time_discipline.allow" > "$allow_regex"
time_violations=$(grep -rnE 'Advance(Nanos|Micros|Millis|ToNanos)[[:space:]]*\(' \
    "$repo_root/src" --include='*.cc' --include='*.h' \
  | sed "s#^$repo_root/##" \
  | grep -v '^src/sim/' \
  | grep -vEf "$allow_regex" || true)
if [ -n "$time_violations" ]; then
  echo "verify.sh: direct SimClock advancement outside src/sim/ and the allowlist:" >&2
  echo "$time_violations" >&2
  echo "  schedule an event on the executor instead, or (for a genuine" >&2
  echo "  hardware cost model) add the file to tools/time_discipline.allow" >&2
  exit 1
fi

# ---- Crash-point coverage gate (always on) ----
#
# Every CRASH_POINT("...") durability marker in src/ must be executed by the
# crash-matrix / double-fault suites. A new durability boundary the matrix
# never reaches fails here before it can rot uncovered. The census binaries
# append the points they executed to $FLICKER_CRASH_POINTS_OUT.<tag>.txt;
# registration happens on execution, so scheduler arming does not matter.
census_prefix="$build_dir/crash_points"
rm -f "$census_prefix".*.txt
for census_bin in integration_crash_matrix_test vtpm_crash_matrix_test \
    vtpm_double_fault_test; do
  FLICKER_CRASH_POINTS_OUT="$census_prefix" \
    "$build_dir/tests/$census_bin" > /dev/null
done
grep -rhoE 'CRASH_POINT\("[^"]+"\)' "$repo_root/src" \
    --include='*.cc' --include='*.h' --exclude=fault.h \
  | sed -e 's/^CRASH_POINT("//' -e 's/")$//' | sort -u \
  > "$build_dir/crash_points.expected"
sort -u "$census_prefix".*.txt > "$build_dir/crash_points.covered"
uncovered=$(comm -23 "$build_dir/crash_points.expected" "$build_dir/crash_points.covered")
if [ -n "$uncovered" ]; then
  echo "verify.sh: CRASH_POINT sites in src/ never exercised by the crash matrix:" >&2
  echo "$uncovered" >&2
  echo "  extend the crash-matrix / double-fault workloads to reach them" >&2
  exit 1
fi
echo "verify.sh: crash-point coverage: all $(wc -l < "$build_dir/crash_points.expected" | tr -d ' ') sites exercised"

if [ "$mode" = asan ]; then
  asan_suite -R '^(tpm_|core_|os_tqd_robustness_test|common_serde_test|hw_machine_test|os_os_test)' \
    tpm_pcr_bank_test tpm_tpm_test tpm_param_test tpm_transport_test \
    tpm_commands_negative_test core_platform_test core_remote_attestation_test \
    os_tqd_robustness_test common_serde_test hw_machine_test os_os_test \
    tpm_lifecycle_test core_sealed_state_test core_attested_session_test
fi

if [ "$mode" = faults ]; then
  # Power-loss fault-injection campaign: the crash matrix and the rest of the
  # `faults`-labeled suite, under ASan+UBSan so torn-state handling is also
  # memory-clean, plus the recovery-path wall-time budgets.
  asan_suite -L faults \
    tpm_lifecycle_test core_sealed_state_test os_tqd_breaker_test os_tqd_batch_test \
    integration_crash_matrix_test vtpm_crash_matrix_test vtpm_double_fault_test \
    sim_chaos_fuzz_test
  cmake --build "$build_dir" -j "$jobs" --target micro_recovery
  "$build_dir/bench/micro_recovery" --bench_json="$repo_root/BENCH_robustness.json"
fi

if [ "$mode" = net ]; then
  # Adversarial-network campaign: the chaos matrix and the rest of the
  # `net`-labeled suite, under ASan+UBSan so hostile-frame handling is also
  # memory-clean, plus the deterministic session-layer loss report.
  asan_suite -L net \
    net_channel_test net_lossy_channel_test net_session_test \
    tpm_commands_negative_test integration_net_chaos_test
  cmake --build "$build_dir" -j "$jobs" --target micro_net
  "$build_dir/bench/micro_net" --bench_json="$repo_root/BENCH_net.json"
fi

if [ "$mode" = obs ]; then
  # Observability campaign. The obs-labeled suites run under ASan+UBSan
  # (tracer/registry lifetimes must be memory-clean), two same-seed SSH
  # rounds must export byte-identical Chrome traces, the -DFLICKER_OBS=OFF
  # configuration must still build and pass its own overhead proof, and the
  # committed overhead report is refreshed.
  asan_suite -L obs \
    obs_metrics_test obs_trace_test obs_session_test obs_ring_epoch_test

  cmake --build "$build_dir" -j "$jobs" --target micro_obs
  same_twice "same-seed trace exports differ (tracing is nondeterministic)" \
    "$build_dir/trace.json" --trace_json= "$build_dir/bench/micro_obs"
  echo "verify.sh: same-seed SSH traces byte-identical"

  noobs_dir="$repo_root/build-noobs"
  cmake -B "$noobs_dir" -S "$repo_root" -DFLICKER_OBS=OFF
  cmake --build "$noobs_dir" -j "$jobs" --target micro_obs
  "$noobs_dir/bench/micro_obs" --bench_json="$noobs_dir/BENCH_obs_off.json"
  if ! grep -q '"obs_compiled_in": false' "$noobs_dir/BENCH_obs_off.json"; then
    echo "verify.sh: FLICKER_OBS=OFF build still has instrumentation compiled in" >&2
    exit 1
  fi

  "$build_dir/bench/micro_obs" --bench_json="$repo_root/BENCH_obs.json"
fi

if [ "$mode" = perf ]; then
  # SIMD differential campaign. The scalar SHA-1 compress and the multi-buffer
  # SHA engine's scalar fallback must be drop-in replacements for the SHA-NI
  # and vector kernels: the forced-scalar build re-runs the hash
  # KAT/differential battery, HMAC, the Merkle and batch-quote protocol
  # suites, the OS kernel and rootkit-detector suites, and every reproduced
  # paper table/figure must come out byte-identical to the vectorized
  # build's. Any digest divergence shows up as a test failure or an output
  # diff here.
  noperf_dir="$repo_root/build-noperf"
  cmake -B "$noperf_dir" -S "$repo_root" -DFLICKER_SIMD=OFF
  cmake --build "$noperf_dir" -j "$jobs" --target \
    crypto_hash_test crypto_hmac_test crypto_sha_multibuf_test crypto_merkle_test \
    attest_batch_quote_test os_tqd_batch_test os_os_test apps_rootkit_test \
    table1_rootkit table2_skinit table4_distributed fig9_ssh
  ctest --test-dir "$noperf_dir" --output-on-failure -j "$jobs" -R \
    '^(crypto_hash_test|crypto_hmac_test|crypto_sha_multibuf_test|crypto_merkle_test|attest_batch_quote_test|os_tqd_batch_test|os_os_test|apps_rootkit_test)$'

  cmake --build "$build_dir" -j "$jobs" --target \
    table1_rootkit table2_skinit table4_distributed fig9_ssh
  for bin in table1_rootkit table2_skinit table4_distributed fig9_ssh; do
    "$build_dir/bench/$bin" > "$build_dir/$bin.perf.out"
    "$noperf_dir/bench/$bin" > "$noperf_dir/$bin.perf.out"
    if ! cmp -s "$build_dir/$bin.perf.out" "$noperf_dir/$bin.perf.out"; then
      echo "verify.sh: $bin output differs between SIMD and scalar builds" >&2
      diff -u "$build_dir/$bin.perf.out" "$noperf_dir/$bin.perf.out" >&2 || true
      exit 1
    fi
  done
  echo "verify.sh: SIMD and scalar builds byte-identical on Table 1/2/4 + Fig. 9"
fi

if [ "$mode" = fleet ]; then
  # Fleet simulation campaign. The engine and fleet suites run under
  # ASan+UBSan (the event heap and actor lifetimes must be memory-clean),
  # including a 1000-machine smoke run; then the release build's flagship
  # bench runs twice with the same seed and the JSON reports must be
  # byte-identical; finally a multi-seed 64-machine chaos sweep must keep
  # accepted_wrong at zero (micro_fleet exits 2 on a violation).
  asan_suite -L fleet \
    sim_event_queue_test sim_executor_test sim_tqd_timer_test \
    sim_fleet_test sim_fleet_determinism_test sim_fleet_chaos_test \
    sim_fleet_verifier_fault_test sim_chaos_fuzz_test attest_verifier_health_test \
    micro_fleet
  "$asan_dir/bench/micro_fleet" --machines=1000 --rounds=200 --verifiers=8

  cmake --build "$build_dir" -j "$jobs" --target micro_fleet
  same_twice "same-seed fleet runs differ (the simulation is nondeterministic)" \
    "$build_dir/fleet.json" --bench_json= "$build_dir/bench/micro_fleet"
  echo "verify.sh: same-seed 1000-machine fleet runs byte-identical"
  cp "$build_dir/fleet_a.json" "$repo_root/BENCH_fleet.json"

  for seed in 1 2 3; do
    "$build_dir/bench/micro_fleet" --chaos --machines=64 --rounds=256 \
      --verifiers=4 --seed="$seed" > /dev/null
  done
  echo "verify.sh: 64-machine chaos sweep clean (accepted_wrong == 0 across seeds)"
fi

if [ "$mode" = vtpm ]; then
  # vTPM multiplexer campaign. The vtpm-labeled suites run under ASan+UBSan
  # (the wire-hardening battery, the rollback-attack negative test, the
  # crash matrix and the double-fault sweep must all be memory-clean), then
  # the release build's noisy-neighbor chaos bench runs twice per seed: the
  # JSON reports must be byte-identical (micro_vtpm exits 2 if any quote
  # answered the wrong challenge), and the seed-1 flagship refreshes
  # BENCH_vtpm.json.
  asan_suite -L vtpm \
    vtpm_state_test vtpm_wire_test vtpm_manager_test vtpm_mux_test \
    vtpm_crash_matrix_test vtpm_double_fault_test vtpm_campaign_test

  cmake --build "$build_dir" -j "$jobs" --target micro_vtpm
  for seed in 1 7 23; do
    same_twice "same-seed vtpm campaigns differ (seed $seed is nondeterministic)" \
      "$build_dir/vtpm_${seed}.json" --bench_json= \
      "$build_dir/bench/micro_vtpm" --seed="$seed"
  done
  echo "verify.sh: multi-seed vtpm chaos double-runs byte-identical, accepted_wrong == 0"
  cp "$build_dir/vtpm_1_a.json" "$repo_root/BENCH_vtpm.json"
fi

if [ "$mode" = chaos-fuzz ]; then
  # Composite chaos-fuzz campaign. The fuzzer composes every injector the
  # fleet harness owns (power cuts, partitions, wire-fault mixes, TPM
  # transport windows, verifier faults) under ASan+UBSan. A clean store must
  # survive a campaign with zero violations (exit 0); the PR 3 seeded
  # misordered-commit bug must be found, shrunk by ddmin and written out as
  # a replay + failure artifact (exit 2). Then the committed minimal replay
  # is the shrinker's regression gate: two release re-runs must be
  # byte-identical and reproduce the recorded torn_state signature (exit 0;
  # 3 would mean signature mismatch).
  asan_suite -R sim_chaos_fuzz_test sim_chaos_fuzz_test micro_fleet
  "$asan_dir/bench/micro_fleet" --chaos-fuzz --fuzz-plans=16 > /dev/null
  echo "verify.sh: clean-store chaos-fuzz campaign found no violations"
  rc=0
  "$asan_dir/bench/micro_fleet" --chaos-fuzz --misordered-commit --fuzz-plans=24 \
    --replay-out="$asan_dir/fuzz_min.replay" \
    --artifact-out="$asan_dir/fuzz_artifact.txt" > /dev/null || rc=$?
  if [ "$rc" != 2 ]; then
    echo "verify.sh: chaos fuzzer missed the seeded misordered-commit bug (rc=$rc)" >&2
    exit 1
  fi
  echo "verify.sh: chaos fuzzer found and shrank the seeded torn_state violation"

  cmake --build "$build_dir" -j "$jobs" --target micro_fleet
  same_twice "committed chaos replay re-runs differ (nondeterministic replay)" \
    "$build_dir/replay.txt" "" \
    "$build_dir/bench/micro_fleet" --replay="$repo_root/tools/chaos/minimal_torn_state.replay"
  echo "verify.sh: committed minimal replay reproduces byte-identically"
fi

if [ "$mode" = hv ]; then
  # Concurrent-execution campaign. The hv-labeled suites run under
  # ASan+UBSan (the multi-core machine model, nested-page walks and VMCB
  # bookkeeping must be memory-clean): late-launch/protection units, the
  # classic-vs-concurrent parity battery (every PAL workload byte-identical
  # across modes), the cross-core adversary battery, and the fleet campaign.
  # Then the release build's flagship bench runs twice with the same seed -
  # the JSON reports must be byte-identical (micro_hv exits 2 if any attack
  # is accepted or mistyped, or the pause-reduction floor is missed) and the
  # first run refreshes BENCH_hv.json - followed by a multi-seed quiet sweep.
  asan_suite -L hv \
    hv_hypervisor_test hv_parity_test hv_adversary_test hv_campaign_test

  cmake --build "$build_dir" -j "$jobs" --target micro_hv
  same_twice "same-seed hv campaigns differ (the simulation is nondeterministic)" \
    "$build_dir/hv.json" --bench_json= "$build_dir/bench/micro_hv"
  echo "verify.sh: same-seed hv campaign double-run byte-identical"
  cp "$build_dir/hv_a.json" "$repo_root/BENCH_hv.json"

  for seed in 2 5 11; do
    "$build_dir/bench/micro_hv" --quiet --seed="$seed" > /dev/null
  done
  echo "verify.sh: multi-seed hv adversarial sweep clean (accepted_wrong == 0 across seeds)"
fi

echo "verify.sh: all checks passed"
