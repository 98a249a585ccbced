# CLI parity: gpures-analyze and gpures-serve --once read a dataset through
# the same ServeSession, so over a corrupted dataset (every fault kind,
# lenient policy) they must write the same index, export JSON, quality
# report and stdout reports, at any --threads.  An armed I/O fault must
# leave its day both skipped and degraded in the quality report, and the
# removed --regex flag and an unknown --report must be usage errors.  An
# all-artifacts run computes Stage III once, and the provenance record tells
# a strict run from a lenient one.
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

function(run what)
  execute_process(COMMAND ${ARGN}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${what} failed (${rc}): ${out} ${err}")
  endif()
  set(run_stdout "${out}" PARENT_SCOPE)
endfunction()

function(expect_same_file a b)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${a}" "${b}"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${a} and ${b} differ")
  endif()
endfunction()

run("gpures-simulate"
  "${SIMULATE}" --out "${WORKDIR}/clean" --quick --seed 3 --scale 0.1 --quiet)
run("gpures-corrupt"
  "${CORRUPT}" --in "${WORKDIR}/clean" --out "${WORKDIR}/ds" --seed 99
  --faults all --quiet)
set(ds "${WORKDIR}/ds")

# ---- analyze and serve --once at --threads 0 and 4: same bytes ----
foreach(side analyze0 analyze4 serve0 serve4)
  string(REGEX MATCH "[0-9]+$" threads "${side}")
  if(side MATCHES "^serve")
    set(cmd "${SERVE}" --data "${ds}" --once --threads ${threads})
  else()
    set(cmd "${ANALYZE}" --data "${ds}" --ingest-policy lenient
            --threads ${threads})
  endif()
  run("${side}" ${cmd} --write-index "${WORKDIR}/${side}.idx"
      --export-json "${WORKDIR}/${side}.json"
      --quality-report "${WORKDIR}/${side}_dq.json" --quiet)
  file(WRITE "${WORKDIR}/${side}.txt" "${run_stdout}")
endforeach()
foreach(side analyze4 serve0 serve4)
  foreach(ext .idx .json _dq.json .txt)
    expect_same_file("${WORKDIR}/analyze0${ext}" "${WORKDIR}/${side}${ext}")
  endforeach()
endforeach()

# ---- an armed I/O fault: the day is skipped and its source degraded ----
file(READ "${ds}/corruption_ledger.json" ledger)
string(JSON io_path GET "${ledger}" io_fault path)
string(JSON io_after GET "${ledger}" io_fault after_bytes)
run("armed gpures-analyze"
  "${ANALYZE}" --data "${ds}" --ingest-policy lenient
  --chaos-io-fault "${io_path}:${io_after}"
  --quality-report "${WORKDIR}/armed_dq.json" --quiet)
file(READ "${WORKDIR}/armed_dq.json" armed)
string(JSON skipped GET "${armed}" coverage skipped_days 0 date)
string(JSON degraded GET "${armed}" coverage degraded_sources 0 name)
string(SUBSTRING "${io_path}" 7 10 io_date)
if(NOT skipped STREQUAL io_date OR NOT degraded STREQUAL io_path)
  message(FATAL_ERROR "armed fault on ${io_path}: skipped '${skipped}', "
                      "degraded '${degraded}'")
endif()

# ---- --regex is gone: a usage error ----
execute_process(COMMAND "${ANALYZE}" --data "${ds}" --regex
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "gpures-analyze --regex exited ${rc}, want 2")
endif()

# ---- an unknown --report is a usage error in both tools ----
set(clean "${WORKDIR}/clean")
foreach(tool "${ANALYZE}" "${SERVE}")
  execute_process(COMMAND "${tool}" --data "${clean}" --report bogus
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_QUIET)
  if(NOT rc EQUAL 2 OR NOT out STREQUAL "")
    message(FATAL_ERROR "${tool} --report bogus exited ${rc}, want 2 "
                        "and no report: ${out}")
  endif()
endforeach()

# ---- Stage III runs once, however many artifacts share its results ----
run("all-artifacts gpures-analyze"
  "${ANALYZE}" --data "${clean}" --threads 4 --report all
  --export-csv "${WORKDIR}/once_csv" --export-json "${WORKDIR}/once.json"
  --report-md "${WORKDIR}/once.md" --write-index "${WORKDIR}/once.idx"
  --trace "${WORKDIR}/once_trace.json" --metrics "${WORKDIR}/once_m.json"
  --quiet)
file(READ "${WORKDIR}/once_trace.json" trace)
foreach(span error_stats job_impact job_stats availability)
  string(REGEX MATCHALL "\"stage3\\.${span}\"" hits "${trace}")
  list(LENGTH hits n)
  if(NOT n EQUAL 1)
    message(FATAL_ERROR "stage3.${span} ran ${n} times, want 1")
  endif()
endforeach()
run("--report none gpures-analyze"
  "${ANALYZE}" --data "${clean}" --threads 4 --report none
  --metrics "${WORKDIR}/none_m.json" --quiet)
file(READ "${WORKDIR}/once_m.json" once_m)
file(READ "${WORKDIR}/none_m.json" none_m)
string(JSON once_exp GET "${once_m}" counters "pipe.stage3.exposures")
string(JSON none_exp GET "${none_m}" counters "pipe.stage3.exposures")
if(once_exp EQUAL 0 OR NOT once_exp EQUAL none_exp)
  message(FATAL_ERROR "pipe.stage3.exposures: ${once_exp} with every "
                      "artifact, ${none_exp} with none; want equal, nonzero")
endif()

# ---- provenance: strict and lenient runs record different config hashes ----
foreach(policy strict lenient)
  run("${policy} gpures-analyze"
    "${ANALYZE}" --data "${clean}" --ingest-policy ${policy} --report none
    --export-csv "${WORKDIR}/${policy}_csv" --quiet)
  file(READ "${WORKDIR}/${policy}_csv/run_manifest.json" manifest)
  string(JSON ${policy}_hash GET "${manifest}" config_hash)
endforeach()
if(strict_hash STREQUAL lenient_hash)
  message(FATAL_ERROR "strict and lenient runs share config_hash "
                      "${strict_hash}")
endif()
