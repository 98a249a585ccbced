# CLI parity: gpures-analyze and gpures-serve --once read a dataset through
# the same ServeSession, so over a corrupted dataset (every fault kind,
# lenient policy) they must write the same index, export JSON, quality
# report and stdout reports, at any --threads.  An armed I/O fault must
# leave its day both skipped and degraded in the quality report, and the
# removed --regex flag must be a usage error.
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
