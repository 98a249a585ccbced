# gpures-simulate must fail, naming the day, when a day file cannot be
# written.  The day's path is a symlink to /dev/full, so the failure is a
# write error (ENOSPC) even for root, which permission bits do not stop.
# --threads 2 runs the shards on a pool and renders noise a day ahead.
if(NOT EXISTS "/dev/full")
  message(STATUS "no /dev/full: skipped")
  return()
endif()
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}/ds/syslog")
set(day "syslog-2023-01-04.log")  # day 4 of the --quick window
file(CREATE_LINK "/dev/full" "${WORKDIR}/ds/syslog/${day}" SYMBOLIC)

execute_process(
  COMMAND "${SIMULATE}" --out "${WORKDIR}/ds" --quick --no-jobs --seed 3
          --threads 2 --quiet
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "gpures-simulate exited ${rc}, expected 1: ${out} ${err}")
endif()
string(FIND "${err}" "${day}" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "gpures-simulate error does not name ${day}: ${err}")
endif()
file(REMOVE_RECURSE "${WORKDIR}")
