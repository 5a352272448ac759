# ctest script for `hcd_cli export --snapshot` on a damaged file: copies the
# cli_forest fixture's snapshot without its last 8 bytes, runs export over
# it, and requires a clean failure: exit status 1 and a Corruption error,
# not a crash or a signal.
#
# Inputs: HCD_CLI, WORK_DIR.

set(graph ${WORK_DIR}/cli_test.bin)
set(forest ${WORK_DIR}/cli_test.forest)
set(truncated ${WORK_DIR}/cli_test_truncated.forest)

file(SIZE ${forest} size)
math(EXPR keep "${size} - 8")
execute_process(
  COMMAND head -c ${keep} ${forest}
  OUTPUT_FILE ${truncated}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "cannot write the truncated snapshot (${rc})")
endif()

execute_process(
  COMMAND ${HCD_CLI} export ${graph} ${WORK_DIR}/cli_test_bad_snapshot.dot
          --snapshot=${truncated}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE out
  RESULT_VARIABLE rc)
file(REMOVE ${truncated})
if(NOT rc STREQUAL "1")
  message(FATAL_ERROR "export over a truncated snapshot: want exit 1, got "
                      "'${rc}'; output:\n${out}")
endif()
if(NOT out MATCHES "Corruption")
  message(FATAL_ERROR "export over a truncated snapshot did not report "
                      "Corruption; output:\n${out}")
endif()
