# ctest driver for the --trace-out / --metrics-out flags: runs hcd_cli on
# the cli_data fixture graph, then validates the emitted file with the same
# python checkers CI uses (scripts/check_trace.py / check_metrics.py).
#
# Inputs: HCD_CLI, PYTHON3, SOURCE_DIR, WORK_DIR, MODE (trace|metrics).

set(graph ${WORK_DIR}/cli_test.bin)

if(MODE STREQUAL "trace")
  set(trace_file ${WORK_DIR}/cli_obs_trace.json)
  execute_process(
    COMMAND ${HCD_CLI} build ${graph} ${WORK_DIR}/cli_obs.forest
            --threads=4 --trace-out=${trace_file}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "hcd_cli build --trace-out failed (${rc})")
  endif()
  execute_process(
    COMMAND ${PYTHON3} ${SOURCE_DIR}/scripts/check_trace.py ${trace_file}
            --min-subsystems=4 --min-tids=2 --require=cli.build
            --require=construction.freeze
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "trace validation failed (${rc})")
  endif()
  # Element hierarchies run PHCD's shell loop, so a truss build's trace
  # holds its per-shell spans under the truss construction stage.
  set(truss_trace ${WORK_DIR}/cli_obs_truss_trace.json)
  execute_process(
    COMMAND ${HCD_CLI} build ${graph} ${WORK_DIR}/cli_obs_truss.forest
            --hierarchy=truss --threads=2 --trace-out=${truss_trace}
    OUTPUT_QUIET
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "hcd_cli build --hierarchy=truss --trace-out failed (${rc})")
  endif()
  execute_process(
    COMMAND ${PYTHON3} ${SOURCE_DIR}/scripts/check_trace.py ${truss_trace}
            --require=truss.construction --require=phcd.shell
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "truss build trace validation failed (${rc})")
  endif()
  # A self-hosted serve-bench loads through the same ingest path as the
  # engine commands, so --threads sizes it and the trace holds the
  # enclosing "load" span.
  set(serve_trace ${WORK_DIR}/cli_obs_serve_trace.json)
  execute_process(
    COMMAND ${HCD_CLI} serve-bench ${graph} --threads=2
            --trace-out=${serve_trace}
    OUTPUT_QUIET
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "hcd_cli serve-bench --trace-out failed (${rc})")
  endif()
  execute_process(
    COMMAND ${PYTHON3} ${SOURCE_DIR}/scripts/check_trace.py ${serve_trace}
            --require=load
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "serve-bench trace validation failed (${rc})")
  endif()
elseif(MODE STREQUAL "metrics")
  set(prom_file ${WORK_DIR}/cli_obs_metrics.prom)
  execute_process(
    COMMAND ${HCD_CLI} serve-bench ${graph} --queries=120
            --metrics-out=${prom_file}
    OUTPUT_QUIET
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "hcd_cli serve-bench --metrics-out failed (${rc})")
  endif()
  execute_process(
    COMMAND ${PYTHON3} ${SOURCE_DIR}/scripts/check_metrics.py ${prom_file}
            --expect-histogram-count=hcd_query_latency_seconds=120
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "metrics validation failed (${rc})")
  endif()
  # The JSON rendering (extension-selected) must also parse.
  set(json_file ${WORK_DIR}/cli_obs_metrics.json)
  execute_process(
    COMMAND ${HCD_CLI} stats ${graph} --metrics-out=${json_file}
    OUTPUT_QUIET
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "hcd_cli stats --metrics-out failed (${rc})")
  endif()
  execute_process(
    COMMAND ${PYTHON3} ${SOURCE_DIR}/scripts/check_metrics.py ${json_file}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "metrics JSON validation failed (${rc})")
  endif()
else()
  message(FATAL_ERROR "unknown MODE '${MODE}'")
endif()
