# Smoke test of metrics_dump, run by ctest: run an instrumented pipeline and
# validate every line of the Prometheus text exposition against the format
# grammar (names, label blocks, numeric samples) without external tooling,
# then sanity-check the JSON output and the span trace's parenting.

if(NOT DEFINED TOOL)
  message(FATAL_ERROR "pass -DTOOL=<path to metrics_dump>")
endif()

set(WORK "${CMAKE_CURRENT_BINARY_DIR}/metrics_dump_scratch")
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

function(run_tool)
  execute_process(COMMAND "${TOOL}" ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "metrics_dump ${ARGN} failed (${rc}): ${out}${err}")
  endif()
  set(LAST_OUTPUT "${out}" PARENT_SCOPE)
endfunction()

# The sblocksketch pipeline exercises every layer: engine, sketch, spill db.
run_tool(--kind=ncvr --entities=150 --copies=5 --method=sblocksketch --mu=50
         --format=prometheus --out=${WORK}/metrics.prom)
if(NOT EXISTS "${WORK}/metrics.prom")
  message(FATAL_ERROR "metrics_dump did not write metrics.prom")
endif()

file(READ "${WORK}/metrics.prom" PROM)

# Line-format validation (text format 0.0.4) is shared with the serve
# endpoint test: the same grammar holds for local dumps and live scrapes.
include("${CMAKE_CURRENT_LIST_DIR}/prometheus_validator.cmake")
validate_prometheus_text("${PROM}" 20)

# Every layer must show up in the scrape.
foreach(family
    "# TYPE sketchlink_engine_builds_total counter"
    "# TYPE sketchlink_engine_query_latency_nanos histogram"
    "# TYPE sketchlink_sketch_inserts_total counter"
    "# TYPE sketchlink_kv_puts_total counter"
    "# TYPE sketchlink_kv_tables gauge")
  string(FIND "${PROM}" "${family}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "missing expected family: '${family}'")
  endif()
endforeach()
if(NOT PROM MATCHES "le=\"[+]Inf\"")
  message(FATAL_ERROR "histograms missing the +Inf bucket")
endif()

# --- JSON export --------------------------------------------------------
run_tool(--kind=ncvr --entities=150 --copies=5 --format=json
         --out=${WORK}/metrics.json)
file(READ "${WORK}/metrics.json" JSON)
if(NOT JSON MATCHES "\"metrics\": \\[" OR
   NOT JSON MATCHES "\"kind\": \"histogram\"" OR
   NOT JSON MATCHES "\"p99\"")
  message(FATAL_ERROR "JSON export missing expected structure")
endif()

# --- Span trace ---------------------------------------------------------
# --format=trace keeps every query's spans; with the spill store in play the
# dump must hold a parented engine/query -> sketch -> kv chain.
run_tool(--kind=ncvr --entities=150 --copies=5 --method=sblocksketch --mu=50
         --format=trace --out=${WORK}/trace.json)
find_program(PYTHON3 python3)
if(PYTHON3)
  execute_process(COMMAND "${PYTHON3}"
                          "${CMAKE_CURRENT_LIST_DIR}/check_trace_parenting.py"
                          "${WORK}/trace.json"
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "trace parenting check failed: ${out}${err}")
  endif()
  string(STRIP "${out}" out)
  message(STATUS "${out}")
else()
  file(READ "${WORK}/trace.json" TRACE)
  if(NOT TRACE MATCHES "\"traceEvents\"")
    message(FATAL_ERROR "trace dump is not Chrome trace_event JSON")
  endif()
  message(WARNING "python3 not found — skipping trace parenting check")
endif()

# Bad flags must fail loudly.
execute_process(COMMAND "${TOOL}" --format=xml RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "invalid --format unexpectedly succeeded")
endif()

# --- URL scrape error contract ------------------------------------------
# A scrape that does not yield HTTP 2xx must exit non-zero: monitoring
# that silently swallows 404s/405s reports an empty-but-green scrape.
if(DEFINED CLI)
  execute_process(
    COMMAND bash -c "'${CLI}' api --port=0 --port-file='${WORK}/port' \
--scratch='${WORK}/indexes' --max-seconds=60 > '${WORK}/api.log' 2>&1 &"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "could not launch sketchlink_cli api")
  endif()
  set(PORT "")
  foreach(attempt RANGE 300)
    if(EXISTS "${WORK}/port")
      file(READ "${WORK}/port" PORT)
      string(STRIP "${PORT}" PORT)
      if(NOT PORT STREQUAL "")
        break()
      endif()
    endif()
    execute_process(COMMAND "${CMAKE_COMMAND}" -E sleep 0.1)
  endforeach()
  if(PORT STREQUAL "")
    message(FATAL_ERROR "api did not publish a port for the URL tests")
  endif()
  set(BASE "http://127.0.0.1:${PORT}")

  # Success baseline: the live endpoint scrapes clean.
  run_tool(--url=${BASE}/metrics)
  if(NOT LAST_OUTPUT MATCHES "# TYPE serve_requests_admitted_total counter")
    message(FATAL_ERROR "live scrape missing serving-plane families")
  endif()

  # 404 (unknown path) and 405 (POST-only route) must both fail hard.
  foreach(bad_path /nope /v1/indexes/x)
    execute_process(COMMAND "${TOOL}" "--url=${BASE}${bad_path}"
                    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
    if(rc EQUAL 0)
      message(FATAL_ERROR "GET ${bad_path} unexpectedly exited 0")
    endif()
  endforeach()

  # Connection refused must also fail hard.
  execute_process(COMMAND "${TOOL}" "--url=http://127.0.0.1:1/metrics"
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(rc EQUAL 0)
    message(FATAL_ERROR "scrape of a closed port unexpectedly exited 0")
  endif()

  run_tool(--url=${BASE}/quitquitquit)
endif()

file(REMOVE_RECURSE "${WORK}")
message(STATUS "metrics_dump smoke test OK")
