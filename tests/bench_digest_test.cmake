# Pins every figure's output. Runs each figure binary in BENCH_DIR (every
# bench_* except the host-timed bench_perf_simcore; fig6 without its
# google-benchmark timings, which the JSON does not depend on) with its
# output sent to OUT_DIR, then compares the SHA-256 of each
# BENCH_<name>.json, and of fig7's trace, with GOLDEN. A figure that exits
# nonzero, because one of its claims does not hold, fails the test.
#
# Changing a figure's output on purpose: every run writes the full actual
# file to ACTUAL. On a mismatch the test names each file that moved and
# prints the `cp` command that accepts the change; list the moved figures
# in the change description. ctest passes -DBENCH_DIR, -DOUT_DIR, -DGOLDEN
# and -DACTUAL.
cmake_minimum_required(VERSION 3.16)

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
file(GLOB figures "${BENCH_DIR}/bench_*")
list(FILTER figures EXCLUDE REGEX "bench_perf_simcore$")
set(failed "")
foreach(figure IN LISTS figures)
  get_filename_component(name "${figure}" NAME)
  set(args "")
  if(name STREQUAL "bench_fig6_crdt_costs")
    set(args --benchmark_filter=NONE)
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env EVC_BENCH_OUT=${OUT_DIR}
            EVC_TRACE_OUT=${OUT_DIR} "${figure}" ${args}
    OUTPUT_VARIABLE output ERROR_VARIABLE output RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    string(APPEND failed "${name} exited ${status}:\n${output}\n")
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "${failed}")
endif()

file(GLOB outputs RELATIVE "${OUT_DIR}" "${OUT_DIR}/*.json")
set(actual "")
foreach(output IN LISTS outputs)
  file(SHA256 "${OUT_DIR}/${output}" digest)
  string(APPEND actual "${output} ${digest}\n")
endforeach()
file(WRITE "${ACTUAL}" "${actual}")
set(golden "")
if(EXISTS "${GOLDEN}")
  file(READ "${GOLDEN}" golden)
endif()
if(actual STREQUAL golden)
  return()
endif()

string(STRIP "${actual}" actual)
string(STRIP "${golden}" golden)
string(REPLACE "\n" ";" actual_lines "${actual}")
string(REPLACE "\n" ";" golden_lines "${golden}")
set(report "")
foreach(line IN LISTS actual_lines)
  if(NOT line IN_LIST golden_lines)
    string(REGEX REPLACE " .*" "" output "${line}")
    string(APPEND report "  moved: ${output}\n")
  endif()
endforeach()
foreach(line IN LISTS golden_lines)
  string(REGEX REPLACE " .*" "" output "${line}")
  if(NOT output IN_LIST outputs)
    string(APPEND report "  gone:  ${output}\n")
  endif()
endforeach()
message(FATAL_ERROR "bench output moved:\n${report}"
                    "If the change is meant to move it, accept with:\n"
                    "  cp ${ACTUAL} ${GOLDEN}")
