# Runs one evc_fuzz cell under a fault profile and --amnesia with --verbose,
# runs the replay command that run printed (with --verbose, so a passing
# replay prints its summary too), and checks that both print the same
# Summary() line: the replay line must carry every flag that changed the
# run's options. ctest passes -DEVC_FUZZ=<path to evc_fuzz>.
execute_process(
  COMMAND "${EVC_FUZZ}" --store=quorum-strict --seed=3 --profile=crash-heavy
          --amnesia --verbose
  OUTPUT_VARIABLE first RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "evc_fuzz exited ${status}:\n${first}")
endif()
string(REGEX MATCH "store=[^\n]*" first_summary "${first}")
if(NOT first MATCHES "replay: ([^\n]*)")
  message(FATAL_ERROR "no replay line in:\n${first}")
endif()
separate_arguments(replay UNIX_COMMAND "${CMAKE_MATCH_1}")
execute_process(COMMAND ${replay} --verbose OUTPUT_VARIABLE second)
string(REGEX MATCH "store=[^\n]*" second_summary "${second}")
if(NOT first_summary STREQUAL second_summary)
  message(FATAL_ERROR "replay diverged:\n  ran:      ${first_summary}\n"
                      "  replayed: ${second_summary}")
endif()
