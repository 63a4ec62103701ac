# ctest driver for the CLI bad-input cases in tools/CMakeLists.txt: runs
# CMD with ARGS ('|'-separated) and requires a clean usage error — exit
# status 2, with no assertion or uncaught-exception text in the output.
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND ${CMD} ${args}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "exit status '${rc}', expected 2:\n${out}")
endif()
if(out MATCHES "TCA_ASSERT|terminate")
  message(FATAL_ERROR "aborted instead of rejecting the input:\n${out}")
endif()
