# ctest driver for the Cli.* cases in tools/CMakeLists.txt: runs CMD with
# ARGS ('|'-separated) and requires exit status RC, no assertion or
# uncaught-exception text in the output, and EXPECT in it unless empty.
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND ${CMD} ${args}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc STREQUAL "${RC}")
  message(FATAL_ERROR "exit status '${rc}', expected ${RC}:\n${out}")
endif()
if(out MATCHES "TCA_ASSERT|terminate")
  message(FATAL_ERROR "aborted instead of rejecting the input:\n${out}")
endif()
string(FIND "${out}" "${EXPECT}" at)  # an empty EXPECT is found at 0
if(at EQUAL -1)
  message(FATAL_ERROR "output lacks '${EXPECT}':\n${out}")
endif()
