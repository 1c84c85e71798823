# Runs BINARY and fails unless its stdout equals the file EXPECTED byte for
# byte. On a mismatch the actual output is written to ACTUAL so it can be
# diffed by hand:
#   cmake -DBINARY=<exe> -DEXPECTED=<golden.txt> -DACTUAL=<out.txt> \
#         -P cmake/golden_output.cmake
execute_process(COMMAND ${BINARY}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE exit_code)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "${BINARY} exited with ${exit_code}")
endif()
file(READ ${EXPECTED} expected)
if(NOT actual STREQUAL expected)
  file(WRITE ${ACTUAL} "${actual}")
  message(FATAL_ERROR "output of ${BINARY} differs from ${EXPECTED}; "
                      "actual output written to ${ACTUAL}")
endif()
