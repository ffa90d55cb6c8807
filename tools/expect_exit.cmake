# Runs CMD (a ;-list) and succeeds only when its exit code equals EXPECTED.
# ctest's WILL_FAIL accepts ANY nonzero exit, which cannot distinguish the
# fuzz CLI's counterexample contract (exit 4) from an ordinary error (1),
# and PASS_REGULAR_EXPRESSION ignores the exit code. With OUTPUT_REGEX set,
# the combined stdout and stderr must match it as well.
#
#   cmake -DCMD="binary;arg1;arg2" -DEXPECTED=4 [-DOUTPUT_REGEX=<regex>]
#         -P expect_exit.cmake
if(NOT DEFINED CMD OR NOT DEFINED EXPECTED)
  message(FATAL_ERROR "expect_exit.cmake needs -DCMD=... and -DEXPECTED=...")
endif()
execute_process(COMMAND ${CMD} RESULT_VARIABLE actual
                OUTPUT_VARIABLE output ERROR_VARIABLE output)
if(NOT actual EQUAL EXPECTED)
  message(FATAL_ERROR
          "expected exit ${EXPECTED}, got '${actual}'. Output:\n${output}")
endif()
if(DEFINED OUTPUT_REGEX AND NOT output MATCHES "${OUTPUT_REGEX}")
  message(FATAL_ERROR
          "output does not match '${OUTPUT_REGEX}'. Output:\n${output}")
endif()
