# Runs a command and fails unless it exits with the expected status -- for
# CLI tests where any nonzero status (WILL_FAIL) is not specific enough,
# e.g. a model error (exit 2) that must not turn into an abort (exit 134).
#
#   cmake -DEXPECT=2 "-DCMD=pnpv|model.pml|--threads|4" -P expect_exit.cmake
#
# CMD separates the program and its arguments with '|'.
string(REPLACE "|" ";" argv "${CMD}")
execute_process(COMMAND ${argv} RESULT_VARIABLE rc)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "exit status '${rc}', expected ${EXPECT}")
endif()
