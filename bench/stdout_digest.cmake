# Runs BENCH [ARGS] and compares the SHA-256 of its stdout to EXPECTED, after
# dropping the "# [<section> took <N> s]" timing lines: the only output that
# differs between two runs of the same bench. The test fails on a non-zero
# exit or a digest mismatch, and prints the digest it observed.
#
#   cmake -DBENCH=<binary> [-DARGS=<argument>] -DEXPECTED=<sha256> -P stdout_digest.cmake
execute_process(COMMAND ${BENCH} ${ARGS} OUTPUT_VARIABLE out RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} ${ARGS} exited with status ${status}")
endif()
string(REGEX REPLACE "\n# \\[[^\n]* took [^\n]* s\\]" "" out "\n${out}")
string(SHA256 digest "${out}")
if(NOT digest STREQUAL EXPECTED)
  message(FATAL_ERROR "stdout digest ${digest}, expected ${EXPECTED}")
endif()
