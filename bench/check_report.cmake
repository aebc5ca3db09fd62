# Runs REPORT_BIN with REPORT_ARGS and compares its stdout with the
# concatenation of GOLDEN_DIR/<report>.txt for each name in REPORTS.
# The actual output is kept in OUT for `diff -u` on a mismatch.
#
#   cmake -DREPORT_BIN=... -DREPORT_ARGS=... -DREPORTS=... \
#         -DGOLDEN_DIR=... -DOUT=... -P check_report.cmake
execute_process(COMMAND ${REPORT_BIN} ${REPORT_ARGS}
                OUTPUT_FILE ${OUT}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${REPORT_BIN} ${REPORT_ARGS} exited with ${rc}")
endif()
set(expected "")
foreach(report ${REPORTS})
    file(READ ${GOLDEN_DIR}/${report}.txt golden)
    string(APPEND expected "${golden}")
endforeach()
file(READ ${OUT} actual)
if(NOT actual STREQUAL expected)
    message(FATAL_ERROR "output differs from the goldens of: ${REPORTS}\n"
                        "actual output: ${OUT}")
endif()
